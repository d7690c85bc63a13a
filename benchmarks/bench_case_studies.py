"""Case studies §7.3.2 / §7.3.3 / §7.3.5: curl, memcached UDP hang, Bandicoot.

These are the paper's bug-finding case studies that do not come with a table
or figure; the harness regenerates the qualitative result of each one (the
bug is found, with a concrete reproducer) and reports the exploration cost.

* curl: crash on a URL with an unmatched glob brace (confirmed & fixed
  upstream within 24 hours, per the paper).
* memcached: infinite loop in UDP packet handling, found by bounding the
  instructions per path.
* Bandicoot: read from outside allocated memory while handling GET commands,
  found by exhaustive exploration.
"""

from repro.engine import BugKind
from repro.targets import bandicoot, curl, memcached

from conftest import print_table


def _run_case_studies():
    # The three case studies, one run each.
    curl_result = curl.make_globbing_test().run()
    udp_result = memcached.make_udp_hang_test().run()
    bandicoot_result = bandicoot.make_get_exploration_test().run()

    rows = []

    curl_bugs = [b for b in curl_result.bugs if b.kind == BugKind.MEMORY_ERROR]
    reproducer = (curl_bugs[0].test_case.input_bytes("url_suffix")
                  if curl_bugs and curl_bugs[0].test_case else b"")
    rows.append(("curl URL globbing (7.3.2)", "memory error",
                 len(curl_bugs) > 0, curl_result.paths_completed,
                 repr(reproducer)))

    hangs = [b for b in udp_result.bugs if b.kind == BugKind.INFINITE_LOOP]
    datagram = (hangs[0].test_case.input_bytes("datagram0")
                if hangs and hangs[0].test_case else b"")
    rows.append(("memcached UDP handling (7.3.3)", "infinite loop / hang",
                 len(hangs) > 0, udp_result.paths_completed, repr(datagram)))

    oob = [b for b in bandicoot_result.bugs if b.kind == BugKind.MEMORY_ERROR]
    query = (oob[0].test_case.input_bytes("query")
             if oob and oob[0].test_case else b"")
    rows.append(("Bandicoot GET handling (7.3.5)", "out-of-bounds read",
                 len(oob) > 0, bandicoot_result.paths_completed, repr(query)))

    return rows


def test_case_studies_bugs_rediscovered():
    rows = _run_case_studies()
    print_table(
        "Case studies -- bugs rediscovered by symbolic testing",
        ["case study", "bug class", "found", "paths explored",
         "generated reproducer input"],
        rows)
    assert all(row[2] for row in rows), "every case-study bug must be rediscovered"
