"""Table 4: the range of real-world software that runs on Cloud9.

Paper result: Cloud9's POSIX model is complete enough to test web servers,
a distributed object cache, a language interpreter, network utilities,
compression tools, libraries and system utilities (Table 4 lists the
selection with sizes in KLOC).

Reproduction: every modeled target in ``repro.targets`` is executed under
the engine + POSIX model and must explore at least one complete path without
engine-level errors -- the reproduction's analogue of "runs on Cloud9".
"""

from repro.targets import (
    bandicoot,
    coreutils,
    curl,
    ghttpd,
    httpd,
    libevent,
    lighttpd,
    memcached,
    pbzip,
    printf,
    prodcons,
    rsync,
    testcmd,
)

from conftest import print_table


def _target_catalogue():
    """(name, type of software, SymbolicTest) rows mirroring Table 4."""
    return [
        ("Apache httpd (model)", "Web server",
         httpd.make_concrete_test()),
        ("lighttpd (model)", "Web server",
         lighttpd.make_fragmentation_test(lighttpd.VERSION_FIXED,
                                          lighttpd.PATTERN_WHOLE)),
        ("ghttpd (model)", "Web server",
         ghttpd.make_concrete_test(version=ghttpd.VERSION_FIXED)),
        ("memcached (model)", "Distributed object cache",
         memcached.make_concrete_suite_test()),
        ("curl (model)", "Network utility",
         curl.make_globbing_test(symbolic_suffix=1)),
        ("rsync (model)", "Network utility",
         rsync.make_concrete_test()),
        ("pbzip (model)", "Compression utility",
         pbzip.make_concrete_test()),
        ("libevent (model)", "Event notification library",
         libevent.make_concrete_test()),
        ("printf (model)", "UNIX utility",
         printf.make_symbolic_test(format_length=2)),
        ("test (model)", "UNIX utility",
         testcmd.make_symbolic_test()),
        ("coreutils suite (16 tools)", "Suite of system utilities",
         coreutils.make_utility_test("echo", input_size=3)),
        ("bandicoot (model)", "Lightweight DBMS",
         bandicoot.make_get_exploration_test()),
        ("producer-consumer", "Multi-threaded/multi-process benchmark",
         prodcons.make_benchmark_test()),
    ]


def _run_all():
    # Every target of the catalogue runs under one shared path budget.
    rows = []
    for name, kind, test in _target_catalogue():
        result = test.run(max_paths=100)
        rows.append((name, kind, test.line_count,
                     result.paths_completed,
                     round(result.coverage_percent, 1),
                     "yes" if result.paths_completed >= 1 else "no"))
    return rows


def test_table4_every_target_runs_under_the_posix_model():
    rows = _run_all()
    print_table(
        "Table 4 -- modeled testing targets running on the reproduction",
        ["target", "type of software", "model size (lines)",
         "paths explored", "line coverage %", "runs"],
        rows)
    assert all(row[5] == "yes" for row in rows)
