"""Tests for the case-study targets: curl, Bandicoot, memcached UDP hang,
lighttpd fragmentation (the paper's §7.3 case studies)."""

import pytest

from repro.engine import BugKind
from repro.targets import bandicoot, curl, lighttpd, memcached


class TestCurl(object):
    """§7.3.2: unmatched glob brace crashes curl."""

    def test_symbolic_suffix_finds_the_unmatched_brace_crash(self):
        result = curl.make_globbing_test().run()
        memory_errors = [b for b in result.bugs if b.kind == BugKind.MEMORY_ERROR]
        assert memory_errors
        # At least one crashing test case contains an unmatched glob opener.
        crashing_inputs = [b.test_case.input_bytes("url_suffix")
                           for b in memory_errors if b.test_case is not None]
        assert any(b"{" in data or b"[" in data for data in crashing_inputs)

    def test_well_formed_urls_do_not_crash(self):
        result = curl.make_globbing_test(symbolic_suffix=0).run()
        assert not result.bugs

    def test_reported_crashing_url_shape(self):
        assert curl.crashing_url().endswith(b"{")


class TestBandicoot(object):
    """§7.3.5: out-of-bounds read in GET handling."""

    def test_exhaustive_get_exploration_finds_oob_read(self):
        result = bandicoot.make_get_exploration_test().run()
        assert result.exhausted
        assert any(b.kind == BugKind.MEMORY_ERROR for b in result.bugs)

    def test_crash_requires_oversized_count(self):
        result = bandicoot.make_get_exploration_test().run()
        for bug in result.bugs:
            if bug.kind != BugKind.MEMORY_ERROR or bug.test_case is None:
                continue
            query = bug.test_case.input_bytes("query")
            # The count digit must exceed the smaller relation's cardinality.
            count = query[4] - ord("0")
            assert count > bandicoot.RELATION_B_TUPLES


class TestMemcachedUdpHang(object):
    """§7.3.3: infinite loop on certain UDP datagrams."""

    def test_hang_detected_via_instruction_limit(self):
        result = memcached.make_udp_hang_test().run()
        hangs = [b for b in result.bugs if b.kind == BugKind.INFINITE_LOOP]
        assert hangs

    def test_hang_input_contains_zero_size_record(self):
        result = memcached.make_udp_hang_test().run()
        for bug in result.bugs:
            if bug.kind == BugKind.INFINITE_LOOP and bug.test_case is not None:
                datagram = bug.test_case.input_bytes("datagram0")
                assert 0 in datagram

    def test_healthy_paths_terminate_quickly(self):
        result = memcached.make_udp_hang_test().run()
        healthy = [t for t in result.test_cases if not t.is_error]
        assert healthy
        assert all(t.path_length < 2_000 for t in healthy)


class TestLighttpdTable6(object):
    """§7.3.4 / Table 6: behaviour of each version under each fragmentation."""

    def _verdict(self, version, pattern):
        result = lighttpd.make_fragmentation_test(version, pattern).run()
        crashed = any(b.kind in (BugKind.MEMORY_ERROR, BugKind.ASSERTION_FAILURE)
                      for b in result.bugs)
        return "crash" if crashed else "ok"

    def test_whole_request_ok_everywhere(self):
        for version in (lighttpd.VERSION_1_4_12, lighttpd.VERSION_1_4_13,
                        lighttpd.VERSION_FIXED):
            assert self._verdict(version, lighttpd.PATTERN_WHOLE) == "ok"

    def test_split_terminator_crashes_only_prepatch(self):
        assert self._verdict(lighttpd.VERSION_1_4_12,
                             lighttpd.PATTERN_SPLIT_TERMINATOR) == "crash"
        assert self._verdict(lighttpd.VERSION_1_4_13,
                             lighttpd.PATTERN_SPLIT_TERMINATOR) == "ok"
        assert self._verdict(lighttpd.VERSION_FIXED,
                             lighttpd.PATTERN_SPLIT_TERMINATOR) == "ok"

    def test_many_small_fragments_crash_both_released_versions(self):
        assert self._verdict(lighttpd.VERSION_1_4_12,
                             lighttpd.PATTERN_MANY_SMALL) == "crash"
        assert self._verdict(lighttpd.VERSION_1_4_13,
                             lighttpd.PATTERN_MANY_SMALL) == "crash"
        assert self._verdict(lighttpd.VERSION_FIXED,
                             lighttpd.PATTERN_MANY_SMALL) == "ok"

    def test_symbolic_fragmentation_finds_prepatch_crash(self):
        test = lighttpd.make_symbolic_fragmentation_test(
            lighttpd.VERSION_1_4_12, frag_choice_limit=2)
        result = test.run(max_paths=200)
        assert any(b.kind == BugKind.MEMORY_ERROR for b in result.bugs)

    def test_symbolic_fragmentation_proves_fix_incomplete(self):
        # Scaled-down bookkeeping (3 slots) keeps the search small while
        # preserving the bug structure of 1.4.13: enough fragments overflow
        # the per-request chunk array.
        test = lighttpd.make_symbolic_fragmentation_test(
            lighttpd.VERSION_1_4_13, bookkeeping_slots=3, frag_choice_limit=2)
        result = test.run(max_paths=400)
        assert any(b.kind == BugKind.MEMORY_ERROR for b in result.bugs)

    def test_symbolic_fragmentation_fixed_version_clean(self):
        test = lighttpd.make_symbolic_fragmentation_test(
            lighttpd.VERSION_FIXED, bookkeeping_slots=3, frag_choice_limit=2)
        result = test.run(max_paths=400)
        assert not result.bugs
