"""Tests for the Table-4 target models added on top of the case-study set:
ghttpd, Apache httpd, rsync, pbzip and libevent."""

import pytest

from repro.engine.errors import BugKind
from repro.targets import ghttpd, httpd, libevent, pbzip, rsync


class TestGhttpd:
    def test_concrete_request_is_served(self):
        result = ghttpd.make_concrete_test().run()
        assert result.paths_completed >= 1
        assert result.test_cases[0].exit_code == 1
        assert not result.bugs

    def test_concrete_unknown_path_is_not_found(self):
        result = ghttpd.make_concrete_test(path=b"/nope").run()
        assert result.test_cases[0].exit_code == 2
        assert not result.bugs

    def test_long_concrete_path_overflows_only_vulnerable_version(self):
        vulnerable = ghttpd.make_concrete_test(
            version=ghttpd.VERSION_VULNERABLE, path=b"/missing.html").run()
        fixed = ghttpd.make_concrete_test(
            version=ghttpd.VERSION_FIXED, path=b"/missing.html").run()
        assert any(b.kind == BugKind.MEMORY_ERROR for b in vulnerable.bugs)
        assert not fixed.bugs

    def test_fixed_version_never_overflows(self):
        test = ghttpd.make_symbolic_test(version=ghttpd.VERSION_FIXED,
                                         path_length=10)
        result = test.run(max_steps=6000)
        assert not any(b.kind == BugKind.MEMORY_ERROR for b in result.bugs)

    def test_vulnerable_version_overflows_on_long_path(self):
        test = ghttpd.make_symbolic_test(version=ghttpd.VERSION_VULNERABLE,
                                         path_length=10)
        result = test.run(max_steps=20000, strategy="dfs")
        memory_bugs = [b for b in result.bugs if b.kind == BugKind.MEMORY_ERROR]
        assert memory_bugs, "the log-buffer overflow was not found"

    def test_overflow_reproducer_is_a_long_slash_path(self):
        test = ghttpd.make_symbolic_test(version=ghttpd.VERSION_VULNERABLE,
                                         path_length=10)
        result = test.run(max_steps=20000, strategy="dfs")
        memory_bugs = [b for b in result.bugs if b.kind == BugKind.MEMORY_ERROR]
        assert memory_bugs
        bug = memory_bugs[0]
        assert bug.test_case is not None
        path_bytes = bug.test_case.inputs.get("path")
        assert path_bytes is not None
        # The reproducer starts with '/' and has more non-terminator bytes
        # than the log buffer can hold.
        assert path_bytes[0:1] == b"/"


class TestHttpd:
    def test_concrete_request_parses(self):
        result = httpd.make_concrete_test(header_value=b"c7").run()
        assert result.test_cases[0].exit_code == 3
        assert not result.bugs

    def test_concrete_request_high_compression_level(self):
        result = httpd.make_concrete_test(header_value=b"c12").run()
        assert result.test_cases[0].exit_code == 2

    def test_symbolic_header_explores_every_mode(self):
        test = httpd.make_symbolic_header_test(value_length=2)
        result = test.run(max_steps=20000)
        codes = {tc.exit_code for tc in result.test_cases}
        # All three recognised modes plus the unknown-mode fallback appear.
        assert {1, 7}.issubset(codes)
        assert codes & {2, 3}
        assert codes & {5, 6}

    def test_symbolic_header_finds_division_by_zero_in_buggy_version(self):
        test = httpd.make_symbolic_header_test(value_length=2, buggy=True)
        result = test.run(max_steps=20000)
        assert any(b.kind == BugKind.DIVISION_BY_ZERO for b in result.bugs)

    def test_fixed_extension_has_no_division_by_zero(self):
        test = httpd.make_symbolic_header_test(value_length=2, buggy=False)
        result = test.run(max_steps=20000)
        assert not any(b.kind == BugKind.DIVISION_BY_ZERO for b in result.bugs)

    def test_fragmented_request_still_parses(self):
        for pattern in ([7, 40], [1] * 5 + [42], [13, 13, 21]):
            test = httpd.make_fragmentation_test(pattern, header_value=b"n")
            result = test.run()
            assert result.test_cases[0].exit_code == 1, pattern
            assert not result.bugs

    def test_fault_injection_forks_read_failures(self):
        test = httpd.make_fault_injection_test(header_value=b"n")
        result = test.run(max_steps=20000)
        # With fault injection the request may be cut short (exit 200/201/255
        # family) as well as fully parsed (exit 1).
        codes = {tc.exit_code for tc in result.test_cases}
        assert 1 in codes
        assert len(codes) > 1
        assert result.paths_completed > 1


class TestRsync:
    def test_identical_files_produce_copy_only_delta(self):
        result = rsync.make_concrete_test().run()
        # Two blocks, two COPY tokens, two bytes each.
        assert result.test_cases[0].exit_code == 4
        assert not result.bugs

    def test_fully_different_file_still_reconstructs(self):
        result = rsync.make_concrete_test(new=b"zzzzzzzz").run()
        assert not result.bugs
        # Every byte became a literal: 2 bytes per input byte.
        assert result.test_cases[0].exit_code == 16

    def test_reconstruction_invariant_holds_for_symbolic_byte(self):
        test = rsync.make_symbolic_test(symbolic_bytes=1)
        result = test.run(max_steps=60000)
        assert result.paths_completed > 1
        assert not result.bugs, [str(b) for b in result.bugs]

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            rsync.make_concrete_test(new=b"short")


class TestPbzip:
    def test_concrete_compression_roundtrip(self):
        result = pbzip.make_concrete_test(contents=b"aaabbb").run()
        assert not result.bugs
        # Both blocks are single runs: (3,'a') and (3,'b') -> 4 output bytes.
        assert result.test_cases[0].exit_code == 4

    def test_incompressible_input_roundtrip(self):
        result = pbzip.make_concrete_test(contents=b"abcdef").run()
        assert not result.bugs
        assert result.test_cases[0].exit_code == 12

    def test_symbolic_byte_roundtrip_all_paths(self):
        test = pbzip.make_symbolic_test(contents=b"aaabbb", symbolic_bytes=1)
        result = test.run(max_steps=80000)
        assert result.paths_completed >= 2
        assert not result.bugs, [str(b) for b in result.bugs]

    def test_wrong_size_input_is_rejected(self):
        with pytest.raises(ValueError):
            pbzip.make_concrete_test(contents=b"ab")


class TestLibevent:
    def test_concrete_dispatch_fires_both_events(self):
        result = libevent.make_concrete_test().run()
        assert not result.bugs
        assert result.test_cases[0].exit_code == 2

    def test_symbolic_trigger_covers_both_dispatch_counts(self):
        test = libevent.make_symbolic_test()
        result = test.run(max_steps=30000)
        assert not result.bugs, [str(b) for b in result.bugs]
        codes = {tc.exit_code for tc in result.test_cases}
        assert codes == {1, 2}

    def test_dispatcher_invariants_hold_on_all_paths(self):
        test = libevent.make_symbolic_test()
        result = test.run(max_steps=30000)
        assert result.paths_completed >= 2
        assert not any(b.kind == BugKind.ASSERTION_FAILURE for b in result.bugs)
