"""Unit tests for the symbolic testing platform (SymbolicTest, reports)."""

import pytest

from repro.distrib import specs
from repro.solver.solver import SolverConfig
from repro.testing.symbolic_test import SymbolicTest
from repro.testing.report import CoverageAccounting

from conftest import BUILTIN_SPECS, branchy_program, single_branch_program


class TestSymbolicTest:
    def test_run_on_one_engine(self):
        test = SymbolicTest("t", single_branch_program())
        result = test.run()
        assert result.paths_completed == 2

    def test_run_on_a_cluster(self):
        test = SymbolicTest("t", branchy_program(2))
        result = test.run(backend="cluster", workers=3, instructions_per_round=50)
        assert result.paths_completed == 9

    def test_options_reach_the_state(self):
        test = SymbolicTest("t", single_branch_program(),
                            options={"max_instructions": 10_000})
        executor = test.build_executor()
        state = test.build_initial_state(executor)
        assert state.options["max_instructions"] == 10_000

    def test_setup_callback_runs(self):
        seen = []

        def setup(state):
            seen.append(state.state_id)
            state.options["custom"] = True

        test = SymbolicTest("t", single_branch_program(), setup=setup)
        executor = test.build_executor()
        state = test.build_initial_state(executor)
        assert seen and state.options["custom"]

    def test_solver_config_respected(self):
        """A test's ``solver_config`` reaches the executor a run solves with."""
        def run(solver_config=None):
            test = specs.resolve_test("printf", format_length=2)
            if solver_config is not None:
                test.solver_config = solver_config
            return test.run(max_steps=400)
        assert run().cache_stats["independence_groups"] > 0
        no_independence = run(SolverConfig(use_independence=False))
        assert no_independence.cache_stats["independence_groups"] == 0

    def test_posix_model_optional(self):
        test = SymbolicTest("t", single_branch_program(), use_posix_model=False)
        executor = test.build_executor()
        assert "read" not in executor.natives.names()
        test_posix = SymbolicTest("t", single_branch_program())
        assert "read" in test_posix.build_executor().natives.names()

    def test_line_count_exposed(self):
        test = SymbolicTest("t", single_branch_program())
        assert test.line_count > 0


#: Each stock spec's per-path instruction limit (the hang detector), as
#: resolved with its default parameters; ``None``: it has none.  Every
#: ``coreutils-*`` spec has 50 000.
SPEC_LIMITS = {
    "bandicoot": 20_000, "curl-glob": 20_000, "prodcons": 20_000,
    "ghttpd": 100_000, "memcached-fault": 100_000, "testcmd": 100_000,
    "httpd-header": 200_000, "libevent": 200_000,
    "memcached-packets": 200_000, "printf": 200_000,
    "pbzip": 400_000, "rsync": 400_000,
    "lighttpd-frag-1.4.12": 50_000, "lighttpd-frag-1.4.13": 50_000,
    "lighttpd-frag-fixed": 50_000,
    "memcached-udp-hang": 2_000,
    "httpd-fault": None, "memcached-binary": None,
}


@pytest.mark.parametrize("name", BUILTIN_SPECS)
def test_every_spec_keeps_its_instruction_limit(name):
    """The limit is a state option the test carries, so it reaches every
    backend's initial state; no spec lost or gained one."""
    limit = 50_000 if name.startswith("coreutils-") else SPEC_LIMITS[name]
    assert specs.resolve_test(name).options.get("max_instructions") == limit


class TestCoverageAccounting:
    def test_table5_style_bookkeeping(self):
        accounting = CoverageAccounting(line_count=100)
        accounting.add_method("entire test suite", paths=10,
                              covered_lines=range(0, 80), baseline=True)
        accounting.add_method("symbolic packets", paths=500,
                              covered_lines=list(range(40, 85)))
        assert accounting.baseline_percent() == 80.0
        assert accounting.cumulated_percent("symbolic packets") == 85.0
        assert accounting.increase_over_baseline("symbolic packets") == pytest.approx(5.0)

    def test_format_table_mentions_all_methods(self):
        accounting = CoverageAccounting(line_count=10)
        accounting.add_method("base", paths=1, covered_lines=[1], baseline=True)
        accounting.add_method("extra", paths=2, covered_lines=[2])
        table = accounting.format_table()
        assert "base" in table and "extra" in table

    def test_zero_line_count(self):
        accounting = CoverageAccounting(line_count=0)
        accounting.add_method("m", paths=0, covered_lines=[])
        assert accounting.cumulated_percent("m") == 0.0
