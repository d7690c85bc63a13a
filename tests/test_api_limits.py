"""Unit tests for the uniform exploration limits (repro.engine.limits)."""

import pytest

from repro.engine.limits import UNLIMITED, ExplorationLimits
from repro.cluster.core import ClusterConfig
from repro.testing.symbolic_test import SymbolicTest

from conftest import branchy_program


class TestExplorationLimits:
    def test_defaults_are_unbounded(self):
        limits = ExplorationLimits()
        assert limits.unbounded
        assert limits.max_paths is None and limits.max_rounds is None
        assert limits.stop_on_first_bug is False

    def test_validation_rejects_negative_budgets(self):
        with pytest.raises(ValueError):
            ExplorationLimits(max_paths=-1)
        with pytest.raises(ValueError):
            ExplorationLimits(max_wall_time=-0.5)
        with pytest.raises(ValueError):
            ExplorationLimits(coverage_target=120.0)

    def test_merged_overrides_only_given_fields(self):
        base = ExplorationLimits(max_paths=10, max_rounds=5)
        merged = base.merged(max_paths=20)
        assert merged.max_paths == 20
        assert merged.max_rounds == 5
        # frozen: the original is untouched
        assert base.max_paths == 10

    def test_merged_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            ExplorationLimits().merged(max_bananas=3)

    def test_pop_from_extracts_limit_fields_and_leaves_the_rest(self):
        options = {"max_paths": 7, "workers": 4, "coverage_target": 50.0}
        limits = ExplorationLimits.pop_from(options)
        assert limits.max_paths == 7
        assert limits.coverage_target == 50.0
        assert options == {"workers": 4}

    def test_pop_from_merges_over_base(self):
        base = ExplorationLimits(max_rounds=100, max_paths=1)
        options = {"max_paths": 9}
        limits = ExplorationLimits.pop_from(options, base=base)
        assert limits.max_paths == 9
        assert limits.max_rounds == 100

    def test_satisfied_by_goals(self):
        limits = ExplorationLimits(max_paths=5, coverage_target=80.0,
                                   stop_on_first_bug=True)
        assert limits.satisfied_by(5, 0.0, 0)
        assert limits.satisfied_by(0, 80.0, 0)
        assert limits.satisfied_by(0, 0.0, 1)
        assert not limits.satisfied_by(4, 79.9, 0)
        # budgets are not goals
        assert not ExplorationLimits(max_rounds=3).satisfied_by(100, 100.0, 5)

    def test_repr_names_only_set_fields(self):
        assert "unbounded" in repr(ExplorationLimits())
        text = repr(ExplorationLimits(max_paths=3))
        assert "max_paths=3" in text and "max_rounds" not in text

    def test_as_dict_round_trips(self):
        limits = ExplorationLimits(max_steps=1, max_wall_time=2.5,
                                   stop_on_first_bug=True)
        assert ExplorationLimits(**limits.as_dict()) == limits


class TestOneLimitsMerge:
    """``executor.run`` and ``cluster.run`` fold loose limit fields over
    ``limits=`` through ``pop_from``, exactly as ``test.run`` does."""

    @staticmethod
    def _runs():
        test = SymbolicTest("t", branchy_program(2), use_posix_model=False)
        executor = test.build_executor()
        cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=5))
        return [
            ("executor", lambda **kw: executor.run(
                initial_state=test.build_initial_state(executor), **kw)),
            ("cluster", cluster.run),
        ]

    def test_no_limits_is_unlimited(self):
        assert ExplorationLimits.pop_from({}) == UNLIMITED
        for name, run in self._runs():
            assert run().exhausted, name

    def test_loose_field_overrides_the_bundle(self):
        bundle = ExplorationLimits(max_paths=1)
        for name, run in self._runs():
            result = run(limits=bundle, max_paths=4)
            assert result.paths_completed >= 4 and result.goal_reached, name
            assert not result.exhausted, name

    def test_bundle_fields_not_overridden_still_apply(self):
        bundle = ExplorationLimits(max_paths=2, max_steps=10_000,
                                   max_rounds=10_000)
        for name, run in self._runs():
            result = run(limits=bundle, max_instructions=10_000)
            assert 2 <= result.paths_completed < 9 and result.goal_reached, name

    def test_unknown_field_is_a_type_error_naming_it(self):
        for name, run in self._runs():
            with pytest.raises(TypeError, match="max_bananas"):
                run(max_bananas=3)
            with pytest.raises(TypeError, match="coverage_goal"):
                run(limits=ExplorationLimits(max_paths=1), coverage_goal=50.0)
