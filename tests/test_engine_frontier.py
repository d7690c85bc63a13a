"""The frontier and its weight index, against a plain list model.

``Frontier`` promises iteration in ``node_id`` order whatever the order of
adds; ``WeightIndex`` promises the pick a float scan over the same weights
would make.  The model here is that scan over a sorted list.  The last two
classes pin what the index is *for*: memory bounded by the live frontier and
a number of weight evaluations that does not grow with the frontier.
"""

import sys

from hypothesis import example, given, settings, strategies as st

from repro.distrib import specs
from repro.engine.frontier import Frontier, WeightIndex
from repro.engine.state import ExecutionState
from repro.engine.strategies import (
    CoverageOptimizedStrategy,
    DfsStrategy,
    InterleavedStrategy,
    RandomPathStrategy,
)
from repro.engine.tree import TreeNode


def scan_pick(members, weight_of, point):
    """The reference: first member, in id order, whose cumulative weight
    reaches ``point`` (the loop the coverage-optimised strategy used to run)."""
    ordered = sorted(members, key=lambda n: n.node_id)
    cumulative = 0.0
    for node in ordered:
        cumulative += float(weight_of[node.node_id])
        if point <= cumulative:
            return node
    return ordered[-1]


class TestFrontierOrder:
    def test_iterates_in_id_order_whatever_the_insertion_order(self):
        nodes = [TreeNode() for _ in range(6)]
        frontier = Frontier()
        for position in (3, 0, 5, 1):
            frontier.add(nodes[position])
        assert list(frontier) == [nodes[0], nodes[1], nodes[3], nodes[5]]
        assert list(reversed(frontier)) == [nodes[5], nodes[3], nodes[1], nodes[0]]
        assert frontier.first() is nodes[0] and frontier.last() is nodes[5]
        frontier.add(nodes[2])
        frontier.discard(nodes[0])
        assert list(frontier) == [nodes[1], nodes[2], nodes[3], nodes[5]]
        assert frontier.first() is nodes[1]

    def test_membership_length_and_idempotence(self):
        a, b = TreeNode(), TreeNode()
        frontier = Frontier()
        assert not frontier and len(frontier) == 0
        frontier.add(a)
        frontier.add(a)
        assert len(frontier) == 1 and a in frontier and b not in frontier
        frontier.discard(b)
        frontier.discard(a)
        frontier.discard(a)
        assert not frontier and a not in frontier

    def test_an_index_attached_late_sees_the_members_already_there(self):
        nodes = [TreeNode() for _ in range(4)]
        frontier = Frontier()
        for node in nodes:
            frontier.add(node)
        index = WeightIndex(frontier, lambda node: 3)
        assert index.total() == 12
        assert index.pick(3.5) is nodes[1]


POOL = 24
OPS = st.lists(
    st.tuples(st.sampled_from(["add", "discard", "move", "grow"]),
              st.integers(0, POOL - 1), st.integers(1, 16)),
    max_size=120)


class TestWeightIndexAgainstTheScan:
    def _check(self, frontier, index, members, weight_of, fractions):
        assert list(frontier) == sorted(members, key=lambda n: n.node_id)
        total = index.total()
        assert total == sum(weight_of[n.node_id] for n in members)
        if not members:
            return
        assert frontier.first() is min(members, key=lambda n: n.node_id)
        assert frontier.last() is max(members, key=lambda n: n.node_id)
        points = [0.0, float(total), 1.0, total - 0.5, 0.5]
        points += [fraction * total for fraction in fractions]
        # Every boundary between two members, and a hair either side of it.
        cumulative = 0
        for node in sorted(members, key=lambda n: n.node_id):
            cumulative += weight_of[node.node_id]
            points += [float(cumulative), cumulative - 1e-9,
                       min(cumulative + 1e-9, float(total))]
        for point in points:
            assert index.pick(point) is scan_pick(members, weight_of, point), point

    @settings(max_examples=150)
    @given(ops=OPS, fractions=st.lists(st.floats(0.0, 1.0), max_size=4))
    # The lowest ids all removed, then a pick of 0.0 and of the total.
    @example(ops=[("add", i, 2) for i in range(20)]
             + [("discard", i, 1) for i in range(15)], fractions=[0.0, 1.0])
    # A revived old node lands in the middle of the slot order.
    @example(ops=[("add", 5, 1), ("add", 9, 4), ("add", 2, 16), ("move", 9, 1)],
             fractions=[0.3])
    def test_random_histories(self, ops, fractions):
        pool = [TreeNode() for _ in range(POOL)]
        weight_of = {node.node_id: 1 for node in pool}
        frontier = Frontier()
        index = WeightIndex(frontier, lambda node: weight_of[node.node_id])
        members = []
        for op, position, weight in ops:
            node = pool[position]
            if op == "add":
                if node not in members:
                    weight_of[node.node_id] = weight
                    members.append(node)
                frontier.add(node)
            elif op == "discard":
                frontier.discard(node)
                if node in members:
                    members.remove(node)
            elif op == "move":
                # The node's state moved: only a member's weight may change
                # without the index being invalidated.
                if node in members:
                    weight_of[node.node_id] = weight
                frontier.moved(node)
            else:
                # Coverage grew: every weight may change at once.
                for other in pool:
                    weight_of[other.node_id] = 1 + (
                        weight_of[other.node_id] + weight) % 16
                index.invalidate()
            self._check(frontier, index, members, weight_of, fractions)

    def test_two_indexes_on_one_frontier_both_follow_it(self):
        nodes = [TreeNode() for _ in range(8)]
        frontier = Frontier()
        light = WeightIndex(frontier, lambda node: 1)
        heavy = WeightIndex(frontier, lambda node: 5)
        for node in nodes:
            frontier.add(node)
        assert (light.total(), heavy.total()) == (8, 40)
        for node in nodes[:3]:
            frontier.discard(node)
        assert (light.total(), heavy.total()) == (5, 25)
        assert light.pick(0.0) is nodes[3] and heavy.pick(25.0) is nodes[7]


def _containers(obj):
    return {name: value for name, value in vars(obj).items()
            if isinstance(value, (list, dict, set))}


class TestBoundedMemory:
    """The regression test for a change record that grows with the run (an
    append-only journal of touched nodes cost +10 % RSS on ``lighttpd_dfs``)."""

    def test_dfs_keeps_nothing_beyond_the_live_frontier(self):
        class SpyDfs(DfsStrategy):
            frontier = None

            def select(self, tree, candidates):
                self.frontier = candidates
                return super().select(tree, candidates)

        strategy = SpyDfs()
        test = specs.resolve_test("lighttpd-frag-1.4.12")
        result = test.run(backend="single", strategy=strategy, max_steps=20_000)
        assert result.steps == 20_000
        frontier = strategy.frontier
        live = len(frontier)
        assert live == result.states_remaining
        assert frontier._indexes == []
        for name, value in _containers(frontier).items():
            assert len(value) <= live, name
        assert sys.getsizeof(frontier._nodes) <= 4096 + 256 * live

    def test_an_index_holds_at_most_two_slots_per_live_member(self):
        class Checking(InterleavedStrategy):
            frontier = None
            peak = 0

            def select(self, tree, candidates):
                self.frontier = candidates
                self.peak = max(self.peak, len(candidates))
                for index in candidates._indexes:
                    for name, value in _containers(index).items():
                        assert len(value) <= 2 * len(candidates) + 18, name
                return super().select(tree, candidates)

        test = specs.resolve_test("printf", format_length=3)
        strategy = Checking([
            RandomPathStrategy(0),
            CoverageOptimizedStrategy(1, program=test.program)])
        result = test.run(backend="single", strategy=strategy)
        assert result.exhausted and result.steps > 5000 and strategy.peak > 50
        frontier = strategy.frontier
        assert len(frontier) == 0 and len(frontier._indexes) == 1
        for name, value in _containers(frontier._indexes[0]).items():
            assert len(value) <= 18, name


class TestSelectionCost:
    def test_weight_evaluations_do_not_scale_with_the_frontier(self, monkeypatch):
        """printf_single's unit: 15 000 selects over a frontier peaking at 337
        used to weigh 1 767 011 nodes.  A node is weighed when it is added or
        stepped, and the frontier only when coverage actually grew."""
        counts = dict(evals=0, selects=0, forks=0, growth=0, peak=0)

        real_weight = CoverageOptimizedStrategy._weight
        real_notify = CoverageOptimizedStrategy.notify_covered
        real_select = InterleavedStrategy.select
        real_fork = ExecutionState.fork

        def weight(self, node):
            counts["evals"] += 1
            return real_weight(self, node)

        def notify_covered(self, lines):
            known = len(self._covered)
            real_notify(self, lines)
            counts["growth"] += len(self._covered) != known

        def select(self, tree, candidates):
            counts["selects"] += 1
            counts["peak"] = max(counts["peak"], len(candidates))
            return real_select(self, tree, candidates)

        def fork(self):
            counts["forks"] += 1
            return real_fork(self)

        monkeypatch.setattr(CoverageOptimizedStrategy, "_weight", weight)
        monkeypatch.setattr(CoverageOptimizedStrategy, "notify_covered",
                            notify_covered)
        monkeypatch.setattr(InterleavedStrategy, "select", select)
        monkeypatch.setattr(ExecutionState, "fork", fork)

        test = specs.resolve_test("printf", format_length=4)
        result = test.run(backend="single", max_instructions=15_000)
        assert result.useful_instructions == 15_000
        assert counts["selects"] == 15_000 and counts["peak"] > 300
        assert counts["forks"] > 500 and counts["growth"] > 10
        bound = 2 * (counts["selects"] + counts["forks"]
                     + counts["growth"] * counts["peak"])
        assert counts["evals"] < bound, counts
