"""Unit tests for the execution tree, node life-cycle, pins and layers."""

from repro.engine.tree import (
    ExecutionTree,
    NodeLife,
    NodeStatus,
)


class TestNodeLifecycle:
    def test_root_starts_as_materialized_candidate(self):
        tree = ExecutionTree()
        assert tree.root.is_candidate
        assert tree.root.is_materialized

    def test_fig3_transitions(self):
        tree = ExecutionTree()
        node = tree.root.add_child(0)
        node.materialize("state")
        assert node.is_candidate and node.is_materialized
        node.mark_fence()
        assert node.is_fence
        node.mark_candidate()
        node.mark_dead()
        assert node.is_dead
        assert node.state is None  # dead nodes drop their program state

    def test_virtual_to_materialized(self):
        tree = ExecutionTree()
        node = tree.root.add_child(0, status=NodeStatus.VIRTUAL)
        assert node.is_virtual
        node.materialize("state")
        assert node.is_materialized and node.state == "state"

    def test_duplicate_child_rejected(self):
        tree = ExecutionTree()
        tree.root.add_child(0)
        try:
            tree.root.add_child(0)
            assert False, "expected ValueError"
        except ValueError:
            pass


class TestPaths:
    def test_path_from_root_and_descend(self):
        tree = ExecutionTree()
        a = tree.root.add_child(0)
        b = a.add_child(1)
        c = b.add_child(0)
        assert c.path_from_root() == [0, 1, 0]
        assert tree.node_at([0, 1, 0]) is c
        assert tree.node_at([0, 5]) is None
        assert c.root() is tree.root

    def test_ensure_path_creates_virtual_interior(self):
        tree = ExecutionTree()
        leaf = tree.ensure_path([1, 0, 1], status=NodeStatus.VIRTUAL,
                                life=NodeLife.CANDIDATE)
        assert leaf.is_virtual and leaf.is_candidate
        interior = tree.node_at([1])
        assert interior.is_dead and interior.is_virtual

    def test_ensure_path_idempotent(self):
        tree = ExecutionTree()
        first = tree.ensure_path([0, 1])
        second = tree.ensure_path([0, 1])
        assert first is second


class TestCandidateCounts:
    def test_counts_maintained(self):
        tree = ExecutionTree()
        a = tree.root.add_child(0)
        b = tree.root.add_child(1)
        tree.root.mark_dead()
        assert tree.root.candidate_count == 2
        a.mark_dead()
        assert tree.root.candidate_count == 1
        b.mark_fence()
        assert tree.root.candidate_count == 0
        b.mark_candidate()
        assert tree.root.candidate_count == 1

    def test_candidates_listing(self):
        tree = ExecutionTree()
        a = tree.root.add_child(0)
        tree.root.mark_dead()
        assert tree.candidates() == [a]
        assert tree.fences() == []
        a.mark_fence()
        assert tree.fences() == [a]


class TestLayers:
    def test_unfiltered_traversal_is_deterministic(self):
        tree = ExecutionTree()
        a = tree.root.add_child(1)
        b = tree.root.add_child(0)
        order = [n.node_id for n in tree.root.iter_subtree()]
        assert order[0] == tree.root.node_id
        # Children visited in fork-index order regardless of creation order.
        assert order[1] == b.node_id
        assert order[2] == a.node_id
