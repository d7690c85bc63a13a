"""Unit tests for the execution tree, node life-cycle, pins and layers."""

from hypothesis import given, settings, strategies as st

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
        assert list(tree.frontier) == [a]
        assert tree.fences() == []
        a.mark_fence()
        assert list(tree.frontier) == []
        assert tree.fences() == [a]


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["add_child", "ensure_path", "mark_candidate",
                         "mark_dead", "mark_fence"]),
        # The node acted on, as an index into the tree in depth-first order.
        st.integers(0, 63),
        # A fork index (add_child takes the first) or a path below the node.
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
        st.sampled_from(list(NodeLife))),
    max_size=40)


class TestFrontierFollowsLife:
    """The tree's frontier is its candidates after every step, not only when
    someone checks: the one place candidacy changes keeps both books."""

    @settings(max_examples=300)
    @given(STEPS)
    def test_the_frontier_is_the_candidates_after_every_step(self, steps):
        tree = ExecutionTree()
        for name, which, path, life in steps:
            nodes = list(tree.root.iter_subtree())
            node = nodes[which % len(nodes)]
            if name == "add_child":
                if path[0] not in node.children:
                    node.add_child(path[0], life=life)
            elif name == "ensure_path":
                tree.ensure_path(node.path_from_root() + path, life=life)
            else:
                getattr(node, name)()
            nodes = list(tree.root.iter_subtree())
            candidates = sorted((n for n in nodes if n.is_candidate),
                                key=lambda n: n.node_id)
            assert list(tree.frontier) == candidates
            assert len(tree.frontier) == len(candidates)
            for member in nodes:
                assert member.candidate_count == sum(
                    1 for n in member.iter_subtree() if n.is_candidate)


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
