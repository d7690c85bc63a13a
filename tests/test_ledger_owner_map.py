"""The frontier ledger against a brute-force owner map.

Every path of a bounded binary tree (depth <= 5) has its owner written down
in a plain dict, and random sequences of the two events the coordinator books
-- a job moving between members, and a member dying with its territory taken
over by survivors -- are applied to both the ledger and the dict.  After
every event (i) each path has at most one covering member and the ledger
agrees with the dict everywhere, (ii) a move changes the owner of exactly
the paths its source held under the moved root, (iii) a dead member's
recovery jobs, roots minus fences, cover exactly the paths it owned, each
once, and (iv) a takeover gives each of those paths to its job's taker and
leaves every other path's owner alone.  The trie itself must stay
canonical: no label equal to the one it inherits, no empty leaf.
"""

from itertools import product
from typing import Dict, List, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.cluster.ledger import NOBODY, FrontierLedger

Path = Tuple[int, ...]

DEPTH = 5
PATHS: List[Path] = [p for depth in range(DEPTH + 1)
                     for p in product((0, 1), repeat=depth)]
MEMBERS = (1, 2, 3, 4, 5, 6)


def _under(path: Path, root: Path) -> bool:
    return path[:len(root)] == root


def _owners(ledger: FrontierLedger) -> Dict[Path, int]:
    """Every path's covering member, NOBODY when none; (i) at most one."""
    owners = {}
    for path in PATHS:
        covering = [w for w in MEMBERS if ledger.covers(w, path)]
        assert len(covering) <= 1, (path, covering)
        owners[path] = covering[0] if covering else NOBODY
    return owners


def _trie_size(ledger: FrontierLedger) -> int:
    """The number of trie nodes, checking that every label differs from the
    one it inherits and that no unlabelled node is a leaf."""
    size, stack = 0, [(ledger._root, NOBODY)]
    while stack:
        node, inherited = stack.pop()
        size += 1
        assert node.label != inherited
        assert node.label is not None or node.children or node is ledger._root
        own = inherited if node.label is None else node.label
        stack.extend((child, own) for child in node.children.values())
    return size


class OwnerMap:
    """The ledger and the dict side by side, checked after every event."""

    def __init__(self) -> None:
        self.ledger = FrontierLedger()
        self.live = set(MEMBERS)
        for worker_id in MEMBERS:
            self.ledger.register(worker_id)
        self.ledger.acquire(1, ())
        self.owner = {path: 1 for path in PATHS}
        self.check()

    def check(self) -> None:
        assert _owners(self.ledger) == self.owner
        _trie_size(self.ledger)
        for worker_id in MEMBERS:
            assert all(self.ledger.covers(worker_id, root)
                       for root in self.ledger.owned_roots(worker_id))

    def move(self, root: Path, dst: int) -> None:
        """The owner of ``root`` exports it to ``dst``; skipped unless the
        owner holds the whole subtree, as it does an exported candidate's."""
        src = self.owner[root]
        subtree = [p for p in PATHS if _under(p, root)]
        if (dst not in self.live or src == NOBODY
                or any(self.owner[p] != src for p in subtree)):
            return
        before = _owners(self.ledger)
        self.ledger.cede(src, root)
        self.ledger.acquire(dst, root)
        after = _owners(self.ledger)
        # (ii) exactly the paths src held under the root change hands.
        changed = {p for p in PATHS if before[p] != after[p]}
        assert changed == (set(subtree) if dst != src else set())
        for path in subtree:
            self.owner[path] = dst
        self.check()

    def die(self, victim: int, takers: Tuple[int, ...]) -> None:
        """``victim`` dies and survivors take over its recovery jobs, job
        ``k`` going to ``takers[k]`` (cycled) when that one is a survivor."""
        if victim not in self.live or len(self.live) == 1:
            return
        held = {p for p in PATHS if self.owner[p] == victim}
        jobs = self.ledger.recovery_jobs(victim)
        # (iii) the jobs, roots minus fences, tile what the victim owned.
        regions = [{p for p in PATHS if _under(p, job.root)
                    and not any(_under(p, f) for f in job.fences)}
                   for job in jobs]
        assert sum(map(len, regions)) == len(held)
        assert set().union(*regions) == held
        self.ledger.forget(victim)
        self.live.discard(victim)
        assert victim not in self.ledger.worker_ids
        assert _owners(self.ledger) == {
            p: NOBODY if p in held else w for p, w in self.owner.items()}
        survivors = sorted(self.live)
        for k, (job, region) in enumerate(zip(jobs, regions)):
            taker = takers[k % len(takers)]
            if taker not in self.live:
                taker = survivors[0]
            self.ledger.acquire(taker, job.root)
            # (iv) the job's paths go to its taker; check() holds every
            # other path to its old owner.
            for path in region:
                self.owner[path] = taker
        self.check()


#: ROADMAP item 1(a), scaled to the bounded tree: member 1 seeds and hands
#: F to 3, which hands N inside it back to 1; 1 hands N on to 2, which
#: passes a piece of it to 3; then 1 dies and 2 takes over its root, which
#: must leave N with 2 and the rest of F with 3.
FENCE = (1, 1)
NESTED = FENCE + (0, 0)
ITEM_1A = [("move", FENCE, 3), ("move", NESTED, 1), ("move", NESTED, 2),
           ("move", NESTED + (1,), 3), ("death", 1, (2,))]

paths = st.lists(st.integers(0, 1), max_size=DEPTH).map(tuple)
members = st.sampled_from(MEMBERS)
moves = st.tuples(st.just("move"), paths, members)
deaths = st.tuples(st.just("death"), members,
                   st.lists(members, min_size=1, max_size=3).map(tuple))
# Four moves to a death: a member dies at most once.
events = st.integers(0, 4).flatmap(lambda k: deaths if k == 0 else moves)


@settings(max_examples=400)
@given(st.lists(events, min_size=10, max_size=40))
@example(ITEM_1A)
def test_the_ledger_agrees_with_a_brute_force_owner_map(events):
    owner_map = OwnerMap()
    for kind, *args in events:
        (owner_map.move if kind == "move" else owner_map.die)(*args)


def test_a_bouncing_job_leaves_the_trie_as_a_fresh_acquire_does():
    """Pruning bounds memory: a job that goes out and comes back a thousand
    times leaves no node behind."""
    fresh = FrontierLedger()
    fresh.acquire(1, ())
    ledger = FrontierLedger()
    ledger.acquire(1, ())
    job = (0, 1, 1, 0, 1)
    for _ in range(1000):
        ledger.cede(1, job)
        ledger.acquire(2, job)
        ledger.cede(2, job)
        ledger.acquire(1, job)
    assert _trie_size(ledger) <= _trie_size(fresh)
    assert ledger.recovery_jobs(1) == fresh.recovery_jobs(1)
