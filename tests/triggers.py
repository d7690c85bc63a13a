"""Scenario triggers: stage a fault or a membership change on a protocol
event that any schedule reaches, not on a round number or a message count.

A :class:`Trigger` is a cluster's ``round_hook``.  At every round boundary
it asks ``condition(cluster)``; the first time the answer is truthy, it runs
``action(cluster, answer)`` once and records the round in
:attr:`Trigger.fired_at`, so a test can assert that it fired and read the
timeline or a checkpoint from that round.  On an in-process cluster it also
checks the §3.2 partition invariants at every boundary
(:func:`frontier_invariants`).  A fault is armed on the event too:
:func:`arm` sets a fault-injecting transport's ``armed`` flag, so the member
fails at its next command of the injected kind.
"""

import os
import signal

from repro.distrib import Cloud9Cluster


def frontier_invariants(cluster):
    """``(ok, message)``: no path is a candidate on two members at once, and
    every candidate lies inside the territory the coordinator's ledger
    records for its holder.  (Recorded territories cannot overlap -- the
    ledger gives every path one owner -- and completeness is checked by the
    tests that compare explored paths with a single engine's.)"""
    seen = {}
    for worker in cluster.workers:
        for path in sorted(worker.frontier_paths()):
            if path in seen:
                return False, ("path %s is a candidate on workers %d and %d"
                               % (path, seen[path], worker.worker_id))
            seen[path] = worker.worker_id
            if not cluster.core.ledger.covers(worker.worker_id, path):
                return False, ("worker %d holds %s outside its ledger "
                               "territory" % (worker.worker_id, path))
    return True, ""


class Trigger:
    """Run ``action(cluster, subject)`` once, at the first round boundary
    where ``subject = condition(cluster)`` is truthy.  With no condition it
    never fires, and only checks the invariants and counts boundaries."""

    def __init__(self, condition=lambda cluster: None,
                 action=lambda cluster, subject: None):
        self.condition, self.action = condition, action
        self.fired_at = self.subject = self.outcome = None
        #: Round boundaries seen (the hook runs once per round).
        self.rounds = 0

    @property
    def fired(self):
        return self.fired_at is not None

    def __call__(self, round_index, cluster):
        if self.fired_at is None:
            subject = self.condition(cluster)
            if subject:
                self.fired_at, self.subject = round_index, subject
                self.outcome = self.action(cluster, subject)
        if isinstance(cluster, Cloud9Cluster):
            ok, message = frontier_invariants(cluster)
            assert ok, "round %d: %s" % (round_index, message)
        self.rounds += 1


def arm(member):
    """Arm the fault in front of ``member``: it fails at its next command of
    the kind its transport injects."""
    member.transport.armed = True


def kill_the_last_member(bounced=False):
    """A trigger that SIGKILLs the last member's process (or local agent)
    once it holds work -- territory worth recovering -- and, with
    ``bounced``, once every member has exported jobs (work has moved both
    ways)."""

    def holds_work(cluster):
        if len(cluster.handles) < 2:
            return None
        victim = cluster.handles[-1]
        if victim.queue_length == 0 or (bounced and not all(
                m.status is not None and m.status.stats.jobs_exported
                for m in cluster.handles)):
            return None
        return victim

    return Trigger(holds_work, lambda cluster, victim: os.kill(
        victim.transport.process.pid, signal.SIGKILL))
