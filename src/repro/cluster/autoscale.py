"""Autoscaling for elastic Cloud9 clusters.

The paper's pitch is symbolic execution as an *on-demand* cloud service
(§1, §2.3): workers join and leave while a test runs, and the cluster size
should follow the workload instead of being provisioned by hand.  PR 4 gave
clusters the mechanism (``add_worker``/``remove_worker``/``round_hook``);
this module adds the policy.

:class:`AutoscalePolicy` is a declarative description of when a cluster is
under- or over-provisioned, phrased in the two signals the load balancer
already collects every round (§3.3):

* the *queue-length band*: average candidate jobs per worker, compared
  against ``queue_high`` (work outpaces capacity -> grow) and ``queue_low``
  (workers starving -> shrink);
* the *queue-length spread* (``LoadBalancer.queue_length_spread()``): a
  persistent max-min gap wider than ``spread_threshold`` means balancing
  cannot keep up with the fan-out -> grow;

plus one external signal, the *round wall-time ceiling*: rounds taking
longer than ``round_wall_time_ceiling`` seconds mean each member is
overcommitted -> grow.

:class:`Autoscaler` turns the policy into actions.  It is driven from the
cluster's ``round_hook`` (the membership barrier: no commands are in flight
there), applies hysteresis (a signal must persist for ``hysteresis_rounds``
consecutive rounds) and a post-action cooldown (``cooldown_rounds``) so the
cluster never flaps, and always respects ``min_workers``/``max_workers``.
Scale-down picks the member with the shortest reported queue and retires it
in one step (``remove_worker`` hands its whole frontier to the least-loaded
survivor at the membership barrier); since it shrinks only when the mean
queue is under ``queue_low``, that frontier is a handful of jobs.

Every cluster backend understands ``config.autoscale``::

    test.run(backend="cluster", autoscale=AutoscalePolicy(max_workers=8))
    test.run(backend="process", workers=2, autoscale=True)   # default policy

and report ``workers_added`` / ``workers_removed`` / ``peak_workers`` plus a
per-round worker-count trace on the result; every action is also an
``autoscale_decision`` trace event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Tuple

from repro.cluster.load_balancer import LoadBalancer
from repro.obs import schema as trace_schema

__all__ = ["AutoscalePolicy", "Autoscaler", "ElasticCluster"]


class ElasticCluster(Protocol):
    """The surface an :class:`Autoscaler` drives (the coordinator has it)."""

    load_balancer: LoadBalancer

    @property
    def live_worker_ids(self) -> List[int]: ...

    def add_worker(self) -> int: ...

    def remove_worker(self, worker_id: int) -> int: ...


@dataclass
class AutoscalePolicy:
    """When to grow and when to shrink an elastic cluster.

    The defaults are deliberately conservative: scale on sustained pressure
    only, one worker at a time, with a cooldown between actions.
    """

    #: Hard floor of live (exploring) workers; scale-down stops here.
    min_workers: int = 1
    #: Hard ceiling of live workers; scale-up stops here.
    max_workers: int = 8
    #: Grow when the average queue length per worker exceeds this.
    queue_high: float = 8.0
    #: Shrink when the average queue length per worker falls below this.
    queue_low: float = 1.0
    #: Grow when max-min of the reported queue lengths exceeds this
    #: (None disables the spread signal).
    spread_threshold: Optional[int] = None
    #: Grow when a round takes longer than this many wall-clock seconds
    #: (None disables the wall-time signal).  Mostly useful on the process
    #: backend, where rounds run concurrently on real cores.
    round_wall_time_ceiling: Optional[float] = None
    #: Rounds to hold still after any scale action (lets transfers land and
    #: fresh status reports arrive before the next decision).
    cooldown_rounds: int = 2
    #: Consecutive rounds a signal must persist before acting.
    hysteresis_rounds: int = 2

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError("min_workers must be at least 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.queue_low >= self.queue_high:
            raise ValueError("queue_low must be below queue_high "
                             "(the band needs a dead zone)")
        if self.cooldown_rounds < 0:
            raise ValueError("cooldown_rounds must be non-negative")
        if self.hysteresis_rounds < 1:
            raise ValueError("hysteresis_rounds must be at least 1")

    @classmethod
    def coerce(cls, value: object) -> Optional["AutoscalePolicy"]:
        """Normalize a config's ``autoscale`` field: ``None`` passes through,
        ``True`` means the default policy, anything else must already be an
        :class:`AutoscalePolicy`.  Shared by both cluster configs so the
        accepted spellings cannot diverge between backends."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if value is True:
            return cls()
        raise TypeError("autoscale must be an AutoscalePolicy, True or "
                        "None, got %r" % (type(value).__name__,))

    def signal(self, *, num_workers: int, total_queue: int,
               spread: Tuple[int, int],
               round_wall_time: Optional[float] = None) -> int:
        """Raw per-round verdict: +1 grow, -1 shrink, 0 hold.

        Clamping happens here on purpose: at ``max_workers`` a grow signal
        reads as 0, so hysteresis streaks reset instead of accumulating
        against the ceiling (and symmetrically at ``min_workers``).
        """
        if num_workers <= 0:
            return 0
        average = total_queue / num_workers
        if num_workers < self.max_workers:
            if average > self.queue_high:
                return 1
            low, high = spread
            if (self.spread_threshold is not None
                    and high - low > self.spread_threshold):
                return 1
            if (self.round_wall_time_ceiling is not None
                    and round_wall_time is not None
                    and round_wall_time > self.round_wall_time_ceiling):
                return 1
        if num_workers > self.min_workers and average < self.queue_low:
            return -1
        return 0


class Autoscaler:
    """Drives elastic membership of a cluster from its ``round_hook``.

    Works against any :class:`ElasticCluster` -- the coordinator under
    every cluster backend (:class:`~repro.distrib.coordinator.Coordinator`),
    or a scripted fake in the tests.  Constructed automatically when a
    cluster config carries ``autoscale=AutoscalePolicy(...)``.
    """

    def __init__(self, policy: Optional[AutoscalePolicy] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.policy = policy or AutoscalePolicy()
        self._clock = clock
        self._last_tick: Optional[float] = None
        self._streak = 0  # signed run length of the current raw signal
        # Start in cooldown: the first rounds of a run are ramp-up (one seed
        # job fanning out) and must not read as "workers are idle".
        self._cooldown_left = self.policy.cooldown_rounds

    def __call__(self, round_index: int, cluster: ElasticCluster) -> None:
        now = self._clock()
        round_wall = (now - self._last_tick
                      if self._last_tick is not None else None)
        self._last_tick = now

        balancer = cluster.load_balancer
        live = list(cluster.live_worker_ids)
        raw = self.policy.signal(
            num_workers=len(live),
            total_queue=balancer.total_queue_length(),
            spread=balancer.queue_length_spread(),
            round_wall_time=round_wall)

        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return
        if raw == 0:
            self._streak = 0
            return
        if raw > 0:
            self._streak = self._streak + 1 if self._streak > 0 else 1
        else:
            self._streak = self._streak - 1 if self._streak < 0 else -1
        if abs(self._streak) < self.policy.hysteresis_rounds:
            return

        if self._streak > 0:
            self._grow(round_index, cluster, len(live))
        else:
            self._shrink(round_index, cluster, balancer)
        self._streak = 0
        self._cooldown_left = self.policy.cooldown_rounds

    # -- actions -----------------------------------------------------------------------

    def _grow(self, round_index: int, cluster: ElasticCluster,
              num_live: int) -> None:
        if num_live >= self.policy.max_workers:
            return
        try:
            cluster.add_worker()
        except RuntimeError:
            # No capacity to grow right now -- e.g. the TCP transport's
            # pending-agent pool is empty, or the newcomer died while
            # joining.  A policy decision must not kill the run; the
            # pressure signal will re-fire once capacity exists.
            return
        self._trace(cluster, round_index, "grow", 1)

    def _shrink(self, round_index: int, cluster: ElasticCluster,
                balancer: LoadBalancer) -> None:
        live = list(cluster.live_worker_ids)
        if len(live) <= self.policy.min_workers:
            return
        victim = min(live, key=lambda w: (
            balancer.reports[w].queue_length if w in balancer.reports
            else 0, w))
        cluster.remove_worker(victim)
        self._trace(cluster, round_index, "shrink", 1)

    @staticmethod
    def _trace(cluster: ElasticCluster, round_index: int, action: str,
               count: int) -> None:
        """Record the decision on the cluster's trace (no-op when untraced;
        the coordinator carries a ``tracer``, a bare fake need not)."""
        tracer = getattr(cluster, "tracer", None)
        if tracer is not None:
            tracer.emit(trace_schema.AUTOSCALE_DECISION, round=round_index,
                        action=action, count=count,
                        workers=len(list(cluster.live_worker_ids)))
