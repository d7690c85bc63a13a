"""Calibrated time: a fixed reference kernel and the samplers that use it.

On a shared host the same pure-Python loop runs at 100 % to 150 % of its best
time from one 2-second window to the next, so raw seconds cannot gate
anything.  The harness therefore interleaves a fixed routine, :func:`kernel`,
with the program under test: a *segment* of program time is closed every
:data:`SEGMENT_S`, the kernel is timed (its own time is excluded), and the
segment is credited ``segment_s * K_REF / mean(kernel before, kernel after)``.
The sum over a unit's segments is its *normalised time*: the seconds the unit
would have taken on a machine that runs the kernel in :data:`K_REF`.

Nothing here imports the program under test.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Optional, Tuple

#: Duration of :func:`kernel` on the reference host when quiet (1st percentile
#: of 500 calls).  Only ratios to it matter; it fixes the unit of normalised
#: seconds so numbers taken at different moments are comparable.
K_REF = 0.0040

#: Program time between two kernel samples.
SEGMENT_S = 0.05

_NODES = 1 << 11
_CHASE_STEPS = 1 << 14
_ARITH_STEPS = 40_000


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int):
        self.value = value
        self.next: Optional["_Node"] = None


def _build_ring() -> _Node:
    """A ring of nodes linked in a fixed pseudo-random order (an LCG, so the
    layout does not depend on the ``random`` module's version)."""
    nodes = [_Node(i * 7919) for i in range(_NODES)]
    order = list(range(_NODES))
    x = 12345
    for i in range(_NODES - 1, 0, -1):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % (i + 1)
        order[i], order[j] = order[j], order[i]
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].next = nodes[b]
    return nodes[order[0]]


_RING = _build_ring()


def kernel() -> int:
    """The reference routine: what an interpreter-bound program does.

    Two phases, timed together.  The first is memory-shaped: attribute loads
    along a pointer chase, tuple allocation, dict get/set.  The second is
    pure bytecode dispatch on small ints.  Fixed work, no input, no I/O.

    Chosen by experiment (16 runs x 3 workloads, spread of the best of three
    units): the two phases together gave 1-3 %, either alone 2-6 %, raw
    seconds 9-13 %.  The ring is kept small (about 150 KB): a few-MB ring ran
    50 % slower right after a program segment had evicted it, so it measured
    the program's cache footprint, not the machine, and gave 6-7 %.
    """
    node = _RING
    table: dict = {}
    get = table.get
    acc = 0
    for i in range(_CHASE_STEPS):
        node = node.next
        value = node.value
        pair = (value, i)
        table[value & 1023] = pair
        acc += get((value >> 3) & 1023, pair)[1]
    for i in range(_ARITH_STEPS):
        acc = (acc * 31 + i) & 0xFFFFFF
    return acc


def timed_kernel() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Segments:
    """The record of one unit: program segments and the kernels around them.
    A kernel sample is the best of ``calls`` calls."""

    def __init__(self, calls: int = 1) -> None:
        self.kernels: List[float] = []
        self.segments: List[float] = []
        self._calls = calls
        self._opened = 0.0

    def start(self) -> None:
        self.kernels.append(min(timed_kernel() for _ in range(self._calls)))
        self._opened = time.perf_counter()

    def sample(self) -> float:
        """Close the open segment, sample the kernel, open the next segment.
        Returns the seconds this took, to be hidden from open spans."""
        closed = time.perf_counter()
        self.segments.append(closed - self._opened)
        self.kernels.append(min(timed_kernel() for _ in range(self._calls)))
        self._opened = time.perf_counter()
        return self._opened - closed

    def open_for(self) -> float:
        return time.perf_counter() - self._opened

    @property
    def raw_s(self) -> float:
        return sum(self.segments)

    @property
    def kernel_s(self) -> float:
        return sum(self.kernels)

    @property
    def norm_s(self) -> float:
        kernels = self.kernels
        return sum(seg * K_REF * 2.0 / (kernels[i] + kernels[i + 1])
                   for i, seg in enumerate(self.segments))

    @property
    def kernel_cv_pct(self) -> float:
        if len(self.kernels) < 2:
            return 0.0
        return 100.0 * statistics.pstdev(self.kernels) / statistics.fmean(self.kernels)


class _Sampler:
    """Owns one unit's :class:`Segments`.  ``on_kernel(seconds)`` is told how
    long each in-unit kernel took, so a tracer can hide it from open spans."""

    #: Kernel calls per sample; the best one counts.
    calls = 1

    def __init__(self, on_kernel: Optional[Callable[[float], None]] = None):
        self.record = Segments(self.calls)
        self._on_kernel = on_kernel

    def _sample(self) -> None:
        hidden = self.record.sample()
        if self._on_kernel is not None:
            self._on_kernel(hidden)


class AlarmSampler(_Sampler):
    """Sample from a ``SIGALRM`` handler: for single-process units.

    The timer is one-shot and re-armed after each kernel, so a segment is
    :data:`SEGMENT_S` of program time whatever the kernel cost.  Interval
    timers are not inherited by forked children.
    """

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def __enter__(self) -> Segments:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.record.start()
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)
        return self.record

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()


class HookSampler(_Sampler):
    """Sample from a callback the program calls at quiet points: for the
    process cluster, whose ``round_hook`` runs while every worker is parked
    at the round barrier.  Sampling beside busy workers would measure
    contention for the two cores, not the speed of the machine.  The
    coordinator wakes from a blocking wait with cold caches, so the first
    kernel after a barrier runs 20-40 % slow: three are run, the best counts."""

    calls = 3

    def hook(self, *_args) -> None:
        if self.record.open_for() >= SEGMENT_S:
            self._sample()

    def __enter__(self) -> Segments:
        self.record.start()
        return self.record

    def __exit__(self, *exc) -> None:
        self._sample()


def bracketed(action: Callable[[], object]) -> Tuple[float, float, object]:
    """Run ``action`` once between two kernel samples: ``(raw_s, norm_s,
    result)``.  It is used where the caches are cold (a fresh interpreter,
    the first call of a loop), so each sample is the best of three calls."""
    record = Segments(HookSampler.calls)
    record.start()
    result = action()
    record.sample()
    return record.raw_s, record.norm_s, result
