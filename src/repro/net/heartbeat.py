"""Heartbeat liveness: pings over the transport instead of ``is_alive()``.

On one host the coordinator can ask the OS whether a worker process is alive
(``Process.is_alive()``); across machines there is no such oracle -- only
traffic.  The agent therefore sends a tiny ping frame every
``interval`` seconds from a dedicated thread (so long explore rounds, which
keep the worker's main thread busy for seconds at a time, do not read as
death), and the coordinator feeds every received frame -- pings and real
replies alike -- into a :class:`HeartbeatMonitor`.  A peer that stays silent
for ``interval * miss_threshold`` seconds is declared dead, which flows into
the exact same ``Failure`` -> frontier-ledger recovery machinery a
crashed local process does.

The monitor takes its clock as a parameter so the miss logic is testable
with a frozen clock, without sleeping in tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["HeartbeatMonitor", "HeartbeatSender",
           "DEFAULT_HEARTBEAT_INTERVAL", "DEFAULT_MISS_THRESHOLD"]

#: Seconds between pings.  Cheap (5 bytes each way is nothing next to a
#: single status reply), so the default errs on the side of fast detection.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: Silent intervals tolerated before a peer is declared dead.  The product
#: ``interval * miss_threshold`` is the detection latency; the default
#: (0.5s x 10 = 5s) rides out GC pauses and scheduler hiccups comfortably.
DEFAULT_MISS_THRESHOLD = 10


class HeartbeatMonitor:
    """Tracks when a peer was last heard from and decides liveness."""

    def __init__(self, interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 miss_threshold: int = DEFAULT_MISS_THRESHOLD,
                 clock: Callable[[], float] = time.monotonic):
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        self.interval = interval
        self.miss_threshold = miss_threshold
        self._clock = clock
        self._last_seen = clock()

    def beat(self) -> None:
        """Record traffic from the peer (a ping or any other frame)."""
        self._last_seen = self._clock()

    def silence(self) -> float:
        """Seconds since the peer was last heard from."""
        return self._clock() - self._last_seen

    def misses(self) -> int:
        """Whole heartbeat intervals the peer has stayed silent for."""
        return int(self.silence() // self.interval)

    def is_alive(self) -> bool:
        return self.misses() < self.miss_threshold

    def describe_miss(self) -> str:
        return ("missed %d heartbeats (silent for %.1fs, interval %.2fs, "
                "threshold %d)" % (self.misses(), self.silence(),
                                   self.interval, self.miss_threshold))


class HeartbeatSender:
    """Agent-side ping pump: calls ``send_ping`` every ``interval`` seconds.

    Runs on a daemon thread so a wedged main loop cannot stop the pings (the
    whole point: liveness reflects the *process*, not one busy function).
    A failed send means the connection is gone; the thread just exits --
    the main loop will hit the same error on its next send or receive.
    """

    def __init__(self, send_ping: Callable[[], None],
                 interval: float = DEFAULT_HEARTBEAT_INTERVAL):
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self._send_ping = send_ping
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="heartbeat-sender", daemon=True)

    def start(self) -> "HeartbeatSender":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._send_ping()
            except Exception:
                return

    def stop(self, join_timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=join_timeout)
