"""The Cloud9 load balancer (paper §3.3).

"The balancing algorithm takes as input the lengths l_i of each worker W_i's
queue Q_i.  It computes the average l-bar and standard deviation sigma of the
l_i values and then classifies each W_i as underloaded
(l_i < max{l-bar - delta*sigma, 0}), overloaded (l_i > l-bar + delta*sigma),
or OK otherwise; delta is a constant factor.  The W_i are then sorted
according to their queue length l_i and placed in a list.  LB then matches
underloaded workers from the beginning of the list with overloaded workers
from the end of the list.  For each pair <W_i, W_j>, with l_i < l_j, the load
balancer sends a job transfer request to the workers to move
(l_j - l_i)/2 candidate nodes from W_j to W_i."

The load balancer never touches program state: transfer requests name a
source, a destination and a job count, and the source worker picks the jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.overlay import CoverageOverlay


@dataclass(frozen=True)
class TransferCommand:
    """<source worker, destination worker, number of jobs> (§3.1)."""

    source: int
    destination: int
    job_count: int


@dataclass
class WorkerReport:
    """The most recent status update received from a worker."""

    worker_id: int
    queue_length: int = 0
    useful_instructions: int = 0
    round_received: int = -1


class LoadBalancer:
    """Queue-length balancing plus the global coverage overlay."""

    def __init__(self, line_count: int, delta: float = 1.0,
                 min_transfer: int = 1):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta
        self.min_transfer = min_transfer
        self.reports: Dict[int, WorkerReport] = {}
        self.overlay = CoverageOverlay(line_count)
        self.transfer_log: List[Tuple[int, TransferCommand]] = []

    # -- worker membership -------------------------------------------------------

    def register_worker(self, worker_id: int,
                        queue_length: Optional[int] = None) -> None:
        """Enroll a worker; ``queue_length`` optionally seeds its report.

        A worker joining mid-run has not sent a status update yet, so its
        report would read as queue length 0 until the first one arrives --
        classifying it as underloaded and triggering transfers toward a
        member the balancer knows nothing about.  Elastic joins therefore
        seed the report (typically with the mean of the current queue
        lengths); the worker's first real status update overwrites the seed
        with ground truth.
        """
        report = self.reports.setdefault(worker_id,
                                         WorkerReport(worker_id=worker_id))
        if queue_length is not None and report.round_received < 0:
            report.queue_length = int(queue_length)

    def mean_queue_length(self) -> float:
        """Average reported queue length (0.0 with no reports)."""
        if not self.reports:
            return 0.0
        return self.total_queue_length() / len(self.reports)

    def deregister_worker(self, worker_id: int) -> None:
        self.reports.pop(worker_id, None)

    def cancel_transfer(self, command: TransferCommand) -> None:
        """Undo the queue-length estimates of a transfer that never happened.

        ``balance()`` debits the source and credits the destination as soon
        as it issues a command; when the transfer is cancelled (its source or
        destination departed or died before the jobs moved), the estimates
        must roll back or the next ``balance()`` call would plan against
        phantom queue lengths.
        """
        source = self.reports.get(command.source)
        if source is not None:
            source.queue_length += command.job_count
        destination = self.reports.get(command.destination)
        if destination is not None:
            destination.queue_length = max(
                0, destination.queue_length - command.job_count)

    @property
    def worker_ids(self) -> List[int]:
        return sorted(self.reports)

    # -- status updates -----------------------------------------------------------

    def receive_status(self, worker_id: int, queue_length: int,
                       useful_instructions: int, coverage_bits: int,
                       round_index: int = 0) -> int:
        """Process a status update; returns the merged global coverage bits."""
        report = self.reports.setdefault(worker_id, WorkerReport(worker_id=worker_id))
        report.queue_length = queue_length
        report.useful_instructions = useful_instructions
        report.round_received = round_index
        return self.overlay.merge_from_worker(coverage_bits)

    # -- balancing ------------------------------------------------------------------

    def classify(self) -> Tuple[List[int], List[int], List[int]]:
        """Classify workers as (underloaded, ok, overloaded) by queue length."""
        lengths = [r.queue_length for r in self.reports.values()]
        if not lengths:
            return [], [], []
        mean = sum(lengths) / len(lengths)
        variance = sum((l - mean) ** 2 for l in lengths) / len(lengths)
        sigma = math.sqrt(variance)
        low_threshold = max(mean - self.delta * sigma, 0.0)
        high_threshold = mean + self.delta * sigma

        underloaded: List[int] = []
        overloaded: List[int] = []
        ok: List[int] = []
        for worker_id in sorted(self.reports):
            length = self.reports[worker_id].queue_length
            if length < low_threshold or length == 0:
                underloaded.append(worker_id)
            elif length > high_threshold:
                overloaded.append(worker_id)
            else:
                ok.append(worker_id)
        return underloaded, ok, overloaded

    def balance(self, round_index: int = 0) -> List[TransferCommand]:
        """Compute the transfer requests for the current reports."""
        if len(self.reports) < 2:
            return []
        underloaded, _ok, overloaded = self.classify()
        if not underloaded:
            return []
        if not overloaded:
            # Degenerate but important case (paper §3.2: "In the extreme, Wd
            # is a new worker or one that is done exploring its subtree and
            # has zero jobs left"): idle workers are paired with the most
            # loaded workers even when the latter do not stand out of the
            # mean +/- delta*sigma band (with few workers, sigma is so large
            # that nothing ever classifies as overloaded).
            idle = [w for w in underloaded if self.reports[w].queue_length == 0]
            if not idle:
                return []
            donors = sorted(
                (w for w in self.reports if w not in set(idle)
                 and self.reports[w].queue_length >= 2 * self.min_transfer),
                key=lambda w: -self.reports[w].queue_length)
            overloaded = donors
            underloaded = idle
            if not overloaded:
                return []

        by_length = sorted(self.reports, key=lambda w: (self.reports[w].queue_length, w))
        light = [w for w in by_length if w in set(underloaded)]
        heavy = [w for w in reversed(by_length) if w in set(overloaded)]

        commands: List[TransferCommand] = []
        for destination, source in zip(light, heavy):
            if destination == source:
                continue
            l_i = self.reports[destination].queue_length
            l_j = self.reports[source].queue_length
            count = (l_j - l_i) // 2
            if count < self.min_transfer:
                continue
            command = TransferCommand(source=source, destination=destination,
                                      job_count=count)
            commands.append(command)
            self.transfer_log.append((round_index, command))
            # Account the in-flight transfer against the cached reports so a
            # second balance() call before fresh status updates arrive does
            # not re-issue the same transfer (the next receive_status for
            # each worker overwrites these estimates with ground truth).
            self.reports[source].queue_length -= count
            self.reports[destination].queue_length += count
        return commands

    # -- introspection -----------------------------------------------------------------

    def total_queue_length(self) -> int:
        return sum(r.queue_length for r in self.reports.values())
