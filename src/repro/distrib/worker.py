"""The member side of the cluster protocol, on every carrier.

:class:`DistribWorker` wraps a :class:`~repro.cluster.worker.Worker` --
frontier bookkeeping, job export/import, lazy replay with fence nodes, and
broken-replay detection (§3.2/§6) -- behind a command/reply interface of
plain-data messages (:mod:`repro.distrib.messages`).  :func:`serve` is the
one member serving loop: it rebuilds the test from its spec, announces
itself, then answers commands until told to stop, over whatever
``recv``/``send`` pair the carrier hands it -- :func:`worker_main` (the
process entry point) a pair of mp queues, a TCP agent
(:mod:`repro.net.agent`) a socket.  The in-process cluster calls
:meth:`DistribWorker.handle` directly through a
:class:`~repro.distrib.loopback.LoopbackTransport`.  No process machinery is
needed to drive one, which is also how the unit tests exercise broken-replay
handling (a shipped job whose path diverges or terminates prematurely at the
destination) deterministically.
"""

from __future__ import annotations

import dataclasses
import importlib
import multiprocessing
import queue as queue_module
import traceback
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from repro.cluster.jobs import Job, JobTree
from repro.cluster.worker import Worker
from repro.distrib import specs
from repro.distrib.messages import (
    ErrorReply,
    ExploreCommand,
    ExportCommand,
    ExportReply,
    ImportCommand,
    ImportReply,
    ReadyReply,
    ReportCommand,
    SeedCommand,
    StatusReply,
    StopCommand,
)
from repro.engine.coverage import CoverageBitVector
from repro.net.transport import TransportError
from repro.obs.trace import BufferTracer

if TYPE_CHECKING:  # pragma: no cover - the spec registry builds the test
    from repro.testing.symbolic_test import SymbolicTest

__all__ = ["DistribWorker", "serve", "worker_main"]


class DistribWorker:
    """One cluster member: a private engine plus the command handlers."""

    def __init__(self, worker: Worker) -> None:
        self.worker_id = worker.worker_id
        self.worker = worker
        # Created on the first traced ExploreCommand; buffered events ride
        # back to the coordinator on every status reply.
        self.tracer: Optional[BufferTracer] = None

    @classmethod
    def from_test(cls, worker_id: int, test: SymbolicTest,
                  strategy: Optional[str] = None) -> DistribWorker:
        """Build the member a worker process or agent serves from its spec."""
        executor = test.build_executor()
        return cls(Worker(worker_id, executor,
                          test.build_initial_state(executor),
                          strategy_name=strategy or test.strategy))

    @property
    def line_count(self) -> int:
        return self.worker.executor.program.line_count

    # -- command handlers --------------------------------------------------------------

    def handle(self, command: object
               ) -> Union[StatusReply, ExportReply, ImportReply]:
        """Process one command, returning its reply."""
        if isinstance(command, SeedCommand):
            self.worker.seed()
            return self.status()
        if isinstance(command, ExploreCommand):
            return self._explore(command)
        if isinstance(command, ReportCommand):
            return self.status(full=True)
        if isinstance(command, ExportCommand):
            return self._export(command)
        if isinstance(command, ImportCommand):
            return self._import(command)
        raise TypeError("unknown worker command %r" % (command,))

    def status(self, full: bool = False) -> StatusReply:
        """The member's one report; ``full`` adds its results so far."""
        worker = self.worker
        executor = worker.executor
        reply = StatusReply(
            worker_id=self.worker_id,
            queue_length=worker.queue_length,
            coverage_bits=CoverageBitVector.from_lines(
                self.line_count, worker.covered_lines).as_int(),
            bugs_found=len(worker.bugs),
            # A copy: the loopback carrier does not serialise, and the
            # coordinator diffs consecutive reports.
            stats=dataclasses.replace(worker.stats),
            cache_counters=executor.solver.cache_counters(),
            events=(tuple(self.tracer.drain())
                    if self.tracer is not None else None))
        if not full:
            return reply
        return dataclasses.replace(
            reply,
            frontier=JobTree.from_jobs(
                [Job(path) for path in sorted(worker.frontier_paths())]
            ).encode(),
            bugs=tuple(worker.bugs),
            test_cases=tuple(worker.test_cases),
            latency=executor.solver.query_seconds)

    def _explore(self, command: ExploreCommand) -> StatusReply:
        if command.trace and self.tracer is None:
            self.tracer = BufferTracer()
        if command.global_coverage_bits is not None:
            # The strategy's covered set only grows: lines it knows already,
            # its own included, change nothing.
            self.worker.strategy.notify_covered(CoverageBitVector(
                self.line_count, command.global_coverage_bits).covered_lines())
        if self.worker.has_work:
            # Worker.explore replays virtual candidates lazily as the
            # strategy selects them; a job whose replay breaks (divergence or
            # premature termination) is reported in ``broken_replays`` and
            # its node dropped -- the worker itself keeps going.
            if self.tracer is not None:
                with self.tracer.span("explore", worker=self.worker_id,
                                      budget=command.budget):
                    self.worker.explore(command.budget)
            else:
                self.worker.explore(command.budget)
        return self.status(full=command.full)

    def _export(self, command: ExportCommand) -> ExportReply:
        job_tree = self.worker.export_jobs(command.count)
        count = len(job_tree)
        return ExportReply(
            worker_id=self.worker_id,
            encoded_jobs=job_tree.encode() if count else None,
            job_count=count,
        )

    def _import(self, command: ImportCommand) -> ImportReply:
        job_tree = JobTree.decode(command.encoded_jobs)
        imported = self.worker.import_jobs(job_tree,
                                           fence_paths=command.fence_paths,
                                           recovered=command.recovered)
        return ImportReply(worker_id=self.worker_id, imported=imported)


def serve(worker_id: int, spec_name: str, spec_params: dict[str, Any],
          strategy: Optional[str], spec_modules: Sequence[str],
          recv: Callable[[], Optional[object]],
          send: Callable[[object], None]) -> int:
    """Be one cluster member on some carrier; returns the commands served.

    Rebuild the test from its spec, ``send`` a :class:`ReadyReply`, then
    answer each command ``recv`` yields with its one reply until a
    :class:`StopCommand` -- or ``None``, the carrier's word that no command
    will ever come (the coordinator hung up or died).  Any exception --
    during startup or while handling a command -- is shipped back as an
    :class:`ErrorReply` so the coordinator can fail *this member* with its
    traceback instead of hanging; a :class:`TransportError` is the channel
    itself failing and propagates to the carrier.
    """
    try:
        for module_name in spec_modules:
            importlib.import_module(module_name)
        test = specs.resolve_test(spec_name, **dict(spec_params))
        member = DistribWorker.from_test(worker_id, test, strategy=strategy)
        send(ReadyReply(worker_id=worker_id, line_count=member.line_count))
    except TransportError:
        raise
    except BaseException:
        send(ErrorReply(worker_id=worker_id, details=traceback.format_exc()))
        return 0
    served = 0
    while True:
        command = recv()
        if command is None or isinstance(command, StopCommand):
            return served
        try:
            send(member.handle(command))
        except TransportError:
            raise
        except BaseException:
            send(ErrorReply(worker_id=worker_id,
                            details=traceback.format_exc()))
            return served
        served += 1


#: How long :func:`worker_main` waits on its command queue before checking
#: that the parent coordinator still exists.  Small enough that an orphaned
#: worker exits promptly; command latency is unaffected (a queued command
#: wakes the ``get`` immediately).
COMMAND_POLL_INTERVAL = 1.0


def _parent_is_alive() -> bool:
    parent = multiprocessing.parent_process()
    return parent is None or parent.is_alive()


def worker_main(worker_id: int, spec_name: str, spec_params: dict[str, Any],
                strategy: Optional[str], spec_modules: Sequence[str],
                command_queue: Any, reply_queue: Any,
                parent_alive: Optional[Callable[[], bool]] = None) -> None:
    """Process entry point: :func:`serve` over a pair of mp queues.

    The command wait is bounded: between attempts the worker checks that the
    coordinator process still exists (``parent_alive``, injectable for
    tests) and exits instead of surviving as an orphan when it does not.
    """
    if parent_alive is None:
        parent_alive = _parent_is_alive

    def recv() -> Optional[object]:
        while True:
            try:
                return command_queue.get(timeout=COMMAND_POLL_INTERVAL)
            except queue_module.Empty:
                if not parent_alive():
                    return None  # orphaned: the coordinator died without StopCommand

    serve(worker_id, spec_name, spec_params, strategy, spec_modules,
          recv, reply_queue.put)
