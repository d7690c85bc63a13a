"""Micro-benchmarks of the pure cluster and wire functions.

They are fed with what one traced ``memcached_process2`` unit really moved:
the job trees its workers exported, every message the coordinator sent or
received, and the per-round queue lengths the balancer saw.  Each loop runs
at least :data:`MIN_ITERATIONS` operations between two reference kernels and
reports normalised microseconds per operation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from calib import bracketed
from repro.cluster.jobs import Job, JobTree
from repro.cluster.load_balancer import LoadBalancer
from repro.distrib.messages import ExportReply, ImportCommand
from repro.net.framing import FrameDecoder, decode_message, encode_message

MIN_ITERATIONS = 200
#: ``cluster.balance_us`` is the largest size; the others are printed beside it.
BALANCER_SIZES = (2, 8, 32)


def _per_op_us(inputs: Sequence[object], operation: Callable[[object], object]) -> float:
    """Normalised microseconds per ``operation(input)``, cycling the inputs."""
    repeats = -(-MIN_ITERATIONS // len(inputs))

    def loop() -> None:
        for _ in range(repeats):
            for item in inputs:
                operation(item)

    _raw, norm, _ = bracketed(loop)
    return 1e6 * norm / (repeats * len(inputs))


def _balance_us(queue_series: List[Dict[int, int]], members: int) -> float:
    """One ``balance()`` per recorded round, the real queue lengths tiled over
    ``members`` workers (shifted by one round per copy so they differ)."""
    rounds = [list(queues.values()) for queues in queue_series if queues]
    balancer = LoadBalancer(line_count=1)
    for worker_id in range(members):
        balancer.register_worker(worker_id)

    def one_round(index: int) -> None:
        for worker_id in range(members):
            lengths = rounds[(index + worker_id // 2) % len(rounds)]
            balancer.receive_status(worker_id, lengths[worker_id % len(lengths)],
                                    useful_instructions=0, coverage_bits=0,
                                    round_index=index)
        balancer.balance(index)

    return _per_op_us(range(len(rounds)), one_round)


def run(messages: List[object],
        queue_series: List[Dict[int, int]]) -> Dict[str, float]:
    encoded_trees = [m.encoded_jobs for m in messages
                     if isinstance(m, ExportReply) and m.encoded_jobs is not None]
    job_lists: List[List[Job]] = [JobTree.decode(e).jobs() for e in encoded_trees]
    carriers = [m for m in messages if isinstance(m, (ExportReply, ImportCommand))
                and m.encoded_jobs is not None]
    frames = [encode_message(m) for m in messages]

    def decode_frame(frame: bytes) -> None:
        for payload in FrameDecoder().feed(frame):
            decode_message(payload)

    results = {
        "cluster.jobtree_encode_us": _per_op_us(
            job_lists, lambda jobs: JobTree.from_jobs(jobs).encode()),
        "cluster.jobtree_decode_us": _per_op_us(
            encoded_trees, lambda payload: JobTree.decode(payload).jobs()),
        "net.frame_encode_us": _per_op_us(messages, encode_message),
        "net.frame_decode_us": _per_op_us(frames, decode_frame),
        # Both hops of a transfer: export reply in, import command out.
        "net.frame_bytes_per_job": (
            sum(len(encode_message(m)) for m in carriers)
            / sum(len(jobs) for jobs in job_lists)),
    }
    for members in BALANCER_SIZES:
        results["cluster.balance_us@%d" % members] = _balance_us(
            queue_series, members)
    results["cluster.balance_us"] = results["cluster.balance_us@%d"
                                            % BALANCER_SIZES[-1]]
    return results
