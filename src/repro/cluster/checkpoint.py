"""Cluster checkpoints: enough state to resume a killed run.

A running cluster's durable state is small: the global exploration frontier
(a sorted list of fork-index paths, which a resumed run deals out as job
imports, §3.2), the global coverage bit vector (§3.3) and cumulative result
counters.  Program states are deliberately excluded -- a resumed cluster
re-materializes the frontier by replaying the paths, exactly as a job
transfer would, so it needs only the spec registry (process backend) or the
test object (in-process backends) to rebuild its programs.

A checkpoint is self-contained: the bug reports and generated test cases
found before the snapshot (``bug_reports`` / ``test_cases``) and the elapsed
``wall_time`` are saved with it, so a ``resume_from=`` run reports the
pre-crash bugs and cumulative timing.  It is a JSON object, ``"format"`` and
one key per field, each written by its annotation with
:mod:`repro.cluster.plain`'s codec: a bug or test case is the list a frame
carries (a bug keeps its test case), and loading checks every value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.cluster.plain import Mismatch, records
from repro.engine.coverage import CoverageBitVector, CoverageBits
from repro.engine.errors import BugReport
from repro.engine.test_case import TestCase

__all__ = ["CHECKPOINT_FORMAT", "ClusterCheckpoint"]

#: The layout :meth:`ClusterCheckpoint.to_json` writes, saved as ``"format"``;
#: :meth:`ClusterCheckpoint.from_json` reads this one only.  Bump it when a
#: field of the checkpoint, ``BugReport`` or ``TestCase`` is added, removed or
#: changes meaning.  3: bugs and test cases are records, as frames carry them.
CHECKPOINT_FORMAT = 3


@dataclass
class ClusterCheckpoint:
    """A resumable snapshot of one cluster run, taken between rounds."""

    #: Virtual-time round after which the snapshot was taken.
    round_index: int
    #: The global exploration frontier: every live worker's candidate paths.
    frontier_paths: List[Tuple[int, ...]]
    #: The load balancer's merged coverage bit vector, packed into an int.
    coverage_bits: CoverageBits
    line_count: int
    #: Cumulative counters at checkpoint time (including any earlier resume).
    paths_completed: int = 0
    useful_instructions: int = 0
    replay_instructions: int = 0
    #: Cumulative wall-clock seconds spent exploring up to this snapshot
    #: (including segments before any earlier resume); a resumed run adds
    #: its own elapsed time on top when reporting ``RunResult.wall_time``.
    wall_time: float = 0.0
    #: Bug reports found before the snapshot, deduplicated.
    bug_reports: List[BugReport] = field(default_factory=list)
    #: Generated test cases (concrete inputs) found before the snapshot.
    test_cases: List[TestCase] = field(default_factory=list)
    #: Identity of the test this checkpoint belongs to, when known.
    spec_name: Optional[str] = None
    #: Saved as tagged plain data (:func:`repro.cluster.plain.encode_value`).
    spec_params: Dict[str, object] = field(default_factory=dict)
    backend: Optional[str] = None

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        """The checkpoint as JSON; a ``TypeError`` naming the field (and the
        spec parameter) that does not encode."""
        payload: Dict[str, Any] = {"format": CHECKPOINT_FORMAT}
        for (name, _), (encode, _) in zip(_RECORD.fields, _RECORD.codecs):
            value = getattr(self, name)
            try:
                payload[name] = value if encode is None else encode(value)
            except TypeError as exc:
                raise TypeError("cannot save checkpoint: %s: %s"
                                % (name, exc)) from None
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterCheckpoint":
        """Parse :meth:`to_json` output.  Anything else is a ``ValueError``
        that says what is wrong: text that is not a JSON object, a
        checkpoint in another format (an older tree's, say; the message
        names both formats and the keys this tree does not know), a missing
        field, or a value of the wrong kind, named by its path
        (``bug_reports[0].line``)."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValueError("cannot read checkpoint: not JSON (%s)" % exc
                             ) from None
        if not isinstance(payload, dict):
            raise ValueError("cannot read checkpoint: it is a JSON %s, not "
                             "an object" % type(payload).__name__)
        found = payload.pop("format", None)
        unknown = sorted(set(payload) - {name for name, _ in _RECORD.fields})
        if found != CHECKPOINT_FORMAT or unknown:
            raise ValueError(
                "cannot read checkpoint: it is format %s, this tree reads "
                "format %d (unknown keys: %s)"
                % (found, CHECKPOINT_FORMAT, ", ".join(unknown) or "none"))
        fields: Dict[str, Any] = {}
        for (name, _), (_, decode) in zip(_RECORD.fields, _RECORD.codecs):
            if name not in payload:
                continue
            try:
                fields[name] = decode(payload[name])
            except Mismatch as exc:
                raise ValueError("cannot read checkpoint: %s%s: %s"
                                 % (name, "".join(exc.path), exc)) from None
            except RecursionError:
                raise ValueError("cannot read checkpoint: %s: nested too "
                                 "deep" % name) from None
        try:
            return cls(**fields)
        except TypeError as exc:  # a missing field
            raise ValueError("cannot read checkpoint: %s" % exc) from None

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ClusterCheckpoint":
        with open(path) as handle:
            return cls.from_json(handle.read())

    @classmethod
    def coerce(cls, value: Union["ClusterCheckpoint", str]) -> "ClusterCheckpoint":
        """Accept either a checkpoint object or a path to a saved one."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.load(value)
        raise TypeError("resume_from must be a ClusterCheckpoint or a path, "
                        "got %r" % (type(value).__name__,))

    # -- convenience --------------------------------------------------------------

    @property
    def coverage_percent(self) -> float:
        return CoverageBitVector(self.line_count, self.coverage_bits).percent()

    def covered_lines(self) -> Set[int]:
        return CoverageBitVector(self.line_count,
                                 self.coverage_bits).covered_lines()


_RECORD = records([ClusterCheckpoint, BugReport, TestCase])[ClusterCheckpoint]
