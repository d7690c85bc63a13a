"""Cluster checkpoints: enough state to resume a killed run.

A running cluster's durable state is small: the global exploration frontier
(as path-encoded jobs, the same representation transfers use, §3.2), the
global coverage bit vector (§3.3) and cumulative result counters.  Program
states are deliberately excluded -- a resumed cluster re-materializes the
frontier by replaying the paths, exactly as a job transfer would.

Checkpoints serialize to plain JSON so a resumed run needs nothing beyond
the spec registry (process backend) or the test object (in-process backends)
to rebuild its programs.  They are *self-contained*: bug reports and
generated test-case inputs found before the snapshot are persisted alongside
the frontier (``bug_reports`` / ``test_cases``), and the elapsed wall time
is carried in ``wall_time``, so a ``resume_from=`` run's final result
reports the pre-crash bugs and cumulative timing instead of only what the
resumed segment re-finds.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.cluster.plain import decode_value, encode_value
from repro.engine.coverage import CoverageBits
from repro.engine.errors import BugKind, BugReport
from repro.engine.test_case import TestCase

__all__ = ["CHECKPOINT_FORMAT", "ClusterCheckpoint"]

#: The JSON layout :meth:`ClusterCheckpoint.to_json` writes, recorded in the
#: file as ``"format"``.  Bump it when a field is added, removed or changes
#: meaning; :meth:`ClusterCheckpoint.from_json` reads this format only.
#: Format 2: spec parameter values are tagged plain data
#: (:mod:`repro.cluster.plain`), so bytes, tuples and dicts come back as
#: themselves.
CHECKPOINT_FORMAT = 2


#: The JSON types an annotation's values are written as (a coverage vector
#: as a hex string, a tuple as a list).
_JSON_TYPES: Dict[Any, Tuple[type, ...]] = {
    int: (int,), float: (int, float), str: (str,), CoverageBits: (str,),
    list: (list,), tuple: (list,), dict: (dict,),
}


def _json_error(value: Any, hint: Any) -> Optional[str]:
    """Why ``value``, read from JSON, is not of kind ``hint``; None if it is
    (bools are not ints; a dict's entries are not looked into)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        return None if value is None else _json_error(value, args[0])
    if type(value) not in _JSON_TYPES[hint if hint in _JSON_TYPES
                                      else origin]:
        return " is a %s" % type(value).__name__
    if origin in (list, tuple):
        for index, item in enumerate(value):
            error = _json_error(item, args[0])
            if error:
                return "[%d]%s" % (index, error)
    return None


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
    #: Bug reports found before the snapshot, JSON-encoded via
    #: :meth:`encode_bug` (the nested test case, if any, is dropped; the
    #: generated inputs live in ``test_cases``).
    bug_reports: List[Dict[str, Any]] = field(default_factory=list)
    #: Generated test cases (concrete inputs) found before the snapshot,
    #: JSON-encoded via :meth:`encode_test_case`.
    test_cases: List[Dict[str, Any]] = field(default_factory=list)
    #: Identity of the test this checkpoint belongs to, when known.
    spec_name: Optional[str] = None
    #: Saved as tagged plain data (:func:`repro.cluster.plain.encode_value`).
    spec_params: Dict[str, object] = field(default_factory=dict)
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        self.frontier_paths = [tuple(int(i) for i in path)
                               for path in self.frontier_paths]
        self.bug_reports = [dict(b) for b in self.bug_reports]
        self.test_cases = [dict(t) for t in self.test_cases]

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        payload = asdict(self)
        payload["frontier_paths"] = [list(p) for p in self.frontier_paths]
        payload["coverage_bits"] = hex(self.coverage_bits)
        params = payload["spec_params"] = {}
        for key, value in self.spec_params.items():
            try:
                params[key] = encode_value(value)
            except TypeError as exc:
                raise TypeError("cannot save checkpoint: spec parameter %r: %s"
                                % (key, exc)) from None
        payload["format"] = CHECKPOINT_FORMAT
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterCheckpoint":
        """Parse :meth:`to_json` output.  Anything else is a ``ValueError``
        that says what is wrong: text that is not a JSON object, a
        checkpoint in another format (an older tree's, say; the message
        names both formats and the keys this tree does not know), a missing
        field, or a field or entry of the wrong kind.  Bug and test-case
        entries are read back in their canonical form: what decoding them
        gives, encoded again."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValueError("cannot read checkpoint: not JSON (%s)" % exc
                             ) from None
        if not isinstance(payload, dict):
            raise ValueError("cannot read checkpoint: it is a JSON %s, not "
                             "an object" % type(payload).__name__)
        found = payload.pop("format", None)
        hints = typing.get_type_hints(cls, include_extras=True)
        unknown = sorted(set(payload) - set(hints))
        if found != CHECKPOINT_FORMAT or unknown:
            raise ValueError(
                "cannot read checkpoint: it is format %s, this tree reads "
                "format %d (unknown keys: %s)"
                % (found, CHECKPOINT_FORMAT, ", ".join(unknown) or "none"))
        for name, value in payload.items():
            error = _json_error(value, hints[name])
            if error:
                raise ValueError("cannot read checkpoint: %s%s"
                                 % (name, error))
        try:
            checkpoint = cls(**payload)  # a missing field is a TypeError
            checkpoint.coverage_bits = int(payload["coverage_bits"], 16)
            checkpoint.spec_params = {
                key: decode_value(value)
                for key, value in checkpoint.spec_params.items()}
            checkpoint.bug_reports = [cls.encode_bug(bug)
                                      for bug in checkpoint.decode_bugs()]
            checkpoint.test_cases = [cls.encode_test_case(case) for case
                                     in checkpoint.decode_test_cases()]
        except (KeyError, TypeError, ValueError, ArithmeticError,
                RecursionError) as exc:
            raise ValueError("cannot read checkpoint: %s: %s"
                             % (type(exc).__name__, exc)) from None
        return checkpoint

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

    # -- bug / test-case payloads (self-contained resume) --------------------------

    @staticmethod
    def encode_bug(bug: BugReport) -> Dict[str, object]:
        """JSON-safe form of a bug report (nested test case dropped)."""
        return {"kind": bug.kind.value, "message": bug.message,
                "state_id": bug.state_id, "line": bug.line,
                "function": bug.function}

    def decode_bugs(self) -> List[BugReport]:
        return [BugReport(kind=BugKind(str(entry["kind"])),
                          message=str(entry.get("message", "")),
                          state_id=int(entry.get("state_id", -1)),
                          line=entry.get("line"),
                          function=entry.get("function"))
                for entry in self.bug_reports]

    @staticmethod
    def encode_test_case(case: TestCase) -> Dict[str, object]:
        """JSON-safe form of a generated test case (bytes as hex)."""
        return {"state_id": case.state_id,
                "inputs": {name: value.hex()
                           for name, value in case.inputs.items()},
                "path_length": case.path_length,
                "fork_trace": list(case.fork_trace),
                "exit_code": case.exit_code,
                "is_error": case.is_error,
                "error_summary": case.error_summary}

    def decode_test_cases(self) -> List[TestCase]:
        cases: List[TestCase] = []
        for entry in self.test_cases:
            cases.append(TestCase(
                state_id=int(entry.get("state_id", -1)),
                inputs={name: bytes.fromhex(value) for name, value
                        in dict(entry.get("inputs", {})).items()},
                path_length=int(entry.get("path_length", 0)),
                fork_trace=[int(i) for i in entry.get("fork_trace", [])],
                exit_code=entry.get("exit_code"),
                is_error=bool(entry.get("is_error", False)),
                error_summary=entry.get("error_summary")))
        return cases

    # -- convenience --------------------------------------------------------------

    @property
    def coverage_percent(self) -> float:
        if not self.line_count:
            return 0.0
        return 100.0 * bin(self.coverage_bits).count("1") / self.line_count

    def covered_lines(self) -> Set[int]:
        return {i for i in range(self.line_count)
                if self.coverage_bits >> i & 1}
