"""The TCP wire format: golden frames per protocol version, and hostile bytes.

``tests/golden/wire_v<N>.jsonl`` holds, for protocol version N, one
canonical frame payload per registered wire class: the class's canonical
sample (below) as :func:`repro.net.framing.encode_message` writes it.  The
sample's every value is derived from its field's kind *and name*, so adding,
removing, moving, renaming or retyping a field changes the frame.  What the
committed files promise:

* the current version's file exists, names every registered class, and
  matches the code frame for frame -- a message changed without a
  ``PROTOCOL_VERSION`` bump fails here;
* every version's file from ``PROTOCOL_COMPAT_VERSION`` up still decodes,
  names every registered class, and each of its frames is a prefix of
  today's (records may have grown trailing fields, nothing else) -- a
  breaking change, or a new class, at a compatible bump fails here.

The other direction -- an older compatible peer reading today's frames --
holds because the decoder drops trailing fields its class does not have
(``test_a_frame_grown_by_a_trailing_field_still_decodes``).

A sample cannot tell ``int`` from ``Optional[int]``: a nullability change
that the golden frames miss still fails loudly, one peer at a time, because
the decoder checks every field's kind.
"""

from __future__ import annotations

import enum
import json
import pickle
import typing
import zlib
from pathlib import Path
from typing import Any, Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.jobs import EncodedJobTree, Job, JobTree
from repro.distrib.messages import (
    ExploreCommand,
    ExportReply,
    ImportCommand,
    ImportReply,
    StatusReply,
)
from repro.engine.coverage import CoverageBits
from repro.net.framing import (
    HEADER_SIZE,
    FrameCorruptError,
    decode_message,
    encode_message,
    wire_classes,
    wire_fields,
)
from repro.net.transport import (
    PROTOCOL_COMPAT_VERSION,
    PROTOCOL_VERSION,
    WelcomeMessage,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_path(version: int) -> Path:
    return GOLDEN / ("wire_v%d.jsonl" % version)


def _sample(hint: Any, name: str) -> Any:
    """A value of kind ``hint`` that depends on the field ``name``."""
    seed = zlib.crc32(name.encode()) % 1000
    if hint is EncodedJobTree:
        return JobTree.from_jobs([Job((seed % 3, 1)),
                                  Job((seed % 3, 0, 2))]).encode()
    if hint == CoverageBits:
        return 1 << 64 | seed
    if hint in (object, Any):
        return (name.encode(), [seed, name], {name: None})
    if hint is bool:
        return seed % 2 == 0
    if hint is int:
        return seed
    if hint is float:
        return seed + 0.5
    if hint is str:
        return name
    if hint is bytes:
        return name.encode()
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = list(hint)
        return members[seed % len(members)]
    if hint in wire_classes():
        return _canonical(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return _sample(next(a for a in args if a is not type(None)), name)
    if origin is tuple:
        return (_sample(args[0], name),)
    if origin is list:
        return [_sample(args[0], name)]
    if origin is frozenset:
        return frozenset({_sample(args[0], name), _sample(args[0], name + "'")})
    if origin is dict:
        return {name: _sample(args[1], name) if args else seed}
    raise AssertionError("no sample for %r" % (hint,))


def _canonical(cls: type) -> Any:
    return cls(**{name: _sample(hint, name) for name, hint in wire_fields(cls)})


def _payload(message: Any) -> str:
    return encode_message(message)[HEADER_SIZE:].decode("ascii")


def _canonical_frames() -> Dict[str, str]:
    return {cls.__name__: _payload(_canonical(cls)) for cls in wire_classes()}


def _read_golden(version: int) -> Dict[str, str]:
    path = _golden_path(version)
    if not path.exists():
        pytest.fail(
            "no golden frames for protocol version %d: commit %s holding "
            "these lines:\n%s" % (version, path.relative_to(GOLDEN.parent.parent),
                                  "\n".join(sorted(_canonical_frames().values()))))
    lines = path.read_text(encoding="ascii").splitlines()
    return {json.loads(line)[0]: line for line in lines}


def _extends(new: Any, old: Any) -> bool:
    """``old`` is ``new`` with trailing record fields cut (at any depth)."""
    if type(new) is list and type(old) is list:
        return len(new) >= len(old) and all(
            _extends(n, o) for n, o in zip(new, old))
    return type(new) is type(old) and new == old


def _same(a: Any, b: Any) -> bool:
    """Equal in type and value, wire classes compared field by field (a
    ``Histogram`` compares by identity)."""
    if type(a) is not type(b):
        return False
    if type(a) in wire_classes():
        return all(_same(getattr(a, name), getattr(b, name))
                   for name, _ in wire_fields(type(a)))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


class TestGoldenFrames:
    def test_the_floor_never_passes_the_version(self):
        assert 1 <= PROTOCOL_COMPAT_VERSION <= PROTOCOL_VERSION

    def test_the_current_version_has_a_golden_file(self):
        _read_golden(PROTOCOL_VERSION)

    def test_every_wire_class_matches_its_golden_frame(self):
        golden = _read_golden(PROTOCOL_VERSION)
        current = _canonical_frames()
        bump = ("bump PROTOCOL_VERSION and commit the new golden file "
                "(the failing test for it prints the lines)")
        assert sorted(set(current) - set(golden)) == [], (
            "wire classes not in %s: %s" % (_golden_path(PROTOCOL_VERSION).name, bump))
        assert sorted(set(golden) - set(current)) == [], (
            "golden classes no longer registered: %s" % bump)
        changed = ["%s\n  golden: %s\n  now:    %s" % (name, golden[name], frame)
                   for name, frame in sorted(current.items())
                   if frame != golden[name]]
        assert changed == [], "changed at protocol version %d without a bump -- %s:\n%s" % (
            PROTOCOL_VERSION, bump, "\n".join(changed))

    @pytest.mark.parametrize("version", range(PROTOCOL_COMPAT_VERSION,
                                              PROTOCOL_VERSION + 1))
    def test_every_compatible_golden_file_still_decodes(self, version):
        golden = _read_golden(version)
        current = _canonical_frames()
        floor = ("a breaking change needs PROTOCOL_COMPAT_VERSION moved past %d"
                 % version)
        assert sorted(set(current) - set(golden)) == [], (
            "classes unknown to protocol %d agents: %s" % (version, floor))
        for name, line in sorted(golden.items()):
            try:
                decoded = decode_message(line.encode("ascii"))
            except FrameCorruptError as exc:
                pytest.fail("protocol %d's %s no longer decodes (%s): %s"
                            % (version, name, exc, floor))
            assert type(decoded).__name__ == name
            assert _extends(json.loads(current[name]), json.loads(line)), (
                "protocol %d's %s decodes to other values today (a field "
                "moved, was retyped or was inserted before the end): %s"
                % (version, name, floor))


class TestCodec:
    @pytest.mark.parametrize("cls", wire_classes(), ids=lambda c: c.__name__)
    def test_every_wire_class_round_trips(self, cls):
        message = _canonical(cls)
        decoded = decode_message(encode_message(message)[HEADER_SIZE:])
        assert _same(decoded, message)

    def test_omitted_trailing_defaults_are_filled_in(self):
        reply = decode_message(b'["StatusReply",1,2,"3",0,[1],{}]')
        assert isinstance(reply, StatusReply)
        assert reply.stats.worker_id == 1 and reply.stats.paths_completed == 0
        assert reply.frontier is None and reply.latency is None

    @pytest.mark.parametrize("payload, where", [
        (b'["StatusReply",1,2]', r"StatusReply: .*missing 4 required positional "
                                 r"arguments: 'coverage_bits', 'bugs_found'"),
        (b'["ExploreCommand",1,123]', r"ExploreCommand\.global_coverage_bits: "
                                      r"expected a hex integer, got 123"),
        (b'["WelcomeMessage",6,1,"x",{"p":{"a":1}}]',
         r"WelcomeMessage\.spec_params: untagged object \{'a': 1\}"),
        (b'["WelcomeMessage",6,1,"x",{"p":{"bytes":"q"}}]',
         r"WelcomeMessage\.spec_params: expected hex bytes, got 'q'"),
        (b'["ImportReply",1,"2"]', r"ImportReply\.imported: expected int, got str"),
        (b'["ImportReply",1,true]', r"ImportReply\.imported: expected int, got bool"),
        (b'["StatusReply",1,2,"3",0,[1,"x"],{}]', r"StatusReply\.stats\.useful_instructions"),
        (b'["ImportCommand",[1,[[0]]]]', r"ImportCommand\.encoded_jobs: malformed job tree edge"),
        (b'["ImportCommand",[2,[]]]', r"ImportCommand\.encoded_jobs: malformed job tree node"),
        (b'["ImportCommand",[0,[]],[[1,"a"]]]', r"ImportCommand\.fence_paths\[0\]\[1\]: expected int, got str"),
        (b'["BugReport","no_such_kind","m",1]', r"BugReport\.kind: 'no_such_kind' is not a BugKind"),
        (b'["TestCase",1,{"a":"zz"},3]', r"TestCase\.inputs: expected hex bytes, got 'zz'"),
        (b'["os.system","rm -rf /"]', r"unknown message 'os\.system'"),
        (b'{"StatusReply":1}', r"not a \[name, fields\.\.\.\] list"),
        (b"\x80\x04\x95", r"not JSON"),
    ])
    def test_a_malformed_frame_names_the_message_and_field(self, payload, where):
        with pytest.raises(FrameCorruptError, match=where):
            decode_message(payload)

    def test_surplus_trailing_fields_are_dropped(self):
        """What a newer peer, a compatible (additive) bump ahead, sends."""
        assert decode_message(b'["ImportReply",1,2,3]') == ImportReply(1, 2)
        reply = decode_message(b'["StatusReply",1,2,"3",0,[1,5,6,7,8,9,10,11,'
                               b'12,13,14,15,16,17,18,19,"new"],{},null,null,'
                               b'null,null,null,null,"newer"]')
        assert reply.stats.replay_cache_hits == 18 and reply.coverage_bits == 3

    @pytest.mark.parametrize("cls", wire_classes(), ids=lambda c: c.__name__)
    def test_a_frame_grown_by_a_trailing_field_still_decodes(self, cls):
        message = _canonical(cls)
        grown = json.loads(_payload(message)) + [["added", 1]]
        assert _same(decode_message(json.dumps(grown).encode()), message)

    def test_spec_parameters_come_back_as_they_were_sent(self):
        params = {"prefix": b"http://{", "pair": (1, "a", (b"",)),
                  "nested": {"k": [b"x", None, 2.5]}, "flag": True,
                  "none": None, "list": [1, [2]], "empty": {}}
        welcome = WelcomeMessage(protocol_version=PROTOCOL_VERSION,
                                 worker_id=1, spec_name="curl-glob",
                                 spec_params=params)
        decoded = decode_message(encode_message(welcome)[HEADER_SIZE:])
        assert _same(decoded.spec_params, params)

    def test_a_parameter_that_is_not_plain_data_is_named_on_encode(self):
        welcome = WelcomeMessage(protocol_version=PROTOCOL_VERSION,
                                 worker_id=1, spec_name="s",
                                 spec_params={"when": object()})
        with pytest.raises(FrameCorruptError,
                           match=r"'WelcomeMessage' does not encode: 'when': "
                                 r"<object object .*> is not plain data"):
            encode_message(welcome)

    def test_coverage_vectors_travel_as_hex_at_any_size(self):
        """A 20 000-line program's vector: past the 4300-digit limit on
        decimal integers."""
        bits = (1 << 20_000) - 1
        command = ExploreCommand(budget=1, global_coverage_bits=bits)
        frame = encode_message(command)
        assert len(frame) < 5_100
        assert decode_message(frame[HEADER_SIZE:]) == command

    def test_absurd_nesting_is_a_corrupt_frame(self):
        with pytest.raises(FrameCorruptError, match="corrupt frame"):
            decode_message(b"[" * 100_000 + b"]" * 100_000)
        for depth in (400, 900, 990):  # near json's own limit: never RecursionError
            _decodes_or_is_corrupt(b'["WelcomeMessage",6,1,"x",{"p":'
                                   + b"[" * depth + b"]" * depth + b"}]")
        deep = b'["ImportCommand",' + b"[0,[[0," * 50_000 + b"[1,[]]" + b"]]]" * 50_000 + b"]"
        with pytest.raises(FrameCorruptError, match="corrupt frame"):
            decode_message(deep)

    def test_a_deep_job_tree_round_trips(self):
        """A job tree nests three lists per fork on its deepest path; the
        shape check walks it without recursion."""
        command = ImportCommand(encoded_jobs=JobTree.from_jobs(
            [Job(tuple([1] * 250)), Job((0,))]).encode())
        assert decode_message(encode_message(command)[HEADER_SIZE:]) == command

    def test_job_frames_are_smaller_than_their_pickles(self):
        tree = JobTree.from_jobs(Job((i % 4, i % 3, i)) for i in range(40)).encode()
        for message in (ExportReply(worker_id=1, encoded_jobs=tree, job_count=40),
                        ImportCommand(encoded_jobs=tree)):
            assert len(encode_message(message)) < len(pickle.dumps(message))


# -- hostile bytes: the decoder raises FrameCorruptError and nothing else ------------


def _decodes_or_is_corrupt(payload: bytes) -> None:
    try:
        decode_message(payload)
    except FrameCorruptError:
        pass


def _golden_lines():
    path = _golden_path(PROTOCOL_VERSION)
    return path.read_text(encoding="ascii").splitlines() if path.exists() else ["[]"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)


class TestHostileBytes:
    @settings(max_examples=300)
    @given(st.binary(max_size=200))
    def test_random_bytes(self, payload):
        _decodes_or_is_corrupt(payload)

    @settings(max_examples=400)
    @given(st.data())
    def test_truncations_and_bit_flips_of_every_golden_frame(self, data):
        line = bytearray(data.draw(st.sampled_from(_golden_lines())).encode("ascii"))
        for bit in data.draw(st.lists(st.integers(0, 8 * len(line) - 1),
                                      max_size=3)):
            line[bit // 8] ^= 1 << (bit % 8)
        cut = data.draw(st.integers(0, len(line)))
        _decodes_or_is_corrupt(bytes(line[:cut]))

    @settings(max_examples=200)
    @given(st.sampled_from([cls.__name__ for cls in wire_classes()]),
           st.lists(_JSON, max_size=16))
    def test_registered_names_with_arbitrary_fields(self, name, fields):
        _decodes_or_is_corrupt(json.dumps([name] + fields).encode("ascii"))
