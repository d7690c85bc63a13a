"""Length-prefixed frames: the wire format of the TCP transport.

A frame is a 4-byte big-endian payload length and that many bytes.  An
empty payload is a heartbeat ping; any other is one message as compact
JSON, the class name and then its fields in declaration order:
``["ExportReply",2,[0,[[1,[1,[]]]]],1]``.

What may travel is one table (:func:`wire_classes`): the dataclasses of
:mod:`repro.distrib.messages` and the handshake in :mod:`repro.net.transport`,
plus ``WorkerStats``, ``BugReport``, ``TestCase`` and ``Histogram``.  A
field's annotation is its kind.  Bytes and coverage vectors travel as hex,
frozensets as sorted lists, enums by value, a nested class as the list of
its fields and a job tree in its :meth:`~repro.cluster.jobs.JobTree.encode`
form.  An ``object`` field (a spec parameter) is any plain data, tagged as
:mod:`repro.cluster.plain` writes it (and as a checkpoint saves it): JSON's
own values, with bytes, tuples and dicts tagged so they come back as
themselves.

The decoder builds only registered classes and checks every field's kind
and every job tree's shape.  A frame may omit trailing fields that have
defaults and may carry trailing fields the class does not have, which are
dropped: that is how peers a compatible (additive) bump apart read each
other.  Anything else, nesting past the recursion limit included, is a
:class:`FrameCorruptError` naming the message and field: one peer fails,
never the run.  Payload lengths are checked against ``max_frame_size``
before allocating, on both sides; :class:`FrameDecoder` reassembles frames
from whatever chunks TCP hands back.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import struct
import typing
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.plain import decode_value, encode_value

__all__ = [
    "DEFAULT_MAX_FRAME_SIZE", "FrameError", "FrameTooLarge",
    "FrameCorruptError", "encode_frame", "encode_message", "decode_message",
    "wire_classes", "wire_fields", "FrameDecoder",
]

#: Generous ceiling: a JobTree payload of tens of thousands of jobs encodes
#: to well under a megabyte; anything near this size is a bug or an attack.
DEFAULT_MAX_FRAME_SIZE = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size

#: The complete heartbeat-ping frame: a zero-length payload.
PING_FRAME = _HEADER.pack(0)


class FrameError(RuntimeError):
    """Something on the wire violated the framing protocol."""


class FrameTooLarge(FrameError):
    """A frame declared (or would declare) a payload over the size limit."""


class FrameCorruptError(FrameError):
    """A frame's payload is not a well-formed registered message."""


def encode_frame(payload: bytes,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> bytes:
    """Wrap raw payload bytes in a length header."""
    if len(payload) > max_frame_size:
        raise FrameTooLarge(
            "refusing to send a %d-byte frame (max_frame_size=%d)"
            % (len(payload), max_frame_size))
    return _HEADER.pack(len(payload)) + payload


# -- the message codec -------------------------------------------------------------------


class _Mismatch(Exception):
    """A value is not of its field's kind; ``path`` names the field."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.path: List[str] = []


#: Turns a field value into JSON data; None when it already is JSON data.
_Encoder = Optional[Callable[[Any], Any]]
#: Checks a decoded JSON value against the field's kind and converts it.
_Decoder = Callable[[Any], Any]


def _exact(*kinds: type) -> _Decoder:
    def decode(value: Any) -> Any:
        if type(value) not in kinds:
            raise _Mismatch("expected %s, got %s" % (
                " or ".join(kind.__name__ for kind in kinds),
                type(value).__name__))
        return value
    return decode


def _float(value: Any) -> float:
    if type(value) is float or type(value) is int:
        return float(value)
    raise _Mismatch("expected float, got %s" % type(value).__name__)


def _bytes(value: Any) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise _Mismatch("expected hex bytes, got %.40r" % (value,)) from None


def _any(value: Any) -> Any:
    return value


def _hex_int(value: Any) -> int:
    if type(value) is str:
        try:
            return int(value, 16)
        except ValueError:
            pass
    raise _Mismatch("expected a hex integer, got %.40r" % (value,))


def _value(value: Any) -> Any:
    """An ``object`` field (a spec parameter): tagged plain data."""
    try:
        return decode_value(value)
    except ValueError as exc:
        raise _Mismatch(str(exc)) from None


def _job_tree(value: Any) -> Any:
    """A :meth:`JobTree.encode` payload, walked without recursion (a path of
    n forks nests 3n lists)."""
    stack = [value]
    while stack:
        node = stack.pop()
        if (type(node) is not list or len(node) != 2
                or node[0] not in (0, 1) or type(node[0]) is not int
                or type(node[1]) is not list):
            raise _Mismatch("malformed job tree node %.60r" % (node,))
        for edge in node[1]:
            if (type(edge) is not list or len(edge) != 2
                    or type(edge[0]) is not int or edge[0] < 0):
                raise _Mismatch("malformed job tree edge %.60r" % (edge,))
            stack.append(edge[1])
    return value


def _sequence(item: _Decoder, build: Callable[[Any], Any]) -> _Decoder:
    def decode(value: Any) -> Any:
        if type(value) is not list:
            raise _Mismatch("expected a list, got %s" % type(value).__name__)
        return build(map(item, value))
    return decode


def _mapping(item: _Decoder) -> _Decoder:
    def decode(value: Any) -> Any:
        if type(value) is not dict:
            raise _Mismatch("expected an object, got %s"
                            % type(value).__name__)
        return {key: item(element) for key, element in value.items()}
    return decode


def _or_none(encode: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else encode(value)


def _each(encode: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: [encode(element) for element in value]


def _each_value(encode: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def encode_all(value: Any) -> Any:
        encoded = {}
        for key, item in value.items():
            try:
                encoded[key] = encode(item)
            except (TypeError, ValueError) as exc:
                raise TypeError("%r: %s" % (key, exc)) from None
        return encoded
    return encode_all


class _Record:
    """The codec of one registered dataclass: its fields, in wire order."""

    def __init__(self, cls: type, hints: Dict[str, Any]):
        self.cls = cls
        self.fields: Tuple[Tuple[str, Any], ...] = tuple(
            (f.name, hints[f.name]) for f in dataclasses.fields(cls))
        # Filled by compile(), once every registered class has a record: a
        # field may name a class registered after its own.
        self._codecs: List[Tuple[_Encoder, _Decoder]] = []

    def compile(self, table: Dict[type, "_Record"]) -> None:
        self._codecs = [_kind(hint, table) for _, hint in self.fields]

    def values(self, obj: Any) -> List[Any]:
        return [getattr(obj, name) if encode is None
                else encode(getattr(obj, name))
                for (name, _), (encode, _) in zip(self.fields, self._codecs)]

    def build(self, values: Any) -> Any:
        if type(values) is not list:
            raise _Mismatch("expected a %s record, got %s"
                            % (self.cls.__name__, type(values).__name__))
        decoded = []
        # zip drops the fields a newer compatible peer appended
        for (field, _), (_, decode), value in zip(self.fields, self._codecs,
                                                  values):
            try:
                decoded.append(decode(value))
            except _Mismatch as exc:
                exc.path.insert(0, field)
                raise
        try:
            return self.cls(*decoded)  # omitted trailing fields: defaults
        except TypeError as exc:  # ...which a required field does not have
            raise _Mismatch(str(exc)) from None


def _kind(hint: Any, table: Dict[type, _Record]) -> Tuple[_Encoder, _Decoder]:
    """The (encoder, decoder) pair of one annotated field kind."""
    from repro.cluster.jobs import EncodedJobTree
    from repro.engine.coverage import CoverageBits

    if hint is EncodedJobTree:
        return None, _job_tree
    if hint == CoverageBits:
        return hex, _hex_int
    if hint in (object, Any):
        return encode_value, _value
    if hint is float:
        return None, _float
    if hint is bytes:
        return (lambda value: value.hex()), _bytes
    if hint in (int, bool, str):
        return None, _exact(hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        enum_cls = hint

        def decode_enum(value: Any) -> Any:
            try:
                return enum_cls(value)
            except (ValueError, TypeError):
                raise _Mismatch("%.40r is not a %s"
                                % (value, enum_cls.__name__)) from None
        return (lambda member: member.value), decode_enum
    if hint in table:
        record = table[hint]
        return record.values, record.build
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        if inner in (int, bool, str):
            return None, _exact(inner, type(None))
        encode, decode = _kind(inner, table)
        return (None if encode is None else _or_none(encode),
                lambda value: None if value is None else decode(value))
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        # json writes tuples and lists alike
        encode, decode = _kind(args[0], table)
        return (None if encode is None else _each(encode),
                _sequence(decode, origin))
    if origin is frozenset:
        encode, decode = _kind(args[0], table)
        if encode is None:  # only JSON-native members sort into a list
            return sorted, _sequence(decode, frozenset)
    if origin is dict and (not args or args[0] is str):
        encode, decode = _kind(args[1], table) if args else (None, _any)
        return (None if encode is None else _each_value(encode),
                _mapping(decode))
    raise TypeError("no wire kind for annotation %r" % (hint,))


def wire_classes() -> Tuple[type, ...]:
    """Every class a frame may carry, in name order."""
    return tuple(record.cls for record in _registry().values())


def wire_fields(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """A registered class's ``(name, annotation)`` pairs, in wire order."""
    return _registry()[cls.__name__].fields


@functools.lru_cache(maxsize=None)
def _registry() -> Dict[str, _Record]:
    """The one table of registered classes by name, built on first use
    (the messages live in layers that import this module)."""
    from repro.cluster.stats import WorkerStats
    from repro.distrib import messages
    from repro.engine.errors import BugReport
    from repro.engine.test_case import TestCase
    from repro.net import transport
    from repro.obs.metrics import Histogram

    classes = [obj for module in (messages, transport)
               for obj in vars(module).values()
               if dataclasses.is_dataclass(obj)
               and obj.__module__ == module.__name__]
    classes += [WorkerStats, BugReport, TestCase, Histogram]
    names = {cls.__name__: cls for cls in classes}
    assert len(names) == len(classes), "wire class names must be unique"
    table = {cls: _Record(cls, typing.get_type_hints(
        cls, localns=names, include_extras=True)) for cls in classes}
    for record in table.values():
        record.compile(table)  # an unsupported annotation fails here, loudly
    return {name: table[names[name]] for name in sorted(names)}


_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def encode_message(message: object,
                   max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> bytes:
    """Encode a registered message object into a complete frame."""
    name = type(message).__name__
    record = _registry().get(name)
    if record is None or record.cls is not type(message):
        raise FrameCorruptError("message %r does not encode: not a "
                                "registered wire class" % name)
    try:
        text = _JSON.encode([name] + record.values(message))
    except (TypeError, ValueError, RecursionError) as exc:
        raise FrameCorruptError(
            "message %r does not encode: %s" % (name, exc)) from exc
    return encode_frame(text.encode("ascii"), max_frame_size=max_frame_size)


def decode_message(payload: bytes) -> object:
    """Decode one frame payload back into a registered message object."""
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FrameCorruptError("corrupt frame (%d bytes): not JSON: %s"
                                % (len(payload), exc)) from None
    if type(frame) is not list or not frame or type(frame[0]) is not str:
        raise FrameCorruptError(
            "corrupt frame (%d bytes): not a [name, fields...] list"
            % len(payload))
    record = _registry().get(frame[0])
    if record is None:
        raise FrameCorruptError("corrupt frame (%d bytes): unknown message "
                                "%.60r" % (len(payload), frame[0]))
    try:
        return record.build(frame[1:])
    except _Mismatch as exc:
        where = "".join("." + part for part in exc.path)
        raise FrameCorruptError("corrupt frame (%d bytes): %s%s: %s"
                                % (len(payload), frame[0], where, exc)
                                ) from None
    except RecursionError:  # an object field nested nearly to json's limit
        raise FrameCorruptError("corrupt frame (%d bytes): %s: nested too "
                                "deep" % (len(payload), frame[0])) from None


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed it whatever ``recv`` returned; it yields the payloads of every
    frame completed so far.  Partial headers, partial payloads and several
    coalesced frames per chunk are all handled; zero-length payloads
    (heartbeat pings) come out as ``b""``.
    """

    def __init__(self, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE):
        self.max_frame_size = max_frame_size
        self._buffer = bytearray()
        self._expected: Optional[int] = None  # payload length being read

    @property
    def buffered_bytes(self) -> int:
        """Bytes received but not yet part of a completed frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb one chunk; return the payloads of every completed frame."""
        self._buffer.extend(data)
        payloads: List[bytes] = []
        while True:
            if self._expected is None:
                if len(self._buffer) < HEADER_SIZE:
                    break
                (length,) = _HEADER.unpack(bytes(self._buffer[:HEADER_SIZE]))
                if length > self.max_frame_size:
                    raise FrameTooLarge(
                        "peer declared a %d-byte frame (max_frame_size=%d)"
                        % (length, self.max_frame_size))
                del self._buffer[:HEADER_SIZE]
                self._expected = length
            if len(self._buffer) < self._expected:
                break
            payloads.append(bytes(self._buffer[:self._expected]))
            del self._buffer[:self._expected]
            self._expected = None
        return payloads
