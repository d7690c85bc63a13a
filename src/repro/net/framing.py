"""Length-prefixed frames: the wire format of the TCP transport.

A frame is a 4-byte big-endian payload length and that many bytes.  An
empty payload is a heartbeat ping; any other is one message as compact
JSON, the class name and then the message as a record of
:mod:`repro.cluster.plain`'s codec, its fields in declaration order:
``["ExportReply",2,[0,[[1,[1,[]]]]],1]``.  That codec is the one a
checkpoint writes its bug reports and test cases with, so those records
read the same in a frame and in a checkpoint.

What may travel is one table (:func:`wire_classes`): the dataclasses of
:mod:`repro.distrib.messages` and the handshake in :mod:`repro.net.transport`,
plus ``WorkerStats``, ``BugReport``, ``TestCase`` and ``Histogram``.

The decoder builds only registered classes and checks every field's kind.
A frame may omit trailing fields that have defaults and may carry trailing
fields the class does not have, which are dropped: that is how peers a
compatible (additive) bump apart read each other.  Anything else, nesting
past the recursion limit included, is a :class:`FrameCorruptError` naming
the message and field: one peer fails, never the run.  Payload lengths are
checked against ``max_frame_size`` before allocating, on both sides;
:class:`FrameDecoder` reassembles frames from whatever chunks TCP hands
back.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.plain import Mismatch, Record, records

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


def wire_classes() -> Tuple[type, ...]:
    """Every class a frame may carry, in name order."""
    return tuple(record.cls for record in _registry().values())


def wire_fields(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """A registered class's ``(name, annotation)`` pairs, in wire order."""
    return _registry()[cls.__name__].fields


@functools.lru_cache(maxsize=None)
def _registry() -> Dict[str, Record]:
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
    table = records(classes)  # an unsupported annotation fails here, loudly
    return {cls.__name__: table[cls]
            for cls in sorted(classes, key=lambda cls: cls.__name__)}


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
    except Mismatch as exc:
        raise FrameCorruptError("corrupt frame (%d bytes): %s%s: %s"
                                % (len(payload), frame[0], "".join(exc.path),
                                   exc)) from None
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
