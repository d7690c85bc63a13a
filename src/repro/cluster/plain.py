"""Plain data and records as JSON: the one codec for what leaves a process.

TCP frames (:mod:`repro.net.framing`) and checkpoints
(:mod:`repro.cluster.checkpoint`) both write their dataclasses with
:func:`records`, so a ``BugReport`` or ``TestCase`` reads the same in
either.  A field's annotation is its kind, and a record is the list of its
fields in declaration order: bytes and coverage vectors as hex, frozensets
as sorted lists, enums by value, a nested record as its list and a job tree
in its :meth:`~repro.cluster.jobs.JobTree.encode` form.  Decoding checks
every field; a wrong kind is a :class:`Mismatch` whose ``path`` names the
field and index (``.fence_paths[0][1]``).  A record may omit trailing fields
that have defaults, and trailing fields its class lacks are dropped.

An ``object`` field (a spec parameter) is *plain data*: ``None``, a bool,
int, float or str, or a list, tuple, str-keyed dict or bytes of them.
JSON's own values and lists are written as they are; bytes, tuples and
dicts are tagged so they come back as themselves: ``{"bytes": hex}``,
``{"tuple": [...]}``, ``{"dict": {...}}``.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["encode_value", "decode_value", "Mismatch", "Record", "records"]


def encode_value(value: Any) -> Any:
    """``value`` as JSON data; a ``TypeError`` if it is not plain data."""
    kind = type(value)
    if value is None or kind in (bool, int, float, str):
        return value
    if kind is list:
        return [encode_value(item) for item in value]
    if kind is tuple:
        return {"tuple": [encode_value(item) for item in value]}
    if kind is bytes:
        return {"bytes": value.hex()}
    if kind is dict and all(type(key) is str for key in value):
        return {"dict": {key: encode_value(item)
                         for key, item in value.items()}}
    raise TypeError("%.60r is not plain data (None, bool, int, float, str, "
                    "bytes, or a list, tuple or str-keyed dict of them)"
                    % (value,))


def decode_value(value: Any) -> Any:
    """Decodes :func:`encode_value`'s output; a ``ValueError`` saying what
    is wrong for anything it does not write."""
    if type(value) is list:
        return [decode_value(item) for item in value]
    if type(value) is not dict:
        return value
    if len(value) == 1:
        (tag, inner), = value.items()
        if tag == "tuple" and type(inner) is list:
            return tuple(decode_value(item) for item in inner)
        if tag == "bytes":
            try:
                return bytes.fromhex(inner)
            except (TypeError, ValueError):
                raise ValueError("expected hex bytes, got %.40r"
                                 % (inner,)) from None
        if tag == "dict" and type(inner) is dict:
            return {key: decode_value(item) for key, item in inner.items()}
    raise ValueError("untagged object %.60r" % (value,))


# -- the record codec --------------------------------------------------------------------


class Mismatch(Exception):
    """A value is not of its field's kind; ``path`` names the field, each
    part ``.field`` or ``[index]``, outermost first."""

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
            raise Mismatch("expected %s, got %s" % (
                " or ".join(kind.__name__ for kind in kinds),
                type(value).__name__))
        return value
    return decode


def _float(value: Any) -> float:
    if type(value) is float or type(value) is int:
        return float(value)
    raise Mismatch("expected float, got %s" % type(value).__name__)


def _bytes(value: Any) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise Mismatch("expected hex bytes, got %.40r" % (value,)) from None


def _any(value: Any) -> Any:
    return value


def _hex_int(value: Any) -> int:
    if type(value) is str:
        try:
            return int(value, 16)
        except ValueError:
            pass
    raise Mismatch("expected a hex integer, got %.40r" % (value,))


def _value(value: Any) -> Any:
    """An ``object`` field (a spec parameter): tagged plain data."""
    try:
        return decode_value(value)
    except ValueError as exc:
        raise Mismatch(str(exc)) from None


def _job_tree(value: Any) -> Any:
    """A :meth:`JobTree.encode` payload, walked without recursion (a path of
    n forks nests 3n lists)."""
    stack = [value]
    while stack:
        node = stack.pop()
        if (type(node) is not list or len(node) != 2
                or node[0] not in (0, 1) or type(node[0]) is not int
                or type(node[1]) is not list):
            raise Mismatch("malformed job tree node %.60r" % (node,))
        for edge in node[1]:
            if (type(edge) is not list or len(edge) != 2
                    or type(edge[0]) is not int or edge[0] < 0):
                raise Mismatch("malformed job tree edge %.60r" % (edge,))
            stack.append(edge[1])
    return value


def _sequence(item: _Decoder, build: Callable[[Any], Any]) -> _Decoder:
    def decode(value: Any) -> Any:
        if type(value) is not list:
            raise Mismatch("expected a list, got %s" % type(value).__name__)
        decoded: List[Any] = []
        try:
            decoded.extend(map(item, value))
        except Mismatch as exc:  # extend kept the elements before it
            exc.path.insert(0, "[%d]" % len(decoded))
            raise
        return decoded if build is list else build(decoded)
    return decode


def _mapping(item: _Decoder) -> _Decoder:
    def decode(value: Any) -> Any:
        if type(value) is not dict:
            raise Mismatch("expected an object, got %s"
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


class Record:
    """The codec of one dataclass: its fields, in declaration order."""

    def __init__(self, cls: type, hints: Dict[str, Any]):
        self.cls = cls
        self.fields: Tuple[Tuple[str, Any], ...] = tuple(
            (f.name, hints[f.name]) for f in dataclasses.fields(cls))
        # Filled by compile(), once every class of the table has a record: a
        # field may name a class that comes after its own.
        self.codecs: List[Tuple[_Encoder, _Decoder]] = []

    def compile(self, table: Dict[type, "Record"]) -> None:
        self.codecs = [_kind(hint, table) for _, hint in self.fields]

    def values(self, obj: Any) -> List[Any]:
        return [getattr(obj, name) if encode is None
                else encode(getattr(obj, name))
                for (name, _), (encode, _) in zip(self.fields, self.codecs)]

    def build(self, values: Any) -> Any:
        if type(values) is not list:
            raise Mismatch("expected a %s record, got %s"
                           % (self.cls.__name__, type(values).__name__))
        decoded = []
        # zip drops the fields a newer compatible peer appended
        for (field, _), (_, decode), value in zip(self.fields, self.codecs,
                                                  values):
            try:
                decoded.append(decode(value))
            except Mismatch as exc:
                exc.path.insert(0, "." + field)
                raise
        try:
            return self.cls(*decoded)  # omitted trailing fields: defaults
        except TypeError as exc:  # ...which a required field does not have
            raise Mismatch(str(exc)) from None


def records(classes: Sequence[type]) -> Dict[type, Record]:
    """The codecs of ``classes``, each a dataclass whose fields may name any
    of them.  An annotation without a kind is a ``TypeError`` here."""
    names = {cls.__name__: cls for cls in classes}
    assert len(names) == len(classes), "record class names must be unique"
    table = {cls: Record(cls, typing.get_type_hints(
        cls, localns=names, include_extras=True)) for cls in classes}
    for record in table.values():
        record.compile(table)
    return table


def _kind(hint: Any, table: Dict[type, Record]) -> Tuple[_Encoder, _Decoder]:
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
                raise Mismatch("%.40r is not a %s"
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
    raise TypeError("no JSON kind for annotation %r" % (hint,))
