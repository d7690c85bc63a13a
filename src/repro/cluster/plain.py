"""Plain data as JSON: how spec parameters are saved and sent.

A symbolic test is rebuilt elsewhere from ``(spec_name, spec_params)``, so
its parameters are written down twice: in a checkpoint
(:mod:`repro.cluster.checkpoint`) and in the TCP handshake
(:mod:`repro.net.framing`).  Both use this one encoding.  A parameter is
*plain data*: ``None``, a bool, int, float or str, or a list, tuple,
str-keyed dict or bytes built from them.  JSON's own values and lists are
written as they are.  Bytes, tuples and dicts are tagged, so they come back
as themselves: ``{"bytes": hex}``, ``{"tuple": [...]}``,
``{"dict": {...}}``.
"""

from __future__ import annotations

from typing import Any

__all__ = ["encode_value", "decode_value"]


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
