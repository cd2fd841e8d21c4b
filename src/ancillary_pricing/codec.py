"""One codec for every persisted document: checkpoints, market specs and
reports.

``to_doc`` turns a dataclass into JSON-ready data and ``from_doc`` turns it
back, both driven by the dataclass's fields and their type hints, so the
keys of a document are the field names of its class. An ``np.ndarray``
is ``{"shape", "data"}`` with its values flattened in C order.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from functools import cache

import numpy as np


def to_doc(obj):
    """``obj`` as JSON-ready data: a dataclass becomes an object keyed by
    its field names, an array ``{"shape", "data"}``, a tuple or list a
    list, and a dict a dict; anything else is kept as it is."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_doc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        a = np.asarray(obj, dtype=float)
        return {"shape": list(a.shape), "data": a.reshape(-1).tolist()}
    if isinstance(obj, (tuple, list)):
        return [to_doc(x) for x in obj]
    if isinstance(obj, dict):
        return {k: to_doc(v) for k, v in obj.items()}
    return obj


@cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def from_doc(cls, doc, **given):
    """The ``cls`` instance that ``to_doc`` wrote as ``doc``. ``given``
    holds field values the document does not carry. A missing key takes
    the field's default; a missing required key raises ``KeyError``, a
    value of the wrong kind ``TypeError`` and a tuple of the wrong arity
    ``ValueError``. The class's own checks run as it is built."""
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be an object, got {type(doc).__name__}")
    hints = _hints(cls)
    kwargs = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        if f.name in doc:
            kwargs[f.name] = _decode(hints[f.name], doc[f.name])
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise KeyError(f"{cls.__name__}.{f.name}")
    return cls(**kwargs)


def _decode(hint, value):
    if dataclasses.is_dataclass(hint):
        return from_doc(hint, value)
    if hint is np.ndarray:
        return np.array(value["data"], dtype=float).reshape(value["shape"])
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        return _decode(next(a for a in args if a is not type(None)), value)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        if origin is list or args[-1] is Ellipsis:
            return origin(_decode(args[0], v) for v in value)
        if len(value) != len(args):
            raise ValueError(f"expected {len(args)} items, got {len(value)}: {value!r}")
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if origin is dict:
        if not isinstance(value, dict):
            raise TypeError(f"expected an object, got {type(value).__name__}")
        return {k: _decode(args[1], v) for k, v in value.items()}
    return value
