"""Frozen spec decoder: the oracle for :func:`repro.predictors.spec.from_spec`.

This is the decoder ``from_spec`` ran before it built per-class field
decoders, kept verbatim: each present field's resolved annotation goes
through :func:`_decode`, which takes the annotation apart on every value.
The new decoder must build an equal config from every spec this one
accepts and raise the same exception, with the same message, on every
spec this one rejects.  It is test-only code: nothing under ``src/``
imports it.
"""

from __future__ import annotations

import dataclasses
import typing
from enum import Enum
from functools import lru_cache
from typing import Any, Mapping, Tuple, Type, TypeVar

_T = TypeVar("_T")

#: Dataclasses whose resolved field annotations :func:`from_spec` keeps;
#: the configs a spec can name are about a dozen.
_HINTS_MEMO_SIZE = 64

try:  # ``X | Y`` annotations resolve to types.UnionType on 3.10+
    from types import UnionType as _UNION_TYPE
except ImportError:  # pragma: no cover - 3.9 fallback
    _UNION_TYPE = None  # type: ignore[assignment, misc]


def from_spec(cls: Type[_T], spec: Mapping[str, Any]) -> _T:
    """Build ``cls`` from a (possibly partial) spec dict.

    Unknown keys are an error (a typo in a spec file must not be silently
    ignored); missing keys take the dataclass field defaults.  Values are
    validated against the field annotations, so a malformed spec fails
    with a message naming the offending field.
    """
    if not dataclasses.is_dataclass(cls) or not isinstance(cls, type):
        raise TypeError(f"from_spec needs a dataclass type, got {cls!r}")
    if not isinstance(spec, Mapping):
        raise ValueError(
            f"{cls.__name__} spec must be a mapping, got {type(spec).__name__}"
        )
    fields = _field_hints(cls)
    field_names = [name for name, _ in fields]
    unknown = sorted(set(spec) - set(field_names))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} spec field(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(field_names)}"
        )
    kwargs = {
        name: _decode(hint, spec[name], f"{cls.__name__}.{name}")
        for name, hint in fields
        if name in spec
    }
    return cls(**kwargs)


@lru_cache(maxsize=_HINTS_MEMO_SIZE)
def _field_hints(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``cls``'s fields with their resolved annotations, in field order.

    Resolving string annotations (``typing.get_type_hints``) costs several
    times the rest of a decode, so it runs once per class.
    """
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _decode(tp: Any, value: Any, where: str) -> Any:
    origin = typing.get_origin(tp)
    if origin is typing.Union or (
        _UNION_TYPE is not None and origin is _UNION_TYPE
    ):
        args = typing.get_args(tp)
        if value is None and type(None) in args:
            return None
        concrete = [a for a in args if a is not type(None)]
        if len(concrete) == 1:
            return _decode(concrete[0], value, where)
        raise ValueError(f"{where}: unsupported union annotation {tp!r}")
    if isinstance(tp, type) and dataclasses.is_dataclass(tp):
        if not isinstance(value, Mapping):
            raise ValueError(
                f"{where}: expected a {tp.__name__} spec dict, got "
                f"{type(value).__name__}"
            )
        return from_spec(tp, value)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            valid = ", ".join(repr(member.value) for member in tp)
            raise ValueError(
                f"{where}: {value!r} is not a valid {tp.__name__} value "
                f"(one of {valid})"
            ) from None
    if tp is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{where}: expected a bool, got {value!r}")
        return value
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{where}: expected an int, got {value!r}")
        return value
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if tp is str:
        if not isinstance(value, str):
            raise ValueError(f"{where}: expected a string, got {value!r}")
        return value
    raise ValueError(f"{where}: cannot decode spec values of type {tp!r}")
