"""Lossless dataclass <-> JSON spec codec for predictor configurations.

A *spec* is the declarative, JSON-serialisable form of a frozen config
dataclass: a plain dict mapping field names to scalars, enum values, or
nested specs.  Specs are the interchange format of the predictor registry
(:mod:`repro.predictors.registry`): the result cache fingerprints them
(:func:`repro.runner.keys.cell_key`), ``repro sweep --spec`` reads them
from JSON files, and :data:`repro.experiments.configs.PRESETS` names them.

The codec is generic over dataclasses whose fields are scalars, enums,
other such dataclasses, or ``Optional`` of those — which covers
:class:`~repro.predictors.engine.EngineConfig` and everything it embeds.
Encoding is total over every field (nothing is elided), and decoding
inverts it exactly, so ``from_spec(cls, to_spec(cfg)) == cfg`` holds over
the whole config space (property-tested in ``tests/test_spec.py``).
Decoding also accepts *partial* specs — omitted fields take the dataclass
defaults — so spec files and presets stay terse.

Enums encode as their ``.value`` (every config enum is string-valued),
never their Python name, so spec JSON is stable across renames of the
Python identifiers.
"""

from __future__ import annotations

import dataclasses
import typing
from enum import Enum
from functools import lru_cache
from typing import Any, Dict, Mapping, Tuple, Type, TypeVar

_T = TypeVar("_T")

#: Dataclasses whose resolved field annotations :func:`from_spec` keeps;
#: the configs a spec can name are about a dozen.
_HINTS_MEMO_SIZE = 64

#: The JSON-ready rendering of one config dataclass.
Spec = Dict[str, Any]

try:  # ``X | Y`` annotations resolve to types.UnionType on 3.10+
    from types import UnionType as _UNION_TYPE
except ImportError:  # pragma: no cover - 3.9 fallback
    _UNION_TYPE = None  # type: ignore[assignment, misc]


def to_spec(config: Any) -> Spec:
    """Render a config dataclass as a plain JSON-serialisable dict.

    Every field is included (the rendering is lossless); nested config
    dataclasses become nested dicts and enums their ``.value``.
    """
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise TypeError(
            f"to_spec needs a dataclass instance, got {type(config).__name__}"
        )
    return {
        f.name: _encode(getattr(config, f.name), f"{type(config).__name__}.{f.name}")
        for f in dataclasses.fields(config)
    }


def _encode(value: Any, where: str) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_spec(value)
    if isinstance(value, Enum):
        return value.value
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"{where}: cannot encode {type(value).__name__} in a spec; spec "
        "fields must be scalars, enums, or config dataclasses"
    )


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
