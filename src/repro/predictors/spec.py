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
from typing import Any, Callable, Dict, FrozenSet, Mapping, Tuple, Type, TypeVar

_T = TypeVar("_T")

#: Dataclasses whose field decoders :func:`from_spec` keeps; the configs
#: a spec can name are about a dozen.
_DECODERS_MEMO_SIZE = 64

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
    return _build(cls, spec)


def _build(cls: Type[_T], spec: Mapping[str, Any]) -> _T:
    """:func:`from_spec` once ``cls`` and ``spec`` are known to fit."""
    field_names, known, decoders = _field_decoders(cls)
    if not known.issuperset(spec):
        unknown = sorted(set(spec) - known)
        raise ValueError(
            f"unknown {cls.__name__} spec field(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(field_names)}"
        )
    return cls(**{
        name: decode(spec[name]) for name, decode in decoders if name in spec
    })


#: Decodes one field's spec value.
_Decoder = Callable[[Any], Any]


@lru_cache(maxsize=_DECODERS_MEMO_SIZE)
def _field_decoders(
    cls: type,
) -> Tuple[Tuple[str, ...], FrozenSet[str], Tuple[Tuple[str, _Decoder], ...]]:
    """``cls``'s field names, as a tuple and a set, and each field's decoder.

    Resolving string annotations (``typing.get_type_hints``) and taking
    them apart costs several times the rest of a decode, so both happen
    once per class.
    """
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    return names, frozenset(names), tuple(
        (name, _field_decoder(hints[name], f"{cls.__name__}.{name}"))
        for name in names
    )


def _field_decoder(tp: Any, where: str) -> _Decoder:
    """The decoder of a field annotated ``tp``.

    A value that already has the annotated type is decoded directly: an
    ``int``, ``str``, ``bool`` or ``float`` of exactly that class, an
    enum's value, a plain ``dict`` for a nested config, ``None`` for an
    ``Optional``.  Anything else goes to :func:`_decode`, which converts
    what it accepts and is the only place a bad value raises, so a
    malformed spec fails with the same message as ever.
    """
    args = typing.get_args(tp) if _is_union(tp) else ()
    concrete = [arg for arg in args if arg is not type(None)]
    optional = len(concrete) < len(args)
    inner = concrete[0] if len(concrete) == 1 else tp

    if inner in (int, str, bool, float):
        def decode_scalar(value: Any) -> Any:
            if value.__class__ is inner or (value is None and optional):
                return value
            return _decode(tp, value, where)
        return decode_scalar
    if isinstance(inner, type) and issubclass(inner, Enum):
        members = {member.value: member for member in inner
                   if member.value.__class__ is str}

        def decode_enum(value: Any) -> Any:
            if value.__class__ is str and value in members:
                return members[value]
            if value is None and optional:
                return None
            return _decode(tp, value, where)
        return decode_enum
    if isinstance(inner, type) and dataclasses.is_dataclass(inner):
        def decode_nested(value: Any) -> Any:
            if value.__class__ is dict:
                return _build(inner, value)
            if value is None and optional:
                return None
            return _decode(tp, value, where)
        return decode_nested
    return lambda value: _decode(tp, value, where)


def _is_union(tp: Any) -> bool:
    origin = typing.get_origin(tp)
    return origin is typing.Union or (
        _UNION_TYPE is not None and origin is _UNION_TYPE
    )


def _decode(tp: Any, value: Any, where: str) -> Any:
    if _is_union(tp):
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
