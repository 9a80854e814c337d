"""The spec decoder against its frozen oracle, ``tests/spec_reference.py``.

:func:`repro.predictors.spec.from_spec` decodes a value that already has
its field's annotated type directly and sends every other value to
``_decode``, the only code that raises.  So for any input both decoders
must build equal configs, or raise the same exception type with the same
message: unknown keys first, then the fields in declaration order.

The inputs are every registered kind's ``spec_examples``, every preset, a
hand-picked list of malformed specs, and (with hypothesis) specs mutated
at any field path of :class:`~repro.predictors.EngineConfig` and of the
small test configs below, which add the annotations no engine field uses:
a float, an optional enum, an optional nested config, a two-type union
and a tuple.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import typing
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, List, Optional, Tuple, Union

import pytest

from repro.experiments.configs import PRESETS
from repro.predictors import EngineConfig, TargetCacheConfig, from_spec
from repro.predictors.registry import registrations
from tests.spec_reference import from_spec as reference_from_spec

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


class Shade(Enum):
    LIGHT = "light"
    DARK = "dark"


@dataclass(frozen=True)
class Inner:
    ratio: float = 0.5
    shade: Optional[Shade] = None


@dataclass(frozen=True)
class Outer:
    count: int = 1
    ratio: float = 1.0
    name: str = "x"
    flag: bool = False
    shade: Shade = Shade.LIGHT
    inner: Inner = field(default_factory=Inner)
    maybe_inner: Optional[Inner] = None
    maybe_count: Optional[int] = None
    either: Union[int, str] = 0
    pair: Tuple[int, int] = (0, 0)


#: The configs the mutated specs are decoded as.
CLASSES: List[type] = [EngineConfig, TargetCacheConfig, Outer]
if sys.version_info >= (3, 10):  # ``X | None`` resolves to types.UnionType
    Piped = dataclasses.make_dataclass(
        "Piped", [("ratio", float | None, None), ("shade", Shade | None, None)],
        frozen=True)
    CLASSES.append(Piped)


def typed(value: Any) -> Any:
    """``value`` with the type of every field beside it, so ``2`` and
    ``2.0`` or ``True`` and ``1`` do not compare equal."""
    if dataclasses.is_dataclass(value):
        return (type(value), tuple(
            (f.name, typed(getattr(value, f.name)))
            for f in dataclasses.fields(value)))
    return (type(value), value)


def outcome(decode: Any, cls: type, spec: Any) -> Any:
    """What ``decode(cls, spec)`` builds, or the type and message it raises."""
    try:
        return ("ok", typed(decode(cls, spec)))
    except Exception as exc:  # every exception must match, whatever it is
        return ("raised", type(exc), str(exc))


def assert_same(cls: type, spec: Any) -> None:
    assert outcome(from_spec, cls, spec) == outcome(
        reference_from_spec, cls, spec)


# ----------------------------------------------------------------------
# Shipped specs: every kind's examples and every preset.
# ----------------------------------------------------------------------
EXAMPLES = [example for entry in registrations()
            for example in entry.spec_examples]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda c: c.kind)
def test_spec_examples_decode_alike(example):
    assert_same(TargetCacheConfig, example.to_spec())
    engine = EngineConfig(target_cache=example).to_spec()
    assert_same(EngineConfig, engine)
    assert from_spec(EngineConfig, engine) == EngineConfig(
        target_cache=example)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_decode_alike(name):
    assert_same(EngineConfig, PRESETS[name])


# ----------------------------------------------------------------------
# Malformed and unusual specs, by hand.
# ----------------------------------------------------------------------
FULL_TC = TargetCacheConfig(kind="tagged", tag_bits=6).to_spec()
CASES = [
    (TargetCacheConfig, {"entries": True}),            # True for an int
    (TargetCacheConfig, {"tag_bits": False}),          # ... an Optional int
    (Outer, {"ratio": 2}),                             # an int for a float
    (Outer, {"ratio": True}),
    (Outer, {"inner": {"ratio": 3}}),
    (TargetCacheConfig, {"indexing": "adress"}),       # unknown enum value
    (TargetCacheConfig, {"indexing": 3}),
    (TargetCacheConfig, {"indexing": ["address"]}),    # unhashable
    (Outer, {"shade": "DARK"}),                        # the name, not value
    (Outer, {"shade": Shade.DARK}),                    # a member itself
    (EngineConfig, {"history": "pattern"}),            # non-dict nested
    (EngineConfig, {"target_cache": 5}),
    (EngineConfig, {"target_cache": ["tagless"]}),
    (EngineConfig, {"target_cache": MappingProxyType(FULL_TC)}),
    (EngineConfig, {"direction": MappingProxyType({"scheme": "pas"})}),
    (EngineConfig, MappingProxyType({"btb_sets": 16})),  # top level
    (EngineConfig, [("btb_sets", 16)]),                # not a mapping
    (EngineConfig, {"btb_sets": None}),                # None, not Optional
    (EngineConfig, {"history": None}),
    (EngineConfig, {"target_cache": None}),            # None, Optional
    (Outer, {"maybe_inner": None, "maybe_count": None}),
    (Outer, {"maybe_inner": {"shade": "dark"}, "maybe_count": 3}),
    (Outer, {"maybe_inner": {"shade": None}}),
    (EngineConfig, {"bogus": 1, "btb_sets": "x"}),     # unknown key first
    (EngineConfig, {"history": {"bits": "9", "nope": 1}}),
    (EngineConfig, {"ras_depth": "x", "btb_sets": "y"}),  # declaration order
    (EngineConfig, {"target_cache": {"entries": "x", "kind": 5}}),
    (Outer, {"either": 3}),                            # a two-type union
    (Outer, {"either": None}),
    (Outer, {"pair": [1, 2]}),                         # unsupported type
    (Outer, {"name": 3, "pair": [1, 2]}),
    (TargetCacheConfig, {1: "x"}),                     # a non-string key
]


@pytest.mark.parametrize("cls, spec", CASES,
                         ids=[str(i) for i in range(len(CASES))])
def test_hand_picked_specs_decode_alike(cls, spec):
    assert_same(cls, spec)


def test_a_non_dataclass_is_rejected_alike():
    assert_same(int, {})
    assert_same(Shade, {})


# ----------------------------------------------------------------------
# Hypothesis: specs mutated at any field path.
# ----------------------------------------------------------------------
def field_paths(cls: type, prefix: Tuple[str, ...] = ()) -> List[Tuple[str, ...]]:
    """Every field path of ``cls``, nested configs' fields included."""
    hints = typing.get_type_hints(cls)
    paths = []
    for f in dataclasses.fields(cls):
        path = prefix + (f.name,)
        paths.append(path)
        nested = [arg for arg in (typing.get_args(hints[f.name])
                                  or (hints[f.name],))
                  if dataclasses.is_dataclass(arg)]
        for arg in nested:
            paths.extend(field_paths(arg, path))
    return paths


def set_path(spec: dict, path: Tuple[str, ...], value: Any) -> None:
    """Set ``spec[path] = value``, making each level on the way a new dict
    (a copy of a dict already there), so no shared value is written to."""
    for key in path[:-1]:
        level = spec.get(key)
        spec[key] = dict(level) if isinstance(level, dict) else {}
        spec = spec[key]
    spec[path[-1]] = value


ODD_VALUES = [
    True, False, 0, 7, -3, 1.0, 2.5, "", "gshare", "tagged", "address",
    "path_global", "control", "dark", "nope", None, [], [1], (),
    {}, {"bogus": 1}, {"kind": "oracle"}, {"bits": 3}, {"ratio": 1},
    MappingProxyType({}), MappingProxyType({"kind": "tagged", "assoc": 2}),
    Shade.DARK,
]

if HAVE_HYPOTHESIS:
    BASES = ([(EngineConfig, EngineConfig(target_cache=e).to_spec())
              for e in EXAMPLES]
             + [(TargetCacheConfig, e.to_spec()) for e in EXAMPLES]
             + [(EngineConfig, spec) for spec in PRESETS.values()]
             + [(cls, {}) for cls in CLASSES])

    @st.composite
    def mutated_specs(draw):
        cls, base = draw(st.sampled_from(BASES))
        spec = copy.deepcopy(base)
        paths = field_paths(cls)
        mutations = draw(st.lists(
            st.tuples(st.sampled_from(paths), st.sampled_from(ODD_VALUES)),
            max_size=3))
        for path, value in mutations:
            set_path(spec, path, value)
        if draw(st.booleans()):  # an unknown key, at some level
            where = draw(st.sampled_from([()] + paths))
            set_path(spec, where + ("unknown_field",), 1)
        return cls, spec

    @settings(max_examples=400, deadline=None)
    @given(mutated_specs())
    def test_mutated_specs_decode_alike(case):
        cls, spec = case
        assert_same(cls, spec)
