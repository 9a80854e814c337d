"""The declarative spec codec: lossless, JSON-stable, and key-coherent.

Three contracts pin the registry-era architecture:

1. ``from_spec(to_spec(cfg)) == cfg`` over the full config space — the
   spec is the config, with nothing dropped (hypothesis-swept when
   available, plus a hand-picked corner set either way);
2. :func:`repro.runner.keys.cell_key` is a pure function of the spec —
   equal specs give equal keys, different specs give different keys;
3. registry-built predictors are bit-identical to directly-constructed
   ones on every Table 4/7/9 cell, so routing construction through the
   registry changed no simulated result.
"""

import dataclasses
import json

import pytest

import repro.predictors.spec as spec_codec
from repro.experiments import configs as preset_configs
from repro.experiments.table4 import SCHEMES as TABLE4_SCHEMES
from repro.experiments.table4 import _config as table4_config
from repro.predictors import (
    EngineConfig,
    HistoryConfig,
    HistorySource,
    TargetCacheConfig,
    build_target_cache,
    from_spec,
    to_spec,
)
from repro.predictors.btb import UpdateStrategy
from repro.predictors.direction import DirectionConfig
from repro.predictors.history import PathFilter
from repro.predictors.indexing import parse_scheme
from repro.predictors.target_cache import (
    TaggedIndexing,
    TaggedTargetCache,
    TaglessTargetCache,
)
from repro.runner.keys import cell_key

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# Hand-picked corners (run even without hypothesis)
# ----------------------------------------------------------------------
CORNER_CONFIGS = [
    EngineConfig(),
    EngineConfig(btb_strategy=UpdateStrategy.TWO_BIT, ras_depth=1),
    EngineConfig(target_cache=TargetCacheConfig()),
    EngineConfig(
        target_cache=TargetCacheConfig(
            kind="tagged", entries=64, assoc=8,
            indexing=TaggedIndexing.ADDRESS, tag_bits=6, replacement="random",
        ),
        history=HistoryConfig(source=HistorySource.PATH_GLOBAL, bits=13,
                              bits_per_target=3, address_bit=4,
                              path_filter=PathFilter.IND_JMP),
    ),
    EngineConfig(
        target_cache=TargetCacheConfig(kind="cascaded", tag_bits=None),
        history=HistoryConfig(source=HistorySource.PATH_PER_ADDRESS, bits=18),
        target_cache_handles_returns=True,
    ),
    EngineConfig(target_cache=TargetCacheConfig(kind="ittage", entries=32),
                 direction=DirectionConfig(scheme="pas", history_bits=6)),
    EngineConfig(target_cache=TargetCacheConfig(
        kind="btb2", entries=64, assoc=4, l2_entries=8192, l2_assoc=8)),
    EngineConfig(target_cache=TargetCacheConfig(kind="btb2", l2_entries=0)),
    EngineConfig(target_cache=TargetCacheConfig(kind="oracle")),
    EngineConfig(target_cache=TargetCacheConfig(kind="last_target")),
]


@pytest.mark.parametrize("config", CORNER_CONFIGS,
                         ids=lambda c: (c.target_cache.kind
                                        if c.target_cache else "none"))
def test_round_trip_corners(config):
    spec = config.to_spec()
    # the spec is genuinely JSON: a dumps/loads cycle must be the identity
    assert json.loads(json.dumps(spec)) == spec
    assert EngineConfig.from_spec(spec) == config


def spec_drift(config):
    """Fields of ``config``, recursively, that its spec leaves out.

    :func:`repro.runner.keys.cell_key` hashes the spec, so a field the
    codec drops would stop invalidating cached results when it changes.
    """
    try:
        spec = spec_codec.to_spec(config)
    except TypeError as exc:
        return [f"to_spec failed on {type(config).__name__}: {exc}"]

    def missing(value, rendered):
        out = []
        for f in dataclasses.fields(value):
            nested = getattr(value, f.name)
            if f.name not in rendered:
                out.append(f"{type(value).__name__}.{f.name}")
            elif dataclasses.is_dataclass(nested):
                out += missing(nested, rendered[f.name])
        return out

    return missing(config, spec)


def test_round_trip_covers_every_field():
    """to_spec is total: every dataclass field appears, recursively."""
    assert spec_drift(EngineConfig(target_cache=TargetCacheConfig())) == []


def test_shipped_configs_render_completely():
    """Every preset renders every field, whatever values it holds."""
    for name in preset_configs.preset_names():
        assert spec_drift(preset_configs.preset(name)) == [], name


def test_spec_drift_names_an_unrenderable_field():
    bad = dataclasses.make_dataclass("BadSpecConfig", [("excluded", set)])
    [problem] = spec_drift(bad(excluded={1}))
    assert "to_spec failed" in problem


@pytest.mark.parametrize("config_cls,dropped", [
    (EngineConfig, "btb_sets"),
    (TargetCacheConfig, "tag_bits"),
], ids=["top-level", "nested"])
def test_spec_drift_names_a_dropped_field(monkeypatch, config_cls, dropped):
    # A codec that silently drops one field, at the top level or nested:
    # the cache key built from its output would ignore edits to it.
    real = spec_codec.to_spec

    def lossy(value):
        rendered = real(value)
        if isinstance(value, config_cls):
            rendered.pop(dropped)
        return rendered

    monkeypatch.setattr(spec_codec, "to_spec", lossy)
    assert spec_drift(EngineConfig(target_cache=TargetCacheConfig())) == [
        f"{config_cls.__name__}.{dropped}"
    ]


def test_enums_encode_as_values():
    spec = EngineConfig(btb_strategy=UpdateStrategy.TWO_BIT).to_spec()
    assert spec["btb_strategy"] == "two_bit"
    tc = TargetCacheConfig(indexing=TaggedIndexing.ADDRESS).to_spec()
    assert tc["indexing"] == "address"


def test_partial_spec_fills_defaults():
    config = EngineConfig.from_spec({"target_cache": {"kind": "oracle"}})
    assert config.target_cache == TargetCacheConfig(kind="oracle")
    assert config.btb_sets == EngineConfig().btb_sets
    assert config.history == HistoryConfig()


def test_unknown_field_rejected():
    with pytest.raises(ValueError, match="unknown.*bogus"):
        EngineConfig.from_spec({"bogus": 1})
    with pytest.raises(ValueError, match="unknown.*entires"):
        TargetCacheConfig.from_spec({"entires": 512})


def test_bad_enum_value_names_the_field_and_choices():
    with pytest.raises(ValueError, match="indexing.*address"):
        TargetCacheConfig.from_spec({"indexing": "adress"})


def test_type_mismatch_rejected():
    with pytest.raises(ValueError, match="entries"):
        TargetCacheConfig.from_spec({"entries": "lots"})
    with pytest.raises(ValueError, match="entries"):
        TargetCacheConfig.from_spec({"entries": True})  # bool is not an int
    with pytest.raises(ValueError, match="target_cache"):
        EngineConfig.from_spec({"target_cache": "oracle"})


def test_from_spec_requires_mapping():
    with pytest.raises(ValueError, match="mapping"):
        EngineConfig.from_spec([1, 2])
    with pytest.raises(TypeError):
        from_spec(int, {})
    with pytest.raises(TypeError):
        to_spec(42)


# ----------------------------------------------------------------------
# Hypothesis: the full config space round-trips
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    target_cache_configs = st.builds(
        TargetCacheConfig,
        kind=st.sampled_from(
            ["tagless", "tagged", "cascaded", "ittage", "btb2", "oracle",
             "last_target"]
        ),
        scheme=st.sampled_from(["gag", "gas", "gshare"]),
        history_bits=st.integers(min_value=1, max_value=20),
        address_bits=st.integers(min_value=0, max_value=8),
        entries=st.sampled_from([16, 64, 256, 1024]),
        assoc=st.sampled_from([1, 2, 4, 8]),
        indexing=st.sampled_from(list(TaggedIndexing)),
        tag_bits=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        replacement=st.sampled_from(["lru", "random"]),
        l2_entries=st.sampled_from([0, 1024, 4096, 8192]),
        l2_assoc=st.sampled_from([1, 2, 4, 8]),
    )
    history_configs = st.builds(
        HistoryConfig,
        source=st.sampled_from(list(HistorySource)),
        bits=st.integers(min_value=1, max_value=64),
        bits_per_target=st.integers(min_value=1, max_value=8),
        address_bit=st.integers(min_value=0, max_value=8),
        path_filter=st.sampled_from(list(PathFilter)),
    )
    engine_configs = st.builds(
        EngineConfig,
        btb_sets=st.sampled_from([16, 256]),
        btb_ways=st.sampled_from([1, 4]),
        btb_strategy=st.sampled_from(list(UpdateStrategy)),
        direction=st.builds(
            DirectionConfig,
            scheme=st.sampled_from(["gag", "gas", "gshare", "pas"]),
            history_bits=st.integers(min_value=1, max_value=16),
            address_bits=st.integers(min_value=0, max_value=4),
        ),
        ras_depth=st.integers(min_value=0, max_value=64),
        target_cache=st.one_of(st.none(), target_cache_configs),
        history=history_configs,
        target_cache_handles_returns=st.booleans(),
    )

    @settings(max_examples=200, deadline=None)
    @given(engine_configs)
    def test_round_trip_full_space(config):
        spec = config.to_spec()
        assert EngineConfig.from_spec(json.loads(json.dumps(spec))) == config

    @settings(max_examples=50, deadline=None)
    @given(engine_configs, engine_configs)
    def test_cell_key_is_a_function_of_the_spec(a, b):
        key_a = cell_key("perl", a, 1000, 1)
        key_b = cell_key("perl", b, 1000, 1)
        assert (key_a == key_b) == (a.to_spec() == b.to_spec())


def test_cell_key_stable_against_spec():
    """Equal specs -> equal keys; any field change -> a different key."""
    base = EngineConfig(target_cache=TargetCacheConfig())
    same = EngineConfig.from_spec(base.to_spec())
    assert cell_key("perl", base, 1000, 1) == cell_key("perl", same, 1000, 1)
    changed = EngineConfig(
        target_cache=TargetCacheConfig(history_bits=10)
    )
    assert cell_key("perl", base, 1000, 1) != cell_key("perl", changed, 1000, 1)


# ----------------------------------------------------------------------
# Presets are specs for the canonical constructor configs
# ----------------------------------------------------------------------
def test_presets_match_constructors():
    from repro.experiments.modern import _cascade_engine, ittage_engine

    assert preset_configs.preset("btb-only") == EngineConfig()
    assert preset_configs.preset("tagless-gshare9") == (
        preset_configs.tagless_engine()
    )
    assert preset_configs.preset("tagged-4way") == (
        preset_configs.tagged_engine(assoc=4)
    )
    assert preset_configs.preset("cascaded-256") == (
        _cascade_engine(preset_configs.pattern_history(9))
    )
    assert preset_configs.preset("ittage-lite") == ittage_engine()
    assert preset_configs.preset("btb2-micro") == preset_configs.btb2_engine()


def test_preset_unknown_name():
    with pytest.raises(KeyError, match="available"):
        preset_configs.preset("nope")
    assert preset_configs.preset_names()[0] == "btb-only"


# ----------------------------------------------------------------------
# Registry-built == directly-constructed on every Table 4/7/9 cell
# ----------------------------------------------------------------------
def _drive(predictor, calls):
    """Deterministic predict/update interleaving; returns the outputs."""
    out = []
    for pc, history, target in calls:
        out.append(predictor.predict(pc, history))
        predictor.update(pc, history, target)
    return out


def _call_sequence(n=400):
    """A deterministic, interference-heavy (pc, history, target) stream."""
    calls = []
    state = 12345
    for i in range(n):
        state = (1103515245 * state + 12345) % (1 << 31)
        pc = 0x1000 + (state % 37) * 4
        history = (state >> 7) & 0x1FFFF
        target = 0x8000 + (state % 11) * 4
        calls.append((pc, history, target))
    return calls


def _table_479_cells():
    from repro.experiments.table9 import _config as table9_config

    cells = [table4_config(kwargs) for kwargs in TABLE4_SCHEMES]
    cells += [
        preset_configs.tagged_engine(assoc=assoc, indexing=indexing)
        for assoc in (1, 2, 4, 8, 16, 32)
        for indexing in TaggedIndexing
    ]
    cells += [
        table9_config(assoc, bits)
        for assoc in (1, 2, 4, 8, 16, 32)
        for bits in (9, 16)
    ]
    return cells


def _direct_build(config):
    """Construct the predictor the pre-registry if/elif chain built."""
    if config.kind == "tagless":
        return TaglessTargetCache(
            parse_scheme(config.scheme, config.history_bits,
                         config.address_bits)
        )
    assert config.kind == "tagged"
    return TaggedTargetCache(
        entries=config.entries, assoc=config.assoc,
        indexing=config.indexing, history_bits=config.history_bits,
        tag_bits=config.tag_bits, replacement=config.replacement,
    )


def test_registry_matches_direct_construction_on_table_cells():
    calls = _call_sequence()
    cells = _table_479_cells()
    assert len(cells) == 4 + 18 + 12
    for engine_config in cells:
        tc = engine_config.target_cache
        assert tc is not None
        via_registry = _drive(build_target_cache(tc), calls)
        direct = _drive(_direct_build(tc), calls)
        assert via_registry == direct, tc
