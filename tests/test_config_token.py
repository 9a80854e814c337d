"""``config_token`` edge cases and the cache-key defect regressions.

The persistent result cache trusts ``config_token`` to be injective on
config space and stable across Python versions; these tests pin the
rendering conventions that guarantee both.
"""

import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Dict

import pytest

from repro.pipeline import MachineConfig
from repro.predictors import (
    EngineConfig,
    HistoryConfig,
    HistorySource,
    TargetCacheConfig,
)
from repro.runner.keys import (
    _fingerprint_label,
    cell_key,
    config_token,
    engine_code_fingerprint,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


@dataclass(frozen=True)
class _Inner:
    depth: int = 4


@dataclass(frozen=True)
class _Outer:
    inner: _Inner = field(default_factory=_Inner)
    name: str = "x"


class _Knob(IntEnum):
    LOW = 0
    HIGH = 1


class TestRendering:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert config_token(value) == value

    def test_dataclass_renders_module_qualified_name(self):
        token = config_token(_Inner())
        assert token[0] == f"{_Inner.__module__}.{_Inner.__qualname__}"
        assert token[1] == {"depth": 4}

    def test_nested_dataclasses_render_recursively(self):
        token = config_token(_Outer())
        fields = token[1]
        assert fields["name"] == "x"
        inner_name, inner_fields = fields["inner"]
        assert inner_name.endswith("._Inner")
        assert inner_fields == {"depth": 4}

    def test_same_name_different_module_do_not_collide(self):
        # Regression: tokens used bare class names, so a same-named
        # dataclass anywhere in the codebase aliased cache entries.
        import tests.test_config_token as here

        @dataclass(frozen=True)
        class _Inner:  # shadows the module-level _Inner by bare name
            depth: int = 4

        clone = _Inner()
        assert type(clone).__name__ == here._Inner.__name__
        assert config_token(clone) != config_token(here._Inner())

    def test_enum_renders_qualified_name_and_value(self):
        token = config_token(HistorySource.PATTERN)
        assert token[1] == HistorySource.PATTERN.value
        assert token[0].endswith("HistorySource")
        assert "." in token[0]

    def test_tuple_and_list_render_distinctly(self):
        # Regression: both rendered as JSON arrays, so configs differing
        # only in ("a",) vs ["a"] shared a cache key.
        assert config_token((1, 2)) != config_token([1, 2])
        assert config_token((1, 2)) == ["tuple", [1, 2]]
        assert config_token([1, 2]) == [1, 2]

    def test_empty_tuple_differs_from_empty_list(self):
        assert config_token(()) != config_token([])

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            config_token({1, 2, 3})


class TestDictKeys:
    def test_intenum_keys_render_as_class_dot_member(self):
        # str(IntEnum) changed between 3.10 ("Knob.LOW") and 3.12 ("0");
        # the rendering must not follow it.
        token = config_token({_Knob.LOW: 1, _Knob.HIGH: 2})
        assert token == {"_Knob.LOW": 1, "_Knob.HIGH": 2}

    def test_machine_config_latencies_are_stable(self):
        token = config_token(MachineConfig())
        latencies = token[1]["latencies"]
        assert all(key.startswith("InstrClass.") for key in latencies)

    def test_dict_key_order_is_canonical(self):
        forward = config_token({_Knob.LOW: 1, _Knob.HIGH: 2})
        backward = config_token({_Knob.HIGH: 2, _Knob.LOW: 1})
        assert json.dumps(forward, sort_keys=True) == \
            json.dumps(backward, sort_keys=True)


class TestEngineConfigTokens:
    def test_full_config_is_json_serialisable(self):
        config = EngineConfig(
            target_cache=TargetCacheConfig(kind="tagged"),
            history=HistoryConfig(source=HistorySource.PATH_GLOBAL),
        )
        json.dumps(config_token(config))  # must not raise

    def test_distinct_configs_distinct_tokens(self):
        base = EngineConfig()
        variants = [
            EngineConfig(btb_sets=base.btb_sets * 2),
            EngineConfig(ras_depth=base.ras_depth + 1),
            EngineConfig(target_cache=TargetCacheConfig()),
            EngineConfig(history=HistoryConfig(bits=13)),
        ]
        tokens = {json.dumps(config_token(c), sort_keys=True)
                  for c in [base] + variants}
        assert len(tokens) == len(variants) + 1

    def test_cell_key_depends_on_config(self):
        a = cell_key("compress", EngineConfig(), 1000, 1)
        b = cell_key("compress", EngineConfig(btb_sets=1024), 1000, 1)
        assert a != b


class TestFingerprintLabels:
    def test_label_is_package_relative(self):
        import repro.predictors.engine as engine_module

        label = _fingerprint_label(Path(engine_module.__file__))
        assert label == "repro/predictors/engine.py"

    def test_same_basename_files_get_distinct_labels(self):
        # Regression: labels used path.name only, so pipeline/config.py
        # and target_cache/config.py hashed under the same label.
        import repro.pipeline.config as pipeline_config
        import repro.predictors.target_cache.config as tc_config

        a = _fingerprint_label(Path(pipeline_config.__file__))
        b = _fingerprint_label(Path(tc_config.__file__))
        assert a != b

    def test_outside_package_falls_back_to_name(self, tmp_path):
        stray = tmp_path / "stray.py"
        stray.write_text("x = 1\n")
        assert _fingerprint_label(stray) == "stray.py"

    def test_engine_fingerprint_is_stable_within_a_process(self):
        assert engine_code_fingerprint() == engine_code_fingerprint()


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestTokenInjectivity:
    @settings(max_examples=60, deadline=None)
    @given(
        btb_sets=st.sampled_from([128, 256, 512]),
        ras_depth=st.integers(min_value=0, max_value=16),
        bits=st.integers(min_value=1, max_value=16),
        source=st.sampled_from(list(HistorySource)),
    )
    def test_distinct_configs_never_collide(self, btb_sets, ras_depth, bits,
                                            source):
        config = EngineConfig(
            btb_sets=btb_sets,
            ras_depth=ras_depth,
            history=HistoryConfig(bits=bits, source=source),
        )
        rendered = json.dumps(config_token(config), sort_keys=True)
        seen = _SEEN_TOKENS.setdefault(rendered, config)
        assert seen == config  # same token implies same config

_SEEN_TOKENS: Dict[str, EngineConfig] = {}
