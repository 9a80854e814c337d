"""The cache-key checker: field types, token drift, module coverage."""

import dataclasses
import textwrap
from dataclasses import field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.base import Project, SourceFile
from repro.analysis.cache_keys import (
    CacheKeyChecker,
    check_config_fields,
    check_module_coverage,
    check_modules_exist,
    check_token_completeness,
    import_closure,
    internal_imports,
)
from repro.pipeline import MachineConfig
from repro.predictors import EngineConfig, TargetCacheConfig
from repro.runner.keys import config_token


def _rules(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# Field-type validation
# ----------------------------------------------------------------------
class TestConfigFields:
    def test_shipped_configs_are_tokenisable(self):
        assert check_config_fields(EngineConfig) == []
        assert check_config_fields(MachineConfig) == []

    def test_set_field_is_flagged(self):
        # The seeded-bad fixture: a config gains a set-typed field, which
        # config_token cannot render canonically (iteration order).
        bad = dataclasses.make_dataclass(
            "BadConfig", [("excluded_pcs", Set[int], field(default=None))]
        )
        findings = check_config_fields(bad)
        assert _rules(findings) == ["cachekey-field-type"]
        assert "excluded_pcs" in findings[0].message

    def test_plain_class_field_is_flagged(self):
        class Opaque:
            pass

        bad = dataclasses.make_dataclass(
            "BadConfig", [("thing", Opaque, field(default=None))]
        )
        assert _rules(check_config_fields(bad)) == ["cachekey-field-type"]

    def test_nested_dataclass_fields_are_checked_transitively(self):
        inner = dataclasses.make_dataclass(
            "Inner", [("weights", Dict[object, int], field(default=None))]
        )
        outer = dataclasses.make_dataclass(
            "Outer", [("inner", inner, field(default=None))]
        )
        findings = check_config_fields(outer)
        assert "cachekey-field-type" in _rules(findings)

    def test_optional_and_tuple_fields_are_accepted(self):
        ok = dataclasses.make_dataclass(
            "OkConfig",
            [
                ("depth", Optional[int], field(default=None)),
                ("lengths", Tuple[int, ...], field(default=())),
                ("names", List[str], field(default_factory=list)),
            ],
        )
        assert check_config_fields(ok) == []

    def test_pep604_union_is_accepted(self):
        ok = dataclasses.make_dataclass(
            "Ok604", [("depth", "int | None", field(default=None))]
        )
        assert check_config_fields(ok) == []


# ----------------------------------------------------------------------
# Token completeness
# ----------------------------------------------------------------------
class TestTokenCompleteness:
    def test_shipped_token_covers_every_field(self):
        config = EngineConfig(target_cache=TargetCacheConfig())
        assert check_token_completeness(config, config_token) == []
        assert check_token_completeness(MachineConfig(), config_token) == []

    def test_dropped_field_is_detected(self):
        # A "config_token" that forgets one field must be caught.
        def lossy_token(value):
            token = config_token(value)
            if isinstance(token, list) and isinstance(token[1], dict):
                token[1].pop("btb_sets", None)
            return token

        config = EngineConfig()
        findings = check_token_completeness(config, lossy_token)
        assert _rules(findings) == ["cachekey-token-drift"]
        assert "btb_sets" in findings[0].message

    def test_token_failure_is_reported_not_raised(self):
        def broken_token(value):
            raise TypeError("cannot tokenise")

        findings = check_token_completeness(EngineConfig(), broken_token)
        assert _rules(findings) == ["cachekey-token-drift"]


# ----------------------------------------------------------------------
# Module coverage
# ----------------------------------------------------------------------
def _project(files):
    return Project(root=None, files=[
        SourceFile.from_text(relpath, textwrap.dedent(text))
        for relpath, text in files.items()
    ])


class TestModuleCoverage:
    def test_internal_imports_sees_both_forms(self):
        project = _project({
            "predictors/engine.py": """
                import repro.guest.isa
                from repro.predictors.history import PatternHistoryRegister
                from repro.trace import trace
            """,
            "predictors/history.py": "x = 1\n",
            "guest/isa.py": "x = 1\n",
            "trace/trace.py": "x = 1\n",
            "trace/__init__.py": "",
        })
        imported = internal_imports(project, "repro.predictors.engine")
        assert imported == {
            "repro.guest.isa",
            "repro.predictors.history",
            "repro.trace.trace",
        }

    def test_closure_is_transitive(self):
        project = _project({
            "predictors/engine.py": "from repro.predictors import btb\n",
            "predictors/btb.py": "from repro.predictors import ras\n",
            "predictors/ras.py": "x = 1\n",
            "predictors/__init__.py": "",
        })
        closure = import_closure(project, ["repro.predictors.engine"])
        assert "repro.predictors.ras" in closure

    def test_uncovered_kernel_module_is_flagged(self):
        project = _project({
            "predictors/engine.py": "from repro.predictors import shiny\n",
            "predictors/shiny.py": "x = 1\n",
            "predictors/__init__.py": "",
        })
        findings = check_module_coverage(
            project, ["repro.predictors.engine"],
            covered=("repro.guest.isa",), anchor=("runner/keys.py", 1),
        )
        assert "cachekey-module-uncovered" in _rules(findings)
        assert any("shiny" in f.message for f in findings)

    def test_package_entry_covers_submodules(self):
        project = _project({
            "predictors/engine.py": "from repro.predictors import shiny\n",
            "predictors/shiny.py": "x = 1\n",
            "predictors/__init__.py": "",
        })
        findings = check_module_coverage(
            project, ["repro.predictors.engine"],
            covered=("repro.predictors",), anchor=("runner/keys.py", 1),
        )
        assert findings == []

    def test_streams_is_a_prediction_root(self):
        # The stream kernel must sit inside the fingerprinted closure: an
        # edit to it changes results-producing code, so it has to
        # invalidate cached results exactly like an engine edit.
        from repro.analysis.cache_keys import PREDICTION_ROOTS
        from repro.runner.keys import _ENGINE_CODE_MODULES

        assert "repro.predictors.streams" in PREDICTION_ROOTS
        project = Project.load()
        closure = import_closure(project, PREDICTION_ROOTS)
        assert "repro.predictors.streams" in closure
        # and the fingerprint list actually covers it (package entry)
        anchor = ("runner/keys.py", 1)
        assert check_module_coverage(
            project, ("repro.predictors.streams",),
            covered=tuple(_ENGINE_CODE_MODULES), anchor=anchor,
        ) == []

    def test_streams_importing_uncovered_module_is_flagged(self):
        # Known-bad fixture: a streams.py that pulls a helper from outside
        # every fingerprinted package — the checker must flag it, because
        # edits to that helper would not invalidate cached results.
        project = _project({
            "predictors/streams.py": """
                from repro.predictors.fastmath import suffix_mask
            """,
            "predictors/fastmath.py": "def suffix_mask(w): return (1 << w) - 1\n",
            "predictors/__init__.py": "",
        })
        findings = check_module_coverage(
            project, ["repro.predictors.streams"],
            covered=("repro.predictors.engine",),
            anchor=("runner/keys.py", 1),
        )
        assert "cachekey-module-uncovered" in _rules(findings)
        assert any("fastmath" in f.message for f in findings)

    def test_missing_fingerprint_module_is_flagged(self):
        findings = check_modules_exist(
            ("repro.predictors", "repro.no_such_module"),
            anchor=("runner/keys.py", 1),
        )
        assert _rules(findings) == ["cachekey-module-missing"]

    def test_shipped_tree_coverage_holds(self):
        findings = CacheKeyChecker().run(Project.load())
        assert findings == [], [f.format() for f in findings]
