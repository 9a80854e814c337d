"""The analysis core: suppressions, project loading, registry, CLI."""

import json

import pytest

from repro.analysis import CHECKERS, Project, describe_checkers, run_lint
from repro.analysis.base import Finding, SourceFile, _parse_suppressions
from repro.analysis.report import LintReport
from repro.cli import main


class _StubChecker:
    name = "stub"
    description = "emits one fixed finding"

    def __init__(self, findings):
        self._findings = findings

    def run(self, project):
        return list(self._findings)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_rule_specific(self):
        text = "x = 1  # repro-lint: ignore[det-env-read]\n"
        suppressions = _parse_suppressions(text)
        assert suppressions == {1: frozenset({"det-env-read"})}

    def test_bare_ignore_suppresses_everything(self):
        source = SourceFile.from_text("m.py", "x = 1  # repro-lint: ignore\n")
        assert source.suppressed(1, "any-rule-at-all")
        assert not source.suppressed(2, "any-rule-at-all")

    def test_multiple_rules_one_comment(self):
        source = SourceFile.from_text(
            "m.py", "x = 1  # repro-lint: ignore[rule-a, rule-b]\n"
        )
        assert source.suppressed(1, "rule-a")
        assert source.suppressed(1, "rule-b")
        assert not source.suppressed(1, "rule-c")

    def test_hash_inside_string_is_not_a_comment(self):
        text = 's = "# repro-lint: ignore[rule-a]"\n'
        assert _parse_suppressions(text) == {}

    def test_run_lint_applies_suppression_centrally(self):
        project = Project(
            root=None,
            files=[
                SourceFile.from_text(
                    "m.py", "x = 1  # repro-lint: ignore[stub-rule]\n"
                )
            ],
        )
        checker = _StubChecker([Finding("stub-rule", "m.py", 1, "boom")])
        report = run_lint(project=project, checkers=[checker])
        assert report.clean
        assert report.suppressed == 1

    def test_unsuppressed_finding_survives(self):
        project = Project(root=None, files=[SourceFile.from_text("m.py", "x = 1\n")])
        checker = _StubChecker([Finding("stub-rule", "m.py", 1, "boom")])
        report = run_lint(project=project, checkers=[checker])
        assert [f.rule for f in report.findings] == ["stub-rule"]


# ----------------------------------------------------------------------
# Project loading
# ----------------------------------------------------------------------
class TestProject:
    def test_load_finds_the_installed_package(self):
        project = Project.load()
        assert project.file("predictors/engine.py") is not None
        assert project.file("analysis/base.py") is not None

    def test_files_under_prefix(self):
        project = Project.load()
        relpaths = [f.relpath for f in project.files_under("predictors/")]
        assert "predictors/engine.py" in relpaths
        assert all(p.startswith("predictors/") for p in relpaths)


# ----------------------------------------------------------------------
# Registry and report
# ----------------------------------------------------------------------
class TestRegistryAndReport:
    def test_registry_names_are_unique(self):
        names = [checker.name for checker in CHECKERS]
        assert len(names) == len(set(names))
        assert set(names) == {"determinism", "cache-keys", "bitwidth",
                              "hotloop", "obs", "vector-hygiene",
                              "worker-safety", "transitive-purity",
                              "stale-suppression"}

    def test_only_filters_checkers(self):
        report = run_lint(only=["hotloop"])
        assert report.checkers == ["hotloop"]

    def test_only_rejects_unknown_checker(self):
        with pytest.raises(ValueError, match="no-such-checker"):
            run_lint(only=["no-such-checker"])

    def test_only_error_lists_valid_names(self):
        with pytest.raises(ValueError, match="valid:.*determinism"):
            run_lint(only=["no-such-checker"])

    def test_only_accepts_multiple_names(self):
        report = run_lint(only=["hotloop", "bitwidth"])
        assert set(report.checkers) == {"hotloop", "bitwidth"}

    def test_describe_checkers_lists_every_name(self):
        text = describe_checkers(CHECKERS)
        for checker in CHECKERS:
            assert checker.name in text

    def test_text_report_orders_and_summarises(self):
        report = LintReport(
            findings=[Finding("r", "b.py", 3, "msg-b"),
                      Finding("r", "a.py", 1, "msg-a")],
            checkers=["stub"],
        )
        text = report.to_text()
        assert "b.py:3: [r] msg-b" in text
        assert text.endswith("2 finding(s) from 1 checker(s)")

    def test_json_report_round_trips(self):
        report = LintReport(
            findings=[Finding("r", "a.py", 1, "msg")], checkers=["stub"],
            suppressed=2,
        )
        payload = json.loads(report.to_json())
        assert payload["clean"] is False
        assert payload["suppressed"] == 2
        assert payload["findings"][0] == {
            "rule": "r", "path": "a.py", "line": 1, "message": "msg",
        }

    def test_json_findings_are_sorted_canonically(self):
        report = LintReport(
            findings=[Finding("z", "b.py", 9, "late"),
                      Finding("a", "b.py", 9, "tie"),
                      Finding("r", "a.py", 1, "first")],
            checkers=["stub"],
        )
        payload = json.loads(report.to_json())
        assert [(f["path"], f["line"], f["rule"])
                for f in payload["findings"]] == [
            ("a.py", 1, "r"), ("b.py", 9, "a"), ("b.py", 9, "z"),
        ]

    def test_sarif_report_shape(self):
        report = LintReport(
            findings=[Finding("rule-b", "m.py", 3, "msg-b"),
                      Finding("rule-a", "m.py", 2, "msg-a")],
            checkers=["stub"],
        )
        payload = json.loads(report.to_sarif())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "rule-a", "rule-b",
        ]
        results = run["results"]
        assert [r["ruleId"] for r in results] == ["rule-a", "rule-b"]
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/m.py"
        assert location["region"]["startLine"] == 2
        assert results[0]["level"] == "error"
        # rule indices point back into the driver rules array
        for result in results:
            rule = run["tool"]["driver"]["rules"][result["ruleIndex"]]
            assert rule["id"] == result["ruleId"]

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            LintReport().render("yaml")


# ----------------------------------------------------------------------
# The shipped tree and the CLI
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        report = run_lint()
        assert report.clean, report.to_text()

    def test_cli_lint_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_cli_lint_json_parses(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True

    def test_cli_lint_list_checks(self, capsys):
        assert main(["lint", "--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "determinism" in out and "bitwidth" in out

    def test_cli_lint_unknown_only_is_usage_error(self, capsys):
        assert main(["lint", "--only", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err and "valid:" in err

    def test_cli_lint_only_comma_separated(self, capsys):
        assert main(["lint", "--only", "hotloop,bitwidth",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["checkers"]) == {"hotloop", "bitwidth"}

    def test_cli_lint_sarif_parses(self, capsys):
        assert main(["lint", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"] == []

    def test_cli_lint_findings_exit_nonzero(self, capsys, monkeypatch):
        import repro.analysis as analysis

        bad = _StubChecker([Finding("stub-rule", "m.py", 1, "boom")])
        monkeypatch.setattr(analysis, "CHECKERS", [bad])
        assert main(["lint"]) == 1
        assert "stub-rule" in capsys.readouterr().out
