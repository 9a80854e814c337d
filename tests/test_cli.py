"""Tests for the command-line interface."""

import json

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table4" in out
    assert "perl" in out
    assert "richards" in out


def test_list_command_describes_entries(capsys):
    """Every experiment and workload line carries a description."""
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("  "):
            name, _, description = line.strip().partition("  ")
            assert description.strip(), f"no description for {name!r}"


def test_predictors_command(capsys):
    assert main(["predictors"]) == 0
    out = capsys.readouterr().out
    for kind in ("tagless", "tagged", "cascaded", "ittage", "oracle",
                 "last_target"):
        assert kind in out
    assert "traits:" in out
    assert "needs-history" in out
    assert "spec fields:" in out
    # parameterised example labels, not bare kind strings
    assert "ittage(4x" in out


def test_predictors_command_shows_backend_support(capsys):
    assert main(["predictors"]) == 0
    out = capsys.readouterr().out
    # every kind advertises its execution-tier chain, best first
    assert "backends: vector > streams > engine" in out   # tagless family
    assert "backends: streams > engine" in out            # tagged/cascaded
    backend_lines = [line for line in out.splitlines()
                     if "backends:" in line]
    kinds = [line for line in out.splitlines()
             if line.startswith("  ") and not line.startswith("    ")]
    assert len(backend_lines) == len(kinds)


def test_lint_exit_codes(capsys):
    # clean tree -> 0; unknown checker -> usage error 2 naming the valid set
    assert main(["lint"]) == 0
    assert "no findings" in capsys.readouterr().out
    assert main(["lint", "--only", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "worker-safety" in err


def test_lint_json_schema(capsys):
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["findings"] == []
    assert "worker-safety" in payload["checkers"]
    assert "transitive-purity" in payload["checkers"]
    assert payload["suppressed"] >= 1


def test_lint_sarif_schema(capsys):
    assert main(["lint", "--format", "sarif"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in payload["$schema"]
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert run["results"] == []


def test_lint_only_comma_and_repeat_compose(capsys):
    assert main(["lint", "--only", "determinism,hotloop",
                 "--only", "bitwidth", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["checkers"]) == {"determinism", "hotloop", "bitwidth"}


def test_unknown_experiment_fails(capsys):
    assert main(["table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_trace_command(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    assert main(["trace", "compress", "--trace-length", "8000"]) == 0
    out = capsys.readouterr().out
    assert "8000 instructions" in out
    assert "indirect jumps" in out


def test_trace_command_requires_workload(capsys):
    assert main(["trace"]) == 2


def test_dump_command(capsys):
    assert main(["dump", "perl", "--head", "20"]) == 0
    out = capsys.readouterr().out
    assert "static indirect jumps" in out
    assert "jmp" in out or "li" in out


def test_dump_requires_workload(capsys):
    assert main(["dump"]) == 2


def test_experiment_command_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    assert main(["table4", "--trace-length", "40000"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert "gshare(9)" in out


def test_sweep_requires_spec(capsys):
    assert main(["sweep"]) == 2
    assert "--spec" in capsys.readouterr().err


def test_sweep_missing_spec_file(capsys, tmp_path):
    assert main(["sweep", "--spec", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_sweep_rejects_bad_cells(capsys, tmp_path):
    spec = tmp_path / "sweep.json"

    spec.write_text("{not json")
    assert main(["sweep", "--spec", str(spec)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    spec.write_text(json.dumps({"cells": []}))
    assert main(["sweep", "--spec", str(spec)]) == 2
    assert "non-empty" in capsys.readouterr().err

    spec.write_text(json.dumps(
        {"cells": [{"preset": "oracle", "engine": {}}]}
    ))
    assert main(["sweep", "--spec", str(spec)]) == 2
    assert "exactly one" in capsys.readouterr().err

    spec.write_text(json.dumps(
        {"benchmarks": ["no_such_bench"], "cells": [{"preset": "oracle"}]}
    ))
    assert main(["sweep", "--spec", str(spec)]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_sweep_runs_spec_cells(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "benchmarks": ["perl"],
        "cells": [
            {"preset": "btb-only"},
            {"engine": {"target_cache": {"kind": "tagless"},
                        "history": {"source": "pattern", "bits": 9}},
             "label": "my-tagless"},
        ],
    }))
    assert main(["sweep", "--spec", str(spec),
                 "--trace-length", "20000"]) == 0
    out = capsys.readouterr().out
    assert "perl btb-only" in out
    assert "perl my-tagless" in out
    assert "indirect" in out and "overall" in out


def test_sweep_error_is_one_line_naming_the_key(capsys, tmp_path):
    """Malformed spec JSON: one line on stderr naming the offending key
    path, exit code 2 — never a traceback."""
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "benchmarks": ["perl"],
        "cells": [{"preset": "btb-only"},
                  {"engine": {"target_cache": {"kind": "no_such_kind"}}}],
    }))
    assert main(["sweep", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # exactly one line
    assert "cells[1].engine" in err
    assert "Traceback" not in err


def test_sweep_names_unknown_top_level_keys(capsys, tmp_path):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"cels": [], "cells": [{"preset": "oracle"}]}))
    assert main(["sweep", "--spec", str(spec)]) == 2
    assert "cels" in capsys.readouterr().err


def test_sweep_rejects_non_list_plugins(capsys, tmp_path):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(
        {"plugins": "notalist", "cells": [{"preset": "btb-only"}]}
    ))
    assert main(["sweep", "--spec", str(spec)]) == 2
    assert "'plugins' must be a list of strings" in capsys.readouterr().err


def test_sweep_imports_plugins_before_checking_cells(capsys, tmp_path,
                                                    spec_plugin):
    """A cell may name a kind that the spec's own plugin module registers."""
    module, kind = spec_plugin
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "plugins": [module], "benchmarks": ["perl"],
        "cells": [{"engine": {"target_cache": {"kind": kind}}}],
    }))
    assert main(["sweep", "--spec", str(spec),
                 "--trace-length", "5000"]) == 0
    assert f"perl {kind}()" in capsys.readouterr().out


def test_sweep_plugin_that_raises_is_a_one_line_error(capsys, tmp_path,
                                                      raising_spec_plugin):
    """A plugin whose module body raises exits 2 naming its entry, not
    with a traceback."""
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "plugins": ["repro", raising_spec_plugin], "benchmarks": ["perl"],
        "cells": [{"preset": "btb-only"}],
    }))
    assert main(["sweep", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"repro sweep: 'plugins[1]': importing '{raising_spec_plugin}' "
        "raised ValueError: plugin body failed\n"
    )


def test_loadgen_unreachable_server_exits_2(capsys, monkeypatch):
    import repro.service.loadgen as loadgen_mod

    monkeypatch.setattr(loadgen_mod, "CONNECT_RETRY_S", 0.0)
    assert main(["loadgen", "--port", "1", "--requests", "1"]) == 2
    assert "cannot reach" in capsys.readouterr().err
