"""The shared spec parser: strict validation with key-path error messages.

``repro sweep --spec`` and ``POST /sweeps`` both parse through
:mod:`repro.sweepspec`; these tests pin the contract both front ends rely
on — every structural mistake is a one-line :exc:`SpecError` naming the
offending key path, and valid documents produce the rows in spec order.
"""

import collections
import typing

import pytest

from repro.predictors import EngineConfig, TargetCacheConfig
from repro.sweepspec import SpecError, parse_spec_document, parse_spec_text


def test_minimal_preset_document():
    plan = parse_spec_document(
        {"benchmarks": ["perl"], "cells": [{"preset": "btb-only"}]}
    )
    assert [row.label for row in plan.rows] == ["btb-only"]
    assert plan.cells() == [("perl", plan.rows[0].config)]
    assert plan.plugins == ()


def test_default_benchmarks_are_the_focus_pair():
    plan = parse_spec_document({"cells": [{"preset": "btb-only"}]})
    assert [row.benchmark for row in plan.rows] == ["perl", "gcc"]


def test_rows_preserve_spec_order_and_overrides():
    plan = parse_spec_document({
        "benchmarks": ["perl"],
        "cells": [
            {"preset": "tagless-gshare9", "label": "mine"},
            {"engine": {"target_cache": {"kind": "tagless"}},
             "benchmarks": ["gcc", "go"]},
        ],
    })
    assert [(row.label, row.benchmark) for row in plan.rows] == [
        ("mine", "perl"),
        ("gshare(9)", "gcc"),
        ("gshare(9)", "go"),
    ]
    assert all(isinstance(row.config, EngineConfig) for row in plan.rows)


def test_composite_benchmark_names_select_a_lowering():
    plan = parse_spec_document({
        "benchmarks": ["perl@if_tree", "perl@jump_table", "gcc@clustered"],
        "cells": [{"preset": "btb-only"}],
    })
    # '@jump_table' is the default shape and canonicalises to the bare
    # name, so scheduler dedup and the caches see one spelling per trace.
    assert [row.benchmark for row in plan.rows] == [
        "perl@if_tree", "perl", "gcc@clustered",
    ]


@pytest.mark.parametrize("document, fragment", [
    (5, "must be a JSON object"),
    ({"cells": [{"preset": "btb-only"}], "cels": []}, "unknown key(s): cels"),
    ({"plugins": "notalist", "cells": [{"preset": "btb-only"}]},
     "'plugins' must be a list of strings"),
    ({"benchmarks": "perl", "cells": [{"preset": "btb-only"}]},
     "'benchmarks' must be a list of strings"),
    ({"benchmarks": ["nope"], "cells": [{"preset": "btb-only"}]},
     "'benchmarks' names unknown benchmark 'nope'"),
    ({"benchmarks": [], "cells": [{"preset": "btb-only"}]},
     "'benchmarks' must not be empty"),
    ({"cells": 5}, "'cells' must be a non-empty list"),
    ({"cells": []}, "'cells' must be a non-empty list"),
    ({"cells": [7]}, "'cells[0]' must be an object"),
    ({"cells": [{}]}, "'cells[0]' needs exactly one of 'preset' or 'engine'"),
    ({"cells": [{"preset": "a", "engine": {}}]},
     "'cells[0]' needs exactly one of"),
    ({"cells": [{"preset": "btb-only", "extra": 1}]},
     "'cells[0]' has unknown key(s): extra"),
    ({"cells": [{"preset": 5}]}, "'cells[0].preset' must be a string"),
    ({"cells": [{"preset": "nope"}]},
     "'cells[0].preset': unknown preset 'nope'"),
    ({"cells": [{"engine": 5}]},
     "'cells[0].engine' must be an engine spec object"),
    ({"cells": [{"preset": "btb-only"}, {"engine": {"bogus_key": 1}}]},
     "'cells[1].engine':"),
    ({"cells": [{"preset": "btb-only", "label": 9}]},
     "'cells[0].label' must be a string"),
    ({"cells": [{"preset": "btb-only", "benchmarks": ["zzz"]}]},
     "'cells[0].benchmarks' names unknown benchmark 'zzz'"),
    ({"cells": [{"preset": "btb-only", "benchmarks": ["perl@bogus"]}]},
     "'cells[0].benchmarks' names unknown lowering in 'perl@bogus'"),
    ({"cells": [{"preset": "btb-only", "benchmarks": ["zzz@if_tree"]}]},
     "'cells[0].benchmarks' names unknown benchmark 'zzz@if_tree'"),
])
def test_structural_errors_name_the_key_path(document, fragment):
    with pytest.raises(SpecError) as excinfo:
        parse_spec_document(document)
    message = str(excinfo.value)
    assert fragment in message
    assert "\n" not in message  # one line, CLI/service print it verbatim


def test_error_messages_list_valid_alternatives():
    with pytest.raises(SpecError, match="available: .*tagless-gshare9"):
        parse_spec_document({"cells": [{"preset": "nope"}]})


def test_parse_text_wraps_json_errors():
    with pytest.raises(SpecError, match="my.json is not valid JSON"):
        parse_spec_text("{not json", source="my.json")


def test_parse_text_round_trip():
    plan = parse_spec_text(
        '{"benchmarks": ["perl"], "cells": [{"preset": "btb-only"}]}'
    )
    assert len(plan.rows) == 1


def test_repeated_parses_resolve_each_dataclass_hints_once(monkeypatch):
    """``from_spec`` resolves a config class's annotations once, not once
    per decode: re-evaluating them was most of a warm request's parse."""
    resolved = collections.Counter()
    real = typing.get_type_hints

    def counting(obj, *args, **kwargs):
        resolved[obj] += 1
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counting)
    engine = EngineConfig(target_cache=TargetCacheConfig()).to_spec()
    document = {"benchmarks": ["perl"],
                "cells": [{"engine": engine}, {"preset": "ittage-lite"}]}
    plans = [parse_spec_document(document) for _ in range(20)]
    assert all(plan == plans[0] for plan in plans)
    assert all(count <= 1 for count in resolved.values()), resolved
