"""Validated parsing of sweep spec documents — the ``--spec`` wire format.

A *spec document* is the JSON object ``repro sweep --spec FILE`` reads and
``POST /sweeps`` (the sweep service, :mod:`repro.service`) accepts as a
request body::

    {"plugins": ["my_module"],            # optional: imported first
     "benchmarks": ["perl", "gcc"],       # default benchmark list
     "cells": [
        {"preset": "tagless-gshare9"},    # named preset from configs.PRESETS
        {"engine": {...EngineConfig spec...},
         "benchmarks": ["go"],            # per-cell override
         "label": "my row"}]}             # optional row label

Parsing is strict and total: every structural mistake raises
:exc:`SpecError` with a one-line message naming the offending key path
(``cells[3].engine: TargetCacheConfig.kind: expected a string, got 5``),
never a traceback.  The CLI turns a :exc:`SpecError` into exit code 2;
the service turns it into a 400 response.  Both front ends share this
module, so the file format and the wire format cannot drift.  Parsing
imports the ``plugins`` modules before it checks any cell, so a cell may
name a predictor kind that one of them registers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.predictors import EngineConfig, load_plugins


class SpecError(ValueError):
    """A malformed sweep spec document; the message names the bad key."""


@dataclass(frozen=True)
class SweepRow:
    """One requested table row: simulate ``benchmark`` under ``config``."""

    label: str
    benchmark: str
    config: EngineConfig


@dataclass(frozen=True)
class SweepPlan:
    """A validated spec document: plugin modules plus the requested rows."""

    plugins: Tuple[str, ...]
    rows: Tuple[SweepRow, ...]

    def cells(self) -> List[Tuple[str, EngineConfig]]:
        """The ``(benchmark, config)`` cells behind the rows, in order."""
        return [(row.benchmark, row.config) for row in self.rows]


def _require_string_list(value: Any, where: str) -> List[str]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise SpecError(
            f"'{where}' must be a list of strings, got {value!r}"
        )
    return value


def _known_benchmarks() -> List[str]:
    from repro.workloads import workload_names

    return list(workload_names(include_oo=True, include_server=True))


def _check_benchmarks(names: List[str], where: str,
                      known: List[str]) -> List[str]:
    from repro.guest.lowering import lowering_names
    from repro.workloads import parse_workload_name

    checked = []
    for name in names:
        try:
            base, lowering = parse_workload_name(name)
        except KeyError:
            raise SpecError(
                f"'{where}' names unknown lowering in {name!r}; available: "
                f"{', '.join(lowering_names())}"
            ) from None
        if base not in known:
            raise SpecError(
                f"'{where}' names unknown benchmark {name!r}; available: "
                f"{', '.join(sorted(known))}"
            )
        # '@jump_table' canonicalises away, so scheduler dedup and the
        # result cache see one spelling per identical trace.
        checked.append(base if lowering is None else f"{base}@{lowering}")
    if not checked:
        raise SpecError(f"'{where}' must not be empty")
    return checked


def _cell_config(cell: Any, where: str) -> Tuple[str, EngineConfig]:
    """Validate one ``cells[i]`` entry; returns (default label, config)."""
    from repro.experiments.configs import PRESETS, preset

    if not isinstance(cell, dict):
        raise SpecError(
            f"'{where}' must be an object, got {type(cell).__name__}"
        )
    if ("preset" in cell) == ("engine" in cell):
        raise SpecError(
            f"'{where}' needs exactly one of 'preset' or 'engine' "
            f"(got keys: {', '.join(sorted(cell)) or 'none'})"
        )
    unknown = sorted(set(cell) - {"preset", "engine", "benchmarks", "label"})
    if unknown:
        raise SpecError(
            f"'{where}' has unknown key(s): {', '.join(unknown)} "
            "(valid: preset, engine, benchmarks, label)"
        )
    if "preset" in cell:
        name = cell["preset"]
        if not isinstance(name, str):
            raise SpecError(
                f"'{where}.preset' must be a string, got {name!r}"
            )
        if name not in PRESETS:
            raise SpecError(
                f"'{where}.preset': unknown preset {name!r}; available: "
                f"{', '.join(sorted(PRESETS))}"
            )
        return name, preset(name)
    engine_spec = cell["engine"]
    if not isinstance(engine_spec, dict):
        raise SpecError(
            f"'{where}.engine' must be an engine spec object, got "
            f"{type(engine_spec).__name__}"
        )
    try:
        config = EngineConfig.from_spec(engine_spec)
        # Labelling resolves the predictor kind through the registry, so
        # it also validates kinds from_spec defers checking.
        default_label = (
            config.target_cache.label()
            if config.target_cache is not None else "btb-only"
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise SpecError(f"'{where}.engine': {exc}") from exc
    return default_label, config


def parse_spec_document(document: Any) -> SweepPlan:
    """Validate a decoded spec document into a :class:`SweepPlan`.

    Raises :exc:`SpecError` on any structural problem, with a message
    naming the offending key path.  The ``plugins`` modules are imported
    (:func:`~repro.predictors.load_plugins`) as soon as that list
    validates, before any cell is checked, so a cell may name a predictor
    kind that one of them registers.  A module that cannot be found only
    warns, as it does in a pool worker; any other exception raised while
    one is imported becomes a :exc:`SpecError` naming its ``plugins[i]``
    entry and the exception.
    """
    if not isinstance(document, dict):
        raise SpecError(
            "spec document must be a JSON object with a 'cells' list, got "
            f"{type(document).__name__}"
        )
    unknown = sorted(set(document) - {"plugins", "benchmarks", "cells"})
    if unknown:
        raise SpecError(
            f"spec document has unknown key(s): {', '.join(unknown)} "
            "(valid: plugins, benchmarks, cells)"
        )
    plugins = _require_string_list(document.get("plugins", []), "plugins")
    for index, module in enumerate(plugins):
        try:
            load_plugins([module])
        except Exception as exc:
            raise SpecError(
                f"'plugins[{index}]': importing {module!r} raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    known = _known_benchmarks()
    default_benchmarks = document.get("benchmarks")
    if default_benchmarks is None:
        from repro.experiments.common import FOCUS_BENCHMARKS

        default_benchmarks = list(FOCUS_BENCHMARKS)
    else:
        default_benchmarks = _check_benchmarks(
            _require_string_list(default_benchmarks, "benchmarks"),
            "benchmarks", known,
        )
    cells = document.get("cells")
    if not isinstance(cells, list) or not cells:
        raise SpecError(
            "'cells' must be a non-empty list of cell objects, got "
            f"{cells!r}"
        )
    rows: List[SweepRow] = []
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        default_label, config = _cell_config(cell, where)
        label = cell.get("label", default_label)
        if not isinstance(label, str):
            raise SpecError(
                f"'{where}.label' must be a string, got {label!r}"
            )
        benchmarks = cell.get("benchmarks")
        if benchmarks is None:
            benchmarks = default_benchmarks
        else:
            benchmarks = _check_benchmarks(
                _require_string_list(benchmarks, f"{where}.benchmarks"),
                f"{where}.benchmarks", known,
            )
        rows.extend(
            SweepRow(label=label, benchmark=benchmark, config=config)
            for benchmark in benchmarks
        )
    return SweepPlan(plugins=tuple(plugins), rows=tuple(rows))


def parse_spec_text(text: str, source: str = "spec") -> SweepPlan:
    """Parse raw JSON text into a :class:`SweepPlan`.

    JSON syntax errors become :exc:`SpecError` too, so front ends handle
    exactly one exception type.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{source} is not valid JSON: {exc}") from exc
    return parse_spec_document(document)
