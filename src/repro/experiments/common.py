"""Shared experiment infrastructure.

:class:`ExperimentContext` owns everything an experiment needs — traces
(disk-cached), the machine model, per-trace memory-penalty arrays and
timing memos, and the baseline (BTB-only) prediction/timing results that
every "reduction in execution time" cell is measured against.  Every
prediction run goes through :mod:`repro.runner`: results are memoised
in-process per ``(benchmark, config)``, persisted in the on-disk result
cache, and — via :meth:`ExperimentContext.predictions` — fanned out over
a process pool when ``jobs > 1``.  Experiments prefetch their whole cell
list up front so the sweep parallelises, then read individual cells from
the memo.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.obs import get_sink
from repro.pipeline import MachineConfig, TimingMemo, memory_penalties, run_timing
from repro.predictors import EngineConfig, PredictionStats
from repro.runner import (
    ResultCache,
    SweepCell,
    default_jobs,
    run_cells,
    timing_key,
)
from repro.runner.keys import cacheable
from repro.trace.trace import Trace
from repro.workloads import get_trace

#: Benchmarks the paper's design-space tables focus on ("We will
#: concentrate on the gcc and perl benchmarks, the two benchmarks with the
#: largest number of indirect jumps", §4.1).
FOCUS_BENCHMARKS = ("perl", "gcc")

#: Experiment name -> module path, for the CLI.
EXPERIMENT_MODULES: Dict[str, str] = {
    "table1": "repro.experiments.table1",
    "figures1_8": "repro.experiments.figures1_8",
    "table2": "repro.experiments.table2",
    "table4": "repro.experiments.table4",
    "table5": "repro.experiments.table5",
    "table6": "repro.experiments.table6",
    "table7": "repro.experiments.table7",
    "table8": "repro.experiments.table8",
    "table9": "repro.experiments.table9",
    "figures12_13": "repro.experiments.figures12_13",
    "headline": "repro.experiments.headline",
    "oo_future_work": "repro.experiments.oo_future_work",
    "cascaded": "repro.experiments.cascaded",
    "modern": "repro.experiments.modern",
    "capacity": "repro.experiments.capacity",
    "server_btb": "repro.experiments.server_btb",
    "switch_lowering": "repro.experiments.switch_lowering",
    "calibration": "repro.experiments.calibration",
}


def default_trace_length() -> int:
    """Trace length for experiments (``REPRO_TRACE_LENGTH`` overrides)."""
    return int(os.environ.get("REPRO_TRACE_LENGTH", "400000"))


@dataclass
class ExperimentTable:
    """A printable experiment result."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Tuple[str, List[float]]]
    #: how to render the numbers: "percent", "count", or "float"; applies
    #: to every column unless ``column_formats`` overrides per column
    value_format: str = "percent"
    column_formats: Optional[List[str]] = None
    notes: str = ""

    def _format_for(self, column_index: int) -> str:
        if self.column_formats is not None:
            return self.column_formats[column_index]
        return self.value_format

    def format(self) -> str:
        label_width = max([len("")] + [len(label) for label, _ in self.rows]) + 2
        # Per-column widths: a long registry label (e.g. a parameterised
        # cascaded(...) header) widens only its own column.
        widths = [max(12, len(c) + 2) for c in self.columns]
        lines = [f"== {self.experiment_id}: {self.title}"]
        header = " " * label_width + "".join(
            f"{c:>{w}}" for c, w in zip(self.columns, widths)
        )
        lines.append(header)
        for label, values in self.rows:
            rendered = []
            for column_index, value in enumerate(values):
                fmt = self._format_for(column_index)
                col_width = widths[column_index]
                if value is None or (isinstance(value, float) and np.isnan(value)):
                    rendered.append(f"{'-':>{col_width}}")
                elif fmt == "percent":
                    rendered.append(f"{100 * value:>{col_width - 1}.2f}%")
                elif fmt == "count":
                    rendered.append(f"{int(value):>{col_width},}")
                else:
                    rendered.append(f"{value:>{col_width}.3f}")
            lines.append(f"{label:<{label_width}}" + "".join(rendered))
        if self.notes:
            lines.append(f"   note: {self.notes}")
        return "\n".join(lines)

    def cell(self, row_label: str, column: str) -> float:
        """Fetch one value by row label and column name (for tests)."""
        column_index = self.columns.index(column)
        for label, values in self.rows:
            if label == row_label:
                return values[column_index]
        raise KeyError(row_label)


class ExperimentContext:
    """Memoised traces, baselines and timing for one experiment session.

    ``jobs`` sets the process-pool width for batched sweeps (default: the
    ``REPRO_JOBS`` environment variable, else 1); ``use_result_cache``
    controls the persistent on-disk result cache (default: on, unless
    ``REPRO_RESULT_CACHE=0``).
    """

    def __init__(self, trace_length: Optional[int] = None, seed: int = 1997,
                 machine: Optional[MachineConfig] = None,
                 use_trace_cache: bool = True,
                 jobs: Optional[int] = None,
                 use_result_cache: bool = True) -> None:
        self.trace_length = trace_length or default_trace_length()
        self.seed = seed
        self.machine = machine or MachineConfig()
        self.use_trace_cache = use_trace_cache
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        self._result_cache = ResultCache.from_env() if use_result_cache else None
        self._traces: Dict[str, Trace] = {}
        self._penalties: Dict[str, "npt.NDArray[Any]"] = {}
        self._predictions: Dict[Tuple[str, EngineConfig], PredictionStats] = {}
        self._cycles: Dict[Tuple[str, EngineConfig], int] = {}
        self._timing_memos: Dict[str, TimingMemo] = {}

    # ------------------------------------------------------------------
    def trace(self, benchmark: str) -> Trace:
        if benchmark not in self._traces:
            self._traces[benchmark] = get_trace(
                benchmark, n_instructions=self.trace_length, seed=self.seed,
                use_cache=self.use_trace_cache,
            )
        return self._traces[benchmark]

    def penalty(self, benchmark: str) -> "npt.NDArray[Any]":
        if benchmark not in self._penalties:
            self._penalties[benchmark] = memory_penalties(
                self.trace(benchmark), self.machine
            )
        return self._penalties[benchmark]

    def _timing_memo(self, benchmark: str) -> TimingMemo:
        """The segment memo every mask of ``benchmark`` is timed through."""
        if benchmark not in self._timing_memos:
            self._timing_memos[benchmark] = TimingMemo(
                self.trace(benchmark), self.machine, self.penalty(benchmark)
            )
        return self._timing_memos[benchmark]

    # ------------------------------------------------------------------
    def predictions(self, cells: Sequence[Tuple[str, EngineConfig]],
                    collect_mask: bool = False) -> List[PredictionStats]:
        """Batch prediction API: the sweep fast path.

        Returns one :class:`PredictionStats` per ``(benchmark, config)``
        cell, in order.  Cells already memoised (with a mask, if
        ``collect_mask``) are free; the rest go through
        :func:`repro.runner.run_cells` — persistent result cache first,
        then ``self.jobs`` worker processes.  Experiments call this once
        with every cell they will need, then read single cells through
        :meth:`prediction`, which hits the memo.
        """
        missing = [
            (benchmark, config) for benchmark, config in dict.fromkeys(cells)
            if not self._memoised(benchmark, config, collect_mask)
        ]
        if missing:
            sweep = [
                SweepCell(benchmark, config, collect_mask=collect_mask)
                for benchmark, config in missing
            ]
            with get_sink().span("predictions", cells=len(sweep),
                                 jobs=self.jobs):
                computed = run_cells(
                    sweep, jobs=self.jobs,
                    trace_length=self.trace_length, seed=self.seed,
                    use_trace_cache=self.use_trace_cache,
                    result_cache=self._result_cache,
                    trace_provider=self.trace,
                )
            for (benchmark, config), stats in zip(missing, computed):
                self._predictions[(benchmark, config)] = stats
        return [self._predictions[cell] for cell in cells]

    def _memoised(self, benchmark: str, config: EngineConfig,
                  collect_mask: bool) -> bool:
        stats = self._predictions.get((benchmark, config))
        if stats is None:
            return False
        return not collect_mask or stats.mispredict_mask is not None

    def prediction(self, benchmark: str, config: EngineConfig,
                   collect_mask: bool = False) -> PredictionStats:
        """Fetch-engine simulation, memoised per ``(benchmark, config)``.

        A memo entry carrying the mispredict mask satisfies maskless
        requests too, so baseline-equal cells across tables simulate once.
        """
        return self.predictions([(benchmark, config)],
                                collect_mask=collect_mask)[0]

    def baseline(self, benchmark: str) -> PredictionStats:
        """BTB-only prediction stats with the mispredict mask, memoised."""
        return self.prediction(benchmark, EngineConfig(), collect_mask=True)

    def baseline_cycles(self, benchmark: str) -> int:
        """Cycles of the BTB-only base machine (the paper's reference)."""
        return self.cycles(benchmark, EngineConfig())

    def cycles(self, benchmark: str, config: EngineConfig) -> int:
        """Execution cycles of the machine with this predictor config.

        Memoised in-process and, when the result cache is on, persisted
        under a :func:`~repro.runner.timing_key` — so a warm re-run skips
        the timing model as well as the simulations.
        """
        key = (benchmark, config)
        if key not in self._cycles:
            self._cycles[key] = self._compute_cycles(benchmark, config)
        return self._cycles[key]

    def _compute_cycles(self, benchmark: str, config: EngineConfig) -> int:
        cache_key = None
        if self._result_cache is not None and cacheable(config):
            cache_key = timing_key(benchmark, config, self.trace_length,
                                   self.seed, self.machine)
            cached = self._result_cache.load_cycles(cache_key)
            if cached is not None:
                return cached
        stats = self.prediction(benchmark, config, collect_mask=True)
        with get_sink().span("timing", benchmark=benchmark):
            result = run_timing(
                self.trace(benchmark), self.machine,
                stats.mispredict_mask, self.penalty(benchmark),
                memo=self._timing_memo(benchmark),
            )
        if cache_key is not None:
            self._result_cache.store_cycles(cache_key, result.cycles)
        return result.cycles

    def execution_time_reduction(self, benchmark: str,
                                 config: EngineConfig) -> float:
        """The paper's headline metric: (T_base - T_config) / T_base,
        where the base machine predicts indirect jumps with the BTB only."""
        base = self.baseline_cycles(benchmark)
        with_config = self.cycles(benchmark, config)
        return (base - with_config) / base if base else 0.0


def run_experiment(name: str, ctx: Optional[ExperimentContext] = None) -> ExperimentTable:
    """Run a named experiment and return its table."""
    if name not in EXPERIMENT_MODULES:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENT_MODULES))}"
        )
    module = importlib.import_module(EXPERIMENT_MODULES[name])
    with get_sink().span("experiment", experiment=name):
        return module.run(ctx or ExperimentContext())


def sweep_rows(labels: Sequence[str],
               values: Dict[str, List[float]]) -> List[Tuple[str, List[float]]]:
    """Build table rows from a dict keyed by row label."""
    return [(label, values[label]) for label in labels]
