"""Parallel sweep execution with persistent result caching.

The paper's tables are design-space sweeps over hundreds of
``(benchmark, EngineConfig)`` cells.  This package is the execution layer
that makes them fast and repeatable:

* :func:`run_cells` — fan cells out over a process pool (``jobs`` workers,
  ``REPRO_JOBS`` default), each worker loading and decoding every trace at
  most once; results come back in deterministic cell order and are
  bit-identical to a serial run;
* :class:`ResultCache` — an on-disk store keyed by
  :func:`~repro.runner.keys.cell_key` (trace fingerprint + full engine
  config + simulator-code hash) so unchanged cells are never re-simulated,
  with ``REPRO_RESULT_CACHE=0`` / ``--no-result-cache`` as the bypass;
* :mod:`~repro.runner.keys` — the stable hashing underneath.

``ExperimentContext`` routes every experiment through this layer; use it
directly for custom sweeps::

    from repro.runner import SweepCell, run_cells
    stats = run_cells(
        [SweepCell("perl", config) for config in configs],
        jobs=8, trace_length=400_000, seed=1997,
    )
"""

from repro.runner.cache import (
    DEFAULT_CLAIM_TTL_S,
    ResultCache,
    default_result_cache_dir,
    result_cache_enabled,
)
from repro.runner.keys import (
    CELL_KEY_VERSION,
    cell_key,
    config_token,
    engine_code_fingerprint,
    timing_code_fingerprint,
    timing_key,
)
from repro.runner.pool import (
    SweepCell,
    SweepPool,
    default_jobs,
    run_cells,
)

__all__ = [
    "CELL_KEY_VERSION",
    "DEFAULT_CLAIM_TTL_S",
    "ResultCache",
    "SweepCell",
    "SweepPool",
    "cell_key",
    "config_token",
    "default_jobs",
    "default_result_cache_dir",
    "engine_code_fingerprint",
    "result_cache_enabled",
    "run_cells",
    "timing_code_fingerprint",
    "timing_key",
]
