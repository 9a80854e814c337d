"""Branch-prediction structures.

This package implements every prediction structure the paper simulates:

* :mod:`~repro.predictors.btb` — 256-set x 4-way branch target buffer with
  the *default* and Calder/Grunwald *2-bit* target-update strategies
  (paper §2, Table 2);
* :mod:`~repro.predictors.ras` — return address stack (paper footnote 1);
* :mod:`~repro.predictors.direction` — two-level adaptive direction
  predictors (GAg / GAs / gshare / PAs) for conditional branches;
* :mod:`~repro.predictors.history` — global pattern history and the path
  history registers of §3.1 (global with Control / Branch / Call-ret /
  Ind-jmp filters, and per-address);
* :mod:`~repro.predictors.target_cache` — the paper's contribution: tagless
  (§3.2, Figure 10) and tagged (§3.2, Figure 11) target caches;
* :mod:`~repro.predictors.engine` — the fetch-engine composite that glues
  the above together exactly as §3 describes, plus the trace-driven
  simulator that produces misprediction statistics and the mispredict mask
  consumed by the timing models;
* :mod:`~repro.predictors.streams` — the stream-factored sweep kernel:
  precomputes the per-branch history/routing streams that are identical
  across every target-cache configuration sharing a base config, then
  simulates each cell over just the target-cache-relevant subset
  (bit-identical to :func:`~repro.predictors.engine.simulate`);
* :mod:`~repro.predictors.vector` — the vectorized columnar tier above the
  stream kernel: replays the tagless/gshare family (and the oracle /
  last-target bounding predictors) as whole-array numpy passes over the
  same :class:`BranchStreams`, with no per-branch Python loop — still
  bit-identical to the reference engine;
* :mod:`~repro.predictors.registry` — the predictor registry: every
  target-cache kind registers a factory, a :class:`PredictorTraits`
  capability record, a label, and spec examples; plugins add kinds with
  one :func:`register` call (see ``docs/PREDICTORS.md``);
* :mod:`~repro.predictors.spec` — the lossless dataclass <-> JSON spec
  codec behind ``to_spec``/``from_spec``, ``repro sweep --spec`` files,
  and the result-cache fingerprint.
"""

from repro.predictors.btb import BranchTargetBuffer, BTBEntry, UpdateStrategy
from repro.predictors.btb2 import TwoLevelBTB
from repro.predictors.direction import DirectionConfig, DirectionPredictor
from repro.predictors.engine import (
    DecodedBranches,
    EngineConfig,
    FetchEngine,
    HistoryConfig,
    HistorySource,
    PredictionStats,
    decode_branches,
    simulate,
    simulate_many,
)
from repro.predictors.history import (
    PathFilter,
    PathHistoryRegister,
    PatternHistoryRegister,
    PerAddressPathHistory,
)
from repro.predictors.indexing import (
    GAgIndex,
    GAsIndex,
    GShareIndex,
    IndexScheme,
)
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.registry import (
    PredictorRegistration,
    PredictorTraits,
    load_plugins,
    plugin_modules,
    register,
    registered_kinds,
    registration,
    registrations,
    traits_for,
    unregister,
)
from repro.predictors.spec import Spec, from_spec, to_spec
from repro.predictors.streams import (
    BranchStreams,
    StreamConfig,
    build_streams,
    simulate_streamed,
    stream_signature,
    streams_supported,
)
from repro.predictors.target_cache import (
    OracleTargetPredictor,
    TaggedIndexing,
    TaggedTargetCache,
    TaglessTargetCache,
    TargetCacheConfig,
    TargetPredictor,
    build_target_cache,
)
from repro.predictors.vector import (
    simulate_vector,
    vector_supported,
)

__all__ = [
    "BranchTargetBuffer",
    "BTBEntry",
    "UpdateStrategy",
    "TwoLevelBTB",
    "DirectionPredictor",
    "DirectionConfig",
    "EngineConfig",
    "FetchEngine",
    "HistoryConfig",
    "HistorySource",
    "PredictionStats",
    "DecodedBranches",
    "decode_branches",
    "simulate",
    "simulate_many",
    "PathFilter",
    "PathHistoryRegister",
    "PatternHistoryRegister",
    "PerAddressPathHistory",
    "GAgIndex",
    "GAsIndex",
    "GShareIndex",
    "IndexScheme",
    "ReturnAddressStack",
    "PredictorRegistration",
    "PredictorTraits",
    "register",
    "unregister",
    "registration",
    "registrations",
    "registered_kinds",
    "traits_for",
    "plugin_modules",
    "load_plugins",
    "Spec",
    "to_spec",
    "from_spec",
    "BranchStreams",
    "StreamConfig",
    "build_streams",
    "simulate_streamed",
    "stream_signature",
    "streams_supported",
    "simulate_vector",
    "vector_supported",
    "OracleTargetPredictor",
    "TaggedIndexing",
    "TaggedTargetCache",
    "TaglessTargetCache",
    "TargetCacheConfig",
    "TargetPredictor",
    "build_target_cache",
]
