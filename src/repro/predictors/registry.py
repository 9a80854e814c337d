"""Predictor registry: the single home of target-cache kind dispatch.

Every concrete target predictor registers here under the ``kind`` string a
:class:`~repro.predictors.target_cache.config.TargetCacheConfig` selects,
with four things:

* a **factory** building the predictor from a config;
* a :class:`PredictorTraits` capability record — the questions the rest of
  the system used to answer with ``isinstance`` checks and kind-string
  ``if``/``elif`` chains (does it need a history value?  can the stream
  kernel drive it?  is it oracle-style?  which config fields does its spec
  schema use?);
* a parameterised **label** for experiment tables;
* **spec examples** — configs that ``tests/test_registry.py`` builds,
  labels and pushes through the ``to_spec``/``from_spec`` round-trip, so
  a registration without a working declarative spec fails tier-1.

Downstream consumers only ever ask the registry: the fetch engine
(:class:`~repro.predictors.engine.FetchEngine`) builds and routes through
it, the stream kernel (:mod:`repro.predictors.streams`) queries traits,
the sweep runner fingerprints specs, and the CLI lists registrations via
``repro predictors``.  Adding a predictor — including a third-party one,
see ``examples/plugin_predictor.py`` and ``docs/PREDICTORS.md`` — is one
:func:`register` call; no other module changes.
"""

from __future__ import annotations

import importlib
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Type

from repro.predictors.btb2 import TwoLevelBTB
from repro.predictors.indexing import parse_scheme
from repro.predictors.target_cache.base import TargetPredictor
from repro.predictors.target_cache.cascaded import CascadedTargetCache
from repro.predictors.target_cache.config import TargetCacheConfig
from repro.predictors.target_cache.ittage import ITTageLite
from repro.predictors.target_cache.oracle import (
    LastTargetPredictor,
    OracleTargetPredictor,
)
from repro.predictors.target_cache.tagged import TaggedIndexing, TaggedTargetCache
from repro.predictors.target_cache.tagless import TaglessTargetCache

__all__ = [
    "PredictorTraits",
    "PredictorRegistration",
    "register",
    "unregister",
    "registration",
    "registrations",
    "registered_kinds",
    "traits_for",
    "build_target_cache",
    "predictor_label",
    "plugin_modules",
    "load_plugins",
]


@dataclass(frozen=True)
class PredictorTraits:
    """Capability record of one registered predictor kind.

    ``needs_history``
        Whether :meth:`~repro.predictors.target_cache.base.TargetPredictor.predict`
        / ``update`` consume their ``history`` argument.  ``False`` is a
        contract that both ignore it, which lets the stream kernel skip
        computing history variants for such cells entirely.
    ``streams_supported``
        Whether :func:`~repro.predictors.streams.simulate_streamed` may
        drive this predictor.  Any predictor whose behaviour is a pure
        function of its own ``predict``/``update``/``prime`` call sequence
        qualifies; set ``False`` to force the reference engine.
    ``vectorizable``
        Whether :func:`~repro.predictors.vector.simulate_vector` can
        replay this predictor as whole-array numpy passes.  This is a much
        stronger contract than ``streams_supported``: the kind's
        ``predict`` must be exactly "the target most recently stored at
        the same table index, else a structural miss" for an index that is
        a pure function of ``(pc, history)`` (the tagless family), an
        oracle primed with the actual target, or an unbounded per-pc
        last-target table.  Stateful replacement policies (tagged/LRU,
        cascaded, ITTAGE) must leave this ``False``; the sweep runner
        falls back to the stream kernel for them.  Defaults to ``False``
        so plugin kinds opt in deliberately.
    ``is_oracle``
        Oracle-style: the engine calls
        :meth:`~repro.predictors.target_cache.base.TargetPredictor.prime`
        with the actual target immediately before the fetch-time
        ``predict``.
    ``predicts_on_btb_miss``
        The predictor still identifies the branch when the primary BTB
        misses, so the engine consults it on BTB-missed indirect jumps
        instead of predicting fall-through (the two-level-BTB family: the
        backing level is itself a pc-tagged structure).  Requires
        ``needs_history=False`` — on a BTB miss the engine has no
        fetch-time history capture for the branch, so only kinds that
        contractually ignore the history value may backstop it — and
        ``vectorizable=False``, because the vector kernel replays routed
        rows only.  Prediction-only: the backstop never changes BTB, RAS,
        or history state.
    ``deterministic``
        The predictor's outputs are a pure function of its inputs (all
        internal randomness is seeded).  Required for result-cache
        soundness: ``run_cells``, the sweep service and
        ``ExperimentContext.cycles`` never load, claim or store result-cache
        entries for a kind that declares ``False``
        (:func:`repro.runner.keys.cacheable`).
    ``spec_fields``
        The spec schema: which :class:`TargetCacheConfig` fields this kind
        consumes (beyond ``kind`` itself).  ``repro predictors`` prints
        it, and spec files should set only these fields.
    ``description``
        One line for ``repro predictors``.

    Construction raises ``ValueError`` for a combination no kernel can
    honour, so a bad plugin fails when it registers, not mid-sweep.
    """

    description: str = ""
    needs_history: bool = True
    streams_supported: bool = True
    vectorizable: bool = False
    is_oracle: bool = False
    predicts_on_btb_miss: bool = False
    deterministic: bool = True
    spec_fields: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.predicts_on_btb_miss and self.needs_history:
            raise ValueError(
                "predicts_on_btb_miss=True needs needs_history=False: on a "
                "BTB miss the engine has no fetch-time history capture"
            )
        if self.predicts_on_btb_miss and self.vectorizable:
            raise ValueError(
                "predicts_on_btb_miss=True needs vectorizable=False: the "
                "vector kernel replays routed rows only and would drop "
                "BTB-miss predictions"
            )
        if self.vectorizable and not self.streams_supported:
            raise ValueError(
                "vectorizable=True needs streams_supported=True: the vector "
                "tier consumes BranchStreams"
            )

    def backends(self) -> Tuple[str, ...]:
        """Execution tiers that can serve this kind, fastest first."""
        tiers: Tuple[str, ...] = ("engine",)
        if self.streams_supported:
            tiers = ("streams",) + tiers
            if self.vectorizable:
                tiers = ("vector",) + tiers
        return tiers


@dataclass(frozen=True)
class PredictorRegistration:
    """One registered predictor kind (see :func:`register`)."""

    kind: str
    factory: Callable[[TargetCacheConfig], TargetPredictor]
    traits: PredictorTraits
    #: concrete TargetPredictor classes the factory can return; the
    #: registry tests use this to prove every subclass is registered
    provides: Tuple[Type[TargetPredictor], ...]
    #: parameterised table label for a config of this kind
    label: Callable[[TargetCacheConfig], str]
    #: configs the registry tests build, label and round-trip
    spec_examples: Tuple[TargetCacheConfig, ...]
    #: module that performed the registration (worker propagation)
    module: str


_REGISTRY: Dict[str, PredictorRegistration] = {}


def _default_label(
    kind: str, spec_fields: Tuple[str, ...]
) -> Callable[[TargetCacheConfig], str]:
    def label(config: TargetCacheConfig) -> str:
        inner = ",".join(
            f"{name}={getattr(config, name)}" for name in spec_fields
        )
        return f"{kind}({inner})"

    return label


def register(
    kind: str,
    *,
    factory: Callable[[TargetCacheConfig], TargetPredictor],
    traits: PredictorTraits,
    provides: Tuple[Type[TargetPredictor], ...],
    label: "Callable[[TargetCacheConfig], str] | None" = None,
    spec_examples: Tuple[TargetCacheConfig, ...] = (),
) -> PredictorRegistration:
    """Register a predictor kind; returns the stored registration.

    Re-registering a kind from the *same* module replaces the entry (so a
    plugin module can be re-imported, e.g. in a pool worker); registering
    a kind another module already owns is an error.
    """
    module = getattr(factory, "__module__", "") or ""
    existing = _REGISTRY.get(kind)
    if existing is not None and existing.module != module:
        raise ValueError(
            f"target-cache kind {kind!r} is already registered by "
            f"{existing.module}; pick another kind string"
        )
    entry = PredictorRegistration(
        kind=kind,
        factory=factory,
        traits=traits,
        provides=provides,
        label=label if label is not None else _default_label(
            kind, traits.spec_fields
        ),
        spec_examples=spec_examples,
        module=module,
    )
    _REGISTRY[kind] = entry
    return entry


def unregister(kind: str) -> None:
    """Remove a registration (plugin teardown and tests)."""
    try:
        del _REGISTRY[kind]
    except KeyError:
        raise ValueError(f"target-cache kind {kind!r} is not registered") from None


def registration(kind: str) -> PredictorRegistration:
    """Look up one kind; unknown kinds fail with the registered list."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown target-cache kind {kind!r}; registered kinds: "
            f"{', '.join(registered_kinds())}"
        ) from None


def registrations() -> List[PredictorRegistration]:
    """Every registration, sorted by kind (stable for display/tests)."""
    return [_REGISTRY[kind] for kind in registered_kinds()]


def registered_kinds() -> List[str]:
    """Sorted kind strings currently registered."""
    return sorted(_REGISTRY)


def traits_for(kind: str) -> PredictorTraits:
    """The capability record of one registered kind."""
    return registration(kind).traits


def build_target_cache(config: TargetCacheConfig) -> TargetPredictor:
    """Instantiate the predictor a :class:`TargetCacheConfig` describes."""
    return registration(config.kind).factory(config)


def predictor_label(config: TargetCacheConfig) -> str:
    """The parameterised table label of ``config`` (never the bare kind)."""
    return registration(config.kind).label(config)


def plugin_modules() -> List[str]:
    """Modules outside ``repro`` that registered predictor kinds.

    The sweep runner forwards this list to pool workers so plugin
    registrations exist wherever cells simulate (under the ``fork`` start
    method workers also inherit them directly).
    """
    return sorted(
        {
            entry.module
            for entry in _REGISTRY.values()
            if entry.module and not entry.module.startswith("repro")
        }
    )


def load_plugins(modules: "List[str] | Tuple[str, ...]") -> None:
    """Import plugin modules so their module-scope registrations run.

    ``__main__`` cannot be re-imported by name and is skipped (a plugin
    registered by a script relies on ``fork`` inheritance instead — make
    the plugin an importable module to support ``spawn`` platforms).
    Import failures warn rather than raise: a worker missing an optional
    plugin should fail on the unknown kind it actually needs, not here.
    """
    for name in modules:
        if name == "__main__":
            continue
        try:
            importlib.import_module(name)
        except ImportError as exc:
            warnings.warn(
                f"could not import plugin predictor module {name!r}: {exc}"
            )


# ----------------------------------------------------------------------
# Built-in registrations: the paper's design space plus its lineage.
# ----------------------------------------------------------------------
_TAGGED_SPEC_FIELDS = (
    "entries", "assoc", "indexing", "history_bits", "tag_bits", "replacement",
)


def _build_tagless(config: TargetCacheConfig) -> TargetPredictor:
    scheme = parse_scheme(config.scheme, config.history_bits, config.address_bits)
    return TaglessTargetCache(scheme)


def _label_tagless(config: TargetCacheConfig) -> str:
    if config.scheme == "gas":
        return f"GAs({config.history_bits},{config.address_bits})"
    if config.scheme == "gag":
        return f"GAg({config.history_bits})"
    return f"gshare({config.history_bits})"


def _tagged_stage(config: TargetCacheConfig) -> TaggedTargetCache:
    return TaggedTargetCache(
        entries=config.entries,
        assoc=config.assoc,
        indexing=config.indexing,
        history_bits=config.history_bits,
        tag_bits=config.tag_bits,
        replacement=config.replacement,
    )


def _build_tagged(config: TargetCacheConfig) -> TargetPredictor:
    return _tagged_stage(config)


def _build_cascaded(config: TargetCacheConfig) -> TargetPredictor:
    return CascadedTargetCache(_tagged_stage(config))


def _tagged_geometry(config: TargetCacheConfig) -> str:
    return (
        f"{config.entries}e/{config.assoc}w/"
        f"{config.indexing.value}/h{config.history_bits}"
    )


def _label_tagged(config: TargetCacheConfig) -> str:
    return f"tagged({_tagged_geometry(config)})"


def _label_cascaded(config: TargetCacheConfig) -> str:
    return f"cascaded({_tagged_geometry(config)})"


def _ittage_table_bits(config: TargetCacheConfig) -> int:
    return max(4, config.entries.bit_length() - 1)


def _build_ittage(config: TargetCacheConfig) -> TargetPredictor:
    return ITTageLite(table_bits=_ittage_table_bits(config))


def _label_ittage(config: TargetCacheConfig) -> str:
    return f"ittage(4x{1 << _ittage_table_bits(config)})"


def _build_btb2(config: TargetCacheConfig) -> TargetPredictor:
    return TwoLevelBTB(
        entries=config.entries,
        assoc=config.assoc,
        l2_entries=config.l2_entries,
        l2_assoc=config.l2_assoc,
    )


def _label_btb2(config: TargetCacheConfig) -> str:
    l1 = f"{config.entries}e/{config.assoc}w"
    if not config.l2_entries:
        return f"btb2({l1},no-L2)"
    return f"btb2({l1}+{config.l2_entries}e/{config.l2_assoc}w)"


def _build_oracle(config: TargetCacheConfig) -> TargetPredictor:
    return OracleTargetPredictor()


def _build_last_target(config: TargetCacheConfig) -> TargetPredictor:
    return LastTargetPredictor()


register(
    "tagless",
    factory=_build_tagless,
    traits=PredictorTraits(
        description="direct-mapped history-indexed table, no tags "
                    "(paper §3.2 Figure 10)",
        # last-write-per-index semantics: the vector tier replays the
        # whole table as one grouped shift-by-one pass (see vector.py)
        vectorizable=True,
        spec_fields=("scheme", "history_bits", "address_bits"),
    ),
    provides=(TaglessTargetCache,),
    label=_label_tagless,
    spec_examples=(
        TargetCacheConfig(kind="tagless"),
        TargetCacheConfig(kind="tagless", scheme="gag", history_bits=11),
        TargetCacheConfig(
            kind="tagless", scheme="gas", history_bits=8, address_bits=1
        ),
    ),
)

register(
    "tagged",
    factory=_build_tagged,
    traits=PredictorTraits(
        description="set-associative tag-matched target cache "
                    "(paper §3.2 Figure 11)",
        spec_fields=_TAGGED_SPEC_FIELDS,
    ),
    provides=(TaggedTargetCache,),
    label=_label_tagged,
    spec_examples=(
        TargetCacheConfig(kind="tagged"),
        TargetCacheConfig(
            kind="tagged", entries=512, assoc=8,
            indexing=TaggedIndexing.ADDRESS, tag_bits=6, replacement="random",
        ),
    ),
)

register(
    "cascaded",
    factory=_build_cascaded,
    traits=PredictorTraits(
        description="last-target filter in front of a tagged stage 2 "
                    "(Driesen & Hölzle lineage)",
        spec_fields=_TAGGED_SPEC_FIELDS,
    ),
    provides=(CascadedTargetCache,),
    label=_label_cascaded,
    spec_examples=(
        TargetCacheConfig(kind="cascaded"),
        TargetCacheConfig(kind="cascaded", entries=64, assoc=2),
    ),
)

register(
    "ittage",
    factory=_build_ittage,
    traits=PredictorTraits(
        description="ITTAGE-lite: tagged components with geometric history "
                    "lengths (the modern descendant)",
        spec_fields=("entries",),
    ),
    provides=(ITTageLite,),
    label=_label_ittage,
    spec_examples=(
        TargetCacheConfig(kind="ittage", entries=128),
        TargetCacheConfig(kind="ittage", entries=32),
    ),
)

register(
    "btb2",
    factory=_build_btb2,
    traits=PredictorTraits(
        description="two-level BTB: small L1 backed by a large last-level "
                    "BTB with miss-triggered prefetch (Micro BTB lineage)",
        # pc-tagged at both levels: the history value is ignored, and the
        # backing level still identifies the branch when the primary BTB
        # misses — so the engine backstops BTB misses with this kind.
        needs_history=False,
        predicts_on_btb_miss=True,
        spec_fields=("entries", "assoc", "l2_entries", "l2_assoc"),
    ),
    provides=(TwoLevelBTB,),
    label=_label_btb2,
    spec_examples=(
        TargetCacheConfig(kind="btb2", entries=64, assoc=4),
        TargetCacheConfig(kind="btb2", entries=64, assoc=4,
                          l2_entries=8192, l2_assoc=8),
        TargetCacheConfig(kind="btb2", entries=64, assoc=4, l2_entries=0),
    ),
)

register(
    "oracle",
    factory=_build_oracle,
    traits=PredictorTraits(
        description="perfect prediction (primed with the actual target); "
                    "the execution-time ceiling",
        needs_history=False,
        # primed predict always returns the actual target: the vector
        # tier needs no table replay at all
        vectorizable=True,
        is_oracle=True,
    ),
    provides=(OracleTargetPredictor,),
    label=lambda config: "oracle(perfect)",
    spec_examples=(TargetCacheConfig(kind="oracle"),),
)

register(
    "last_target",
    factory=_build_last_target,
    traits=PredictorTraits(
        description="unbounded per-pc last-target table (an infinite, "
                    "conflict-free BTB)",
        needs_history=False,
        # an unbounded last-write-per-pc table: the same grouped
        # shift-by-one recurrence with the pc itself as the index
        vectorizable=True,
    ),
    provides=(LastTargetPredictor,),
    label=lambda config: "last-target(unbounded)",
    spec_examples=(TargetCacheConfig(kind="last_target"),),
)
