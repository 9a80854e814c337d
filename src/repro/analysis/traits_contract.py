"""Trait-contract lint: declared predictor traits vs actual implementation.

The registry (:mod:`repro.predictors.registry`) made dispatch declarative:
a :class:`~repro.predictors.registry.PredictorTraits` record *claims* what
a kind can do, and the execution tiers, the cache keys, and ``repro
predictors`` all believe it.  Nothing so far checked that the claims are
true — a trait declared in one module silently contradicting behaviour
implemented in another is exactly the cross-module bug class the
Bullseye/H2P compositions on the roadmap will multiply.  This pass
cross-checks each registration against the implementations it points at,
building every spec example through the real factory:

``trait-vector-dispatch``
    A ``vectorizable=True`` kind that
    :func:`~repro.predictors.vector.simulate_vector` cannot actually
    dispatch: a history-consuming kind whose built predictor does not
    expose an :class:`~repro.predictors.indexing.IndexScheme` via its
    ``scheme`` attribute (the vector tier's only non-oracle, non-pc
    indexing source).  Such a cell would raise at sweep time — or worse,
    force a silent fallback if the dispatch ever became lenient.
``trait-backend-chain``
    A ``traits.backends()`` chain that does not name real kernels:
    ``vectorizable=True`` with ``streams_supported=False`` (the vector
    tier consumes :class:`~repro.predictors.streams.BranchStreams`, so
    the chain silently drops ``vector``), or a backend name with no entry
    in :data:`KERNELS` or no kernel function behind it in the symbol
    index.
``trait-factory-provides``
    A factory whose built predictor is not an instance of any class in
    the registration's ``provides`` tuple (or that raises on its own
    spec example).  ``provides`` is how the registry checker proves every
    predictor class is reachable — a lying tuple unravels that proof.
``trait-uncovered-provider``
    A ``provides`` class defined in a module the result-cache
    code-fingerprint lists (``runner/keys.py``) do not cover: editing
    the predictor would not invalidate cached results built from it.
``trait-backstop-history``
    A ``predicts_on_btb_miss=True`` kind that also declares
    ``needs_history=True`` or ``vectorizable=True``.  On a BTB miss the
    engine has no fetch-time history capture for the branch (the stream
    kernel likewise feeds backstopped rows a constant zero), so only
    kinds that contractually ignore history may backstop; and the vector
    kernel replays routed rows only, so a vectorizable backstop kind
    would silently drop its BTB-miss predictions.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.base import Finding, Project
from repro.analysis.cache_keys import _covers, _registration_anchor
from repro.analysis.callgraph import project_callgraph

#: backend name -> the kernel function that must exist to serve it
KERNELS = {
    "engine": "repro.predictors.engine.simulate",
    "streams": "repro.predictors.streams.simulate_streamed",
    "vector": "repro.predictors.vector.simulate_vector",
}


class TraitContractChecker:
    """Every PredictorTraits claim must hold against the implementation."""

    name = "trait-contract"
    description = (
        "PredictorTraits declarations must match behaviour: vectorizable "
        "kinds dispatch, factories build their 'provides' classes, "
        "backend chains name real kernels, providers are cache-key covered"
    )

    def run(self, project: Project) -> List[Finding]:
        from repro.predictors.indexing import IndexScheme
        from repro.predictors.registry import registrations
        from repro.runner import keys

        index = project_callgraph(project).index
        covered: Tuple[str, ...] = tuple(keys._ENGINE_CODE_MODULES)
        findings: List[Finding] = []
        for reg in registrations():
            relpath, line = _registration_anchor(reg.module, project)
            traits = reg.traits

            if traits.predicts_on_btb_miss and traits.needs_history:
                findings.append(
                    Finding(
                        "trait-backstop-history", relpath, line,
                        f"kind '{reg.kind}' declares predicts_on_btb_miss="
                        "True with needs_history=True; on a BTB miss the "
                        "engine has no fetch-time history capture, so only "
                        "history-ignoring kinds may backstop BTB misses",
                    )
                )
            if traits.predicts_on_btb_miss and traits.vectorizable:
                findings.append(
                    Finding(
                        "trait-backstop-history", relpath, line,
                        f"kind '{reg.kind}' declares predicts_on_btb_miss="
                        "True with vectorizable=True; the vector kernel "
                        "replays routed rows only and would drop BTB-miss "
                        "predictions — leave the kind on the stream tier",
                    )
                )
            if traits.vectorizable and not traits.streams_supported:
                findings.append(
                    Finding(
                        "trait-backend-chain", relpath, line,
                        f"kind '{reg.kind}' declares vectorizable=True with "
                        "streams_supported=False; the vector tier consumes "
                        "BranchStreams, so backends() silently drops "
                        "'vector' and the claim is unreachable",
                    )
                )
            for backend in traits.backends():
                kernel = KERNELS.get(backend)
                if kernel is None or index.function(kernel) is None:
                    findings.append(
                        Finding(
                            "trait-backend-chain", relpath, line,
                            f"kind '{reg.kind}': backends() names "
                            f"'{backend}', which maps to no real kernel "
                            "(expected one of "
                            f"{', '.join(sorted(KERNELS))})",
                        )
                    )

            for cls in reg.provides:
                if not cls.__module__.startswith("repro."):
                    continue
                if not _covers(cls.__module__, covered, project):
                    findings.append(
                        Finding(
                            "trait-uncovered-provider", relpath, line,
                            f"kind '{reg.kind}' provides "
                            f"{cls.__module__}.{cls.__qualname__}, but that "
                            "module is not covered by the code-fingerprint "
                            "lists in runner/keys.py; edits to the "
                            "predictor would not invalidate cached results",
                        )
                    )

            for example in reg.spec_examples:
                if example.kind != reg.kind:
                    continue  # the registry checker owns kind mismatches
                try:
                    built = reg.factory(example)
                except Exception as exc:  # noqa: BLE001 - report, don't crash
                    findings.append(
                        Finding(
                            "trait-factory-provides", relpath, line,
                            f"kind '{reg.kind}': factory raised {exc!r} on "
                            f"its own spec example {example.kind}",
                        )
                    )
                    continue
                if reg.provides and not isinstance(built, reg.provides):
                    findings.append(
                        Finding(
                            "trait-factory-provides", relpath, line,
                            f"kind '{reg.kind}': factory built "
                            f"{type(built).__module__}."
                            f"{type(built).__qualname__}, which is not in "
                            "its declared provides tuple",
                        )
                    )
                if (
                    traits.vectorizable
                    and not traits.is_oracle
                    and traits.needs_history
                ):
                    scheme = getattr(built, "scheme", None)
                    if not isinstance(scheme, IndexScheme):
                        findings.append(
                            Finding(
                                "trait-vector-dispatch", relpath, line,
                                f"kind '{reg.kind}' declares vectorizable="
                                "True and needs_history=True, but the built "
                                "predictor exposes no IndexScheme 'scheme' "
                                "attribute — simulate_vector cannot index "
                                "its table",
                            )
                        )
        return findings
