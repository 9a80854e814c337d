"""Domain-specific static analysis for the repro codebase.

``repro lint`` runs every checker in :data:`CHECKERS` over the installed
``repro`` package and reports findings not silenced by a
``# repro-lint: ignore[rule-id]`` comment on the offending line.  See
``docs/ANALYSIS.md`` for the rule catalogue and how to add a pass.

Two kinds of pass coexist in the registry:

* **lexical** passes inspect files independently (determinism, bitwidth,
  hotloop, ...);
* **interprocedural** passes (worker-safety, transitive-purity) query
  the shared project call graph (:mod:`repro.analysis.callgraph`), built
  once per lint run.

What the predictor and switch-lowering registries declare is checked at
runtime instead: :class:`~repro.predictors.registry.PredictorTraits`
rejects contradictory traits when it is built, and the tier-1 tests
hold every other registration contract (``docs/ANALYSIS.md``).

One pass — :class:`~repro.analysis.suppressions.StaleSuppressionChecker`
— audits the *other* passes' raw findings; :func:`run_lint` feeds it
through the optional ``finalize(project, raw_findings)`` hook.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.base import (
    SUPPRESS_ALL,
    Checker,
    FinalizingChecker,
    Finding,
    Project,
    SourceFile,
)
from repro.analysis.bitwidth import BitWidthChecker
from repro.analysis.cache_keys import CacheKeyChecker
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.hotloop import HotLoopChecker
from repro.analysis.obs_discipline import ObsDisciplineChecker
from repro.analysis.purity import TransitivePurityChecker
from repro.analysis.report import LintReport, describe_checkers
from repro.analysis.suppressions import StaleSuppressionChecker
from repro.analysis.vector_hygiene import VectorHygieneChecker
from repro.analysis.worker_safety import WorkerSafetyChecker

__all__ = [
    "SUPPRESS_ALL",
    "Checker",
    "FinalizingChecker",
    "Finding",
    "Project",
    "SourceFile",
    "BitWidthChecker",
    "CacheKeyChecker",
    "DeterminismChecker",
    "HotLoopChecker",
    "ObsDisciplineChecker",
    "StaleSuppressionChecker",
    "TransitivePurityChecker",
    "VectorHygieneChecker",
    "WorkerSafetyChecker",
    "LintReport",
    "CHECKERS",
    "describe_checkers",
    "run_lint",
]

#: The registry: adding a pass means listing an instance here.  The
#: stale-suppression audit runs last only by convention — ordering does
#: not matter, because ``run_lint`` hands it every peer's raw findings
#: regardless of position.
CHECKERS: List[Checker] = [
    DeterminismChecker(),
    CacheKeyChecker(),
    BitWidthChecker(),
    HotLoopChecker(),
    ObsDisciplineChecker(),
    VectorHygieneChecker(),
    WorkerSafetyChecker(),
    # The sweep service legitimately holds event-loop state — monotonic
    # clocks for uptime/claim ages, asyncio futures, live counters — all
    # of it scheduling-only: cells reach the kernel exclusively through
    # the pool entry points, which worker-safety roots and the lexical
    # determinism scope already police.  Skipping ``service/`` here keeps
    # that telemetry from reading as kernel impurity if a future call
    # chain links a root to a service helper; it must never grow to
    # cover result-producing code (see docs/ANALYSIS.md).
    TransitivePurityChecker(skip_prefixes=("service/",)),
    StaleSuppressionChecker(),
]


def run_lint(
    project: Optional[Project] = None,
    checkers: Optional[Sequence[Checker]] = None,
    only: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run checkers over ``project`` and apply line suppressions.

    ``only`` restricts the run to the named checkers (``repro lint
    --only determinism,worker-safety``); unknown names raise
    ``ValueError`` listing the valid ones.  Suppression comments are
    honoured here, so individual checkers never deal with them.

    A checker exposing ``finalize(project, raw_findings)`` (the
    stale-suppression audit) receives the raw, pre-suppression findings
    of every *registered* peer — peers outside the ``only`` selection
    are still executed to feed the audit, but their findings are not
    reported.
    """
    if project is None:
        project = Project.load()
    registry: Sequence[Checker] = (
        checkers if checkers is not None else CHECKERS
    )
    active: Sequence[Checker] = registry
    if only is not None:
        valid = {checker.name for checker in registry}
        unknown = set(only) - valid
        if unknown:
            raise ValueError(
                f"unknown checker(s): {', '.join(sorted(unknown))} "
                f"(valid: {', '.join(sorted(valid))})"
            )
        wanted = set(only)
        active = [checker for checker in registry if checker.name in wanted]

    report = LintReport(checkers=[checker.name for checker in active])

    def _admit(finding: Finding) -> None:
        source = project.file(finding.path)
        if source is not None and source.suppressed(
            finding.line, finding.rule
        ):
            report.suppressed += 1
        else:
            report.findings.append(finding)

    raw_by_name: Dict[str, List[Finding]] = {}
    for checker in active:
        raw = checker.run(project)
        raw_by_name[checker.name] = raw
        for finding in raw:
            _admit(finding)

    finalizers = [c for c in active if isinstance(c, FinalizingChecker)]
    if finalizers:
        peer_raw: List[Finding] = []
        for checker in registry:
            if isinstance(checker, FinalizingChecker):
                continue
            raw = raw_by_name.get(checker.name)
            if raw is None:
                raw = checker.run(project)
            peer_raw.extend(raw)
        for checker in finalizers:
            for finding in checker.finalize(project, peer_raw):
                # The audit questions suppression comments, so a blanket
                # ignore must not silence it about itself; only an
                # explicit ignore[<audit rule>] does.
                source = project.file(finding.path)
                explicit = (
                    source is not None
                    and finding.rule
                    in source.suppressions.get(finding.line, frozenset())
                )
                if explicit:
                    report.suppressed += 1
                else:
                    report.findings.append(finding)

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
