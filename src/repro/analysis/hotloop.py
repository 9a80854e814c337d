"""Hot-loop hygiene lint for the per-branch simulation kernel.

PR 1's fast-path work (int-keyed dispatch, hoisted bound methods,
pre-built counter maps) bought a large constant factor on the
per-branch loop.  These rules keep that work from regressing: the code
paths executed once per dynamic branch must not re-introduce the
patterns that were deliberately removed.

Hot paths are listed explicitly in :data:`HOT_PATHS` — for
``FetchEngine.process_branch`` (called once per branch) the whole body
is hot; for the ``simulate`` / ``simulate_many`` drivers only the loop
bodies are (their setup code runs once per config and may construct
whatever it likes).

``hotloop-enum-property``
    Accessing a ``BranchKind`` convenience property (``is_branch``,
    ``is_call``, ...) in a hot path.  Each access walks Python's enum
    property machinery; the kernel pre-computes frozensets of kinds
    (``_CALL_KINDS``-style) instead.
``hotloop-construct``
    Calling a CamelCase constructor in a hot path.  Object allocation
    per branch dominated the original profile; state objects must be
    built once, outside the loop.
``hotloop-attr-chain``
    The same multi-step attribute chain (``self.a.b``) read two or more
    times within one loop body.  Hoist the lookup to a local before the
    loop (or bind once inside it).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.astutil import functions_with_qualnames, loop_bodies
from repro.analysis.base import Finding, Project, SourceFile

#: (relpath, function qualname, whole_body_hot) triples naming the kernel.
#: The streams module's builders run once per (trace, signature) but still
#: loop over every branch (or every history-shifting branch), and
#: ``simulate_streamed`` loops once per target-cache access per cell — all
#: of them per-dynamic-branch paths that must stay allocation-free.
HOT_PATHS: Tuple[Tuple[str, str, bool], ...] = (
    ("predictors/engine.py", "FetchEngine.process_branch", True),
    ("predictors/engine.py", "simulate", False),
    ("predictors/engine.py", "simulate_many", False),
    ("predictors/streams.py", "build_streams", False),
    ("predictors/streams.py", "_variant_walk", False),
    ("predictors/streams.py", "BranchStreams._per_address_variant", False),
    ("predictors/streams.py", "simulate_streamed", False),
    # The vector tier's kernel is whole-array by construction (the
    # vector-hygiene pass bans loops outright); listing it here keeps the
    # allocation/enum-property rules on its sanctioned counter loop and on
    # the recurrence body.
    ("predictors/vector.py", "simulate_vector", False),
    ("predictors/vector.py", "_last_write_predictions", True),
)

#: ``BranchKind`` convenience properties; cheap at module import, not per
#: branch.  Kept in sync with ``repro/guest/isa.py`` by the tests.
ENUM_PROPERTIES = frozenset(
    {
        "is_branch",
        "is_indirect",
        "is_predicted_by_target_cache",
        "is_call",
        "redirects_stream",
    }
)


def _camel_case(name: str) -> bool:
    """True for CamelCase class names, false for CONSTANTS and snake_case."""
    return name[:1].isupper() and not name.isupper()


def _call_target_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _chains(nodes: Iterable[ast.AST]) -> Iterable[Tuple[str, int]]:
    """Yield ``(chain, line)`` for each multi-attribute read under nodes.

    Only the *outermost* attribute of each chain is reported, and only
    chains with at least two attribute steps (``a.b.c``) — a single
    ``obj.attr`` read is one dict lookup and not worth hoisting.
    """
    inner: set = set()
    for root in nodes:
        for node in ast.walk(root):
            if not isinstance(node, ast.Attribute) or node in inner:
                continue
            parts: List[str] = []
            current: ast.AST = node
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                if isinstance(current.value, ast.Attribute):
                    inner.add(current.value)
                current = current.value
            if isinstance(current, ast.Name) and len(parts) >= 2:
                parts.append(current.id)
                yield ".".join(reversed(parts)), node.lineno


class HotLoopChecker:
    """Keep the per-branch kernel free of known slow patterns."""

    name = "hotloop"
    description = (
        "no enum-property dispatch, object construction, or repeated "
        "attribute chains in the per-branch simulation kernel"
    )

    def __init__(
        self, hot_paths: Sequence[Tuple[str, str, bool]] = HOT_PATHS
    ) -> None:
        self.hot_paths = tuple(hot_paths)

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        by_file: Dict[str, List[Tuple[str, bool]]] = {}
        for relpath, qualname, whole in self.hot_paths:
            by_file.setdefault(relpath, []).append((qualname, whole))
        for relpath, entries in by_file.items():
            source = project.file(relpath)
            if source is None:
                continue
            findings.extend(self.check_file(source, entries))
        return findings

    # ------------------------------------------------------------------
    def check_file(
        self, source: SourceFile, entries: Sequence[Tuple[str, bool]]
    ) -> List[Finding]:
        wanted = dict(entries)
        findings: List[Finding] = []
        for qualname, func in functions_with_qualnames(source.tree):
            whole = wanted.get(qualname)
            if whole is None:
                continue
            if whole:
                # ast.walk covers nested loops, so the body alone suffices.
                regions: List[List[ast.stmt]] = [list(func.body)]
            else:
                regions = list(loop_bodies(func))
            for region in regions:
                findings.extend(self._check_region(source, qualname, region))
            # Repeated-chain analysis is per loop body only: straight-line
            # code may read the same chain on mutually exclusive branches,
            # which is not a repeated lookup at runtime.
            for scope in loop_bodies(func):
                findings.extend(self._check_chains(source, qualname, scope))
        return findings

    def _check_region(self, source: SourceFile, qualname: str,
                      region: List[ast.stmt]) -> List[Finding]:
        findings: List[Finding] = []
        for stmt in region:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) \
                        and node.attr in ENUM_PROPERTIES:
                    findings.append(
                        Finding(
                            "hotloop-enum-property", source.relpath,
                            node.lineno,
                            f"'{node.attr}' property access in hot path "
                            f"'{qualname}'; pre-compute a frozenset of kinds "
                            "at module level instead",
                        )
                    )
                elif isinstance(node, ast.Call):
                    callee = _call_target_name(node)
                    if _camel_case(callee):
                        findings.append(
                            Finding(
                                "hotloop-construct", source.relpath,
                                node.lineno,
                                f"constructing '{callee}' in hot path "
                                f"'{qualname}'; allocate state once outside "
                                "the per-branch loop",
                            )
                        )
        return findings

    def _check_chains(self, source: SourceFile, qualname: str,
                      scope: List[ast.stmt]) -> List[Finding]:
        seen: Dict[str, List[int]] = {}
        for chain, line in _chains(scope):
            seen.setdefault(chain, []).append(line)
        findings: List[Finding] = []
        for chain, lines in sorted(seen.items()):
            if len(lines) < 2:
                continue
            findings.append(
                Finding(
                    "hotloop-attr-chain", source.relpath, lines[1],
                    f"'{chain}' looked up {len(lines)} times in hot path "
                    f"'{qualname}' (first at line {lines[0]}); hoist it to "
                    "a local",
                )
            )
        return findings
