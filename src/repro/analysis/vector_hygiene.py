"""Vector-hygiene lint: the vectorized tier must stay loop-free.

The whole point of :mod:`repro.predictors.vector` is that a cell is a
handful of whole-array numpy passes — sort, running maximum, gathers —
with no per-branch Python loop.  A ``for`` statement creeping back into
that module is how the 10x speed guard erodes one "small" change at a
time, so the absence of loops is a lint invariant, not a convention:

``vector-python-loop``
    A Python ``for`` / ``while`` statement in the vector module.  The
    per-branch recurrence must be expressed as array passes (the loop is
    almost always iterating an array row-by-row); the one legitimate
    loop, the per-``BranchKind`` counter fill (a dozen iterations per
    cell), carries an explicit
    ``# repro-lint: ignore[vector-python-loop]`` suppression.

The rule deliberately flags *every* loop rather than trying to prove the
iterable is an array: a false positive costs one ignore comment with a
reviewable justification, while a false negative silently re-serialises
the kernel.  Comprehensions are exempt — they show up in setup code
(e.g. building the per-kind counter map), never as a per-branch walk.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Tuple

from repro.analysis.astutil import functions_with_qualnames
from repro.analysis.base import Finding, Project, SourceFile

#: Package-relative files the loop ban applies to.
VECTOR_PATHS: Tuple[str, ...] = ("predictors/vector.py",)


class VectorHygieneChecker:
    """Ban Python loops from the whole-array simulation tier."""

    name = "vector-hygiene"
    description = (
        "no Python for/while loops in the vectorized execution tier; "
        "per-branch work must be whole-array numpy passes"
    )

    def __init__(self, paths: Sequence[str] = VECTOR_PATHS) -> None:
        self.paths = tuple(paths)

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for relpath in self.paths:
            source = project.file(relpath)
            if source is None:
                continue
            findings.extend(self.check_file(source))
        return findings

    # ------------------------------------------------------------------
    def check_file(self, source: SourceFile) -> List[Finding]:
        # Attribute each loop to its enclosing function so the message
        # names where the loop lives; module-level loops (none today)
        # report under "<module>".
        owner_by_loop: Dict[ast.AST, str] = {}
        for qualname, func in functions_with_qualnames(source.tree):
            for node in ast.walk(func):
                if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    # Innermost function wins: functions_with_qualnames
                    # yields outer functions before their nested ones.
                    owner_by_loop[node] = qualname
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                continue
            keyword = "while" if isinstance(node, ast.While) else "for"
            owner = owner_by_loop.get(node, "<module>")
            findings.append(
                Finding(
                    "vector-python-loop", source.relpath, node.lineno,
                    f"Python '{keyword}' loop in the vectorized tier "
                    f"('{owner}'); express the recurrence as whole-array "
                    "numpy passes, or justify with "
                    "# repro-lint: ignore[vector-python-loop]",
                )
            )
        return findings
