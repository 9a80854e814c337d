"""Worker-safety lint: the fork/spawn boundary of the process pool.

The sweep runner promises bit-identical results regardless of ``jobs``.
That contract survives only if the code a pool worker executes is safe to
replicate into N processes: no hidden process-shared state, nothing that
mutates the inherited environment, no global RNG, no file handle opened
at import time and silently duplicated by ``fork``.  Today's hazards are
contained; the planned sweep service (ROADMAP item 1) will keep workers
alive across requests, at which point any such leak becomes a cross-
request race.

This is an **interprocedural** pass: it computes everything reachable
from the worker entry points (:data:`ENTRY_POINTS` — the pool initializer
and the chunk runner in ``runner/pool.py``) over the project call graph
(:mod:`repro.analysis.callgraph`) and applies the rules to that closure,
wherever the functions live.

``worker-global-write``
    A ``global`` declaration, or a mutation (subscript/attribute store,
    ``.append``/``.update``-style call) whose target resolves to a
    module-level name — including through one local alias hop
    (``state = _STATE``, ``state = _WORKER.state`` or
    ``state = getattr(_WORKER, "state", None)``).  Module state written by
    worker code is per-process and invisible to the parent; deliberate
    per-worker memos carry suppressions explaining why they cannot leak
    into results.
``worker-env-mutate``
    Assigning/deleting ``os.environ[...]``, calling a mutating method on
    ``os.environ``, or ``os.putenv``/``os.unsetenv``.  Mutating the
    environment in a worker races with concurrent reads under ``fork``
    and silently diverges from the parent under ``spawn``.
``worker-unseeded-random``
    Global-RNG ``random.*`` / ``numpy.random.*`` use (the determinism
    checker's detector, applied to the worker closure — which extends
    beyond that checker's lexical scope).
``worker-import-open``
    An ``open(...)`` call executed at import time in any module that
    defines worker-reachable code: the handle (and its offset) is
    duplicated into every forked worker.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.base import Finding, Project
from repro.analysis.callgraph import (
    CallGraph,
    _own_statements,
    project_callgraph,
)
from repro.analysis.determinism import _call_impurity
from repro.analysis.symbols import FunctionInfo, ModuleInfo

#: Qualnames every pool worker executes: the initializer installs the
#: per-worker state/plugins/ledger shard, the chunk runner simulates
#: cells.  Everything they can reach runs inside worker processes.
ENTRY_POINTS: Tuple[str, ...] = (
    "repro.runner.pool._init_worker",
    "repro.runner.pool._run_chunk",
    # The sweep service submits single cells through the same pool; its
    # worker-side entry point must obey the same closure rules.
    "repro.runner.pool._service_cell",
)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "write",
    }
)

#: ``os.*`` calls that mutate the process environment.
_ENV_MUTATORS = frozenset({"os.putenv", "os.unsetenv"})


def _root_name(node: ast.AST) -> "str | None":
    """The root ``Name`` of a subscript/attribute chain, if any."""
    current = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _aliased_name(value: ast.AST) -> "str | None":
    """``NAME`` for a ``NAME``, ``NAME.attr`` or ``getattr(NAME, ...)`` read."""
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "getattr" and value.args):
        value = value.args[0]
    elif isinstance(value, ast.Attribute):
        value = value.value
    return value.id if isinstance(value, ast.Name) else None


def _is_environ(node: ast.AST, aliases: Dict[str, str]) -> bool:
    """Whether ``node`` denotes ``os.environ`` (through import aliases)."""
    from repro.analysis.astutil import resolve_dotted

    return (
        isinstance(node, ast.Attribute)
        and resolve_dotted(node, aliases) == "os.environ"
    ) or (
        isinstance(node, ast.Name)
        and aliases.get(node.id) == "os.environ"
    )


class WorkerSafetyChecker:
    """Flag process-shared-state hazards reachable from pool workers."""

    name = "worker-safety"
    description = (
        "module-global writes, os.environ mutation, unseeded RNG, and "
        "import-time file handles reachable from the pool worker entry "
        "points"
    )

    def __init__(self, entry_points: Sequence[str] = ENTRY_POINTS) -> None:
        self.entry_points = tuple(entry_points)

    def run(self, project: Project) -> List[Finding]:
        graph = project_callgraph(project)
        reachable = graph.reachable(self.entry_points)
        findings: List[Finding] = []
        modules_seen: Set[str] = set()
        for qualname in sorted(reachable):
            func = graph.index.function(qualname)
            if func is None:
                continue
            module = graph.index.modules[func.module]
            modules_seen.add(func.module)
            findings.extend(self._check_function(func, module, graph))
        # Import-time file handles: a property of the module, not of any
        # one function, so checked once per module hosting worker code.
        for name in sorted(modules_seen):
            module = graph.index.modules[name]
            for line in module.import_time_opens:
                findings.append(
                    Finding(
                        "worker-import-open", module.relpath, line,
                        "open() at import time in a module with worker-"
                        "reachable code: fork duplicates the handle (and "
                        "its offset) into every worker; open inside the "
                        "function that uses it",
                    )
                )
        return findings

    # ------------------------------------------------------------------
    def _check_function(
        self, func: FunctionInfo, module: ModuleInfo, graph: CallGraph
    ) -> List[Finding]:
        findings: List[Finding] = []
        aliases = module.aliases
        # One alias hop: ``state = _STATE``, ``state = _STATE.attr`` or
        # ``state = getattr(_STATE, ...)`` makes writes through ``state``
        # writes to module state.
        shared_names: Dict[str, str] = {
            name: f"module-level name '{name}'"
            for name in module.module_level_names
        }
        for node in _own_statements(func.node):
            if (
                isinstance(node, ast.Assign)
                and (source := _aliased_name(node.value)) in shared_names
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        shared_names.setdefault(
                            target.id,
                            f"'{target.id}' (alias of module-level "
                            f"'{source}')",
                        )

        def entry_note() -> str:
            return (
                f"'{func.qualname}' is reachable from the pool worker "
                f"entry points ({', '.join(self.entry_points)})"
            )

        for node in _own_statements(func.node):
            if isinstance(node, ast.Global):
                findings.append(
                    Finding(
                        "worker-global-write", func.relpath, node.lineno,
                        f"'global {', '.join(node.names)}' in worker-"
                        f"reachable code: {entry_note()}; module state "
                        "written here is per-process and races across "
                        "workers",
                    )
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    findings.extend(
                        self._check_store(func, target, aliases,
                                          shared_names, entry_note())
                    )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    findings.extend(
                        self._check_store(func, target, aliases,
                                          shared_names, entry_note())
                    )
            elif isinstance(node, ast.Call):
                findings.extend(
                    self._check_call(func, node, aliases, shared_names,
                                     entry_note())
                )
        return findings

    def _check_store(
        self, func: FunctionInfo, target: ast.AST, aliases: Dict[str, str],
        shared_names: Dict[str, str], note: str,
    ) -> List[Finding]:
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return []
        if _is_environ(target.value, aliases):
            return [
                Finding(
                    "worker-env-mutate", func.relpath, target.lineno,
                    f"os.environ mutated in worker-reachable code: {note}; "
                    "environment writes race under fork and diverge from "
                    "the parent under spawn",
                )
            ]
        root = _root_name(target)
        if root is not None and root in shared_names:
            return [
                Finding(
                    "worker-global-write", func.relpath, target.lineno,
                    f"write through {shared_names[root]} in worker-"
                    f"reachable code: {note}",
                )
            ]
        return []

    def _check_call(
        self, func: FunctionInfo, node: ast.Call, aliases: Dict[str, str],
        shared_names: Dict[str, str], note: str,
    ) -> List[Finding]:
        findings: List[Finding] = []
        from repro.analysis.astutil import resolve_dotted

        dotted = resolve_dotted(node.func, aliases)
        if dotted in _ENV_MUTATORS:
            findings.append(
                Finding(
                    "worker-env-mutate", func.relpath, node.lineno,
                    f"call to '{dotted}' in worker-reachable code: {note}",
                )
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            if _is_environ(node.func.value, aliases):
                findings.append(
                    Finding(
                        "worker-env-mutate", func.relpath, node.lineno,
                        f"os.environ.{node.func.attr}() in worker-reachable "
                        f"code: {note}",
                    )
                )
            else:
                root = _root_name(node.func.value)
                if root is not None and root in shared_names:
                    findings.append(
                        Finding(
                            "worker-global-write", func.relpath, node.lineno,
                            f".{node.func.attr}() on {shared_names[root]} "
                            f"in worker-reachable code: {note}",
                        )
                    )
        for rule, line, message in _call_impurity(node, aliases):
            if rule == "det-unseeded-random":
                findings.append(
                    Finding(
                        "worker-unseeded-random", func.relpath, line,
                        f"{message} ({note}; N workers sharing a global "
                        "RNG stream is a schedule-dependent race)",
                    )
                )
        return findings
