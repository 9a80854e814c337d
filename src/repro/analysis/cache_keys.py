"""Cache-key completeness: every result-affecting input must be keyed.

The persistent result cache (``repro.runner.cache``) replays stored
simulation outputs whenever :func:`repro.runner.keys.cell_key` matches.
That is only sound if the key covers *everything* that can change a
result: every config field (transitively through nested dataclasses) and
every source module the simulation kernel executes.  This pass turns both
invariants into lint rules:

``cachekey-field-type``
    A config dataclass field whose annotated type ``config_token`` cannot
    render canonically (sets, arrays, plain classes, bare ``Any``).  Such a
    field would either crash key construction or — worse, after a careless
    "fix" — be silently omitted from the key.
``cachekey-token-drift``
    A field of a live config instance that does not appear in its rendered
    token.  Guards against a future rewrite of ``config_token`` (e.g. an
    explicit field list) dropping a field.
``cachekey-module-uncovered``
    A module inside ``repro.predictors``/``repro.pipeline`` that the
    simulation kernel imports (transitively) but that the source-hash
    module lists in ``runner/keys.py`` do not cover.  Adding a predictor
    module without updating the lists is a lint failure, not a stale-cache
    bug.
``cachekey-module-missing``
    A module list entry that does not import — a typo would silently hash
    nothing.

That ``to_spec()`` renders every config field, which
:func:`repro.runner.keys.cell_key` relies on, is a runtime contract and
lives in ``tests/test_spec.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import Finding, Project

#: Kernel roots whose transitive imports the prediction key must cover.
#: The stream kernel is a root of its own: it must produce bit-identical
#: results to the reference engine, so an edit to it must invalidate
#: cached results exactly as an engine edit does.
PREDICTION_ROOTS = (
    "repro.predictors.engine",
    "repro.predictors.streams",
    "repro.predictors.vector",
)
#: Kernel roots whose transitive imports the timing key must cover.
TIMING_ROOTS = (
    "repro.pipeline.timing",
    "repro.pipeline.core",
    "repro.pipeline.integrated",
    "repro.pipeline.caches",
)
#: Packages inside which an uncovered import is a finding (the trace and
#: workload sides have their own fingerprint, see
#: ``repro.workloads.registry._code_fingerprint``).
CHECKED_PACKAGES = ("repro.predictors", "repro.pipeline")

_TOKEN_SCALARS = (bool, int, float, str)

try:  # ``X | Y`` annotations resolve to types.UnionType on 3.10+
    from types import UnionType as _UNION_TYPE
except ImportError:  # pragma: no cover - 3.9 fallback
    _UNION_TYPE = None  # type: ignore[assignment, misc]


class CacheKeyChecker:
    """Cross-check config dataclasses and kernel imports against the keys."""

    name = "cache-keys"
    description = (
        "EngineConfig/MachineConfig fields must tokenise into cell keys and "
        "the code-fingerprint module lists must cover the kernel's imports"
    )

    def run(self, project: Project) -> List[Finding]:
        from repro.pipeline import MachineConfig
        from repro.predictors import EngineConfig, TargetCacheConfig
        from repro.runner import keys

        findings: List[Finding] = []
        roots: List[Any] = [
            EngineConfig(target_cache=TargetCacheConfig()),
            MachineConfig(),
        ]
        for instance in roots:
            findings.extend(check_config_fields(type(instance), project))
            findings.extend(
                check_token_completeness(instance, keys.config_token, project)
            )
        covered_engine = tuple(keys._ENGINE_CODE_MODULES)
        covered_timing = covered_engine + tuple(keys._TIMING_CODE_MODULES)
        anchor = module_list_anchor(project, "runner/keys.py")
        findings.extend(
            check_module_coverage(
                project, PREDICTION_ROOTS, covered_engine, anchor
            )
        )
        findings.extend(
            check_module_coverage(project, TIMING_ROOTS, covered_timing, anchor)
        )
        findings.extend(check_modules_exist(covered_timing, anchor))
        return findings


# ----------------------------------------------------------------------
# Field-type validation (rule: cachekey-field-type)
# ----------------------------------------------------------------------
def _annotation_tokenisable(tp: Any, seen: Set[Any]) -> bool:
    """Whether ``config_token`` can canonically render values of ``tp``."""
    if tp is type(None) or tp in _TOKEN_SCALARS:
        return True
    if isinstance(tp, type):
        if issubclass(tp, Enum):
            return True
        if dataclasses.is_dataclass(tp):
            if tp in seen:
                return True
            seen.add(tp)
            hints = typing.get_type_hints(tp)
            return all(
                _annotation_tokenisable(hints[f.name], seen)
                for f in dataclasses.fields(tp)
            )
        if issubclass(tp, _TOKEN_SCALARS):
            return True
        return False
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (list, tuple, Sequence, typing.Sequence):
        return all(
            _annotation_tokenisable(a, seen) for a in args if a is not Ellipsis
        )
    if origin in (dict, typing.Dict):
        if len(args) != 2:
            return False
        key_tp, value_tp = args
        key_ok = key_tp in (str, int) or (
            isinstance(key_tp, type) and issubclass(key_tp, (Enum, str, int))
        )
        return key_ok and _annotation_tokenisable(value_tp, seen)
    if origin is typing.Union or (
        _UNION_TYPE is not None and origin is _UNION_TYPE
    ):
        return all(_annotation_tokenisable(a, seen) for a in args)
    return False


def _class_anchor(cls: type, project: Optional[Project]) -> Tuple[str, int]:
    """(relpath, line) of a class definition, best effort."""
    try:
        path = inspect.getsourcefile(cls)
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        return cls.__name__, 1
    if path is None:
        return cls.__name__, 1
    if project is not None:
        try:
            return Path(path).resolve().relative_to(
                project.root.resolve()
            ).as_posix(), line
        except ValueError:
            pass
    return Path(path).name, line


def check_config_fields(
    config_cls: type, project: Optional[Project] = None
) -> List[Finding]:
    """Flag fields (transitively) whose type cannot participate in a key."""
    findings: List[Finding] = []
    visited: Set[type] = set()

    def visit(cls: type) -> None:
        if cls in visited or not dataclasses.is_dataclass(cls):
            return
        visited.add(cls)
        relpath, line = _class_anchor(cls, project)
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            tp = hints.get(f.name, f.type)
            if not _annotation_tokenisable(tp, set()):
                findings.append(
                    Finding(
                        "cachekey-field-type", relpath, line,
                        f"{cls.__name__}.{f.name}: type {tp!r} cannot be "
                        "rendered by config_token, so it would not "
                        "participate in the result-cache key",
                    )
                )
            for nested in _nested_dataclasses(tp):
                visit(nested)

    def _nested_dataclasses(tp: Any) -> List[type]:
        out: List[type] = []
        if isinstance(tp, type) and dataclasses.is_dataclass(tp):
            out.append(tp)
        for arg in typing.get_args(tp):
            out.extend(_nested_dataclasses(arg))
        return out

    visit(config_cls)
    return findings


# ----------------------------------------------------------------------
# Token-render completeness (rule: cachekey-token-drift)
# ----------------------------------------------------------------------
def check_token_completeness(
    instance: Any,
    token_fn: Callable[[Any], Any],
    project: Optional[Project] = None,
) -> List[Finding]:
    """Every dataclass field of ``instance`` must appear in its token."""
    try:
        token = token_fn(instance)
    except TypeError as exc:
        relpath, line = _class_anchor(type(instance), project)
        return [
            Finding(
                "cachekey-token-drift", relpath, line,
                f"config_token failed on {type(instance).__name__}: {exc}",
            )
        ]
    findings: List[Finding] = []

    def compare(value: Any, rendered: Any) -> None:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            fields_map: Dict[str, Any] = {}
            if (
                isinstance(rendered, (list, tuple))
                and len(rendered) == 2
                and isinstance(rendered[1], dict)
            ):
                fields_map = rendered[1]
            for f in dataclasses.fields(value):
                if f.name not in fields_map:
                    relpath, line = _class_anchor(type(value), project)
                    findings.append(
                        Finding(
                            "cachekey-token-drift", relpath, line,
                            f"field {type(value).__name__}.{f.name} is "
                            "missing from its config_token rendering; the "
                            "result-cache key would ignore it",
                        )
                    )
                else:
                    compare(getattr(value, f.name), fields_map[f.name])
        elif isinstance(value, (list, tuple)):
            items = rendered[1] if (
                isinstance(rendered, (list, tuple))
                and len(rendered) == 2
                and rendered[0] == "tuple"
            ) else rendered
            if isinstance(items, (list, tuple)) and len(items) == len(value):
                for item, rendered_item in zip(value, items):
                    compare(item, rendered_item)

    compare(instance, token)
    return findings


# ----------------------------------------------------------------------
# Kernel import closure vs the code-fingerprint module lists
# ----------------------------------------------------------------------
def module_list_anchor(project: Project, relpath: str) -> Tuple[str, int]:
    """Anchor findings at the ``_ENGINE_CODE_MODULES`` assignment."""
    source = project.file(relpath)
    if source is None:
        return relpath, 1
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "_ENGINE_CODE_MODULES"
                ):
                    return relpath, node.lineno
    return relpath, 1


def _module_relpath(module_name: str, project: Project) -> Optional[str]:
    """Project-relative file for ``repro.x.y`` (``None`` if not a module)."""
    assert module_name.startswith("repro")
    tail = module_name.split(".")[1:]
    candidate = "/".join(tail) + ".py" if tail else "__init__.py"
    if project.file(candidate) is not None:
        return candidate
    package = "/".join(tail + ["__init__.py"])
    if project.file(package) is not None:
        return package
    return None


def internal_imports(project: Project, module_name: str) -> Set[str]:
    """``repro.*`` modules imported directly by ``module_name``."""
    relpath = _module_relpath(module_name, project)
    if relpath is None:
        return set()
    source = project.file(relpath)
    assert source is not None
    imported: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name.startswith("repro"):
                    imported.add(name.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if not node.module.startswith("repro"):
                continue
            for name in node.names:
                # "from repro.x import y": y may be a submodule or a symbol.
                as_module = f"{node.module}.{name.name}"
                if _module_relpath(as_module, project) is not None:
                    imported.add(as_module)
                else:
                    imported.add(node.module)
    return imported


def import_closure(project: Project, roots: Sequence[str]) -> Set[str]:
    """Transitive ``repro.*`` import closure of ``roots`` (roots included)."""
    closure: Set[str] = set()
    stack = [r for r in roots]
    while stack:
        module = stack.pop()
        if module in closure:
            continue
        closure.add(module)
        stack.extend(internal_imports(project, module))
    return closure


def _covers(module: str, covered: Sequence[str], project: Project) -> bool:
    for entry in covered:
        if module == entry:
            return True
        # A package entry covers every module underneath it.
        entry_rel = _module_relpath(entry, project)
        if (
            entry_rel is not None
            and entry_rel.endswith("__init__.py")
            and module.startswith(entry + ".")
        ):
            return True
    return False


def check_module_coverage(
    project: Project,
    roots: Sequence[str],
    covered: Sequence[str],
    anchor: Tuple[str, int],
) -> List[Finding]:
    """Kernel imports within CHECKED_PACKAGES must be fingerprint-covered."""
    findings: List[Finding] = []
    relpath, line = anchor
    for module in sorted(import_closure(project, roots)):
        if not any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in CHECKED_PACKAGES
        ):
            continue
        if not _covers(module, covered, project):
            findings.append(
                Finding(
                    "cachekey-module-uncovered", relpath, line,
                    f"kernel module '{module}' (imported from "
                    f"{'/'.join(sorted(roots))}) is not covered by the "
                    "code-fingerprint module lists; edits to it would not "
                    "invalidate cached results",
                )
            )
    return findings


def check_modules_exist(
    covered: Sequence[str], anchor: Tuple[str, int]
) -> List[Finding]:
    """Every fingerprint list entry must import cleanly."""
    findings: List[Finding] = []
    relpath, line = anchor
    for entry in covered:
        try:
            importlib.import_module(entry)
        except ImportError as exc:
            findings.append(
                Finding(
                    "cachekey-module-missing", relpath, line,
                    f"code-fingerprint module '{entry}' does not import "
                    f"({exc}); its sources are silently not hashed",
                )
            )
    return findings
