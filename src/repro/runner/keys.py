"""Stable cache keys for sweep cells.

A persistent result cache is only trustworthy if its keys cover *every*
input that can change a simulation's outcome:

* the full :class:`~repro.predictors.engine.EngineConfig` (which embeds the
  :class:`~repro.predictors.engine.HistoryConfig`, the direction-predictor
  and target-cache configs, and the BTB/RAS geometry);
* the trace identity — workload name, length, seed, and a hash of the
  generator sources (:func:`repro.workloads.trace_fingerprint`);
* the simulator code itself — a hash of every source file under
  ``repro.predictors`` plus the ISA and trace-schema modules, so editing a
  predictor invalidates stale results automatically, while unrelated
  changes (experiment tables, docs, environment variables) keep hitting.

Keys are hex SHA-256 digests of a canonical JSON rendering; nothing about
them depends on hash randomisation, dict order, or pickle details.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Tuple

from repro.predictors import EngineConfig, traits_for
from repro.workloads import trace_fingerprint


def _qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def config_token(value: Any) -> Any:
    """Render a config object as a canonical JSON-serialisable structure.

    Dataclasses become ``[module-qualified name, {field: token, ...}]`` so
    two different config classes with identical field values never collide
    — not even same-named classes from different modules; enums become
    ``[module-qualified name, value]``.  Tuples render as
    ``["tuple", [...]]`` to stay distinct from lists.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: config_token(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return [_qualified_name(type(value)), fields]
    if isinstance(value, Enum):
        return [_qualified_name(type(value)), value.value]
    if isinstance(value, tuple):
        return ["tuple", [config_token(item) for item in value]]
    if isinstance(value, list):
        return [config_token(item) for item in value]
    if isinstance(value, dict):
        # Enum keys render as "ClassName.MEMBER" — str() of an IntEnum
        # changed between Python 3.10 and 3.12, and keys must not.
        def render(key: Any) -> str:
            if isinstance(key, Enum):
                return f"{type(key).__name__}.{key.name}"
            return str(key)

        return {
            render(k): config_token(v)
            for k, v in sorted(value.items(), key=lambda item: render(item[0]))
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot tokenise {type(value).__name__} for a cache key")


#: Modules whose sources determine simulation results (beyond the configs).
_ENGINE_CODE_MODULES = (
    "repro.predictors",   # package: every .py underneath is hashed
    "repro.guest.isa",
    "repro.trace.trace",
)

#: Modules whose sources determine timing (cycle-count) results.
_TIMING_CODE_MODULES = (
    "repro.pipeline",     # package: every .py underneath is hashed
)


def _fingerprint_label(path: Path) -> str:
    """Stable per-file label mixed into the source fingerprint.

    The label is the path relative to the installed package root (posix
    separators), not the bare filename: two files named ``config.py`` in
    different subpackages must contribute distinct labels, and moving a
    file between subpackages must change the fingerprint.  Falls back to
    the filename for sources outside the package (not expected).
    """
    import repro

    package_root = Path(repro.__file__).parent.parent
    try:
        return path.resolve().relative_to(package_root.resolve()).as_posix()
    except ValueError:
        return path.name


def _source_fingerprint(module_names: Tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    for module_name in module_names:
        module = importlib.import_module(module_name)
        if hasattr(module, "__path__"):
            paths = sorted(Path(module.__path__[0]).rglob("*.py"))
        else:
            paths = [Path(module.__file__)]
        for path in paths:
            digest.update(_fingerprint_label(path).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


@lru_cache(maxsize=1)
def engine_code_fingerprint() -> str:
    """Short hash of the simulator sources behind every prediction run."""
    return _source_fingerprint(_ENGINE_CODE_MODULES)


@lru_cache(maxsize=1)
def timing_code_fingerprint() -> str:
    """Short hash of the pipeline-model sources behind every timing run."""
    return _source_fingerprint(_TIMING_CODE_MODULES)


#: Version of the cell-key payload layout.  Bumped to 2 when the config
#: side switched from the Python-class-qualified ``config_token`` rendering
#: to the declarative ``EngineConfig.to_spec()`` form, so registry-era keys
#: depend only on the spec (kind strings + field values), never on where
#: the implementing classes live.  The bump is a deliberate one-time
#: invalidation of pre-registry cached results (documented in
#: ``docs/PREDICTORS.md``); results re-fill on the next run.
CELL_KEY_VERSION = 2


def cell_key(benchmark: str, config: EngineConfig, trace_length: int,
             seed: int) -> str:
    """Result-cache key for one ``(benchmark, config)`` sweep cell.

    The config enters as its spec (:meth:`EngineConfig.to_spec`): two
    configs collide exactly when their specs are equal, which is also the
    condition under which the registry builds identical predictors.

    Deliberately independent of ``collect_mask``: a cached result that
    carries the mispredict mask satisfies both mask and no-mask requests,
    so the cache stores at most one entry per cell (see
    :meth:`repro.runner.cache.ResultCache.load`).
    """
    payload = json.dumps(
        {
            "version": CELL_KEY_VERSION,
            "trace": trace_fingerprint(benchmark, trace_length, seed),
            "engine_code": engine_code_fingerprint(),
            "spec": config.to_spec(),
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def timing_key(benchmark: str, config: EngineConfig, trace_length: int,
               seed: int, machine: Any) -> str:
    """Result-cache key for one cell's *cycle count* on a machine.

    Builds on :func:`cell_key` (which already covers the trace and the
    predictor side) and adds the :class:`~repro.pipeline.MachineConfig`
    plus a hash of the pipeline-model sources, so editing the timing model
    or changing any machine parameter invalidates cached cycle counts
    without touching the prediction entries.
    """
    payload = json.dumps(
        {
            "cell": cell_key(benchmark, config, trace_length, seed),
            "timing_code": timing_code_fingerprint(),
            "machine": config_token(machine),
        },
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def cacheable(config: EngineConfig) -> bool:
    """Whether a cell's results may enter the result cache.

    Only when its target-cache kind, if any, declares ``deterministic``
    traits: a kind whose outputs vary run to run has no single result a
    key could stand for.
    """
    target_cache = config.target_cache
    return target_cache is None or traits_for(target_cache.kind).deterministic
