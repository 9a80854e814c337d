"""Workload registry: name -> builder, with trace caching.

Workload names match the paper's benchmark names so experiment tables read
like the paper's.  Each entry records the paper statistics the workload was
calibrated against (Table 1 BTB indirect misprediction rate and the Figures
1-8 histogram character) — see each workload module's docstring for how the
calibration is achieved.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from functools import lru_cache
from types import ModuleType
from typing import Any, Dict, List, Optional

from repro.guest.isa import GuestProgram
from repro.guest.lowering import lowering_names
from repro.guest.vm import run_program
from repro.obs import get_sink
from repro.trace.io import cached_trace
from repro.trace.trace import Trace


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry for one synthetic benchmark."""

    name: str
    module: str
    params_class: str
    build_function: str
    description: str
    #: BTB indirect-jump misprediction rate the paper reports (Table 1);
    #: the synthetic workload is calibrated to land near this.
    paper_btb_mispred: float
    #: Qualitative Figures 1-8 shape: "many" = most jumps have 10+ targets,
    #: "few" = dominated by jumps with <= a handful of targets.
    paper_target_shape: str

    def _module(self) -> ModuleType:
        return importlib.import_module(self.module)

    def default_params(self, seed: Optional[int] = None) -> Any:
        params_cls = getattr(self._module(), self.params_class)
        if seed is None:
            return params_cls()
        return params_cls(seed=seed)

    def build(self, params: Any = None, seed: Optional[int] = None,
              lowering: Optional[str] = None) -> GuestProgram:
        module = self._module()
        if params is None:
            params = self.default_params(seed)
        return getattr(module, self.build_function)(params, lowering=lowering)


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        WorkloadSpec(
            name="compress",
            module="repro.workloads.compress_like",
            params_class="CompressParams",
            build_function="build",
            description="LZW-style compressor: hash probes, bit packing, "
                        "one heavily skewed dispatch",
            paper_btb_mispred=0.144,
            paper_target_shape="few",
        ),
        WorkloadSpec(
            name="gcc",
            module="repro.workloads.gcc_like",
            params_class="GccParams",
            build_function="build",
            description="compiler passes walking ASTs through many static "
                        "switch statements",
            paper_btb_mispred=0.660,
            paper_target_shape="many",
        ),
        WorkloadSpec(
            name="go",
            module="repro.workloads.go_like",
            params_class="GoParams",
            build_function="build",
            description="board scanner with data-dependent pattern dispatch "
                        "and hard-to-predict conditionals",
            paper_btb_mispred=0.376,
            paper_target_shape="few",
        ),
        WorkloadSpec(
            name="ijpeg",
            module="repro.workloads.ijpeg_like",
            params_class="IjpegParams",
            build_function="build",
            description="DCT-style block transforms with a skewed "
                        "coefficient-class dispatch",
            paper_btb_mispred=0.113,
            paper_target_shape="few",
        ),
        WorkloadSpec(
            name="m88ksim",
            module="repro.workloads.m88ksim_like",
            params_class="M88ksimParams",
            build_function="build",
            description="CPU simulator decoding a looping toy-processor "
                        "program through an opcode switch",
            paper_btb_mispred=0.373,
            paper_target_shape="moderate",
        ),
        WorkloadSpec(
            name="perl",
            module="repro.workloads.perl_like",
            params_class="PerlParams",
            build_function="build",
            description="bytecode interpreter re-processing a looping token "
                        "script (the paper's flagship path-history case)",
            paper_btb_mispred=0.762,
            paper_target_shape="many",
        ),
        WorkloadSpec(
            name="vortex",
            module="repro.workloads.vortex_like",
            params_class="VortexParams",
            build_function="build",
            description="OO-database method calls through per-class function "
                        "tables, receivers in homogeneous runs",
            paper_btb_mispred=0.083,
            paper_target_shape="few",
        ),
        WorkloadSpec(
            name="xlisp",
            module="repro.workloads.xlisp_like",
            params_class="XlispParams",
            build_function="build",
            description="tag-dispatched expression evaluator with a "
                        "mark-sweep-style heap scan",
            paper_btb_mispred=0.207,
            paper_target_shape="few",
        ),
    ]
}


#: The paper's §5 future work: C++-style object-oriented workloads with
#: virtual dispatch.  Kept in a separate registry so the SPECint95 tables
#: stay exactly eight rows; ``repro.experiments.oo_future_work`` uses them.
OO_WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        WorkloadSpec(
            name="richards",
            module="repro.workloads.richards_like",
            params_class="RichardsParams",
            build_function="build",
            description="OS-simulation kernel: a scheduler dispatching "
                        "polymorphic task run methods",
            paper_btb_mispred=0.50,  # no paper number; expectation only
            paper_target_shape="moderate",
        ),
        WorkloadSpec(
            name="deltablue",
            module="repro.workloads.deltablue_like",
            params_class="DeltablueParams",
            build_function="build",
            description="constraint solver executing plans of virtual "
                        "execute/check methods",
            paper_btb_mispred=0.70,  # no paper number; expectation only
            paper_target_shape="many",
        ),
    ]
}

#: Server-scale workloads (ROADMAP open item 2): huge static branch
#: footprints with Zipf-skewed, low per-site reuse that thrash BTB
#: *capacity* rather than stressing target polymorphism.  Kept in their
#: own registry so the SPECint95 tables stay exactly eight rows;
#: ``repro.experiments.server_btb`` sweeps them.  There are no paper
#: numbers for this regime: the recorded rates are measured on the
#: default 400k-instruction traces (baseline ``EngineConfig()``) and pin
#: the generator the way Table 1 pins the SPEC-like family.
SERVER_WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        WorkloadSpec(
            name="webserver_like",
            module="repro.workloads.server_like",
            params_class="WebserverParams",
            build_function="build",
            description="URL-route fan-out: hundreds of handler chains, "
                        "hot head, long cold tail (Zipf s=1.1)",
            paper_btb_mispred=0.418,  # measured, not a paper number
            paper_target_shape="few",
        ),
        WorkloadSpec(
            name="db_like",
            module="repro.workloads.server_like",
            params_class="DbParams",
            build_function="build",
            description="query plans: deeper call chains with 2-way "
                        "polymorphic operator dispatch, flatter skew",
            paper_btb_mispred=0.731,  # measured, not a paper number
            paper_target_shape="moderate",
        ),
        WorkloadSpec(
            name="rpc_like",
            module="repro.workloads.server_like",
            params_class="RpcParams",
            build_function="build",
            description="microservice stubs: very many tiny methods, "
                        "near-uniform traffic, lowest per-site reuse",
            paper_btb_mispred=0.739,  # measured, not a paper number
            paper_target_shape="few",
        ),
    ]
}

#: Combined lookup used by get_trace / build_program.
_ALL_WORKLOADS: Dict[str, WorkloadSpec] = {
    **WORKLOADS, **OO_WORKLOADS, **SERVER_WORKLOADS,
}


def parse_workload_name(name: str) -> "tuple[str, Optional[str]]":
    """Split a composite benchmark name into (base, lowering).

    ``"perl"`` -> ``("perl", None)``; ``"perl@if_tree"`` ->
    ``("perl", "if_tree")``.  The explicit ``@jump_table`` spelling
    canonicalises to ``None`` — it *is* the default shape, and collapsing
    it keeps the trace/result caches from holding duplicate entries for
    one identical trace.  Unknown lowerings raise ``KeyError``.
    """
    base, sep, lowering = name.partition("@")
    if not sep:
        return base, None
    if lowering not in lowering_names():
        raise KeyError(
            f"unknown lowering {lowering!r} in workload name {name!r}; "
            f"available: {', '.join(lowering_names())}"
        )
    if lowering == "jump_table":
        return base, None
    return base, lowering


def _resolve(name: str,
             lowering: Optional[str] = None) -> "tuple[WorkloadSpec, str, Optional[str]]":
    """Resolve a (possibly composite) name plus an explicit lowering knob.

    Returns ``(spec, base_name, effective_lowering)``.  A lowering given
    both in the name and as a keyword must agree.
    """
    base, name_lowering = parse_workload_name(name)
    if lowering is not None and lowering == "jump_table":
        lowering = None
    if name_lowering is not None and lowering is not None \
            and name_lowering != lowering:
        raise ValueError(
            f"conflicting lowerings: name {name!r} vs lowering={lowering!r}"
        )
    effective = name_lowering if name_lowering is not None else lowering
    if base not in _ALL_WORKLOADS:
        raise KeyError(
            f"unknown workload {base!r}; available: "
            f"{', '.join(workload_names(include_oo=True, include_server=True))}"
        )
    return _ALL_WORKLOADS[base], base, effective


def workload_names(include_oo: bool = False,
                   include_server: bool = False) -> List[str]:
    names = sorted(WORKLOADS)
    if include_oo:
        names += sorted(OO_WORKLOADS)
    if include_server:
        names += sorted(SERVER_WORKLOADS)
    return names


def workload_spec(name: str) -> WorkloadSpec:
    """Registry entry for one workload (SPECint-alike, OO, or server).

    Accepts composite ``name@lowering`` benchmark names; the entry is the
    base workload's.
    """
    spec, _, _ = _resolve(name)
    return spec


def build_program(name: str, seed: Optional[int] = None,
                  lowering: Optional[str] = None) -> GuestProgram:
    """Assemble the named workload's guest program.

    The dispatch control-flow shape comes from the ``lowering`` knob or a
    composite ``name@lowering`` benchmark name (they must agree if both
    are given); ``None`` is the classic jump table.
    """
    spec, _, effective = _resolve(name, lowering)
    return spec.build(seed=seed, lowering=effective)


def get_trace(name: str, n_instructions: int = 400_000, seed: int = 1997,
              use_cache: bool = True, lowering: Optional[str] = None) -> Trace:
    """Return a validated trace of the named workload.

    Traces are cached on disk (see :func:`repro.trace.io.cached_trace`)
    keyed by (name, length, seed, lowering); pass ``use_cache=False`` to
    force regeneration.  ``name`` may be composite (``perl@if_tree``).
    Each generation (build, VM run, column wrap and validation) is one
    ``trace.generate`` ledger span; a cache hit records none.
    """
    spec, base, effective = _resolve(name, lowering)

    def generate() -> Trace:
        with get_sink().span("trace.generate", workload=base,
                             lowering=effective or "jump_table",
                             length=n_instructions, seed=seed):
            program = spec.build(seed=seed, lowering=effective)
            trace = Trace.from_raw(
                run_program(program, max_instructions=n_instructions))
            trace.validate()
        return trace

    if not use_cache:
        return generate()
    return cached_trace(
        trace_fingerprint(name, n_instructions, seed, lowering), generate
    )


def trace_fingerprint(name: str, n_instructions: int = 400_000,
                      seed: int = 1997,
                      lowering: Optional[str] = None) -> str:
    """Stable, filesystem-safe identity of :func:`get_trace`'s result.

    Covers everything that determines the trace content: workload name,
    switch lowering, length, generator seed, and a hash of the generator
    sources (workload module, shared emitters, ISA tables, VM, builder,
    lowerings).
    Used as the trace-cache key and as the trace component of the sweep
    runner's result-cache keys — distinct lowerings therefore can never
    alias in either cache.
    """
    spec, base, effective = _resolve(name, lowering)
    fingerprint = _code_fingerprint(spec.module)
    stem = base if effective is None else f"{base}@{effective}"
    return f"{stem}_n{n_instructions}_s{seed}_{fingerprint}"


@lru_cache(maxsize=None)
def _code_fingerprint(module_name: str) -> str:
    """Short hash of the sources that determine a workload's trace.

    Included in the cache key so editing a workload (or the shared
    emitters, the ISA tables that set the class and branch-kind columns,
    the VM that builds every column, the builder or the lowerings)
    invalidates stale cached traces automatically.
    """
    digest = hashlib.md5()
    for mod in (module_name, "repro.workloads.support", "repro.guest.isa",
                "repro.guest.vm", "repro.guest.builder", "repro.guest.lowering"):
        module = importlib.import_module(mod)
        with open(module.__file__, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:10]
