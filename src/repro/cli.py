"""Command-line entry point: ``python -m repro`` / ``repro``.

Subcommands::

    repro list                      # available experiments and workloads
    repro table1 [options]          # run one experiment and print its table
    repro run <experiment> [opts]   # explicit form of the same
    repro all [options]             # run every experiment
    repro predictors                # registered predictor kinds and traits
    repro workloads [name]          # workload calibration + footprint stats
    repro workloads --lowerings     # registered switch lowerings
    repro sweep --spec FILE [opts]  # run ad-hoc cells from a spec JSON file
    repro trace <workload> [options]  # print workload trace statistics
    repro dump <workload> [--head N]  # disassemble a workload's code
    repro lint [--format text|json|sarif] [--only a,b]  # domain lint passes
    repro bench [--bench-output F]    # measure sweep throughput -> JSON
    repro serve [--port P] [--shards N]   # long-running sweep service
    repro loadgen [--requests N] [--concurrency C]  # benchmark the service
    repro report [LEDGER]             # summarise a run ledger
    repro report --compare OLD NEW    # diff two bench payloads (CI gate)

Wherever a workload name is accepted, a ``name@lowering`` suffix picks the
switch-lowering shape (``repro trace perl@if_tree``); see
``repro workloads --lowerings`` and ``docs/LOWERING.md``.

``repro sweep`` runs arbitrary ``(benchmark, engine-spec)`` cells through
the full execution stack — registry-built predictors, stream kernel,
process pool, persistent result cache — without writing an experiment
module.  The spec file schema (see ``docs/PREDICTORS.md``)::

    {"plugins": ["my_module"],            # optional: imported first
     "benchmarks": ["perl", "gcc"],       # default benchmark list
     "cells": [
        {"preset": "tagless-gshare9"},    # named preset from configs.PRESETS
        {"engine": {...EngineConfig spec...},
         "benchmarks": ["go"],            # per-cell override
         "label": "my row"}]}             # optional row label

Options: ``--trace-length N`` (default 400000, or REPRO_TRACE_LENGTH),
``--seed S``, ``--no-cache``, ``--jobs N`` (or REPRO_JOBS; worker
processes for experiment sweeps), ``--no-result-cache`` (bypass the
persistent prediction-result cache, see :mod:`repro.runner`), and
``--backend {auto,engine,streams,vector}`` (cap the per-cell execution
tier; every tier is bit-identical, so this only changes speed).  ``bench``
writes the machine-readable baseline described in :mod:`repro.bench`
(default ``BENCH_sweep.json``; see ``--bench-output``/``--rounds``) and
appends every payload to a history file (``--bench-history``).

Observability (:mod:`repro.obs`): simulation commands (experiments,
``all``, ``bench``) honour ``REPRO_OBS`` — unset/``0`` disabled, ``1``
for a ledger at ``repro_ledger.jsonl``, any other value is the ledger
path.  ``--obs-ledger FILE`` forces a ledger; ``--no-obs`` forces obs
off regardless of the environment.  ``repro report LEDGER`` summarises
the result; read-only commands never construct a sink, so summarising a
ledger cannot clobber it.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.common import (
    EXPERIMENT_MODULES,
    ExperimentContext,
    run_experiment,
)
from repro.guest.disasm import disassemble_program
from repro.trace.stats import (
    branch_mix,
    footprint,
    indirect_target_histogram,
    transition_rate,
)
from repro.workloads import build_program, get_trace, workload_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Target Prediction for Indirect Jumps' "
                    "(Chang, Hao & Patt, ISCA 1997)",
    )
    parser.add_argument("command",
                        help="experiment name, 'run', 'all', 'list', "
                             "'predictors', 'workloads', 'sweep', 'trace', "
                             "'dump', 'lint', 'bench', 'serve', 'loadgen', "
                             "or 'report'")
    parser.add_argument("workload", nargs="?",
                        help="workload name (for 'trace', 'dump', 'bench', "
                             "'workloads'; accepts a name@lowering suffix), "
                             "experiment name (for 'run'), or ledger path "
                             "(for 'report')")
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="spec JSON file (sweep command)")
    parser.add_argument("--head", type=int, default=80,
                        help="instructions to disassemble (dump command)")
    parser.add_argument("--trace-length", type=int, default=None,
                        help="instructions per trace (default 400000)")
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk trace cache")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for experiment sweeps "
                             "(default: REPRO_JOBS, else 1)")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="bypass the persistent prediction-result cache")
    parser.add_argument("--backend",
                        choices=("auto", "engine", "streams", "vector"),
                        default="auto",
                        help="cap the per-cell execution tier (auto picks "
                             "the fastest supported: vector > streams > "
                             "engine; results are bit-identical)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (lint: text/json/sarif; "
                             "report: text/json)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="CHECKERS",
                        help="run only the named lint checkers "
                             "(repeatable and/or comma-separated)")
    parser.add_argument("--list-checks", action="store_true",
                        help="list registered lint checkers and exit")
    parser.add_argument("--lowerings", action="store_true",
                        help="list registered switch lowerings and exit "
                             "(workloads command)")
    parser.add_argument("--bench-output", default="BENCH_sweep.json",
                        metavar="FILE",
                        help="where 'bench' writes its JSON payload")
    parser.add_argument("--bench-history", default=None, metavar="FILE",
                        help="bench history JSONL (default: "
                             "BENCH_history.jsonl next to --bench-output)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timing rounds per measurement (bench command)")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the run ledger even if REPRO_OBS is set")
    parser.add_argument("--obs-ledger", default=None, metavar="FILE",
                        help="record a run ledger at FILE (overrides "
                             "REPRO_OBS)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind/connect address (serve, loadgen)")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port (serve: 0 picks a free port and "
                             "prints it; loadgen: the server's port)")
    parser.add_argument("--shards", type=int, default=None,
                        help="scheduler shards (serve; default scales "
                             "with --jobs)")
    parser.add_argument("--requests", type=int, default=None,
                        help="spec submissions to replay (loadgen)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="concurrent loadgen workers")
    parser.add_argument("--zipf", type=float, default=None,
                        help="Zipf exponent for the loadgen request mix")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("OLD", "NEW"),
                        help="report command: diff two bench JSON payloads; "
                             "exits 1 on regression")
    parser.add_argument("--top", type=int, default=10,
                        help="slowest cells to list (report command)")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="regression threshold percent for "
                             "'report --compare' (default 20)")
    return parser


def _context(args: argparse.Namespace) -> ExperimentContext:
    return ExperimentContext(
        trace_length=args.trace_length,
        seed=args.seed,
        use_trace_cache=not args.no_cache,
        jobs=args.jobs,
        use_result_cache=not args.no_result_cache,
        backend=args.backend,
    )


def _experiment_description(name: str) -> str:
    """First docstring line of an experiment module (empty if none)."""
    import importlib

    module = importlib.import_module(EXPERIMENT_MODULES[name])
    doc = (module.__doc__ or "").strip()
    return doc.splitlines()[0].strip() if doc else ""


def _cmd_list() -> int:
    from repro.workloads import workload_spec

    names = list(EXPERIMENT_MODULES)
    width = max(len(name) for name in names)
    print("experiments:")
    for name in names:
        print(f"  {name:<{width}}  {_experiment_description(name)}")
    workloads = workload_names(include_oo=True, include_server=True)
    width = max(len(name) for name in workloads)
    print("workloads:")
    for name in workloads:
        print(f"  {name:<{width}}  {workload_spec(name).description}")
    return 0


def _cmd_predictors() -> int:
    from repro.predictors import registrations

    print("registered target-cache kinds:")
    for reg in registrations():
        traits = reg.traits
        flags = ", ".join(
            flag for flag, on in (
                ("needs-history", traits.needs_history),
                ("oracle", traits.is_oracle),
                ("deterministic", traits.deterministic),
            ) if on
        )
        print(f"  {reg.kind}")
        if traits.description:
            print(f"      {traits.description}")
        print(f"      traits: {flags}")
        print(f"      backends: {' > '.join(traits.backends())}")
        if traits.spec_fields:
            print(f"      spec fields: {', '.join(traits.spec_fields)}")
        if reg.spec_examples:
            print(f"      e.g. {reg.spec_examples[0].label()}")
        if not reg.module.startswith("repro"):
            print(f"      plugin: {reg.module}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    """Mirror of ``repro predictors`` for the workload registry.

    Prints each workload's calibration targets (the Table-1-style
    misprediction rate and the Figures 1-8 histogram shape recorded in its
    :class:`~repro.workloads.registry.WorkloadSpec`) next to *measured*
    footprint statistics of its trace (static site counts and per-site
    reuse, :func:`repro.trace.stats.footprint`).  Traces come from the
    disk cache, so only the first invocation pays for generation.
    """
    from repro.workloads import workload_spec
    from repro.workloads.registry import OO_WORKLOADS, SERVER_WORKLOADS

    if args.lowerings:
        return _cmd_lowerings()
    if args.workload:
        try:
            workload_spec(args.workload)
        except KeyError as exc:
            print(f"repro workloads: {exc.args[0]}", file=sys.stderr)
            return 2
        names = [args.workload]
    else:
        names = workload_names(include_oo=True, include_server=True)
    length = args.trace_length or 400_000
    print("registered workloads:")
    for name in names:
        spec = workload_spec(name)
        family = ("server" if name in SERVER_WORKLOADS
                  else "oo" if name in OO_WORKLOADS else "spec")
        print(f"  {name}  [{family}]")
        print(f"      {spec.description}")
        source = ("paper Table 1" if family == "spec"
                  else "measured, no paper number")
        print(f"      calibration: BTB indirect mispredict "
              f"{spec.paper_btb_mispred:.1%} ({source}), "
              f"target shape: {spec.paper_target_shape}")
        trace = get_trace(name, n_instructions=length, seed=args.seed,
                          use_cache=not args.no_cache)
        fp = footprint(trace)
        print(f"      footprint: {fp.static_branch_sites} static branch "
              f"sites ({fp.static_indirect_sites} indirect); per-site "
              f"reuse {fp.branch_site_reuse:,.0f}x "
              f"({fp.indirect_site_reuse:,.0f}x indirect) over "
              f"{len(trace):,} instructions")
    return 0


def _cmd_lowerings() -> int:
    """List registered switch lowerings (``repro workloads --lowerings``)."""
    from repro.guest.lowering import get_lowering, lowering_names

    print("registered switch lowerings (use as workload@lowering):")
    for name in lowering_names():
        lowering = get_lowering(name)
        default = "  [default]" if name == "jump_table" else ""
        print(f"  {name}{default}")
        print(f"      {lowering.label}")
        if lowering.spec_example:
            example = ", ".join(
                f"{key}={value!r}"
                for key, value in lowering.spec_example.items()
            )
            print(f"      e.g. switch({example})")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    if not args.workload:
        print("usage: repro dump <workload> [--head N]", file=sys.stderr)
        return 2
    program = build_program(args.workload, seed=args.seed)
    print(f"; {args.workload}: {program.num_instructions} static "
          f"instructions, entry at {program.entry:#x}, "
          f"{len(program.static_indirect_jumps())} static indirect jumps")
    print(disassemble_program(program, count=args.head))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if not args.workload:
        print("usage: repro trace <workload>", file=sys.stderr)
        return 2
    trace = get_trace(
        args.workload,
        n_instructions=args.trace_length or 400_000,
        seed=args.seed,
        use_cache=not args.no_cache,
    )
    mix = branch_mix(trace)
    print(f"workload {args.workload}: {mix.instructions} instructions")
    print(f"  branches: {mix.branches} ({mix.branch_fraction:.1%})")
    print(f"  conditional: {mix.conditional_branches}")
    print(f"  indirect jumps: {mix.indirect_jumps} "
          f"({mix.indirect_fraction:.2%})")
    print(f"  returns: {mix.returns}, calls: {mix.calls}")
    fp = footprint(trace)
    print(f"  static branch sites: {fp.static_branch_sites} "
          f"({fp.static_indirect_sites} indirect)")
    print(f"  per-site reuse: {fp.branch_site_reuse:,.0f}x branches, "
          f"{fp.indirect_site_reuse:,.0f}x indirect")
    print(f"  last-target transition rate: {transition_rate(trace):.1%}")
    histogram = indirect_target_histogram(trace)
    busy = {k: round(v, 1) for k, v in histogram.items() if v > 0.5}
    print(f"  targets-per-jump histogram (% of static jumps): {busy}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import CHECKERS, describe_checkers, run_lint

    if args.list_checks:
        print(describe_checkers(CHECKERS))
        return 0
    only = None
    if args.only is not None:
        # Each --only may name several checkers: --only a,b --only c.
        only = [
            name.strip()
            for entry in args.only
            for name in entry.split(",")
            if name.strip()
        ]
    try:
        report = run_lint(only=only)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(report.render(args.format))
    return 0 if report.clean else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench import (
        DEFAULT_ROUNDS,
        DEFAULT_WORKLOAD,
        append_history,
        format_summary,
        run_bench,
        write_bench,
    )

    payload = run_bench(
        workload=args.workload or DEFAULT_WORKLOAD,
        trace_length=args.trace_length,
        seed=args.seed,
        rounds=args.rounds if args.rounds is not None else DEFAULT_ROUNDS,
        use_trace_cache=not args.no_cache,
    )
    output = Path(args.bench_output)
    write_bench(payload, output)
    # The latest payload overwrites BENCH_sweep.json; the history file
    # keeps one JSONL line per run so the trajectory survives.
    history = (
        Path(args.bench_history) if args.bench_history is not None
        else output.with_name("BENCH_history.jsonl")
    )
    append_history(payload, history)
    print(format_summary(payload))
    print(f"  wrote {output} (history: {history})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import (
        DEFAULT_LEDGER,
        compare_bench,
        format_compare,
        format_summary,
        read_ledger,
        summarize,
    )

    if args.compare is not None:
        old_path, new_path = Path(args.compare[0]), Path(args.compare[1])
        if not old_path.exists():
            # First run in a fresh environment (e.g. an empty CI cache):
            # nothing to compare against is a warning, not a failure.
            print(f"repro report: no previous payload at {old_path}; "
                  "skipping comparison", file=sys.stderr)
            return 0
        if not new_path.exists():
            print(f"repro report: {new_path} not found", file=sys.stderr)
            return 2
        old = json.loads(old_path.read_text())
        new = json.loads(new_path.read_text())
        result = compare_bench(old, new, threshold_pct=args.threshold)
        if args.format == "json":
            print(json.dumps(result, indent=2, sort_keys=True))
        else:
            print(format_compare(result))
        return 1 if result["regressed"] else 0

    ledger = Path(args.workload or DEFAULT_LEDGER)
    if not ledger.exists():
        print(f"repro report: ledger {ledger} not found (run with "
              "REPRO_OBS=1 or --obs-ledger first)", file=sys.stderr)
        return 2
    try:
        records = read_ledger(ledger)
    except ValueError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    summary = summarize(records, top=args.top)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary(summary))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.common import ExperimentTable
    from repro.predictors import load_plugins
    from repro.sweepspec import SpecError, parse_spec_text

    if not args.spec:
        print("usage: repro sweep --spec FILE", file=sys.stderr)
        return 2
    path = Path(args.spec)
    if not path.exists():
        print(f"repro sweep: spec file {path} not found", file=sys.stderr)
        return 2
    try:
        plan = parse_spec_text(path.read_text(), source=str(path))
    except SpecError as exc:
        # One line naming the offending key path; exit 2 like argparse.
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2
    load_plugins(list(plan.plugins))

    ctx = _context(args)
    ctx.predictions(plan.cells())
    rows = []
    for row in plan.rows:
        stats = ctx.prediction(row.benchmark, row.config)
        rows.append((f"{row.benchmark} {row.label}", [
            stats.indirect_mispred_rate,
            stats.conditional_mispred_rate,
            stats.overall_mispred_rate,
        ]))
    table = ExperimentTable(
        experiment_id="sweep",
        title=f"ad-hoc cells from {path.name}",
        columns=["indirect", "conditional", "overall"],
        rows=rows,
        notes="misprediction rates; cells ran through the registry, the "
              "stream kernel where supported, and the result cache",
    )
    print(table.format())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import DEFAULT_PORT, SweepService

    service = SweepService(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        jobs=args.jobs,
        shards=args.shards,
        trace_length=args.trace_length or 400_000,
        seed=args.seed,
        use_trace_cache=not args.no_cache,
        backend=args.backend,
        use_result_cache=not args.no_result_cache,
    )

    async def _serve() -> None:
        await service.start()
        # Printed after bind so `--port 0` reports the real port.
        print(f"repro serve: listening on http://{service.host}:"
              f"{service.port} (pool: {service.pool.mode} x"
              f"{service.pool.workers}, shards: "
              f"{service.scheduler.n_shards})", flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.close()

    # SIGTERM (plain `kill`, a service manager's stop) raises
    # KeyboardInterrupt like Ctrl-C, so `_serve`'s close() stops the pool's
    # workers instead of leaving them orphaned.  Workers fork later and
    # inherit the handler: a SIGTERM sent to one ends only that worker.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json
    from pathlib import Path

    from repro.bench import append_history, write_bench
    from repro.service import DEFAULT_PORT
    from repro.service.loadgen import (
        DEFAULT_CONCURRENCY,
        DEFAULT_REQUESTS,
        DEFAULT_ZIPF_S,
        format_loadgen,
        run_load,
    )

    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        payload = asyncio.run(run_load(
            args.host, port,
            requests=args.requests if args.requests is not None
            else DEFAULT_REQUESTS,
            concurrency=args.concurrency if args.concurrency is not None
            else DEFAULT_CONCURRENCY,
            seed=args.seed,
            zipf_s=args.zipf if args.zipf is not None else DEFAULT_ZIPF_S,
        ))
    except (OSError, ConnectionError) as exc:
        print(f"repro loadgen: cannot reach {args.host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    output = Path(args.bench_output)
    if output.name == "BENCH_sweep.json":
        # Don't overwrite the sweep bench when --bench-output was left at
        # its bench-command default.
        output = output.with_name("BENCH_serve.json")
    write_bench(payload, output)
    history = (
        Path(args.bench_history) if args.bench_history is not None
        else output.with_name("BENCH_serve_history.jsonl")
    )
    append_history(payload, history)
    print(format_loadgen(payload))
    print(f"  wrote {output} (history: {history})")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if not payload["errors"] else 1


def _run_simulation(args: argparse.Namespace) -> int:
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    ctx = _context(args)
    if args.command == "all":
        names = list(EXPERIMENT_MODULES)
    elif args.command == "run":
        if not args.workload:
            print("usage: repro run <experiment>", file=sys.stderr)
            return 2
        names = [args.workload]
    else:
        names = [args.command]
    for name in names:
        if name not in EXPERIMENT_MODULES:
            print(f"unknown experiment {name!r}; try 'repro list'",
                  file=sys.stderr)
            return 2
        start = time.time()
        table = run_experiment(name, ctx)
        print(table.format())
        print(f"   [{time.time() - start:.1f}s]")
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "predictors":
        return _cmd_predictors()
    if args.command == "workloads":
        return _cmd_workloads(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "dump":
        return _cmd_dump(args)
    # Only simulation commands construct a sink: read-only commands must
    # never open (and on close, overwrite) a ledger they might be reading.
    from repro.obs import bootstrap, shutdown

    bootstrap(ledger=args.obs_ledger, disable=args.no_obs)
    try:
        return _run_simulation(args)
    finally:
        shutdown()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
