"""Regenerate the extension experiments (beyond the paper's tables)."""

from repro.experiments import run_experiment


def test_oo_future_work(ctx, run_once):
    """§5's closing prediction, carried out."""
    table = run_once(run_experiment, "oo_future_work", ctx)
    print()
    print(table.format())
    for benchmark in ("richards", "deltablue"):
        assert (table.cell(benchmark, "tagged 8-way TC")
                < table.cell(benchmark, "BTB mispred") * 0.7)


def test_cascaded_filter(ctx, run_once):
    """The follow-on cascade: filtering wins once capacity binds."""
    table = run_once(run_experiment, "cascaded", ctx)
    print()
    print(table.format())
    wins = sum(1 for label, values in table.rows if values[2] < 0.005)
    assert wins >= len(table.rows) - 1


def test_modern_lineage(ctx, run_once):
    """BTB -> target cache -> ITTAGE-lite: the periodic-dispatch
    workloads are where geometric history lengths pay off most."""
    from repro.experiments.configs import tagless_engine
    from repro.experiments.modern import ittage_engine

    table = run_once(run_experiment, "modern", ctx)
    print()
    print(table.format())
    # The generation columns carry the registry labels of their configs.
    target_cache = tagless_engine().target_cache.label()
    ittage_lite = ittage_engine().target_cache.label()
    for benchmark in ("perl", "richards", "m88ksim"):
        tc = table.cell(benchmark, target_cache)
        ittage = table.cell(benchmark, ittage_lite)
        assert ittage < tc, benchmark
    # and the target cache already removed most of the BTB's misses
    for benchmark in ("perl", "gcc"):
        assert (table.cell(benchmark, target_cache)
                < table.cell(benchmark, "BTB") * 0.7)


def test_capacity_sweep(ctx, run_once):
    """Misprediction decreases monotonically (within noise) in capacity,
    and the paper's 512-entry budget is past the steep part."""
    table = run_once(run_experiment, "capacity", ctx)
    print()
    print(table.format())
    for benchmark, values in table.rows:
        for smaller, larger in zip(values, values[1:]):
            assert larger <= smaller + 0.02, benchmark
        # the step from 64 to 512 entries dwarfs the step beyond 512
        assert (values[0] - values[3]) > (values[3] - values[-1]) * 0.8


def test_speculative_history_ablation(ctx, run_once):
    """DESIGN.md ablation: retire-order simulation is a sound methodology
    because fetch stalls on mispredicts keep speculative history clean —
    the integrated model must agree with the trace-driven harness."""
    from repro.experiments.configs import path_scheme_history, tagless_engine
    from repro.pipeline import run_integrated
    from repro.predictors import simulate

    def run():
        results = {}
        config = tagless_engine(history=path_scheme_history("ind jmp"))
        trace = ctx.trace("perl")[:60_000]
        retire = simulate(trace, config).indirect_mispred_rate
        speculative = run_integrated(
            trace, config, ctx.machine
        ).stats.indirect_mispred_rate
        results["perl"] = (retire, speculative)
        return results

    results = run_once(run)
    print()
    for benchmark, (retire, speculative) in results.items():
        print(f"{benchmark}: retire-order {retire:.2%} vs "
              f"speculative fetch-time {speculative:.2%}")
        assert abs(retire - speculative) < 0.03
