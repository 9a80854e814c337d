"""Tests for the experiment harness: structure plus the paper's key
qualitative findings at a reduced trace length."""

from pathlib import Path

import pytest

from repro.experiments import ExperimentContext, run_experiment
from repro.experiments.common import EXPERIMENT_MODULES


@pytest.fixture(scope="module")
def ctx():
    """One shared context: big enough for stable orderings, small enough
    for test-suite latency."""
    return ExperimentContext(trace_length=120_000, use_trace_cache=False)


class TestHarness:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_registry_covers_every_table_and_figure(self):
        assert set(EXPERIMENT_MODULES) == {
            "table1", "figures1_8", "table2", "table4", "table5", "table6",
            "table7", "table8", "table9", "figures12_13", "headline",
            "oo_future_work", "cascaded", "modern", "capacity",
            "calibration", "server_btb", "switch_lowering",
        }

    def test_shared_context_caches_outside_the_home_directory(self, ctx):
        # The module-scoped context is built before per-test fixtures
        # apply; it must still read and write a throwaway result cache.
        directory = ctx._result_cache.directory.resolve()
        assert (Path.home() / ".cache").resolve() not in directory.parents

    def test_table_formatting(self, ctx):
        table = run_experiment("table4", ctx)
        text = table.format()
        assert "Table 4" in text
        assert "gshare(9)" in text
        assert "%" in text

    def test_cell_accessor(self, ctx):
        table = run_experiment("table4", ctx)
        assert 0.0 <= table.cell("gshare(9)", "perl") <= 1.0
        with pytest.raises(KeyError):
            table.cell("nonexistent", "perl")


class TestTable1(object):
    def test_counts_and_rates(self, ctx):
        table = run_experiment("table1", ctx)
        assert len(table.rows) == 8
        for label, values in table.rows:
            instructions, branches, indirect, rate, paper = values
            assert instructions == 120_000
            assert 0 < indirect < branches < instructions
            assert 0.0 < rate < 1.0


class TestFigures1_8:
    def test_rows_sum_to_one(self, ctx):
        table = run_experiment("figures1_8", ctx)
        for label, values in table.rows:
            assert sum(values) == pytest.approx(1.0), label


class TestTable2:
    def test_mixed_result(self, ctx):
        """2-bit helps some benchmarks and hurts others (paper Table 2)."""
        table = run_experiment("table2", ctx)
        deltas = [values[2] for _, values in table.rows]
        assert any(d < 0 for d in deltas)
        assert any(d > 0 for d in deltas)

    def test_helps_the_skewed_dispatch_benchmarks(self, ctx):
        table = run_experiment("table2", ctx)
        assert table.cell("compress", "delta") < 0
        assert table.cell("ijpeg", "delta") < 0


class TestTable4:
    def test_target_cache_beats_btb(self, ctx):
        table = run_experiment("table4", ctx)
        for benchmark in ("perl", "gcc"):
            btb = ctx.baseline(benchmark).indirect_mispred_rate
            assert table.cell("gshare(9)", benchmark) < btb

    def test_gshare_is_best_for_gcc(self, ctx):
        """gshare utilises the whole table (paper §4.2.1)."""
        table = run_experiment("table4", ctx)
        gshare = table.cell("gshare(9)", "gcc")
        assert gshare <= table.cell("GAg(9)", "gcc")
        assert gshare <= table.cell("GAs(8,1)", "gcc")

    def test_address_bits_help_gcc_more_than_perl(self, ctx):
        """GAs loses less (or gains) vs GAg on gcc, the many-static-jump
        benchmark — the paper's §4.2.1 contrast."""
        table = run_experiment("table4", ctx)
        perl_gap = table.cell("GAs(8,1)", "perl") - table.cell("GAg(9)", "perl")
        gcc_gap = table.cell("GAs(8,1)", "gcc") - table.cell("GAg(9)", "gcc")
        assert gcc_gap < perl_gap


class TestPathHistoryTables:
    def test_table6_perl_prefers_one_bit_per_target(self, ctx):
        table = run_experiment("table6", ctx)
        one_bit = table.cell("perl 1b/target", "ind jmp")
        three_bit = table.cell("perl 3b/target", "ind jmp")
        assert one_bit >= three_bit

    def test_table6_callret_useless_for_perl(self, ctx):
        table = run_experiment("table6", ctx)
        assert table.cell("perl 1b/target", "call/ret") < 0.05
        assert table.cell("perl 1b/target", "ind jmp") > 0.10


class TestTaggedTables:
    def test_table7_address_indexing_thrashes_at_low_assoc(self, ctx):
        table = run_experiment("table7", ctx)
        for benchmark in ("perl", "gcc"):
            addr_1way = table.cell(f"{benchmark} 1-way", "Addr")
            xor_1way = table.cell(f"{benchmark} 1-way", "Hist-Xor")
            assert xor_1way > addr_1way + 0.05

    def test_table7_associativity_rescues_address_indexing(self, ctx):
        table = run_experiment("table7", ctx)
        assert (table.cell("perl 32-way", "Addr")
                > table.cell("perl 1-way", "Addr"))

    def test_table9_long_history_needs_associativity(self, ctx):
        """16 bits loses at 1-way, catches up (or wins) by 8-way (perl)."""
        table = run_experiment("table9", ctx)
        gap_1way = (table.cell("perl 1-way", "16 bits")
                    - table.cell("perl 1-way", "9 bits"))
        gap_8way = (table.cell("perl 8-way", "16 bits")
                    - table.cell("perl 8-way", "9 bits"))
        assert gap_8way > gap_1way


class TestHistoryTypeContrast:
    def test_path_wins_on_perl_pattern_wins_on_gcc(self, ctx):
        """The paper's §4.2.3 headline contrast."""
        from repro.experiments.configs import (
            pattern_history,
            path_scheme_history,
            tagless_engine,
        )

        perl_pattern = ctx.prediction(
            "perl", tagless_engine(history=pattern_history(9))
        ).indirect_mispred_rate
        perl_path = ctx.prediction(
            "perl", tagless_engine(history=path_scheme_history("ind jmp"))
        ).indirect_mispred_rate
        gcc_pattern = ctx.prediction(
            "gcc", tagless_engine(history=pattern_history(9))
        ).indirect_mispred_rate
        gcc_path = ctx.prediction(
            "gcc", tagless_engine(history=path_scheme_history("ind jmp"))
        ).indirect_mispred_rate
        assert perl_path < perl_pattern
        assert gcc_pattern < gcc_path


class TestHeadline:
    def test_headline_claims_hold(self, ctx):
        table = run_experiment("headline", ctx)
        for benchmark in ("perl", "gcc"):
            assert table.cell(benchmark, "mispred reduction") > 0.5
            assert table.cell(benchmark, "exec reduction (tagless)") > 0.03
        # perl gains more than gcc, as in the paper
        assert (table.cell("perl", "exec reduction (tagless)")
                > table.cell("gcc", "exec reduction (tagless)"))
