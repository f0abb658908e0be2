"""Tests for the synthesis and STA substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.rtl import Assign, If, Module, const, mux
from repro.sta import (
    TT,
    WORST_CASE,
    Corner,
    DeratingModel,
    StaError,
    TimingGraph,
    analyze,
    bin_critical_paths,
)
from repro.synth import LIB45, TechLibrary, expr_area, expr_arrival, synthesize


def make_pipeline(width=16):
    """in -> (+k) -> r1 -> (* r1) -> r2 -> out : two sync stages with a
    cheap first stage and an expensive multiplier stage."""
    m = Module("pipe")
    clk = m.input("clk")
    din = m.input("din", width)
    r1 = m.signal("r1", width)
    r2 = m.signal("r2", width)
    dout = m.output("dout", width)
    m.sync("s1", clk, [Assign(r1, din + const(3, width))])
    m.sync("s2", clk, [Assign(r2, r1 * r1)])
    m.comb("drive_out", [Assign(dout, r2)])
    return m, clk, r1, r2


class TestExprModels:
    def test_signal_has_zero_delay(self):
        m = Module("t")
        a = m.input("a", 8)
        delays, const_d = expr_arrival(a, LIB45)
        assert delays == {a: 0.0}
        assert const_d == 0.0

    def test_add_slower_than_and(self):
        m = Module("t")
        a = m.input("a", 32)
        b = m.input("b", 32)
        d_and, _ = expr_arrival(a & b, LIB45)
        d_add, _ = expr_arrival(a + b, LIB45)
        assert d_add[a] > d_and[a]

    def test_mul_slower_than_add(self):
        m = Module("t")
        a = m.input("a", 32)
        b = m.input("b", 32)
        d_add, _ = expr_arrival(a + b, LIB45)
        d_mul, _ = expr_arrival(a * b, LIB45)
        assert d_mul[a] > d_add[a]

    def test_chained_ops_accumulate(self):
        m = Module("t")
        a = m.input("a", 8)
        one_op, _ = expr_arrival(a + const(1, 8), LIB45)
        two_op, _ = expr_arrival((a + const(1, 8)) + const(2, 8), LIB45)
        assert two_op[a] == pytest.approx(2 * one_op[a])

    def test_slice_concat_free(self):
        m = Module("t")
        a = m.input("a", 8)
        delays, _ = expr_arrival(a[7:4], LIB45)
        assert delays[a] == 0.0

    def test_area_scales_with_width(self):
        m = Module("t")
        a8, b8 = m.input("a8", 8), m.input("b8", 8)
        a32, b32 = m.input("a32", 32), m.input("b32", 32)
        assert expr_area(a32 + b32, LIB45, {}) > expr_area(a8 + b8, LIB45, {})

    def test_area_histogram(self):
        m = Module("t")
        a = m.input("a", 8)
        b = m.input("b", 8)
        hist = {}
        expr_area((a + b) & (a ^ b), LIB45, hist)
        assert hist == {"add": 1, "and": 1, "xor": 1}

    def test_unknown_op_delay_raises(self):
        with pytest.raises(KeyError):
            LIB45.delay_ps("frobnicate", 8)


class TestSynthesize:
    def test_ff_bits_counted(self):
        m, clk, r1, r2 = make_pipeline(width=16)
        result = synthesize(m)
        assert result.ff_bits == 32  # two 16-bit registers

    def test_area_positive_and_decomposed(self):
        m, *_ = make_pipeline()
        result = synthesize(m)
        assert result.area_nand2 > 0
        assert result.area_nand2 == pytest.approx(
            result.combinational_area
            + result.sequential_area
            + result.array_area
        )

    def test_arcs_present_for_both_stages(self):
        m, clk, r1, r2 = make_pipeline()
        result = synthesize(m)
        dsts = {arc.dst for arc in result.arcs}
        assert r1 in dsts and r2 in dsts

    def test_array_area_counted(self):
        m = Module("mem")
        clk = m.input("clk")
        m.array("regfile", 32, 32)
        result = synthesize(m)
        assert result.array_area > 32 * 32 * 5  # at least FF storage


class TestCorners:
    def test_tt_factor_is_unity(self):
        assert TT.delay_factor() == pytest.approx(1.0)

    def test_low_vdd_slows(self):
        low = Corner("lv", vdd=0.9)
        assert low.delay_factor() > 1.1

    def test_hot_slows(self):
        hot = Corner("hot", temp_c=125.0)
        assert hot.delay_factor() > 1.0

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            Corner("bad", process="zz").delay_factor()

    def test_derating_stacks(self):
        d = DeratingModel(ocv_late=1.1, aging_years=10, aging_pct_per_year=1.0)
        assert d.total_factor(TT) == pytest.approx(1.1 * 1.1)


class TestAnalyze:
    def test_slack_ordering_between_stages(self):
        """The multiplier stage must have less slack than the adder."""
        m, clk, r1, r2 = make_pipeline()
        report = analyze(synthesize(m), clock_period_ps=2000)
        slack_r1 = report.by_name("r1").slack_ps
        slack_r2 = report.by_name("r2").slack_ps
        assert slack_r2 < slack_r1

    def test_arrival_includes_clk_to_q(self):
        m, clk, r1, r2 = make_pipeline()
        report = analyze(synthesize(m), clock_period_ps=2000)
        # r2's path launches from register r1: arrival > clk-to-q
        assert report.by_name("r2").arrival_ps > LIB45.ff_clk_to_q_ps

    def test_applies_the_sign_off_derate(self):
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), 2000)
        factor = WORST_CASE.total_factor(TT)
        assert report.derate_factor == factor
        r2 = report.by_name("r2")
        assert r2.slack_ps == pytest.approx(
            2000 - LIB45.ff_setup_ps * factor - r2.arrival_ps
        )

    def test_path_reconstruction_ends_at_endpoint(self):
        m, clk, r1, r2 = make_pipeline()
        report = analyze(synthesize(m), 2000)
        timing = report.by_name("r2")
        assert timing.path[-1] is r2
        assert timing.startpoint is r1

    def test_comb_chain_propagates(self):
        """Arrival accumulates across separate comb processes."""
        m = Module("chain")
        clk = m.input("clk")
        a = m.input("a", 8)
        s1 = m.signal("s1", 8)
        s2 = m.signal("s2", 8)
        q = m.signal("q", 8)
        m.comb("c1", [Assign(s1, a + const(1, 8))])
        m.comb("c2", [Assign(s2, s1 + const(1, 8))])
        m.sync("s", clk, [Assign(q, s2)])
        report = analyze(synthesize(m), 2000)
        one_add = LIB45.delay_ps("add", 8) * report.derate_factor
        assert report.by_name("q").arrival_ps == pytest.approx(2 * one_add)

    def test_primary_output_endpoint_reported(self):
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), 2000)
        kinds = {e.kind for e in report.endpoints}
        assert "output" in kinds

    def test_worst_endpoint(self):
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), 2000)
        worst = report.worst
        assert worst is not None
        assert all(worst.slack_ps <= e.slack_ps for e in report.endpoints)

    def test_combinational_cycle_detected(self):
        m = Module("loop")
        clk = m.input("clk")
        a = m.signal("a", 4)
        b = m.signal("b", 4)
        m.comb("c1", [Assign(a, b + const(1, 4))])
        m.comb("c2", [Assign(b, a + const(1, 4))])
        with pytest.raises(StaError):
            analyze(synthesize(m), 2000)

    def test_analysis_time_recorded(self):
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), 2000)
        assert report.analysis_seconds >= 0.0


class TestCriticalBinning:
    def test_threshold_separates_stages(self):
        m, clk, r1, r2 = make_pipeline()
        synth = synthesize(m)
        report = analyze(synth, clock_period_ps=2000)
        slack_r1 = report.by_name("r1").slack_ps
        slack_r2 = report.by_name("r2").slack_ps
        threshold = (slack_r1 + slack_r2) / 2
        binned = bin_critical_paths(report, threshold)
        assert binned.names() == ["r2"]

    def test_zero_threshold_with_relaxed_clock(self):
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), clock_period_ps=100_000)
        binned = bin_critical_paths(report, threshold_ps=0.0)
        assert binned.count == 0

    def test_huge_threshold_catches_all(self):
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), clock_period_ps=2000)
        binned = bin_critical_paths(report, threshold_ps=1e9)
        assert binned.count == binned.total_register_endpoints == 2
        assert binned.coverage == 1.0

    def test_nominal_delay_respects_razor_window(self):
        """Back-annotated delays sit in (0.6 T, T) so the shadow latch
        short-path constraint holds."""
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), clock_period_ps=2000)
        binned = bin_critical_paths(report, threshold_ps=1e9)
        for path in binned.monitored:
            assert 0.6 * 2000 < path.nominal_delay_ps < 2000

    def test_monitored_sorted_by_slack(self):
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), clock_period_ps=2000)
        binned = bin_critical_paths(report, threshold_ps=1e9)
        slacks = [p.slack_ps for p in binned.monitored]
        assert slacks == sorted(slacks)

    @given(st.floats(min_value=-1000, max_value=1e7))
    def test_prop_binning_monotone_in_threshold(self, threshold):
        """Larger thresholds can only add monitored paths."""
        m, *_ = make_pipeline()
        report = analyze(synthesize(m), clock_period_ps=2000)
        a = bin_critical_paths(report, threshold)
        b = bin_critical_paths(report, threshold + 500.0)
        assert set(a.names()) <= set(b.names())


class TestTimingGraph:
    def test_startpoint_classification(self):
        m, clk, r1, r2 = make_pipeline()
        graph = TimingGraph.from_synthesis(synthesize(m))
        assert graph.startpoint_kind(r1) == "register"
        din = next(p for p in m.inputs() if p.name == "din")
        assert graph.startpoint_kind(din) == "input"
        assert clk not in graph.primary_inputs  # clocks excluded
