"""Tests for the event-driven RTL kernel: delta cycles, clocks,
delayed assignments, resets and the cycle-level testbench interface."""

import pytest

from repro.rtl import (
    Assign,
    Case,
    If,
    Module,
    Simulation,
    SimulationError,
    DeltaOverflowError,
    const,
)
from repro.rtl.types import LV


def make_counter(width=8):
    """An enabled, synchronously-cleared counter."""
    m = Module("counter")
    clk = m.input("clk")
    en = m.input("en")
    clear = m.input("clear")
    count = m.output("count", width)
    m.sync("count_p", clk, [
        If(clear.eq(1), [Assign(count, 0)], [
            If(en.eq(1), [Assign(count, count + const(1, width))]),
        ]),
    ])
    return m, clk, en, clear, count


class TestCounter:
    def test_counts_when_enabled(self):
        m, clk, en, clear, count = make_counter()
        sim = Simulation(m, {clk: 1000})
        sim.cycle({en: 1, clear: 0})
        sim.cycle()
        sim.cycle()
        assert sim.peek_int(count) == 3

    def test_holds_when_disabled(self):
        m, clk, en, clear, count = make_counter()
        sim = Simulation(m, {clk: 1000})
        sim.cycle({en: 1, clear: 0})
        sim.cycle({en: 0})
        sim.cycle()
        assert sim.peek_int(count) == 1

    def test_clear_dominates(self):
        m, clk, en, clear, count = make_counter()
        sim = Simulation(m, {clk: 1000})
        for _ in range(3):
            sim.cycle({en: 1, clear: 0})
        sim.cycle({clear: 1})
        assert sim.peek_int(count) == 0

    def test_wraps(self):
        m, clk, en, clear, count = make_counter(width=2)
        sim = Simulation(m, {clk: 1000})
        sim.cycle({en: 1, clear: 0})
        for _ in range(4):
            sim.cycle()
        assert sim.peek_int(count) == 1  # 5 mod 4


class TestCombinational:
    def test_comb_settles_immediately_on_poke(self):
        m = Module("comb")
        a = m.input("a", 4)
        b = m.input("b", 4)
        y = m.output("y", 4)
        m.comb("sum", [Assign(y, a + b)])
        sim = Simulation(m, {m.input("clk"): 1000})
        sim.poke(a, 3)
        sim.poke(b, 4)
        assert sim.peek_int(y) == 7

    def test_comb_chain_through_deltas(self):
        m = Module("chain")
        clk = m.input("clk")
        a = m.input("a", 4)
        s1 = m.signal("s1", 4)
        s2 = m.signal("s2", 4)
        y = m.output("y", 4)
        m.comb("p1", [Assign(s1, a + const(1, 4))])
        m.comb("p2", [Assign(s2, s1 + const(1, 4))])
        m.comb("p3", [Assign(y, s2 + const(1, 4))])
        sim = Simulation(m, {clk: 1000})
        sim.poke(a, 5)
        assert sim.peek_int(y) == 8

    def test_oscillating_loop_detected(self):
        m = Module("osc")
        clk = m.input("clk")
        a = m.signal("a")
        m.comb("inv", [Assign(a, ~a)])
        with pytest.raises(DeltaOverflowError):
            Simulation(m, {clk: 1000})

    def test_stable_feedback_is_fine(self):
        m = Module("latchish")
        clk = m.input("clk")
        a = m.signal("a")
        m.comb("keep", [Assign(a, a & a)])
        sim = Simulation(m, {clk: 1000})
        assert sim.peek_int(a) == 0


class TestSyncSemantics:
    def test_registers_read_pre_edge_values(self):
        """Classic two-register swap proves non-blocking semantics."""
        m = Module("swap")
        clk = m.input("clk")
        a = m.signal("a", 4, init=1)
        b = m.signal("b", 4, init=2)
        m.sync("pa", clk, [Assign(a, b)])
        m.sync("pb", clk, [Assign(b, a)])
        sim = Simulation(m, {clk: 1000})
        sim.cycle()
        assert sim.peek_int(a) == 2
        assert sim.peek_int(b) == 1
        sim.cycle()
        assert sim.peek_int(a) == 1
        assert sim.peek_int(b) == 2

    def test_shift_register_pipeline(self):
        m = Module("shift")
        clk = m.input("clk")
        d = m.input("d", 1)
        q1 = m.signal("q1")
        q2 = m.signal("q2")
        q3 = m.output("q3")
        m.sync("p", clk, [Assign(q1, d), Assign(q2, q1), Assign(q3, q2)])
        sim = Simulation(m, {clk: 1000})
        seen = []
        pattern = [1, 0, 1, 1, 0, 0, 1, 0]
        for bit in pattern:
            sim.cycle({d: bit})
            seen.append(sim.peek_int(q3))
        # Sampling happens after the consuming edge, so q3 shows the
        # input with a two-sample lag through the three registers.
        assert seen == [0, 0, 1, 0, 1, 1, 0, 0]

    def test_falling_edge_process(self):
        m = Module("fall")
        clk = m.input("clk")
        count = m.output("count", 4)
        m.sync("p", clk, [Assign(count, count + const(1, 4))], edge="fall")
        sim = Simulation(m, {clk: 1000})
        sim.cycle()
        assert sim.peek_int(count) == 1

    def test_async_reset(self):
        m = Module("rst")
        clk = m.input("clk")
        rst = m.input("rst")
        count = m.output("count", 4)
        m.sync(
            "p", clk,
            [Assign(count, count + const(1, 4))],
            reset=rst, reset_level=1,
            reset_stmts=[Assign(count, 0)],
        )
        sim = Simulation(m, {clk: 1000})
        sim.cycle({rst: 0})
        sim.cycle()
        assert sim.peek_int(count) == 2
        sim.poke(rst, 1)  # asynchronous: takes effect without a clock edge
        assert sim.peek_int(count) == 0
        sim.cycle()  # reset still asserted: stays cleared
        assert sim.peek_int(count) == 0
        sim.cycle({rst: 0})
        assert sim.peek_int(count) == 1

    def test_last_assignment_wins_within_process(self):
        m = Module("lastwins")
        clk = m.input("clk")
        q = m.output("q", 4)
        m.sync("p", clk, [Assign(q, 1), Assign(q, 2)])
        sim = Simulation(m, {clk: 1000})
        sim.cycle()
        assert sim.peek_int(q) == 2


class TestMultiClock:
    def test_hf_clock_ratio(self):
        """An HF-clock counter advances ratio× per main-clock cycle."""
        m = Module("hf")
        clk = m.input("clk")
        hf_clk = m.input("hf_clk")
        count = m.output("count", 8)
        m.sync("p", hf_clk, [Assign(count, count + const(1, 8))])
        sim = Simulation(m, {clk: 1000, hf_clk: 100})
        sim.cycle()
        first = sim.peek_int(count)
        sim.cycle()
        assert sim.peek_int(count) - first == 10

    def test_odd_period_rejected(self):
        m = Module("odd")
        clk = m.input("clk")
        with pytest.raises(SimulationError):
            Simulation(m, {clk: 999})

    def test_no_clock_rejected(self):
        with pytest.raises(SimulationError):
            Simulation(Module("empty"), {})


class TestTransportDelay:
    def make_delay_path(self):
        """reg -> comb(+1) -> wire -> reg, with delay on the wire."""
        m = Module("path")
        clk = m.input("clk")
        src = m.signal("src", 8)
        wire = m.signal("wire", 8)
        dst = m.output("dst", 8)
        m.sync("p_src", clk, [Assign(src, src + const(1, 8))])
        m.comb("p_comb", [Assign(wire, src + const(10, 8))])
        m.sync("p_dst", clk, [Assign(dst, wire)])
        return m, clk, src, wire, dst

    def test_no_delay_baseline(self):
        m, clk, src, wire, dst = self.make_delay_path()
        sim = Simulation(m, {clk: 1000})
        sim.cycle()  # src=1, dst sampled old wire (10)
        sim.cycle()  # dst samples wire computed from src=1 -> 11
        assert sim.peek_int(dst) == 11

    def test_short_delay_still_meets_setup(self):
        m, clk, src, wire, dst = self.make_delay_path()
        sim = Simulation(m, {clk: 1000})
        sim.set_transport_delay(wire, 800)  # arrives before next edge
        sim.cycle()
        sim.cycle()
        assert sim.peek_int(dst) == 11

    def test_long_delay_misses_setup(self):
        """Delay > period: destination register samples stale data."""
        m, clk, src, wire, dst = self.make_delay_path()
        sim = Simulation(m, {clk: 1000})
        sim.set_transport_delay(wire, 1300)  # violates setup at next edge
        sim.cycle()
        sim.cycle()
        assert sim.peek_int(dst) == 10  # stale: missed the new value

    def test_injected_delay_adds_to_nominal(self):
        m, clk, src, wire, dst = self.make_delay_path()
        sim = Simulation(m, {clk: 1000})
        sim.set_transport_delay(wire, 800)
        sim.inject_extra_delay(wire, 500)  # total 1300 > period
        sim.cycle()
        sim.cycle()
        assert sim.peek_int(dst) == 10

    def test_clear_injection_restores(self):
        m, clk, src, wire, dst = self.make_delay_path()
        sim = Simulation(m, {clk: 1000})
        sim.set_transport_delay(wire, 800)
        sim.inject_extra_delay(wire, 500)
        sim.clear_injection(wire)
        sim.cycle()
        sim.cycle()
        assert sim.peek_int(dst) == 11


class TestPokeRules:
    def test_poke_rejects_non_input(self):
        m = Module("p")
        clk = m.input("clk")
        s = m.signal("s", 4)
        sim = Simulation(m, {clk: 1000})
        with pytest.raises(SimulationError):
            sim.poke(s, 1)

    def test_poke_width_check(self):
        m = Module("p")
        clk = m.input("clk")
        a = m.input("a", 4)
        sim = Simulation(m, {clk: 1000})
        with pytest.raises(SimulationError):
            sim.poke(a, LV.from_int(8, 0))

    def test_force_drives_internal_signal(self):
        m = Module("p")
        clk = m.input("clk")
        s = m.signal("s", 4)
        y = m.output("y", 4)
        m.comb("c", [Assign(y, s + const(1, 4))])
        sim = Simulation(m, {clk: 1000})
        sim.force(s, 7)
        assert sim.peek_int(y) == 8


class TestHierarchy:
    def test_submodule_processes_simulate(self):
        parent = Module("top")
        clk = parent.input("clk")
        a = parent.input("a", 4)
        y = parent.output("y", 4)
        inner = parent.signal("inner", 4)

        child = Module("child")
        child.comb("double", [Assign(inner, a + a)])
        parent.add_submodule("u_child", child)
        parent.sync("reg", clk, [Assign(y, inner)])

        sim = Simulation(parent, {clk: 1000})
        sim.cycle({a: 3})
        sim.cycle()
        assert sim.peek_int(y) == 6

    def test_stats_accumulate(self):
        m, clk, en, clear, count = make_counter()
        sim = Simulation(m, {clk: 1000})
        sim.cycle({en: 1, clear: 0})
        sim.cycle()
        assert sim.stats["cycles"] == 2
        assert sim.stats["process_activations"] > 0


class TestCaseStatement:
    def test_case_selects_arm(self):
        m = Module("case")
        clk = m.input("clk")
        sel = m.input("sel", 2)
        y = m.output("y", 4)
        m.comb("c", [Case(sel, [
            (0, [Assign(y, 1)]),
            (1, [Assign(y, 2)]),
            (2, [Assign(y, 4)]),
        ], default=[Assign(y, 15)])])
        sim = Simulation(m, {clk: 1000})
        for sel_val, expect in [(0, 1), (1, 2), (2, 4), (3, 15)]:
            sim.poke(sel, sel_val)
            assert sim.peek_int(y) == expect


class TestXPropagation:
    def test_unknown_init_contaminates_until_reset(self):
        m = Module("xprop")
        clk = m.input("clk")
        rst = m.input("rst")
        q = m.output("q", 4)
        y = m.output("y", 4)
        m.sync("p", clk, [Assign(q, q + const(1, 4))],
               reset=rst, reset_stmts=[Assign(q, 0)])
        m.comb("c", [Assign(y, q + const(1, 4))])
        sim = Simulation(m, {clk: 1000}, init_unknown=True)
        # q starts all-X as an un-reset register would.
        sim.poke(rst, 0)
        sim.cycle()
        assert not sim.peek(y).is_fully_defined
        sim.poke(rst, 1)
        sim.cycle({rst: 0})
        assert sim.peek(y).is_fully_defined
