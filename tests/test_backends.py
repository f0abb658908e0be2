"""Tests for the VHDL backend, waveform tracer and next-state pass."""

import pytest

from repro.rtl import (
    Assign,
    Case,
    Const,
    If,
    Module,
    Mux,
    Simulation,
    SliceAssign,
    WaveRecorder,
    cat,
    const,
    count_loc,
    emit_vhdl,
    mux,
    next_state_exprs,
)
from repro.rtl.ir import ArrayWrite, Signal
from repro.rtl.nextstate import drop_assignments_to


def small_module():
    m = Module("unit")
    clk = m.input("clk")
    rst = m.input("rst")
    a = m.input("a", 8)
    q = m.output("q", 8)
    s = m.signal("s", 8)
    mem = m.array("mem", 4, 8)
    m.sync("p_q", clk, [
        If(a.gt(const(4, 8)), [
            Assign(q, a + s),
            ArrayWrite(mem, a[1:0], s),
        ], [
            Assign(q, a - s),
        ]),
    ], reset=rst, reset_stmts=[Assign(q, 0)])
    m.comb("p_s", [
        Case(a[1:0], [
            (0, [Assign(s, a)]),
            (1, [Assign(s, ~a)]),
        ], default=[Assign(s, a ^ const(0xFF, 8))]),
    ])
    return m, clk, rst, a, q, s


class TestVhdlBackend:
    def test_emits_entity_and_architecture(self):
        m, *_ = small_module()
        text = emit_vhdl(m)
        assert "entity unit is" in text
        assert "architecture rtl of unit is" in text
        assert "end architecture" in text

    def test_ports_declared_with_direction(self):
        m, *_ = small_module()
        text = emit_vhdl(m)
        assert "a : in  std_logic_vector(7 downto 0)" in text
        assert "q : out std_logic_vector(7 downto 0)" in text

    def test_processes_emitted(self):
        m, *_ = small_module()
        text = emit_vhdl(m)
        assert "rising_edge(clk)" in text
        assert "case" in text and "when" in text

    def test_reset_branch(self):
        m, *_ = small_module()
        text = emit_vhdl(m)
        assert "if rst = '1' then" in text

    def test_array_type_declared(self):
        m, *_ = small_module()
        text = emit_vhdl(m)
        assert "type mem_t is array (0 to 3)" in text

    def test_submodule_instantiated(self):
        parent = Module("top")
        clk = parent.input("clk")
        child = Module("leaf")
        x = parent.signal("x", 4)
        child.comb("p", [Assign(x, const(3, 4))])
        parent.add_submodule("u0", child)
        text = emit_vhdl(parent)
        assert "entity leaf is" in text
        assert "u0 : entity work.leaf;" in text

    def test_count_loc_skips_blank(self):
        assert count_loc("a\n\n  \nb\n") == 2

    def test_slice_assign_emitted(self):
        m = Module("sa")
        clk = m.input("clk")
        q = m.output("q", 8)
        m.sync("p", clk, [SliceAssign(q, 7, 4, const(0xA, 4))])
        text = emit_vhdl(m)
        assert "q(7 downto 4) <=" in text

    def test_operators_use_numeric_std(self):
        m = Module("ops")
        clk = m.input("clk")
        a = m.input("a", 8)
        b = m.input("b", 8)
        y = m.output("y", 8)
        m.comb("p", [Assign(y, (a + b) & (a ^ b))])
        text = emit_vhdl(m)
        assert "unsigned(" in text

    def test_mux_and_compare_helpers(self):
        m = Module("hlp")
        clk = m.input("clk")
        a = m.input("a", 4)
        y = m.output("y", 4)
        m.comb("p", [Assign(y, mux(a.eq(3), const(1, 4), const(2, 4)))])
        text = emit_vhdl(m)
        assert "mux2(" in text
        assert "b2sl(" in text


class TestNextState:
    def test_simple_assignment(self):
        m = Module("ns")
        clk = m.input("clk")
        a = m.input("a", 4)
        q = m.signal("q", 4)
        proc = m.sync("p", clk, [Assign(q, a)])
        exprs = next_state_exprs(proc)
        assert exprs[q] is proc.stmts[0].expr

    def test_conditional_keeps_old_value(self):
        m = Module("ns")
        clk = m.input("clk")
        en = m.input("en")
        a = m.input("a", 4)
        q = m.signal("q", 4)
        proc = m.sync("p", clk, [If(en.eq(1), [Assign(q, a)])])
        expr = next_state_exprs(proc)[q]
        assert isinstance(expr, Mux)
        assert expr.b is q  # else-arm: hold

    def test_case_builds_mux_chain(self):
        m = Module("ns")
        clk = m.input("clk")
        sel = m.input("sel", 2)
        q = m.signal("q", 4)
        proc = m.sync("p", clk, [Case(sel, [
            (0, [Assign(q, 1)]),
            (1, [Assign(q, 2)]),
        ])])
        expr = next_state_exprs(proc)[q]
        assert isinstance(expr, Mux)

    def test_next_state_equivalence_by_simulation(self):
        """Register rewritten through its extracted next-state function
        behaves identically (the core augmentation guarantee)."""
        m1, clk1, rst1, a1, q1, s1 = small_module()
        m2, clk2, rst2, a2, q2, s2 = small_module()
        # Rewrite m2's q through an explicit next-state signal.
        proc = next(p for _, p in m2.all_processes() if p.name == "p_q")
        expr = next_state_exprs(proc)[q2]
        nxt = m2.adopt(Signal("q_next", 8))
        m2.comb("p_qn", [Assign(nxt, expr)])
        proc.stmts = drop_assignments_to(proc.stmts, q2) + [Assign(q2, nxt)]

        sim1 = Simulation(m1, {clk1: 1000})
        sim2 = Simulation(m2, {clk2: 1000})
        for i in range(40):
            sim1.cycle({a1: (i * 7 + 2) % 256, rst1: 1 if i == 0 else 0})
            sim2.cycle({a2: (i * 7 + 2) % 256, rst2: 1 if i == 0 else 0})
            assert sim1.peek(q1) == sim2.peek(q2), f"cycle {i}"

    def test_slice_assign_next_state(self):
        m = Module("ns")
        clk = m.input("clk")
        a = m.input("a", 4)
        q = m.signal("q", 8)
        proc = m.sync("p", clk, [SliceAssign(q, 7, 4, a)])
        expr = next_state_exprs(proc)[q]
        assert expr.width == 8


class TestWaveRecorder:
    def make_sim(self):
        m = Module("wave")
        clk = m.input("clk")
        d = m.input("d")
        q = m.output("q")
        m.sync("p", clk, [Assign(q, d)])
        sim = Simulation(m, {clk: 1000})
        return sim, clk, d, q

    def test_records_changes(self):
        sim, clk, d, q = self.make_sim()
        rec = WaveRecorder(sim, [q])
        sim.cycle({d: 1})
        sim.cycle({d: 0})
        sim.cycle()
        changes = rec.changes(q)
        assert len(changes) >= 3  # init, rise, fall

    def test_value_at_interpolates(self):
        sim, clk, d, q = self.make_sim()
        rec = WaveRecorder(sim, [q])
        sim.cycle({d: 1})
        t_mid = sim.time - 100
        assert rec.value_at(q, t_mid).to_int() == 1
        assert rec.value_at(q, 0).to_int() == 0

    def test_render_produces_rails(self):
        sim, clk, d, q = self.make_sim()
        rec = WaveRecorder(sim, [clk, q])
        for i in range(4):
            sim.cycle({d: i % 2})
        text = rec.render(0, sim.time, 100)
        assert "clk" in text and "q" in text
        assert "#" in text and "_" in text
