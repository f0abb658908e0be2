"""Lockstep equivalence of the compiled and interpreted RTL kernels.

The compiled execution mode (:mod:`repro.rtl.compile`) must be
byte-identical to the reference interpreter on every design the IR can
express.  These tests drive both modes in lockstep and compare *every
signal, every cycle*:

* Hypothesis-generated random designs exercising the full expression
  and statement surface (slices, concats, shifts, reductions, muxes,
  cases, slice-assignments, array reads/writes);
* all three case-study IPs under randomized stimuli, including
  X-propagation (``init_unknown=True``) and back-annotated transport
  delay runs (the strict-commit path);
* targeted regressions for the satellite fixes (``force`` width
  check, ``bool_not`` OR-reduce semantics, ``peek_array`` fast paths)
  and the compile cache's invalidation on in-place IR rewrites.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ips import CASE_STUDIES, case_study
from repro.rtl import (
    Assign,
    ArrayWrite,
    Binop,
    Case,
    Const,
    If,
    Module,
    Mux,
    Signal,
    Simulation,
    SimulationError,
    SliceAssign,
    Slice,
    Concat,
    Unop,
    array_read,
    b_not,
    compile_process,
)
from repro.rtl.compile import clear_cache
from repro.rtl.types import LV

WIDTH = 8

_BINOPS = ["and", "or", "xor", "add", "sub", "mul", "shl", "shr", "sar"]
_UNOPS = ["not", "neg", "red_and", "red_or", "red_xor"]
_CMPS = ["eq", "ne", "lt", "le", "gt", "ge", "lt_s", "ge_s"]


def build_expr(draw, leaves, depth, width=WIDTH):
    """Random expression of the given width over the leaf signals."""
    if depth <= 0 or draw(st.integers(0, 4)) == 0:
        if draw(st.booleans()) and width == WIDTH:
            return leaves[draw(st.integers(0, len(leaves) - 1))]
        return Const(draw(st.integers(0, (1 << width) - 1)), width)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Binop(
            _BINOPS[draw(st.integers(0, len(_BINOPS) - 1))],
            build_expr(draw, leaves, depth - 1, width),
            build_expr(draw, leaves, depth - 1, width),
        )
    if kind == 1:
        inner = build_expr(draw, leaves, depth - 1, width)
        op = _UNOPS[draw(st.integers(0, len(_UNOPS) - 1))]
        expr = Unop(op, inner)
        if expr.width != width:  # reductions are 1-bit
            return Concat(Const(0, width - 1), expr)
        return expr
    if kind == 2:
        base = build_expr(draw, leaves, depth - 1, width)
        hi = draw(st.integers(0, width - 1))
        lo = draw(st.integers(0, hi))
        part = Slice(base, hi, lo)
        if part.width == width:
            return part
        return Concat(Const(0, width - part.width), part)
    if kind == 3 and width >= 2:
        lo_w = draw(st.integers(1, width - 1))
        return Concat(
            build_expr(draw, leaves, depth - 1, width - lo_w),
            build_expr(draw, leaves, depth - 1, lo_w),
        )
    cond = Binop(
        _CMPS[draw(st.integers(0, len(_CMPS) - 1))],
        build_expr(draw, leaves, depth - 1, width),
        build_expr(draw, leaves, depth - 1, width),
    )
    return Mux(
        cond,
        build_expr(draw, leaves, depth - 1, width),
        build_expr(draw, leaves, depth - 1, width),
    )


def build_body(draw, reg, leaves, mem):
    """Random statement list driving one register."""
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return [Assign(reg, build_expr(draw, leaves, 2))]
    if shape == 1:
        hi = draw(st.integers(0, WIDTH - 1))
        lo = draw(st.integers(0, hi))
        return [
            Assign(reg, build_expr(draw, leaves, 1)),
            SliceAssign(
                reg, hi, lo, build_expr(draw, leaves, 1, hi - lo + 1)
            ),
        ]
    if shape == 2:
        sel = build_expr(draw, leaves, 1)
        arms = [
            (k, [Assign(reg, build_expr(draw, leaves, 1))])
            for k in range(draw(st.integers(1, 3)))
        ]
        default = [Assign(reg, build_expr(draw, leaves, 1))]
        return [Case(sel, arms, default)]
    idx = build_expr(draw, leaves, 1)
    body = [
        Assign(reg, array_read(mem, Slice(idx, 1, 0))),
        ArrayWrite(mem, Slice(idx, 1, 0), build_expr(draw, leaves, 1)),
    ]
    cond = Binop("ne", build_expr(draw, leaves, 1),
                 Const(draw(st.integers(0, 255)), WIDTH))
    return [If(cond, body, [Assign(reg, build_expr(draw, leaves, 1))])]


@st.composite
def random_design(draw):
    m = Module("rand_ip")
    clk = m.input("clk")
    inputs = [m.input(f"i{k}", WIDTH) for k in range(3)]
    regs = [m.signal(f"r{k}", WIDTH, init=draw(st.integers(0, 255)))
            for k in range(3)]
    mem = m.array("mem", 4, WIDTH, init=[draw(st.integers(0, 255))
                                         for _ in range(4)])
    leaves = inputs + regs
    for k, reg in enumerate(regs):
        m.sync(f"p_r{k}", clk, build_body(draw, reg, leaves, mem))
    out = m.output("out", WIDTH)
    m.comb("p_out", [Assign(out, build_expr(draw, leaves, 2))])
    stream = draw(
        st.lists(
            st.tuples(*[st.integers(0, 255)] * 3),
            min_size=3,
            max_size=10,
        )
    )
    return m, clk, inputs, stream


def _lockstep_sims(design_factory, cycles_inputs, **sim_kw):
    """Run interpreted and compiled sims in lockstep; assert equality
    of every signal and array word after every cycle."""
    sims = []
    for mode in ("interpreted", "compiled"):
        m, clk, inputs = design_factory()
        sim = Simulation(m, clk, exec_mode=mode, **sim_kw)
        sims.append((sim, m, inputs))
    names = [s.name for s in sims[0][1].all_signals()]
    for i, vec in enumerate(cycles_inputs):
        states = []
        for sim, m, inputs in sims:
            sim.cycle({inputs[k]: v for k, v in vec.items() if k in inputs})
            sig_state = tuple(str(sim.peek(s)) for s in m.all_signals())
            arr_state = tuple(
                str(w) for a in m.all_arrays() for w in sim.peek_array(a)
            )
            states.append((sig_state, arr_state))
        assert states[0] == states[1], (
            f"diverged at cycle {i}: "
            + str([
                n for n, a, b in
                zip(names, states[0][0], states[1][0]) if a != b
            ][:5])
        )


@given(random_design())
@settings(max_examples=30, deadline=None)
def test_prop_compiled_interpreted_lockstep(design):
    m, clk, inputs, stream = design
    sims = []
    for mode in ("interpreted", "compiled"):
        sims.append(Simulation(m, {clk: 1000}, exec_mode=mode))
    for cycle, values in enumerate(stream):
        for sim in sims:
            sim.cycle({sig: v for sig, v in zip(inputs, values)})
        for sig in m.all_signals():
            assert sims[0].peek(sig) == sims[1].peek(sig), (
                f"{sig.name} diverged at cycle {cycle}"
            )
        for arr in m.all_arrays():
            assert sims[0].peek_array(arr) == sims[1].peek_array(arr)


@given(random_design())
@settings(max_examples=10, deadline=None)
def test_prop_lockstep_with_x_init(design):
    m, clk, inputs, stream = design
    sims = [
        Simulation(m, {clk: 1000}, exec_mode=mode, init_unknown=True)
        for mode in ("interpreted", "compiled")
    ]
    for values in stream:
        for sim in sims:
            sim.cycle({sig: v for sig, v in zip(inputs, values)})
        for sig in m.all_signals():
            assert sims[0].peek(sig) == sims[1].peek(sig)


class TestIpLockstep:
    """All three case-study IPs, randomized stimuli, both kernels."""

    def _drive(self, name, cycles=32, **sim_kw):
        spec = case_study(name)
        base = spec.stimulus(cycles)
        rng = random.Random(1234)

        def factory():
            m, clk = spec.factory()
            inputs = {p.name: p for p in m.inputs()}
            return m, {clk: spec.clock_period_ps}, inputs

        vectors = []
        for i in range(cycles):
            vec = dict(base[i % len(base)])
            # Randomized perturbation on top of the shipped testbench.
            for key in vec:
                if rng.random() < 0.3:
                    vec[key] = rng.randrange(1 << 32) & 0xFFFFFFFF
            vectors.append(vec)
        _lockstep_sims(factory, vectors, **sim_kw)

    @pytest.mark.parametrize("ip", sorted(CASE_STUDIES))
    def test_lockstep(self, ip):
        self._drive(ip)

    @pytest.mark.parametrize("ip", sorted(CASE_STUDIES))
    def test_lockstep_x_init(self, ip):
        self._drive(ip, init_unknown=True)

    @pytest.mark.parametrize("ip", sorted(CASE_STUDIES))
    def test_lockstep_with_transport_delays(self, ip):
        """Back-annotated delays exercise the strict-commit path."""
        spec = case_study(ip)
        base = spec.stimulus(24)
        sims = []
        for mode in ("interpreted", "compiled"):
            m, clk = spec.factory()
            sim = Simulation(
                m, {clk: spec.clock_period_ps}, exec_mode=mode
            )
            internal = [s for s in m.all_signals() if s.direction is None]
            for pick in (2, 5):
                sim.set_transport_delay(
                    internal[pick % len(internal)],
                    spec.clock_period_ps + 500,
                )
            inputs = {p.name: p for p in m.inputs()}
            sims.append((sim, m, inputs))
        for i in range(24):
            vec = base[i % len(base)]
            states = []
            for sim, m, inputs in sims:
                sim.cycle({inputs[k]: v for k, v in vec.items()})
                states.append(
                    tuple(str(sim.peek(s)) for s in m.all_signals())
                )
            assert states[0] == states[1], f"{ip} diverged at cycle {i}"


class TestStrictCommitTransition:
    def test_delay_configured_mid_run(self):
        """Setting a transport delay after construction must flip the
        compiled commits to strict scheduling (runner rebuild)."""
        def build():
            m = Module("d")
            clk = m.input("clk")
            src = m.signal("src", 8)
            wire = m.signal("wire", 8)
            dst = m.output("dst", 8)
            m.sync("p_src", clk, [Assign(src, src + Const(1, 8))])
            m.comb("p_comb", [Assign(wire, src + Const(10, 8))])
            m.sync("p_dst", clk, [Assign(dst, wire)])
            return m, clk, wire, dst

        results = []
        for mode in ("interpreted", "compiled"):
            m, clk, wire, dst = build()
            sim = Simulation(m, {clk: 1000}, exec_mode=mode)
            sim.cycle()
            sim.set_transport_delay(wire, 1300)  # mid-life transition
            trace = []
            for _ in range(6):
                sim.cycle()
                trace.append(sim.peek_int(dst))
            sim.clear_injection()
            results.append(trace)
        assert results[0] == results[1]


class TestCompileCache:
    def test_cache_reuse_and_invalidation(self):
        m = Module("c")
        clk = m.input("clk")
        a = m.signal("a", 4)
        b = m.signal("b", 4)
        proc = m.sync("p", clk, [Assign(a, a + Const(1, 4))])
        first = compile_process(proc)
        assert compile_process(proc) is first  # memoised
        # An in-place retarget must recompile.
        proc.stmts[0].target = b
        second = compile_process(proc)
        assert second is not first
        clear_cache()
        assert compile_process(proc) is not second

    def test_case_arm_rewrite_invalidates_cache(self):
        """Moving a statement between case arms (same labels, same
        flattened statement sequence) must not reuse the stale
        compilation."""
        def build():
            m = Module("cr")
            clk = m.input("clk")
            sel = m.input("sel", 2)
            r1 = m.signal("r1", 8)
            r2 = m.signal("r2", 8)
            a1 = Assign(r1, Const(5, 8))
            a2 = Assign(r2, Const(9, 8))
            proc = m.sync("p", clk, [Case(sel, [(0, [a1, a2])], [])])
            return m, clk, sel, r2, proc

        m, clk, sel, r2, proc = build()
        sim = Simulation(m, {clk: 1000})  # populates the compile cache
        del sim
        # In-place rewrite: second statement moves to the default arm.
        case = proc.stmts[0]
        moved = case.cases[0][1].pop()
        case.default.append(moved)
        results = []
        for mode in ("interpreted", "compiled"):
            sim = Simulation(m, {clk: 1000}, exec_mode=mode)
            sim.poke(sel, 1)  # takes the (new) default arm
            sim.cycle()
            results.append(sim.peek_int(r2))
        assert results[0] == results[1] == 9

    def test_compiled_source_is_kept(self):
        m = Module("s")
        clk = m.input("clk")
        a = m.signal("a", 4)
        proc = m.sync("p", clk, [Assign(a, a + Const(1, 4))])
        compiled = compile_process(proc)
        assert "def _fn(R, A, W, AW" in compiled.body_source


class TestSatelliteFixes:
    def test_force_rejects_width_mismatch(self):
        m = Module("f")
        clk = m.input("clk")
        s = m.signal("s", 4)
        sim = Simulation(m, {clk: 1000})
        with pytest.raises(SimulationError):
            sim.force(s, LV.from_int(8, 1))
        sim.force(s, LV.from_int(4, 9))  # exact width still fine
        assert sim.peek_int(s) == 9

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_bool_not_is_truth_negation(self, mode):
        m = Module("bn")
        clk = m.input("clk")
        a = m.input("a", 1)
        y = m.output("y", 1)
        m.comb("p", [Assign(y, b_not(a))])
        sim = Simulation(m, {clk: 1000}, exec_mode=mode)
        sim.poke(a, 1)
        assert sim.peek_int(y) == 0
        sim.poke(a, 0)
        assert sim.peek_int(y) == 1
        sim.poke(a, LV.from_str("X"))
        assert str(sim.peek(y)) == "X"

    def test_peek_array_fast_paths(self):
        m = Module("pa")
        clk = m.input("clk")
        arr = m.array("mem", 4, 8, init=[1, 2, 3, 4])
        sim = Simulation(m, {clk: 1000})
        words = sim.peek_array(arr)
        assert isinstance(words, tuple)  # immutable snapshot
        assert [w.to_int() for w in words] == [1, 2, 3, 4]
        assert sim.peek_array_word(arr, 2).to_int() == 3

    def test_exec_mode_validated(self):
        m = Module("em")
        clk = m.input("clk")
        with pytest.raises(SimulationError):
            Simulation(m, {clk: 1000}, exec_mode="jit")
