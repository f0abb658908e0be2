"""Property-based cross-level equivalence on randomly generated IPs.

The strongest correctness property in the repository: for *any*
synthesisable design expressible in the IR, the RTL kernel and both
generated TLM variants must agree cycle by cycle.  Hypothesis builds
random small modules (random expression trees, register/comb mixes)
and random input streams, then runs all three levels in lockstep.
"""

from hypothesis import given, settings, strategies as st

from repro.abstraction import generate_tlm
from repro.rtl import (
    Assign,
    Binop,
    Const,
    If,
    Module,
    Mux,
    Simulation,
    Unop,
)

WIDTH = 8
N_INPUTS = 3
N_REGS = 3

_BINOPS = ["and", "or", "xor", "add", "sub", "mul"]
_UNOPS = ["not", "neg"]
_CMPS = ["eq", "ne", "lt", "ge", "lt_s", "ge_s"]


def build_expr(draw, leaves, depth):
    """Random width-8 expression over the given leaf signals."""
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return leaves[draw(st.integers(0, len(leaves) - 1))]
        return Const(draw(st.integers(0, 255)), WIDTH)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Binop(
            _BINOPS[draw(st.integers(0, len(_BINOPS) - 1))],
            build_expr(draw, leaves, depth - 1),
            build_expr(draw, leaves, depth - 1),
        )
    if kind == 1:
        return Unop(
            _UNOPS[draw(st.integers(0, len(_UNOPS) - 1))],
            build_expr(draw, leaves, depth - 1),
        )
    cond = Binop(
        _CMPS[draw(st.integers(0, len(_CMPS) - 1))],
        build_expr(draw, leaves, depth - 1),
        build_expr(draw, leaves, depth - 1),
    )
    return Mux(
        cond,
        build_expr(draw, leaves, depth - 1),
        build_expr(draw, leaves, depth - 1),
    )


@st.composite
def random_design(draw):
    """A random module: N inputs, N registers, comb outputs."""
    m = Module("rand_ip")
    clk = m.input("clk")
    inputs = [m.input(f"i{k}", WIDTH) for k in range(N_INPUTS)]
    regs = [m.signal(f"r{k}", WIDTH, init=draw(st.integers(0, 255)))
            for k in range(N_REGS)]
    leaves = inputs + regs
    for k, reg in enumerate(regs):
        body = [Assign(reg, build_expr(draw, leaves, 3))]
        if draw(st.booleans()):
            cond = Binop("ne", leaves[draw(st.integers(0, len(leaves) - 1))],
                         Const(draw(st.integers(0, 255)), WIDTH))
            body = [If(cond, body,
                       [Assign(reg, build_expr(draw, leaves, 2))])]
        m.sync(f"p_r{k}", clk, body)
    out = m.output("out", WIDTH)
    m.comb("p_out", [Assign(out, build_expr(draw, leaves, 3))])
    stream = draw(
        st.lists(
            st.tuples(*[st.integers(0, 255)] * N_INPUTS),
            min_size=4,
            max_size=12,
        )
    )
    return m, clk, inputs, out, stream


@given(random_design())
@settings(max_examples=40, deadline=None)
def test_prop_rtl_tlm_equivalence(design):
    """RTL kernel == generated hdtlib TLM == generated sctypes TLM."""
    m, clk, inputs, out, stream = design
    sim = Simulation(m, {clk: 1000}, input_launch_at_edge=True)
    hd = generate_tlm(m, variant="hdtlib").instantiate()
    sc = generate_tlm(m, variant="sctypes").instantiate()
    for cycle, values in enumerate(stream):
        vec = {f"i{k}": v for k, v in enumerate(values)}
        sim.cycle({sig: v for sig, v in zip(inputs, values)})
        out_hd = hd.b_transport(vec)["out"]
        out_sc = sc.b_transport(vec)["out"]
        out_rtl = sim.peek_int(out)
        assert out_hd == out_rtl, f"hdtlib diverged at cycle {cycle}"
        assert out_sc == out_rtl, f"sctypes diverged at cycle {cycle}"


@given(random_design())
@settings(max_examples=15, deadline=None)
def test_prop_generated_source_compiles_cleanly(design):
    m, *_ = design
    gen = generate_tlm(m, variant="hdtlib")
    compile(gen.source, "<prop>", "exec")
    assert gen.loc > 20
