"""Tests for RTL-to-TLM code generation and the TLM runtime.

The load-bearing property is *cycle equivalence*: for any input
stream, the generated TLM model's outputs must match the RTL kernel's
outputs cycle by cycle (Fig. 6 equivalence).  Sensor measurement
ports are excluded for augmented IPs in nominal conditions, because
the abstraction deliberately drops physical delays (that is the whole
premise of the mutation step).
"""

import random

import pytest

from repro.abstraction import generate_tlm
from repro.rtl import (
    Assign,
    Case,
    If,
    Module,
    Simulation,
    cat,
)
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize
from repro.tlm import (
    ApproximatelyTimedDriver,
    CycleTarget,
    GenericPayload,
    LooselyTimedDriver,
    TlmCommand,
)

PERIOD = 1000


def build_alu_ip():
    """A small multi-process IP exercising most IR constructs:
    registered ALU with a case-based opcode, an accumulator with
    enable, a comb output stage, and a memory."""
    m = Module("alu_ip")
    clk = m.input("clk")
    op = m.input("op", 2)
    a = m.input("a", 8)
    b = m.input("b", 8)
    wen = m.input("wen")
    addr = m.input("addr", 3)
    result = m.signal("result", 8)
    acc = m.signal("acc", 8)
    mem = m.array("mem", 8, 8)
    dout = m.output("dout", 8)
    flags = m.output("flags", 2)

    from repro.rtl.ir import ArrayWrite
    from repro.rtl.build import array_read

    m.sync("p_alu", clk, [
        Case(op, [
            (0, [Assign(result, a + b)]),
            (1, [Assign(result, a - b)]),
            (2, [Assign(result, a & b)]),
        ], default=[Assign(result, a ^ b)]),
    ])
    m.sync("p_acc", clk, [
        If(wen.eq(1), [
            Assign(acc, acc + result),
            ArrayWrite(mem, addr, result),
        ]),
    ])
    m.comb("p_out", [Assign(dout, acc ^ array_read(mem, addr))])
    m.comb("p_flags", [
        Assign(flags, cat(result.eq(0), acc[7])),
    ])
    return m, clk, (op, a, b, wen, addr), (dout, flags)


def random_stream(n, seed=7):
    rng = random.Random(seed)
    return [
        {
            "op": rng.randrange(4),
            "a": rng.randrange(256),
            "b": rng.randrange(256),
            "wen": rng.randrange(2),
            "addr": rng.randrange(8),
        }
        for _ in range(n)
    ]


def run_rtl(stream):
    """Run the RTL reference with edge-launched inputs (the TLM models
    apply inputs after the rising edge with the same upstream-register
    convention, so this is the apples-to-apples comparison)."""
    m, clk, (op, a, b, wen, addr), (dout, flags) = build_alu_ip()
    sim = Simulation(m, {clk: PERIOD}, input_launch_at_edge=True)
    name_to_sig = {"op": op, "a": a, "b": b, "wen": wen, "addr": addr}
    outs = []
    for inputs in stream:
        sim.cycle({name_to_sig[k]: v for k, v in inputs.items()})
        outs.append(
            {"dout": sim.peek_int(dout), "flags": sim.peek_int(flags)}
        )
    return outs


class TestPlainEquivalence:
    @pytest.mark.parametrize("variant", ["sctypes", "hdtlib"])
    def test_generated_matches_rtl(self, variant):
        stream = random_stream(120)
        golden = run_rtl(stream)
        m, *_ = build_alu_ip()
        gen = generate_tlm(m, variant=variant)
        model = gen.instantiate()
        for i, inputs in enumerate(stream):
            outs = model.b_transport(inputs)
            assert outs == golden[i], f"cycle {i} mismatch ({variant})"

    def test_variants_match_each_other(self):
        stream = random_stream(60, seed=123)
        m1, *_ = build_alu_ip()
        m2, *_ = build_alu_ip()
        sc = generate_tlm(m1, variant="sctypes").instantiate()
        hd = generate_tlm(m2, variant="hdtlib").instantiate()
        for inputs in stream:
            assert sc.b_transport(inputs) == hd.b_transport(inputs)

    def test_generated_source_is_real_python(self):
        m, *_ = build_alu_ip()
        gen = generate_tlm(m, variant="hdtlib")
        assert gen.loc > 50
        assert "def scheduler(self):" in gen.source
        compile(gen.source, "<check>", "exec")

    def test_ports_metadata(self):
        m, *_ = build_alu_ip()
        model = generate_tlm(m, variant="hdtlib").instantiate()
        assert model.PORTS_IN == {
            "op": 2, "a": 8, "b": 8, "wen": 1, "addr": 3
        }
        assert model.PORTS_OUT == {"dout": 8, "flags": 2}
        assert model.SCHEDULER == "single"

    def test_unknown_variant_rejected(self):
        m, *_ = build_alu_ip()
        with pytest.raises(ValueError):
            generate_tlm(m, variant="verilated")


def build_and_augment(sensor_type):
    m, clk, ins, outs = build_alu_ip()
    report = analyze(synthesize(m), clock_period_ps=PERIOD)
    critical = bin_critical_paths(report, threshold_ps=1e9)
    aug = insert_sensors(m, clk, critical, sensor_type=sensor_type)
    return aug, ins, outs


IP_OUTPUTS = ("dout", "flags")


class TestAugmentedEquivalence:
    @pytest.mark.parametrize("sensor", ["razor", "counter"])
    @pytest.mark.parametrize("variant", ["sctypes", "hdtlib"])
    def test_augmented_tlm_matches_augmented_rtl(self, sensor, variant):
        """Functional outputs of the augmented RTL (with nominal
        delays) and its TLM abstraction agree cycle by cycle."""
        stream = random_stream(60, seed=5)

        aug, ins, outs = build_and_augment(sensor)
        sim = aug.make_simulation(input_launch_at_edge=True)
        by_name = {s.name: s for s in ins}
        extra = {}
        if sensor == "razor":
            extra = {aug.bank.recovery: 0}
        rtl_outs = []
        for inputs in stream:
            pokes = {by_name[k]: v for k, v in inputs.items()}
            pokes.update(extra)
            sim.cycle(pokes)
            rtl_outs.append(
                {name: sim.peek_int(aug.module.find_signal(name))
                 for name in IP_OUTPUTS}
            )

        aug2, _, _ = build_and_augment(sensor)
        gen = generate_tlm(aug2.module, variant=variant, augmented=aug2)
        model = gen.instantiate()
        for i, inputs in enumerate(stream):
            feed = dict(inputs)
            if sensor == "razor":
                feed["razor_r"] = 0
            got = model.b_transport(feed)
            functional = {k: got[k] for k in IP_OUTPUTS}
            assert functional == rtl_outs[i], f"cycle {i} ({sensor}/{variant})"

    def test_razor_tlm_raises_no_nominal_errors(self):
        aug, ins, outs = build_and_augment("razor")
        gen = generate_tlm(aug.module, variant="hdtlib", augmented=aug)
        model = gen.instantiate()
        for inputs in random_stream(40, seed=9):
            got = model.b_transport({**inputs, "razor_r": 1})
            assert got["metric_ok"] == 1

    def test_counter_tlm_uses_dual_scheduler(self):
        aug, *_ = build_and_augment("counter")
        gen = generate_tlm(aug.module, variant="hdtlib", augmented=aug)
        assert gen.scheduler_kind == "dual"
        model = gen.instantiate()
        assert model.HF_RATIO == aug.hf_ratio
        for inputs in random_stream(20, seed=11):
            got = model.b_transport(inputs)
            assert got["metric_ok"] == 1  # no delays exist at TLM


class TestTlmRuntime:
    def make_target(self):
        m, *_ = build_alu_ip()
        model = generate_tlm(m, variant="hdtlib").instantiate()
        return CycleTarget(model, clock_period_ps=PERIOD)

    def test_lt_driver_runs_stream(self):
        target = self.make_target()
        driver = LooselyTimedDriver(quantum_cycles=10)
        driver.socket.bind(target.socket)
        outs = driver.run(random_stream(25, seed=3))
        assert len(outs) == 25
        assert driver.stats.transactions == 25
        assert driver.stats.syncs == 2  # 25 cycles / quantum 10
        assert driver.stats.local_time_ps == 25 * PERIOD

    def test_at_driver_matches_lt(self):
        stream = random_stream(30, seed=4)
        t1, t2 = self.make_target(), self.make_target()
        lt = LooselyTimedDriver(quantum_cycles=8)
        at = ApproximatelyTimedDriver()
        lt.socket.bind(t1.socket)
        at.socket.bind(t2.socket)
        assert lt.run(stream) == at.run(stream)
        assert at.stats.syncs == 30  # AT synchronises every transaction

    def test_unknown_port_is_address_error(self):
        target = self.make_target()
        payload = GenericPayload(
            command=TlmCommand.WRITE, data={"nonexistent": 1}
        )
        target.b_transport(payload, 0)
        assert not payload.is_ok

    def test_unbound_socket_raises(self):
        driver = LooselyTimedDriver()
        with pytest.raises(RuntimeError):
            driver.cycle({})

    def test_bad_quantum_rejected(self):
        with pytest.raises(ValueError):
            LooselyTimedDriver(quantum_cycles=0)
