"""Tests for the sharded campaign engine and the VCD/analysis fixes.

Covers the campaign determinism guarantee (serial report == parallel
report for any worker count), the once-per-campaign golden memoisation,
the compiled-class batching, the stall-budget timeout flag, and the
VCD writer lifecycle (close-then-run, changes_written accounting).
"""

import random

import pytest

from repro.abstraction import MutantSpec, generate_tlm
from repro.mutation import (
    compute_golden_trace,
    inject_mutants,
    run_campaign,
)
from repro.mutation.campaign import _shard_sequence
from repro.rtl import Assign, If, Module, Simulation, const
from repro.rtl.vcd import VcdWriter
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize
from serial_oracle import _run_razor_mutant

PERIOD = 1000


def build_ip():
    """Small datapath with two registers and observable outputs."""
    m = Module("camp_ip")
    clk = m.input("clk")
    din = m.input("din", 8)
    en = m.input("en")
    acc = m.signal("acc", 8)
    scaled = m.signal("scaled", 8)
    out_acc = m.output("out_acc", 8)
    out_scaled = m.output("out_scaled", 8)
    m.sync("p_acc", clk, [
        If(en.eq(1), [Assign(acc, acc + din)]),
    ])
    m.sync("p_scaled", clk, [Assign(scaled, acc * const(5, 8))])
    m.comb("p_oa", [Assign(out_acc, acc)])
    m.comb("p_os", [Assign(out_scaled, scaled)])
    return m, clk


def augment(sensor_type):
    m, clk = build_ip()
    report = analyze(synthesize(m), clock_period_ps=PERIOD)
    critical = bin_critical_paths(report, threshold_ps=1e9)
    return insert_sensors(m, clk, critical, sensor_type=sensor_type)


def golden_tlm(sensor_type):
    aug = augment(sensor_type)
    return generate_tlm(aug.module, variant="hdtlib", augmented=aug)


def stimulus(n=30, seed=2):
    rng = random.Random(seed)
    return [
        {"din": rng.randrange(1, 256), "en": 1}
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------

class TestSharding:
    def test_shards_cover_every_index_once_in_order(self):
        shards = _shard_sequence(list(range(17)), workers=3)
        flat = [i for shard in shards for i in shard]
        assert flat == list(range(17))

    def test_explicit_shard_size(self):
        shards = _shard_sequence(list(range(10)), workers=2, shard_size=4)
        assert [len(s) for s in shards] == [4, 4, 2]

    def test_empty_campaign(self):
        assert _shard_sequence([], workers=4) == []

    def test_shard_size_clamped_to_one(self):
        assert _shard_sequence([0, 1, 2], workers=2, shard_size=0) == [
            (0,), (1,), (2,)
        ]


# ----------------------------------------------------------------------
# Determinism: serial report == parallel report
# ----------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("sensor", ["razor", "counter"])
    def test_parallel_report_identical_to_serial(self, sensor):
        aug = augment(sensor)
        injected = inject_mutants(aug)
        golden = golden_tlm(sensor)
        stim = stimulus(30)
        serial = run_campaign(
            golden, injected, stim, sensor_type=sensor, workers=1
        )
        parallel = run_campaign(
            golden, injected, stim,
            sensor_type=sensor, workers=2, shard_size=1,
        )
        assert serial.outcomes == parallel.outcomes
        assert serial.killed_pct == parallel.killed_pct
        assert serial.risen_pct == parallel.risen_pct
        assert serial.corrected_pct == parallel.corrected_pct
        assert serial.cycles_per_run == parallel.cycles_per_run

    def test_campaign_matches_paper_shape(self):
        """The engine preserves the Table-5 claims of the old loop."""
        aug = augment("razor")
        report = run_campaign(
            golden_tlm("razor"), inject_mutants(aug), stimulus(30),
            sensor_type="razor", workers=2,
        )
        assert report.killed_pct == 100.0
        assert report.risen_pct == 100.0
        assert report.corrected_pct == 100.0
        assert report.timed_out_count == 0


# ----------------------------------------------------------------------
# Golden memoisation + compiled-class batching
# ----------------------------------------------------------------------

class TestAmortisation:
    def test_golden_factory_called_once_per_campaign(self, monkeypatch):
        import repro.mutation.campaign as campaign

        aug = augment("razor")
        injected = inject_mutants(aug)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return compute_golden_trace(*args, **kwargs)

        monkeypatch.setattr(campaign, "compute_golden_trace", counted)
        report = run_campaign(
            golden_tlm("razor"), injected, stimulus(20), sensor_type="razor"
        )
        assert report.total > 1       # several mutants ...
        assert len(calls) == 1        # ... one golden simulation

    def test_instantiate_reuses_compiled_class(self):
        gen = golden_tlm("razor")
        a, b = gen.instantiate(), gen.instantiate()
        assert type(a) is type(b)
        assert a is not b

    def test_fresh_instances_do_not_share_state(self):
        gen = golden_tlm("razor")
        a = gen.instantiate()
        a.b_transport({"din": 7, "en": 1, "razor_r": 0})
        b = gen.instantiate()
        assert b.outputs()["out_acc"] == 0


# ----------------------------------------------------------------------
# Stall-budget timeout (no longer conflated with a kill)
# ----------------------------------------------------------------------

class _ConstModel:
    """Fake TLM model with constant outputs; ``stall`` selects whether
    razor_stall is held high (forever, or for the first call only)."""

    PORTS_OUT = {"q": 8, "razor_err": 1, "razor_stall": 1}

    def __init__(self, stall="never"):
        self._stall = stall
        self._calls = 0

    def b_transport(self, inputs=None):
        self._calls += 1
        if self._stall == "always":
            stall = 1
        elif self._stall == "once":
            stall = 1 if self._calls == 1 else 0
        else:
            stall = 0
        return {"q": 0, "razor_err": 1, "razor_stall": stall}


SPEC = MutantSpec("min", "t", 0, "r")


class TestStallTimeout:
    def _golden(self, n):
        # The fake golden also drives stall=1 so a timed-out mutant's
        # compared prefix is byte-identical to the golden trace.
        return compute_golden_trace(
            _ConstModel(stall="always"), [{"d": i} for i in range(n)],
            sensor_type="razor", recovery=True,
        )

    def test_budget_exhaustion_sets_timed_out_not_killed(self):
        stimuli = [{"d": i} for i in range(4)]
        outcome = _run_razor_mutant(
            0, SPEC, _ConstModel(stall="always"), stimuli, True,
            self._golden(4),
        )
        assert outcome.timed_out
        # The truncated tail is a driver timeout, not an observation.
        assert not outcome.killed
        # Nor can a truncated run prove (or disprove) correction.
        assert outcome.corrected is None

    def test_single_stall_still_kills_by_length_mismatch(self):
        stimuli = [{"d": i} for i in range(4)]
        golden = compute_golden_trace(
            _ConstModel(stall="once"), stimuli,
            sensor_type="razor", recovery=True,
        )
        outcome = _run_razor_mutant(
            0, SPEC, _ConstModel(stall="once"), stimuli, True, golden
        )
        assert not outcome.timed_out
        assert outcome.killed   # one extra stall repeat is observable

    def test_stall_on_final_stimulus_is_re_presented(self):
        """A stall tripped by the last stimulus still gets its
        re-presentation, so working recovery is judged corrected."""

        class _LastStallMutant:
            PORTS_OUT = {"q": 8, "razor_err": 1, "razor_stall": 1}

            def __init__(self):
                self._stalled = False

            def b_transport(self, inputs):
                d = inputs["d"]
                if d == 3 and not self._stalled:
                    self._stalled = True
                    # Bubble on the stalled edge; recovered next call.
                    return {"q": 255, "razor_err": 1, "razor_stall": 1}
                return {"q": d, "razor_err": 0, "razor_stall": 0}

        class _EchoGolden:
            PORTS_OUT = {"q": 8, "razor_err": 1, "razor_stall": 1}

            def b_transport(self, inputs):
                return {"q": inputs["d"], "razor_err": 0,
                        "razor_stall": 0}

        stimuli = [{"d": i} for i in range(4)]
        golden = compute_golden_trace(
            _EchoGolden(), stimuli, sensor_type="razor", recovery=True
        )
        outcome = _run_razor_mutant(
            0, SPEC, _LastStallMutant(), stimuli, True, golden
        )
        assert outcome.killed          # the bubble diverges observably
        assert not outcome.timed_out
        assert outcome.corrected       # golden q=3 seen after re-present

    def test_perpetual_stall_on_final_stimulus_is_timeout(self):
        """Budget exhaustion during trailing re-presentation (all
        stimuli consumed, stall never released) is still a timeout."""

        class _TailStallMutant:
            PORTS_OUT = {"q": 8, "razor_err": 1, "razor_stall": 1}

            def b_transport(self, inputs):
                stall = 1 if inputs["d"] == 3 else 0
                return {"q": inputs["d"], "razor_err": stall,
                        "razor_stall": stall}

        class _EchoGolden:
            PORTS_OUT = {"q": 8, "razor_err": 1, "razor_stall": 1}

            def b_transport(self, inputs):
                return {"q": inputs["d"], "razor_err": 0,
                        "razor_stall": 0}

        stimuli = [{"d": i} for i in range(4)]
        golden = compute_golden_trace(
            _EchoGolden(), stimuli, sensor_type="razor", recovery=True
        )
        outcome = _run_razor_mutant(
            0, SPEC, _TailStallMutant(), stimuli, True, golden
        )
        assert outcome.timed_out
        assert outcome.corrected is None
        assert outcome.killed   # the raised flag diverged observably

    def test_no_stall_no_timeout(self):
        stimuli = [{"d": i} for i in range(4)]
        golden = compute_golden_trace(
            _ConstModel(), stimuli, sensor_type="razor", recovery=True
        )
        outcome = _run_razor_mutant(
            0, SPEC, _ConstModel(), stimuli, True, golden
        )
        assert not outcome.timed_out
        assert not outcome.killed


# ----------------------------------------------------------------------
# VCD writer lifecycle
# ----------------------------------------------------------------------

def vcd_module():
    m = Module("vcd_dut")
    clk = m.input("clk")
    q = m.output("q", 4)
    m.sync("p", clk, [Assign(q, q + const(1, 4))])
    return m, clk, q


class TestVcdLifecycle:
    def test_run_after_close_does_not_raise(self, tmp_path):
        m, clk, q = vcd_module()
        sim = Simulation(m, {clk: PERIOD})
        vcd = VcdWriter(sim, str(tmp_path / "w.vcd"), [clk, q])
        sim.run_cycles(2)
        vcd.close()
        sim.run_cycles(3)   # regression: raised "I/O on closed file"
        assert sim.peek_int(q) == 5

    def test_close_is_idempotent(self, tmp_path):
        m, clk, q = vcd_module()
        sim = Simulation(m, {clk: PERIOD})
        vcd = VcdWriter(sim, str(tmp_path / "w.vcd"), [q])
        vcd.close()
        vcd.close()
        assert sim._watchers == []

    def test_changes_written_excludes_initial_dump(self, tmp_path):
        m, clk, q = vcd_module()
        sim = Simulation(m, {clk: PERIOD})
        vcd = VcdWriter(sim, str(tmp_path / "w.vcd"), [clk, q])
        assert vcd.changes_written == 0
        sim.run_cycles(2)
        # 2 cycles: 4 clock toggles + 2 counter increments.
        assert vcd.changes_written == 6
        vcd.close()

    def test_unwatch_unknown_callback_is_noop(self):
        m, clk, q = vcd_module()
        sim = Simulation(m, {clk: PERIOD})
        sim.unwatch(lambda s, t: None)
