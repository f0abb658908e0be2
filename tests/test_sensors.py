"""Tests for the Razor and Counter-based sensors at RTL.

These tests exercise the full physical story of the paper's Section 4:
nominal (back-annotated) path delays meet timing and raise no errors;
injected extra delays that push arrivals past the consuming clock edge
are detected by the Razor shadow latch (and corrected when recovery is
on) and are measured in HF-clock periods by the Counter monitor.
"""

import pickle

import pytest

from repro.flow import build_augmented
from repro.ips import case_study
from repro.mutation.cache import rtl_fingerprint
from repro.mutation.rtl_validation import _stimulus_driver
from repro.rtl import Assign, Module, NativeProcess, Simulation, const
from repro.sensors import (
    InsertionError,
    extract_endpoint_signals,
    insert_sensors,
)
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

PERIOD = 1000  # ps


def build_dut():
    """A small datapath: an accumulating register feeding a register.

    acc <= acc + din;  res <= acc * 3 (the critical path).
    """
    m = Module("dut")
    clk = m.input("clk")
    din = m.input("din", 8)
    acc = m.signal("acc", 8)
    res = m.output("res", 8)
    m.sync("p_acc", clk, [Assign(acc, acc + din)])
    m.sync("p_res", clk, [Assign(res, acc * const(3, 8))])
    return m, clk, din, acc, res


def augment(sensor_type, threshold_ps=1e9, **kw):
    m, clk, din, acc, res = build_dut()
    report = analyze(synthesize(m), clock_period_ps=PERIOD)
    critical = bin_critical_paths(report, threshold_ps)
    aug = insert_sensors(m, clk, critical, sensor_type=sensor_type, **kw)
    return aug, din


class TestEndpointExtraction:
    def test_creates_endpoint_signals(self):
        m, clk, din, acc, res = build_dut()
        endpoint_of = extract_endpoint_signals(m, [acc, res])
        assert endpoint_of[acc].name == "acc__d"
        assert endpoint_of[res].name == "res__d"

    def test_behaviour_preserved(self):
        """The rewritten module computes the same values."""
        m1, clk1, din1, acc1, res1 = build_dut()
        m2, clk2, din2, acc2, res2 = build_dut()
        extract_endpoint_signals(m2, [acc2, res2])
        s1 = Simulation(m1, {clk1: PERIOD})
        s2 = Simulation(m2, {clk2: PERIOD})
        for value in [3, 7, 1, 9, 250, 4]:
            s1.cycle({din1: value})
            s2.cycle({din2: value})
            assert s1.peek(res1) == s2.peek(res2)

    def test_unknown_register_rejected(self):
        m, clk, din, acc, res = build_dut()
        ghost = Module("other").signal("ghost", 8)
        with pytest.raises(InsertionError):
            extract_endpoint_signals(m, [ghost])


class TestInsertionStructure:
    def test_razor_ports_added(self):
        aug, _ = augment("razor")
        names = {p.name for p in aug.module.ports}
        assert {"razor_r", "razor_err", "metric_ok"} <= names
        assert aug.sensor_count == 2

    def test_counter_ports_added(self):
        aug, _ = augment("counter")
        names = {p.name for p in aug.module.ports}
        assert {"hf_clk", "meas_val", "metric_ok"} <= names

    def test_razor_nominal_in_window(self):
        aug, _ = augment("razor")
        for delay in aug.nominal_delay_of.values():
            assert PERIOD * 0.6 < delay < PERIOD

    def test_counter_nominal_inside_obs_window(self):
        aug, _ = augment("counter")
        for delay in aug.nominal_delay_of.values():
            assert PERIOD * 0.3 <= delay <= PERIOD * 0.7

    def test_bad_sensor_type(self):
        m, clk, *_ = build_dut()
        report = analyze(synthesize(m), PERIOD)
        with pytest.raises(InsertionError):
            insert_sensors(m, clk, bin_critical_paths(report, 1e9),
                           sensor_type="thermometer")

    def test_counter_ratio_must_divide(self):
        m, clk, *_ = build_dut()
        report = analyze(synthesize(m), PERIOD)
        with pytest.raises(InsertionError):
            insert_sensors(m, clk, bin_critical_paths(report, 1e9),
                           sensor_type="counter", hf_ratio=7)


class TestRazorAtSpeed:
    def run_cycles(self, aug, din, sim, n, value_seq=None):
        for i in range(n):
            value = value_seq[i % len(value_seq)] if value_seq else (i * 7 + 3) % 256
            sim.cycle({din: value, aug.bank.recovery: sim._razor_r})

    def make_sim(self, aug, recovery):
        sim = aug.make_simulation()
        sim._razor_r = 1 if recovery else 0  # test-local convenience
        return sim

    def test_nominal_timing_raises_no_error(self):
        """Back-annotated nominal delays meet setup: E stays 0."""
        aug, din = augment("razor")
        sim = self.make_sim(aug, recovery=False)
        metric_ok = aug.module.find_signal("metric_ok")
        for i in range(20):
            sim.cycle({din: (i * 13 + 1) % 256})
            if i >= 2:  # allow start-up settling
                assert sim.peek_int(metric_ok) == 1, f"false alarm at cycle {i}"

    def test_delay_in_window_detected(self):
        """Extra delay pushing arrival past the edge (but inside the
        Razor window) raises E."""
        aug, din = augment("razor")
        sim = self.make_sim(aug, recovery=False)
        res_ep = aug.endpoint_for("res")
        nominal = aug.nominal_delay_of[res_ep]
        # Push arrival to 1.2 T after launch: miss edge, hit shadow.
        sim.inject_extra_delay(res_ep, int(1.2 * PERIOD) - nominal)
        tap = next(t for t in aug.bank.taps if t.register.name == "res")
        errors = []
        for i in range(12):
            sim.cycle({din: (i * 13 + 1) % 256})
            errors.append(sim.peek_int(tap.error))
        assert any(errors), "Razor never flagged the in-window delay"

    def test_detection_only_corrupts_output(self):
        """With R=0 the error is flagged but not corrected: the
        injected run diverges from a golden run."""
        aug, din = augment("razor")
        golden_m, gclk, gdin, _, gres = build_dut()
        golden = Simulation(golden_m, {gclk: PERIOD})
        sim = self.make_sim(aug, recovery=False)
        res_ep = aug.endpoint_for("res")
        sim.inject_extra_delay(
            res_ep, int(1.2 * PERIOD) - aug.nominal_delay_of[res_ep]
        )
        res = aug.module.find_signal("res")
        diverged = False
        for i in range(12):
            value = (i * 13 + 1) % 256
            golden.cycle({gdin: value})
            sim.cycle({din: value})
            if sim.peek(res) != golden.peek(gres):
                diverged = True
        assert diverged

    def run_with_transient_fault(self, recovery):
        """Drive the accumulator with a one-cycle late arrival on its
        own feedback path (a transient variability event) and return
        ``(final_acc, golden_final, errors_seen)``.

        Both simulations launch inputs at the clock edge (upstream-
        register convention), which keeps input consumption aligned
        between the zero-delay golden model and the delay-annotated
        augmented model."""
        aug, din = augment("razor")
        golden_m, gclk, gdin, gacc, gres = build_dut()
        golden = Simulation(golden_m, {gclk: PERIOD}, input_launch_at_edge=True)
        sim = aug.make_simulation(input_launch_at_edge=True)
        acc_ep = aug.endpoint_for("acc")
        extra = int(1.2 * PERIOD) - aug.nominal_delay_of[acc_ep]
        acc = aug.module.find_signal("acc")
        stall = aug.bank.stall
        tap = next(t for t in aug.bank.taps if t.register.name == "acc")

        inputs = [(i * 13 + 1) % 256 for i in range(10)]
        for value in inputs:
            golden.cycle({gdin: value})
        golden.cycle({gdin: 0})  # flush: edge-launched inputs lag a cycle

        # Edge-launch protocol: the input poked in call k is consumed
        # by the edge of call k+1.  When that edge is stalled (stall
        # observed after call k), the in-flight input must be
        # re-presented, because the relaunch during the stall cycle
        # carries whatever the testbench is driving then.
        errors = 0
        fault_index = 4
        p = 0
        prev = None
        guard = 0
        while p < len(inputs) and guard < 50:
            guard += 1
            if sim.peek_int(stall) == 1 and prev is not None:
                value = prev
            else:
                value = inputs[p]
                if p == fault_index:
                    sim.inject_extra_delay(acc_ep, extra)
                p += 1
            sim.cycle({din: value, aug.bank.recovery: recovery})
            sim.clear_injection(acc_ep)  # transient: one launch affected
            errors += sim.peek_int(tap.error)
            prev = value
        # Flush the final in-flight input (plus a possible stall).
        for _ in range(3):
            if sim.peek_int(stall) == 1 and prev is not None:
                sim.cycle({din: prev, aug.bank.recovery: recovery})
            else:
                sim.cycle({din: 0, aug.bank.recovery: recovery})
                break
        return sim.peek_int(acc), golden.peek_int(gacc), errors

    def test_recovery_corrects_state(self):
        """With R=1 a transient in-window delay is detected, the state
        restored from the shadow latch, and the final architectural
        state matches the golden run exactly."""
        final, golden_final, errors = self.run_with_transient_fault(1)
        assert errors >= 1, "error never flagged"
        assert final == golden_final

    def test_detection_only_loses_state(self):
        """With R=0 the same transient fault permanently corrupts the
        accumulated state (the missed update is never recovered)."""
        final, golden_final, errors = self.run_with_transient_fault(0)
        assert errors >= 1
        assert final != golden_final

    def test_delay_beyond_window_missed(self):
        """Arrivals later than T/2 after the edge also miss the shadow
        latch: no detection (the sensor's documented limit)."""
        aug, din = augment("razor")
        sim = self.make_sim(aug, recovery=False)
        res_ep = aug.endpoint_for("res")
        nominal = aug.nominal_delay_of[res_ep]
        sim.inject_extra_delay(res_ep, int(1.8 * PERIOD) - nominal)
        tap = next(t for t in aug.bank.taps if t.register.name == "res")
        errors = []
        for i in range(12):
            sim.cycle({din: (i * 13 + 1) % 256})
            errors.append(sim.peek_int(tap.error))
        assert not any(errors)


class TestCounterAtSpeed:
    def test_nominal_measurement(self):
        """MEAS_VAL equals the nominal arrival in HF periods."""
        aug, din = augment("counter")
        sim = aug.make_simulation()
        tap = aug.bank.tap_for("res")
        expected = -(-aug.nominal_delay_of[tap.endpoint] // aug.hf_period_ps())
        seen = set()
        for i in range(12):
            sim.cycle({din: (i * 13 + 1) % 256})
            seen.add(sim.peek_int(tap.meas_val))
        assert expected in seen

    def test_nominal_is_ok(self):
        """Nominal delays stay at or below the LUT threshold."""
        aug, din = augment("counter")
        sim = aug.make_simulation()
        metric_ok = aug.module.find_signal("metric_ok")
        for i in range(12):
            sim.cycle({din: (i * 13 + 1) % 256})
            assert sim.peek_int(metric_ok) == 1

    def test_injected_delay_measured_in_hf_periods(self):
        """An absolute delay of k HF periods is measured as k."""
        aug, din = augment("counter")
        sim = aug.make_simulation()
        tap = aug.bank.tap_for("res")
        k = 9
        # Replace the nominal delay with an absolute k-HF-period delay.
        sim.set_transport_delay(tap.endpoint, k * aug.hf_period_ps())
        seen = set()
        for i in range(12):
            sim.cycle({din: (i * 13 + 1) % 256})
            seen.add(sim.peek_int(tap.meas_val))
        assert k in seen

    def test_above_threshold_flags_error(self):
        aug, din = augment("counter")
        sim = aug.make_simulation()
        tap = aug.bank.tap_for("res")
        sim.set_transport_delay(tap.endpoint, 9 * aug.hf_period_ps())
        oks = []
        for i in range(12):
            sim.cycle({din: (i * 13 + 1) % 256})
            oks.append(sim.peek_int(tap.out_ok))
        assert 0 in oks, "delay above the 8-period LUT threshold not flagged"

    def test_below_threshold_tolerated(self):
        aug, din = augment("counter")
        sim = aug.make_simulation()
        tap = aug.bank.tap_for("res")
        sim.set_transport_delay(tap.endpoint, 4 * aug.hf_period_ps())
        for i in range(12):
            sim.cycle({din: (i * 13 + 1) % 256})
            assert sim.peek_int(tap.out_ok) == 1

    def test_measurement_latency(self):
        """MEAS_VAL for the first stimulated window appears only after
        the documented three-cycle latency."""
        aug, din = augment("counter")
        sim = aug.make_simulation()
        tap = aug.bank.tap_for("res")
        values = []
        for i in range(6):
            sim.cycle({din: (i * 13 + 1) % 256})
            values.append(sim.peek_int(tap.meas_val))
        assert values[0] == 0  # nothing measured yet
        assert any(v > 0 for v in values[2:]), values


# ----------------------------------------------------------------------
# Augmented designs pickle: RTL-validation shards carry them to workers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sensor", ["razor", "counter"])
@pytest.mark.parametrize("ip", ["plasma", "dsp", "filter"])
def test_registry_design_pickles_unchanged(ip, sensor):
    """A registry design survives a pickle round trip with its RTL
    fingerprint intact, and each sensor bank's native callable pickles
    to the same bytes before and after 20 simulated cycles: its
    mutable state lives in the simulator's ``ctx.state``."""
    spec = case_study(ip)
    aug = build_augmented(spec, sensor).augmented
    shipped = pickle.loads(pickle.dumps(aug))
    assert rtl_fingerprint(shipped) == rtl_fingerprint(aug)

    banks = [proc.fn for _, proc in aug.module.all_processes()
             if isinstance(proc, NativeProcess)]
    assert banks
    before = [pickle.dumps(fn) for fn in banks]
    sim = aug.make_simulation(input_launch_at_edge=True)
    drive = _stimulus_driver(aug, spec.stimulus(20))
    for i in range(20):
        drive(sim, i)
    assert [pickle.dumps(fn) for fn in banks] == before
