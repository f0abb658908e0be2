"""Fig. 5.b / Fig. 8 -- the Counter-based sensor mechanism.

Regenerates the counter timing scenario: the HF_CLK counter measures
the arrival of the monitored transition in high-frequency periods
(MEAS_VAL sequence like the paper's 6..10 trace), with the three-
main-clock-cycle measurement latency, and the dual-clock TLM scheduler
wrapping 10 HF cycles into one transaction (Fig. 8).
"""


from repro.rtl import Assign, Module
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

from conftest import emit_report

PERIOD = 1000


def build_scenario():
    m = Module("counter_wave")
    clk = m.input("clk")
    din = m.input("din", 8)
    data = m.signal("data", 8)
    dout = m.output("dout", 8)
    m.sync("p_data", clk, [Assign(data, data + din)])
    m.comb("p_out", [Assign(dout, data)])
    report = analyze(synthesize(m), clock_period_ps=PERIOD)
    aug = insert_sensors(
        m, clk, bin_critical_paths(report, 1e9), sensor_type="counter"
    )
    return m, clk, din, aug


def sweep_measurements():
    """Drive the monitored path with arrivals at ticks 6..10 and
    collect the MEAS_VAL sequence (the Fig. 5.b x-axis)."""
    m, clk, din, aug = build_scenario()
    tap = aug.bank.taps[0]
    hf = aug.hf_period_ps()
    observed = {}
    for tick in (6, 7, 8, 9, 10):
        sim = aug.make_simulation()
        sim.set_transport_delay(tap.endpoint, tick * hf - 2)
        seen = set()
        for i in range(10):
            sim.cycle({din: 1 + i})
            seen.add(sim.peek_int(tap.meas_val))
        observed[tick] = seen
    return aug, tap, observed


def test_meas_val_tracks_delay(once):
    def _body():
        """MEAS_VAL == ceil(delay / T_HF), resolution one HF period."""
        aug, tap, observed = sweep_measurements()
        lines = ["Fig. 5.b scenario: MEAS_VAL vs injected arrival tick "
                 f"(LUT threshold = {tap.lut_threshold} HF periods)"]
        for tick, seen in observed.items():
            marker = "error risen" if tick > tap.lut_threshold else "tolerated"
            lines.append(f"  arrival tick {tick:2d} -> MEAS_VAL {sorted(seen)}"
                         f"  [{marker}]")
            assert tick in seen, f"tick {tick} never measured"
        emit_report("fig5_counter_waves.txt", "\n".join(lines))

    once(_body)


def test_out_ok_threshold_boundary(once):
    def _body():
        """OUT_OK flips exactly above the 8-HF-period LUT threshold."""
        m, clk, din, aug = build_scenario()
        tap = aug.bank.taps[0]
        hf = aug.hf_period_ps()
        for tick, expect_ok in ((8, 1), (9, 0)):
            sim = aug.make_simulation()
            sim.set_transport_delay(tap.endpoint, tick * hf - 2)
            oks = set()
            for i in range(10):
                sim.cycle({din: 1 + i})
                if sim.peek_int(tap.meas_val) == tick:
                    oks.add(sim.peek_int(tap.out_ok))
            assert expect_ok in oks

        # measurement latency: first nonzero MEAS_VAL appears no earlier
        # than the third cycle (Section 4.1.2).
        sim = aug.make_simulation()
        sim.set_transport_delay(tap.endpoint, 6 * hf - 2)
        first_nonzero = None
        for i in range(8):
            sim.cycle({din: 1 + i})
            if first_nonzero is None and sim.peek_int(tap.meas_val):
                first_nonzero = i
        assert first_nonzero is not None and first_nonzero >= 2

    once(_body)


def test_dual_clock_scheduler_wraps_hf_cycles(once):
    def _body():
        """Fig. 8: one transaction advances the HF machinery ten ticks."""
        from repro.abstraction import generate_tlm

        m, clk, din, aug = build_scenario()
        gen = generate_tlm(m, variant="hdtlib", augmented=aug)
        assert gen.scheduler_kind == "dual"
        assert "for _hf in range(1, 10 + 1)" in gen.source
        model = gen.instantiate()
        rtl = aug.make_simulation(input_launch_at_edge=True)
        dout_sig = m.find_signal("dout")
        for i in range(12):
            outs = model.b_transport({"din": i + 1})
            rtl.cycle({din: i + 1})
            assert outs["dout"] == rtl.peek_int(dout_sig), f"cycle {i}"

    once(_body)


def test_counter_sweep_speed(benchmark):
    benchmark(sweep_measurements)
