"""Fig. 4.b / Fig. 7 -- the Razor sensor mechanism, cycle by cycle.

Regenerates the paper's Razor timing diagram scenario on the real
event-driven kernel: a correct-timing cycle, a detected timing
failure, and a detection+correction cycle with recovery enabled --
each RTL clock cycle corresponding to one TLM transaction (Fig. 7).
The benchmarked operation is the traced RTL run.
"""


from repro.rtl import Assign, Module, WaveRecorder, const
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

from conftest import emit_report

PERIOD = 1000


def build_scenario():
    """One monitored register with an injectable path delay."""
    m = Module("razor_wave")
    clk = m.input("clk")
    din = m.input("din", 8)
    data = m.signal("data", 8)
    dout = m.output("dout", 8)
    m.sync("p_data", clk, [Assign(data, din + const(1, 8))])
    m.comb("p_out", [Assign(dout, data)])
    report = analyze(synthesize(m), clock_period_ps=PERIOD)
    aug = insert_sensors(
        m, clk, bin_critical_paths(report, 1e9), sensor_type="razor"
    )
    return m, clk, din, aug


def run_scenario(recovery):
    m, clk, din, aug = build_scenario()
    sim = aug.make_simulation(input_launch_at_edge=True)
    tap = aug.bank.taps[0]
    recorder = WaveRecorder(
        sim, [clk, tap.endpoint, tap.register, tap.error, aug.bank.stall]
    )
    endpoint = tap.endpoint
    nominal = aug.nominal_delay_of[endpoint]
    events = []
    for cycle in range(8):
        if cycle == 3:
            # Push the arrival into the Razor window (cycle 2 of
            # Fig. 4.b: "timing failure detection").
            sim.inject_extra_delay(endpoint, int(1.2 * PERIOD) - nominal)
        sim.cycle({din: 16 + cycle * 8, aug.bank.recovery: recovery})
        sim.clear_injection(endpoint)
        events.append(
            (cycle, sim.peek_int(tap.error), sim.peek_int(aug.bank.stall))
        )
    return recorder, events


def test_razor_waveform_detection_only(once):
    def _body():
        recorder, events = run_scenario(recovery=0)
        errors = [e for _, e, _ in events]
        stalls = [s for _, _, s in events]
        assert any(errors), "E never rose"
        assert not any(stalls), "stall must stay low with R=0"

    once(_body)


def test_razor_waveform_detection_and_correction(once):
    def _body():
        recorder, events = run_scenario(recovery=1)
        error_cycles = [c for c, e, _ in events if e]
        stall_cycles = [c for c, _, s in events if s]
        assert error_cycles, "E never rose"
        assert stall_cycles == error_cycles, (
            "recovery must assert the stall exactly on error cycles"
        )
        text = recorder.render(0, 9 * PERIOD, PERIOD // 10)
        emit_report(
            "fig4_razor_waves.txt",
            "Fig. 4.b scenario: Razor detection + correction "
            f"(E at cycles {error_cycles})\n" + text,
        )

    once(_body)


def test_one_cycle_equals_one_transaction(once):
    def _body():
        """Fig. 7: each CLK period maps to exactly one TLM transaction."""
        from repro.abstraction import generate_tlm

        m, clk, din, aug = build_scenario()
        gen = generate_tlm(m, variant="hdtlib", augmented=aug)
        model = gen.instantiate()
        sim = aug.make_simulation(input_launch_at_edge=True)
        dout_sig = m.find_signal("dout")
        for cycle in range(10):
            value = (cycle * 37 + 5) % 256
            sim.cycle({din: value, aug.bank.recovery: 0})
            outs = model.b_transport({"din": value, "razor_r": 0})
            assert outs["dout"] == sim.peek_int(dout_sig), f"cycle {cycle}"

    once(_body)


def test_waveform_run_speed(benchmark):
    benchmark(lambda: run_scenario(recovery=1))
