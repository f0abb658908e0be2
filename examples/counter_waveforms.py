#!/usr/bin/env python3
"""Regenerate the Counter-sensor timing behaviour of the paper's
Fig. 5.b and the dual-clock transaction mapping of Fig. 8.

Sweeps the arrival time of a monitored transition across the
observability window and prints the MEAS_VAL staircase (the paper's
"6 7 8 9 10" sequence), the OUT_OK threshold crossing, and the HF
clock wrapped inside main-clock transactions.

Run:  python examples/counter_waveforms.py
"""

from repro.rtl import Assign, Module, WaveRecorder
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

PERIOD = 1000


def build():
    m = Module("fig5")
    clk = m.input("clk")
    din = m.input("din", 8)
    data = m.signal("data", 8)
    dout = m.output("dout", 8)
    m.sync("p_data", clk, [Assign(data, data + din)])
    m.comb("p_out", [Assign(dout, data)])
    report = analyze(synthesize(m), clock_period_ps=PERIOD)
    aug = insert_sensors(m, clk, bin_critical_paths(report, 1e9),
                         sensor_type="counter")
    return m, clk, din, aug


def main() -> None:
    m, clk, din, aug = build()
    tap = aug.bank.taps[0]
    hf = aug.hf_period_ps()
    print(f"monitored path: {tap.register.name}   HF clock: {hf} ps "
          f"({aug.hf_ratio} per main cycle)   LUT threshold: "
          f"{tap.lut_threshold} HF periods")
    print()
    print("MEAS_VAL staircase (Fig. 5.b):")
    print("  arrival tick | MEAS_VAL | OUT_OK")
    print("  -------------+----------+-------------------")
    for tick in (6, 7, 8, 9, 10):
        sim = aug.make_simulation()
        sim.set_transport_delay(tap.endpoint, tick * hf - 2)
        meas, ok = 0, 1
        for i in range(8):
            sim.cycle({din: 1 + i})
            if sim.peek_int(tap.meas_val) == tick:
                meas = tick
                ok = sim.peek_int(tap.out_ok)
        verdict = "ok (tolerated)" if ok else "ERROR RISEN"
        print(f"  {tick:12d} | {meas:8d} | {verdict}")

    print()
    print("HF clock wrapped into main-clock transactions (Fig. 8):")
    m2, clk2, din2, aug2 = build()
    sim = aug2.make_simulation()
    hf_clk = aug2.hf_clock
    recorder = WaveRecorder(sim, [clk2, hf_clk])
    for i in range(3):
        sim.cycle({din2: 5})
    print(recorder.render(0, 3 * PERIOD, hf // 2))
    print("\n  one main-clock period == one TLM transaction; the ten "
          "HF cycles inside it\n  become the inner loop of the "
          "dual-clock scheduler (Fig. 8.b).")


if __name__ == "__main__":
    main()
