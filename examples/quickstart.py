#!/usr/bin/env python3
"""Quickstart: the cross-level verification flow on a toy IP.

Walks the paper's four methodology steps end to end on a small
accumulator datapath, printing what happens at each stage:

1. synthesis + STA locate the critical path endpoints;
2. Razor sensors are inserted at those endpoints;
3. the augmented RTL is abstracted to a TLM model (generated Python);
4. delay mutants are injected and the mutation analysis verifies that
   the sensors detect and correct every injected timing failure.

Run:  python examples/quickstart.py
"""

from repro.abstraction import generate_tlm
from repro.mutation import inject_mutants, run_campaign
from repro.reporting import format_kv, format_table
from repro.rtl import Assign, If, Module, const
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

PERIOD_PS = 1000  # 1 GHz


def build_ip():
    """A small IP: accumulator + scaler, two register endpoints."""
    m = Module("quickstart_ip")
    clk = m.input("clk")
    din = m.input("din", 8)
    en = m.input("en")
    acc = m.signal("acc", 8)
    scaled = m.signal("scaled", 8)
    out = m.output("out", 8)
    m.sync("p_acc", clk, [If(en.eq(1), [Assign(acc, acc + din)])])
    m.sync("p_scaled", clk, [Assign(scaled, acc * const(3, 8))])
    m.comb("p_out", [Assign(out, scaled)])
    return m, clk


def main() -> None:
    print("=" * 64)
    print("Step 1: insertion of delay monitors (synthesis + STA)")
    print("=" * 64)
    module, clk = build_ip()
    synth = synthesize(module)
    sta = analyze(synth, clock_period_ps=PERIOD_PS)
    critical = bin_critical_paths(sta, threshold_ps=0.9 * PERIOD_PS)
    print(format_kv([
        ("gates (NAND2-eq)", synth.gate_count),
        ("flip-flops", synth.ff_bits),
        ("register endpoints", len(sta.register_endpoints())),
        ("critical paths (slack < 0.9T)", critical.count),
    ]))
    for path in critical.monitored:
        print(f"    monitored: {path.endpoint.name:8s}"
              f" slack={path.slack_ps:8.1f} ps"
              f" nominal delay={path.nominal_delay_ps} ps")

    augmented = insert_sensors(module, clk, critical, sensor_type="razor")
    print(f"\n  -> {augmented.sensor_count} Razor sensors inserted; new "
          f"ports: razor_r (recovery enable), razor_err, razor_stall, "
          f"metric_ok")

    print()
    print("=" * 64)
    print("Step 2: RTL-to-TLM abstraction")
    print("=" * 64)
    tlm = generate_tlm(module, variant="hdtlib", augmented=augmented)
    print(format_kv([
        ("generated TLM class", tlm.class_name),
        ("data types", tlm.variant),
        ("scheduler", tlm.scheduler_kind + "-clock"),
        ("lines of code", tlm.loc),
    ]))
    first_lines = "\n".join(tlm.source.splitlines()[:9])
    print("\n  generated model header:\n")
    for line in first_lines.splitlines():
        print("   |", line)

    print()
    print("=" * 64)
    print("Step 3: injection of delay mutants (ADAM)")
    print("=" * 64)
    injected = inject_mutants(augmented)
    rows = [[i, m.kind, m.register] for i, m in enumerate(injected.mutants)]
    print(format_table(["#", "class", "monitored register"], rows))

    print()
    print("=" * 64)
    print("Step 4: mutation analysis")
    print("=" * 64)
    stimuli = [{"din": (i * 13 + 1) % 256, "en": 1} for i in range(30)]
    report = run_campaign(
        lambda: tlm.instantiate(),
        injected,
        stimuli,
        ip_name="quickstart_ip",
        sensor_type="razor",
        recovery=True,
    )
    print(format_kv([
        ("mutants", report.total),
        ("killed", f"{report.killed_pct:.1f}%"),
        ("errors risen (E)", f"{report.risen_pct:.1f}%"),
        ("corrected by recovery", f"{report.corrected_pct:.1f}%"),
        ("mutation score", f"{report.mutation_score:.1f}%"),
    ]))
    assert report.killed_pct == 100.0
    print("\nAll injected timing failures were detected and corrected "
          "by the Razor sensors -- verified entirely at TLM.")


if __name__ == "__main__":
    main()
