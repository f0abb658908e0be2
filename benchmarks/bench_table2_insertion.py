"""Table 2 -- characteristics of the insertion of delay monitors.

Regenerates, per IP: STA runtime, identified critical paths, sensors
inserted (one per path, Razor and Counter versions) and the augmented
RTL size.  The benchmarked operation is the STA + binning pass that
locates the insertion points.
"""

import pytest

from repro.ips import CASE_STUDIES
from repro.reporting import format_table
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

from conftest import emit_report


@pytest.mark.parametrize("ip", list(CASE_STUDIES))
def test_sta_speed(benchmark, ip):
    """Benchmark: STA + critical binning of one IP."""
    spec = CASE_STUDIES[ip]
    module, clk = spec.factory()
    synth = synthesize(module)

    def run():
        report = analyze(synth, clock_period_ps=spec.clock_period_ps)
        return bin_critical_paths(report, spec.slack_threshold_ps)

    critical = benchmark(run)
    assert critical.count > 0


def test_regenerate_table2(flows, once):
    def _body():
        rows = []
        for name, spec in CASE_STUDIES.items():
            razor = flows[(name, "razor")]
            counter = flows[(name, "counter")]
            assert razor.critical.count == counter.critical.count
            for sensor, flow in (("Razor", razor), ("Counter", counter)):
                rows.append([
                    spec.title if sensor == "Razor" else "",
                    f"{1000 * flow.sta.analysis_seconds:.2f} ms"
                    if sensor == "Razor" else "",
                    flow.critical.count if sensor == "Razor" else "",
                    sensor,
                    flow.sensors_inserted,
                    flow.augmented_rtl_loc,
                ])
            # Shape assertions from the paper's Table 2:
            # one sensor per critical path ...
            assert razor.sensors_inserted == razor.critical.count
            # ... and Counter versions take more RTL than Razor versions.
            assert counter.augmented_rtl_loc > razor.augmented_rtl_loc
            # Augmentation strictly grows the design.
            assert razor.augmented_rtl_loc > razor.original_rtl_loc
        table = format_table(
            ["Digital IP", "STA time", "Critical paths (#)",
             "Sensor type", "Inserted (#)", "RTL (loc)"],
            rows,
            title="Table 2: characteristics of the insertion of delay monitors",
        )
        emit_report("table2.txt", table)

    once(_body)
