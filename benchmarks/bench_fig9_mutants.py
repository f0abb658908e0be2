"""Fig. 9 / Fig. 10 -- mutant classes and their activity windows.

Demonstrates the three delay-mutant classes at their scheduler
synchronisation points and regenerates the Fig. 10 picture: Razor
covers the window extremes (minimum and maximum delay mutants), the
Counter resolves each delta mutant to its HF tick within the
observability window.
"""

import pytest

from repro.flow import run_flow
from repro.ips import case_study
from repro.mutation import run_campaign
from repro.reporting import format_table

from conftest import emit_report


@pytest.fixture(scope="module")
def dsp_counter():
    return run_flow(case_study("dsp"), "counter")


@pytest.fixture(scope="module")
def dsp_razor():
    return run_flow(case_study("dsp"), "razor")


def test_fig10a_razor_window_extremes(dsp_razor, once):
    def _body():
        """Both extremes of the Razor window are exercised and detected."""
        report = dsp_razor.mutation
        kinds = {o.kind for o in report.outcomes}
        assert kinds == {"min", "max"}
        for outcome in report.outcomes:
            assert outcome.error_risen, (outcome.kind, outcome.register)

    once(_body)


def test_fig10b_delta_mutants_resolve_to_ticks(dsp_counter, once):
    def _body():
        """Each delta mutant is measured at exactly its HF tick (the
        Fig. 10.b 'Delay k HF_CLK' markers)."""
        rows = []
        for outcome in dsp_counter.mutation.outcomes:
            rows.append([
                outcome.kind, outcome.register, outcome.hf_tick,
                outcome.meas_val if outcome.meas_val is not None else 0,
                "yes" if outcome.error_risen else "no",
            ])
            if outcome.kind == "delta":
                assert outcome.meas_val == outcome.hf_tick
        table = format_table(
            ["Mutant", "Monitored register", "HF tick", "MEAS_VAL",
             "Error risen"],
            rows,
            title=(
                "Fig. 10.b: mutant activity vs Counter sensor activity "
                "(LUT threshold = 8 HF periods)"
            ),
        )
        emit_report("fig10_mutants.txt", table)

    once(_body)


def test_fig9_injection_splits_assignments(dsp_razor, once):
    def _body():
        """The ADAM transformation of Fig. 9.g-h is present in the
        generated source: tmp-assignments plus an _apply_mutant hook."""
        source = dsp_razor.injected.source
        assert "_apply_mutant" in source
        assert "# postponed" in source
        assert "first delta cycle" in source
        assert "just before the falling edge" in source

    once(_body)


def test_campaign_speed(benchmark, dsp_razor):
    """Benchmark: one full mutant evaluation (golden + injected)."""
    stimuli = case_study("dsp").stimulus(48)

    def one_mutant():
        return run_campaign(
            dsp_razor.golden_factory(),
            dsp_razor.injected,
            stimuli,
            sensor_type="razor",
        )

    report = benchmark.pedantic(one_mutant, rounds=1, iterations=1)
    assert report.killed_pct == 100.0
