"""Tests for ADAM injection, TLM mutation analysis and RTL validation.

These exercise the paper's headline claims end to end on a small IP:
all mutants killed; Razor raises and corrects 100% of the injected
errors; Counter measures delta mutants exactly and raises errors only
above the LUT threshold; RTL validation agrees with TLM.
"""

import random

import pytest

from repro.abstraction import generate_tlm
from repro.mutation import (
    delta_tick_plan,
    inject_mutants,
    run_campaign,
    validate_at_rtl,
)
from repro.rtl import Assign, If, Module, const
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

PERIOD = 1000


def build_ip():
    """Small datapath with two registers and observable outputs."""
    m = Module("mut_ip")
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


def golden_factory_for(sensor_type, variant="hdtlib"):
    aug = augment(sensor_type)
    gen = generate_tlm(aug.module, variant=variant, augmented=aug)
    return lambda: gen.instantiate()


def stimulus(n=30, seed=2):
    rng = random.Random(seed)
    return [
        {"din": rng.randrange(1, 256), "en": 1}
        for _ in range(n)
    ]


class TestAdam:
    def test_razor_mutant_count_is_two_per_sensor(self):
        aug = augment("razor")
        gen = inject_mutants(aug)
        assert len(gen.mutants) == 2 * aug.sensor_count
        kinds = {m.kind for m in gen.mutants}
        assert kinds == {"min", "max"}

    def test_counter_mutant_count_is_three_per_sensor(self):
        aug = augment("counter")
        gen = inject_mutants(aug)
        assert len(gen.mutants) == 3 * aug.sensor_count
        kinds = [m.kind for m in gen.mutants]
        assert kinds.count("delta") == aug.sensor_count

    def test_delta_ticks_above_nominal(self):
        aug = augment("counter")
        plan = delta_tick_plan(aug)
        hf = aug.hf_period_ps()
        for path in aug.monitored:
            endpoint = aug.endpoint_of[path.endpoint]
            nominal_hf = -(-aug.nominal_delay_of[endpoint] // hf)
            assert plan[path.endpoint.name] > nominal_hf

    def test_injected_model_with_no_active_mutant_is_clean(self):
        """Switched-off mutants leave behaviour identical to the
        non-injected abstraction."""
        aug = augment("razor")
        injected = inject_mutants(aug).instantiate()
        golden = golden_factory_for("razor")()
        for inputs in stimulus(25):
            a = golden.b_transport({**inputs, "razor_r": 0})
            b = injected.b_transport({**inputs, "razor_r": 0})
            assert a == b

    def test_injection_requires_augmented_ip(self):
        m, clk = build_ip()
        with pytest.raises(ValueError):
            generate_tlm(m, inject_mutants=True)


class TestRazorCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        aug = augment("razor")
        injected = inject_mutants(aug)
        return run_campaign(
            golden_factory_for("razor"),
            injected,
            stimulus(30),
            ip_name="mut_ip",
            sensor_type="razor",
            recovery=True,
        )

    def test_all_mutants_killed(self, report):
        assert report.killed_pct == 100.0, report.survivors()

    def test_all_errors_risen(self, report):
        assert report.risen_pct == 100.0

    def test_all_corrected(self, report):
        assert report.corrected_pct == 100.0

    def test_mutation_score(self, report):
        assert report.mutation_score == 100.0

    def test_outcome_metadata(self, report):
        assert report.total == 4  # 2 sensors x 2 mutant classes
        assert {o.kind for o in report.outcomes} == {"min", "max"}

    def test_detection_only_mode_kills_without_correcting(self):
        aug = augment("razor")
        injected = inject_mutants(aug)
        report = run_campaign(
            golden_factory_for("razor"),
            injected,
            stimulus(30),
            sensor_type="razor",
            recovery=False,
        )
        assert report.killed_pct == 100.0
        assert report.risen_pct == 100.0
        assert report.corrected_pct is None


class TestCounterCampaign:
    @pytest.fixture(scope="class")
    def results(self):
        aug = augment("counter")
        injected = inject_mutants(aug)
        report = run_campaign(
            golden_factory_for("counter"),
            injected,
            stimulus(30),
            ip_name="mut_ip",
            sensor_type="counter",
        )
        return aug, injected, report

    def test_all_mutants_killed(self, results):
        aug, injected, report = results
        assert report.killed_pct == 100.0, report.survivors()

    def test_delta_mutants_measured_exactly(self, results):
        aug, injected, report = results
        for outcome in report.outcomes:
            if outcome.kind == "delta":
                assert outcome.meas_val == outcome.hf_tick

    def test_risen_only_above_threshold(self, results):
        aug, injected, report = results
        for outcome in report.outcomes:
            expected = outcome.hf_tick > 8
            assert outcome.error_risen == expected, outcome

    def test_risen_pct_below_100(self, results):
        """Sub-threshold delays are tolerable by design (Table 5)."""
        aug, injected, report = results
        assert 0.0 < report.risen_pct < 100.0

    def test_no_correction_for_counter(self, results):
        aug, injected, report = results
        assert report.corrected_pct is None


class TestRtlValidation:
    def test_razor_rtl_matches_tlm_risen(self):
        """Every razor mutant reproduced at RTL raises its error."""
        aug = augment("razor")
        injected = inject_mutants(aug)
        stim = stimulus(30)
        din = next(p for p in aug.module.inputs() if p.name == "din")
        en = next(p for p in aug.module.inputs() if p.name == "en")
        rec = aug.bank.recovery

        def drive(sim, i):
            vec = stim[i % len(stim)]
            sim.cycle({din: vec["din"], en: vec["en"], rec: 0})

        report = validate_at_rtl(aug, injected.mutants, drive, cycles=15)
        assert report.risen_pct == 100.0

    def test_counter_rtl_measures_same_ticks(self):
        """RTL delayed assignments land in the same HF period as the
        TLM delta mutants: identical MEAS_VAL, identical risen."""
        aug = augment("counter")
        injected = inject_mutants(aug)
        stim = stimulus(30)
        din = next(p for p in aug.module.inputs() if p.name == "din")
        en = next(p for p in aug.module.inputs() if p.name == "en")

        def drive(sim, i):
            vec = stim[i % len(stim)]
            sim.cycle({din: vec["din"], en: vec["en"]})

        report = validate_at_rtl(aug, injected.mutants, drive, cycles=15)
        by_spec = {
            (o.spec.kind, o.spec.register): o for o in report.outcomes
        }
        for spec in injected.mutants:
            outcome = by_spec[(spec.kind, spec.register)]
            assert outcome.meas_val == spec.hf_tick, spec
            assert outcome.error_risen == (spec.hf_tick > 8), spec
