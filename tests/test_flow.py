"""End-to-end flow tests on the real case studies.

The filter IP (the smallest) goes through the complete methodology
with both sensor types; the DSP and Plasma get structural smoke tests
(their full campaigns run in the benchmarks).
"""

import pytest

from repro.cli import main as cli_main
from repro.flow import run_flow, speedup, time_rtl, time_tlm
from repro.ips import case_study
from repro.mutation import (
    CampaignScheduler,
    run_benchmark_suite,
    run_campaign,
    validate_at_rtl,
)
from repro.reporting import format_kv, format_table
from repro.stimuli import Lfsr, lfsr_vectors


@pytest.fixture(scope="module")
def filter_razor():
    return run_flow(case_study("filter"), "razor")


@pytest.fixture(scope="module")
def filter_counter():
    return run_flow(case_study("filter"), "counter")


class TestFlowArtifacts:
    def test_critical_paths_found(self, filter_razor):
        assert filter_razor.sensors_inserted > 0
        assert filter_razor.critical.count == filter_razor.sensors_inserted

    def test_augmentation_grows_rtl(self, filter_razor):
        assert filter_razor.augmented_rtl_loc > filter_razor.original_rtl_loc

    def test_counter_version_larger_than_razor(
        self, filter_razor, filter_counter
    ):
        """Counter sensors need more RTL than Razor FFs (Table 2)."""
        assert (
            filter_counter.augmented_rtl_loc > filter_razor.augmented_rtl_loc
        )

    def test_tlm_variants_generated(self, filter_razor):
        assert filter_razor.tlm_standard.variant == "sctypes"
        assert filter_razor.tlm_optimized.variant == "hdtlib"
        assert filter_razor.tlm_standard.loc > 0
        assert filter_razor.injected.loc > filter_razor.tlm_optimized.loc

    def test_mutant_counts_match_table5_ratio(
        self, filter_razor, filter_counter
    ):
        n = filter_razor.sensors_inserted
        assert len(filter_razor.injected.mutants) == 2 * n
        m = filter_counter.sensors_inserted
        assert len(filter_counter.injected.mutants) == 3 * m


class TestFlowMutationOutcomes:
    def test_razor_kills_all(self, filter_razor):
        report = filter_razor.mutation
        assert report.killed_pct == 100.0, report.survivors()

    def test_razor_raises_all(self, filter_razor):
        assert filter_razor.mutation.risen_pct == 100.0

    def test_razor_corrects_all(self, filter_razor):
        assert filter_razor.mutation.corrected_pct == 100.0

    def test_counter_kills_all(self, filter_counter):
        report = filter_counter.mutation
        assert report.killed_pct == 100.0, report.survivors()

    def test_counter_risen_below_100(self, filter_counter):
        assert 0.0 < filter_counter.mutation.risen_pct < 100.0

    def test_counter_delta_measured(self, filter_counter):
        deltas = [
            o for o in filter_counter.mutation.outcomes if o.kind == "delta"
        ]
        assert deltas
        for outcome in deltas:
            assert outcome.meas_val == outcome.hf_tick


class TestFlowTiming:
    def test_tlm_faster_than_rtl(self, filter_razor):
        """The headline Table 3/4 shape on a small workload."""
        stimuli = filter_razor.spec.stimulus(120)
        rtl = time_rtl(filter_razor.augmented, stimuli)
        tlm_sc = time_tlm(filter_razor.tlm_standard, stimuli)
        tlm_hd = time_tlm(filter_razor.tlm_optimized, stimuli)
        assert speedup(rtl, tlm_sc) > 1.0
        assert speedup(rtl, tlm_hd) > speedup(rtl, tlm_sc)

    def test_injected_slower_than_plain_tlm(self, filter_razor):
        stimuli = filter_razor.spec.stimulus(120)
        plain = time_tlm(filter_razor.tlm_optimized, stimuli)
        injected = time_tlm(
            filter_razor.injected, stimuli, mutant_index=0
        )
        # Injection adds management overhead (Table 5 shows ~+43%);
        # at minimum it must not be faster by more than noise.
        assert injected.seconds > plain.seconds * 0.7


class TestRtlValidationInFlow:
    def test_filter_razor_validates_at_rtl(self):
        result = run_flow(
            case_study("filter"),
            "razor",
            run_rtl_validation=True,
        )
        assert result.rtl_validation is not None
        assert result.rtl_validation.risen_pct == 100.0

    def test_validation_needs_the_campaign(self):
        with pytest.raises(ValueError, match="run_mutation"):
            run_flow(case_study("filter"), "razor", run_mutation=False,
                     run_rtl_validation=True)

    def test_one_pool_serves_both_levels(self, monkeypatch):
        """Step 4 runs the campaign and its RTL re-run on one scheduler,
        and each report equals its standalone entry point's."""
        spec = case_study("dsp")
        widths = []
        init = CampaignScheduler.__init__

        def counting_init(self, workers=1, **kwargs):
            widths.append(workers)
            init(self, workers, **kwargs)

        monkeypatch.setattr(CampaignScheduler, "__init__", counting_init)
        flow = run_flow(spec, "razor", workers=2, mutation_cycles=24,
                        run_rtl_validation=True)
        assert widths == [2]
        monkeypatch.undo()

        stimuli = spec.stimulus(24)
        assert flow.mutation == run_campaign(
            flow.tlm_optimized, flow.injected, stimuli, ip_name="dsp",
            sensor_type="razor", workers=2,
        )
        assert flow.rtl_validation == validate_at_rtl(
            flow.augmented, flow.injected.mutants, stimuli=stimuli,
            ip_name="dsp", workers=2,
        )


@pytest.mark.parametrize("cycles", [0, -1])
def test_testbench_length_must_be_positive(cycles):
    """A non-positive testbench length is an error for every entry
    point, not "the IP's default" for one and an empty campaign for
    another."""
    with pytest.raises(ValueError, match="mutation_cycles"):
        run_flow(case_study("dsp"), "razor", mutation_cycles=cycles)
    with pytest.raises(ValueError, match="mutation_cycles"):
        run_benchmark_suite(["dsp"], ("razor",), workers=1,
                            mutation_cycles=cycles)
    for argv in (["mutate", "dsp", "razor", "--cycles", str(cycles)],
                 ["bench", "--cycles", str(cycles)],
                 ["timing", "dsp", "razor", str(cycles)]):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2


class TestStimuli:
    PORTS = {"a": 8, "b": 3}

    def test_lfsr_deterministic_nonzero(self):
        a = lfsr_vectors(self.PORTS, 20)
        b = lfsr_vectors(self.PORTS, 20)
        assert a == b
        assert any(v["a"] for v in a)

    def test_lfsr_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(0)


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(
            ["IP", "value"],
            [["plasma", 1.5], ["dsp", 22.0]],
            title="Table X",
        )
        assert "Table X" in text
        assert "plasma" in text
        lines = text.splitlines()
        assert len(set(len(l) for l in lines[1:])) <= 2

    def test_format_kv(self):
        text = format_kv([("cycles", 100), ("speedup", 3.14159)])
        assert "cycles" in text and "3.14" in text

    def test_nan_renders_na(self):
        text = format_table(["x"], [[float("nan")]])
        assert "n.a." in text
