"""End-to-end orchestration of the verification methodology (Fig. 3).

One :func:`run_flow` call executes the four steps for one IP and one
sensor type:

1. characterise: synthesis, STA, threshold binning (Section 4.2);
2. insert sensors at the critical endpoints (Section 4);
3. abstract the augmented IP to TLM -- standard (sctypes) and
   optimised (hdtlib) variants (Section 5) -- and emit the VHDL of
   the original and augmented RTL for the lines-of-code metrics;
4. inject delay mutants (ADAM, Section 6) and run the mutation
   analysis, optionally cross-validating at RTL (Sections 7-8) -- as a
   one-cell :func:`~repro.mutation.run_benchmark_suite`, so the TLM
   campaign and its RTL re-run share one worker pool.

The result object carries every artefact the benchmark harness needs
to regenerate the paper's Tables 1-5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abstraction import GeneratedTlm, generate_tlm
from repro.ips import IpSpec
from repro.mutation import (
    MutationReport,
    RtlValidationReport,
    inject_mutants,
    run_benchmark_suite,
)
from repro.obs import trace_span
from repro.rtl import count_loc, emit_vhdl
from repro.sensors import AugmentedIP, insert_sensors
from repro.sta import CriticalPathReport, StaReport, analyze, bin_critical_paths
from repro.synth import SynthesisResult, synthesize

__all__ = [
    "AugmentationArtifacts",
    "FlowResult",
    "build_augmented",
    "characterize",
    "run_flow",
]


@dataclass
class FlowResult:
    """Artefacts of one IP x sensor-type flow run."""

    spec: IpSpec
    sensor_type: str
    synth: SynthesisResult
    sta: StaReport
    critical: CriticalPathReport
    augmented: AugmentedIP
    original_rtl_loc: int
    augmented_rtl_loc: int
    tlm_standard: GeneratedTlm        # sctypes data types (Table 3)
    tlm_optimized: GeneratedTlm       # hdtlib data types (Table 4)
    injected: GeneratedTlm            # mutant-injected (Table 5)
    mutation: "MutationReport | None" = None
    rtl_validation: "RtlValidationReport | None" = None
    #: Pre-campaign IR lint of the augmented design, per-IP waivers
    #: already applied.
    lint_report: "object | None" = None

    @property
    def sensors_inserted(self) -> int:
        return self.augmented.sensor_count


def characterize(spec: IpSpec):
    """Step 0: synthesis + STA + binning on a fresh IP instance."""
    module, clk = spec.factory()
    synth = synthesize(module)
    sta = analyze(synth, clock_period_ps=spec.clock_period_ps)
    critical = bin_critical_paths(sta, spec.slack_threshold_ps)
    return module, clk, synth, sta, critical


@dataclass(frozen=True)
class AugmentationArtifacts:
    """Everything steps 0-1 of the flow produce for one IP x sensor
    type: characterisation reports, the augmented design and the
    VHDL line counts bracketing the insertion."""

    synth: SynthesisResult
    sta: StaReport
    critical: CriticalPathReport
    augmented: AugmentedIP
    original_rtl_loc: int
    augmented_rtl_loc: int


def build_augmented(spec: IpSpec, sensor_type: str) -> AugmentationArtifacts:
    """Steps 0-1 of the flow: characterise a fresh IP instance and
    insert sensors at the critical endpoints.

    Deterministic by construction: synthesis, STA, binning and the
    Counter CPS-bit calibration all derive from the spec alone.
    :func:`run_flow`, ``repro lint --sensor`` and ``repro emit
    --sensor`` build on it.
    """
    module, clk, synth, sta, critical = characterize(spec)
    original_rtl_loc = count_loc(emit_vhdl(module))
    calibration = None
    if sensor_type == "counter":
        # The IP's own testbench selects each endpoint's critical bit.
        calibration = spec.stimulus(min(spec.mutation_cycles, 128))
    augmented = insert_sensors(
        module,
        clk,
        critical,
        sensor_type=sensor_type,
        calibration_stimuli=calibration,
    )
    return AugmentationArtifacts(
        synth=synth,
        sta=sta,
        critical=critical,
        augmented=augmented,
        original_rtl_loc=original_rtl_loc,
        augmented_rtl_loc=count_loc(emit_vhdl(module)),
    )


def run_flow(
    spec: IpSpec,
    sensor_type: str,
    *,
    mutation_cycles: "int | None" = None,
    run_mutation: bool = True,
    run_rtl_validation: bool = False,
    workers: int = 1,
    shard_size: "int | None" = None,
    cache=None,
) -> FlowResult:
    """Execute the full methodology for one IP and sensor type.

    Args:
        spec: the case study (see :data:`repro.ips.CASE_STUDIES`).
        sensor_type: ``"razor"`` or ``"counter"``.
        mutation_cycles: testbench length of the TLM campaign and of
            the RTL cross-validation, which replays the campaign's
            stimuli (default: the IP's ``mutation_cycles``); at
            least 1.
        run_mutation / run_rtl_validation: enable step 4's TLM
            campaign and its RTL cross-validation.  The validation is
            compared against the campaign, so it needs
            ``run_mutation``.
        workers / shard_size: the width of the one worker pool step 4
            runs on, and the shard split of both levels.
        cache: a :class:`repro.mutation.ResultCache`; campaign and
            RTL-validation verdicts are replayed from it when their
            content-addressed keys match, and written back otherwise.

    Step 4 is a one-cell :func:`~repro.mutation.run_benchmark_suite`
    over this flow: the campaign's shards and then the validation's
    go to one ephemeral pool as soon as each is prepared.

    Before any campaign, the IR linter (:mod:`repro.lint`) checks the
    augmented design with the IP's waivers
    (:func:`repro.lint.waivers_for_ip`) applied; any remaining
    *error*-severity finding raises :class:`repro.lint.LintGateError`
    instead of simulating a broken netlist.  The report lands in
    :attr:`FlowResult.lint_report`.

    Returns:
        A :class:`FlowResult` carrying every artefact of the four
        steps.  Both step-4 reports equal a standalone
        :func:`~repro.mutation.run_campaign` and
        :func:`~repro.mutation.validate_at_rtl` on the same stimuli,
        for any worker count and cache state.
    """
    if mutation_cycles is not None and mutation_cycles < 1:
        raise ValueError("mutation_cycles must be >= 1")
    if run_rtl_validation and not run_mutation:
        raise ValueError(
            "run_rtl_validation compares against the TLM campaign: "
            "it needs run_mutation=True"
        )
    with trace_span("flow.run", ip=spec.name, sensor=sensor_type):
        # -- step 0/1: characterise and insert sensors --------------------
        with trace_span("flow.augment", ip=spec.name, sensor=sensor_type):
            artifacts = build_augmented(spec, sensor_type)
        synth, sta = artifacts.synth, artifacts.sta
        critical = artifacts.critical
        augmented = artifacts.augmented
        module = augmented.module
        original_rtl_loc = artifacts.original_rtl_loc
        augmented_rtl_loc = artifacts.augmented_rtl_loc

        # -- step 2: RTL-to-TLM abstraction, both data-type variants --------
        with trace_span("flow.tlm", ip=spec.name):
            tlm_standard = generate_tlm(
                module, variant="sctypes", augmented=augmented
            )
            tlm_optimized = generate_tlm(
                module, variant="hdtlib", augmented=augmented
            )

        # -- step 3: mutant injection (ADAM) ------------------------------
        with trace_span("flow.inject", ip=spec.name):
            injected = inject_mutants(augmented, variant="hdtlib")

        # -- static analysis gate (repro.lint) ----------------------------
        from repro.lint import (
            LintGateError,
            apply_waivers,
            lint_module,
            waivers_for_ip,
        )

        lint_report = apply_waivers(
            lint_module(module), waivers_for_ip(spec.name)
        )
        if not lint_report.ok:
            raise LintGateError(lint_report)

        result = FlowResult(
            spec=spec,
            sensor_type=sensor_type,
            synth=synth,
            sta=sta,
            critical=critical,
            augmented=augmented,
            original_rtl_loc=original_rtl_loc,
            augmented_rtl_loc=augmented_rtl_loc,
            tlm_standard=tlm_standard,
            tlm_optimized=tlm_optimized,
            injected=injected,
            lint_report=lint_report,
        )

        # -- step 4: mutation analysis, RTL re-run on the same pool -------
        if run_mutation:
            key = (spec.name, sensor_type)
            with trace_span("flow.mutation", ip=spec.name,
                            sensor=sensor_type):
                suite = run_benchmark_suite(
                    [spec], [sensor_type], flows={key: result},
                    workers=workers, shard_size=shard_size,
                    mutation_cycles=mutation_cycles, cache=cache,
                    rtl_validation=run_rtl_validation,
                )
            result.mutation = suite.reports[key]
            result.rtl_validation = suite.rtl_reports.get(key)
        return result
