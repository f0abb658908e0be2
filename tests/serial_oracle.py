"""The serial, unpruned campaign oracle shared by the equivalence tests.

Every TLM campaign prunes statically equivalent and duplicate mutants
and runs each shard as one batched sweep.  The reference those paths
must reproduce is the plain loop they replaced: one fresh model
instance per mutant, driven through the per-mutant runners below
(:func:`_run_razor_mutant` / :func:`_run_counter_mutant`) against one
golden trace from :func:`~repro.mutation.analysis.compute_golden_trace`.
Import it as ``from serial_oracle import ...`` (pytest puts ``tests/``
on the path).
"""

from repro.abstraction import GeneratedTlm
from repro.mutation import MutationReport, compute_golden_trace
from repro.mutation.analysis import CounterMutantJudge, RazorMutantJudge


def drive_razor_full(mutant, stimuli, recovery_bit, judge) -> bool:
    """The stall handshake driven until every stimulus is consumed or
    the budget runs out, however early the judge settles: the
    reference for :func:`~repro.mutation.analysis._drive_razor`, which
    stops at the settled judge.  When the model asserts
    ``razor_stall``, the stalled vector is re-presented.  Returns
    whether the stall budget timed out."""
    budget = 3 * len(stimuli) + 8
    position = 0
    prev_inputs = None
    stalled_next = False
    while (position < len(stimuli) or stalled_next) and budget:
        budget -= 1
        if stalled_next:
            inputs = prev_inputs
        else:
            inputs = stimuli[position]
            position += 1
        outs = mutant.b_transport({**inputs, "razor_r": recovery_bit})
        judge.observe(outs)
        stalled_next = bool(outs.get("razor_stall", 0))
        prev_inputs = inputs
    return (position < len(stimuli) or stalled_next) and not budget


def _run_razor_mutant(index, spec, mutant, stimuli, recovery, golden):
    """Evaluate one Razor mutant against the memoised golden trace."""
    judge = RazorMutantJudge(index, spec, golden, recovery)
    timed_out = drive_razor_full(
        mutant, list(stimuli), 1 if recovery else 0, judge
    )
    return judge.finish(timed_out)


def _run_counter_mutant(index, spec, mutant, stimuli, tap_order, golden):
    """Evaluate one Counter mutant against the memoised golden trace."""
    judge = CounterMutantJudge(
        index,
        spec,
        golden,
        lo=8 * tap_order.index(spec.register),
        threshold=_lut_threshold(mutant, spec.register),
    )
    for inputs in stimuli:
        judge.observe(mutant.b_transport(dict(inputs)))
    return judge.finish()


def _lut_threshold(model, register: str) -> int:
    """Per-path LUT threshold as baked into the generated model; the
    paper's default global threshold is 8 HF periods."""
    return getattr(model, "LUT_THRESHOLDS", {}).get(register, 8)


def _tap_order(injected):
    order = getattr(injected.compiled_class(), "COUNTER_TAP_ORDER", ())
    if order:
        return list(order)
    return list(dict.fromkeys(spec.register for spec in injected.mutants))


def serial_report(golden: GeneratedTlm, injected: GeneratedTlm,
                  stimuli, *, ip_name="ip",
                  sensor_type="razor", recovery=True) -> MutationReport:
    """The oracle report: every mutant simulated on its own fresh
    instance, none pruned, none batched."""
    trace = compute_golden_trace(golden.instantiate(), stimuli,
                                 sensor_type=sensor_type,
                                 recovery=recovery)
    tap_order = _tap_order(injected) if sensor_type == "counter" else []
    outcomes = []
    for index, spec in enumerate(injected.mutants):
        mutant = injected.instantiate()
        mutant.activate_mutant(index)
        if sensor_type == "razor":
            outcomes.append(_run_razor_mutant(
                index, spec, mutant, stimuli, recovery, trace
            ))
        else:
            outcomes.append(_run_counter_mutant(
                index, spec, mutant, stimuli, tap_order, trace
            ))
    return MutationReport(
        ip_name=ip_name,
        sensor_type=sensor_type,
        variant=injected.variant,
        outcomes=outcomes,
        cycles_per_run=len(stimuli),
    )


def assert_matches_oracle(report, oracle) -> None:
    """Field identity with the oracle: the scored report plus every
    verdict field of every mutant (``first_divergence`` and
    ``timed_out`` included)."""
    assert report == oracle
    assert report.outcomes == oracle.outcomes
    assert report.cycles_per_run == oracle.cycles_per_run
