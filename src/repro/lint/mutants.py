"""Static mutant analysis: equivalent detection before any simulation.

The ``MUTANTS`` table of an injected TLM model
(:class:`repro.abstraction.GeneratedTlm`) is analysed purely
structurally, and :func:`repro.mutation.campaign.prepare_campaign`
acts on the result for every campaign:

**Equivalent mutants** are entries whose activation provably cannot
change the observable stream, so their verdict is *synthesised* by
feeding the golden trace to the campaign's own
:class:`~repro.mutation.analysis.CounterMutantJudge`.  One criterion
applies -- ``hf-first-tick``: dual-scheduler (Counter) mutants with
``hf_tick == 1``, whose postponed endpoint commit is applied
immediately after the main delta cycle, *before* the first HF sample,
which is exactly where the golden commit is first observable.  The two
schedules are indistinguishable as long as every write to the endpoint
settles in that delta cycle; the generated model lists the endpoints
where one may not (``LATE_ENDPOINTS``: a synchronous writer, or a
combinational writer that falling-edge or window-close commits can
re-run), and their tick-1 mutants execute.

Mutants that merely never *apply* (wrong kind for the scheduler) are
**not** equivalent: activation alone diverts every write of the target
to the postponement slot, so such mutants behave as stuck-at-init
faults.  Every other mutant executes in the campaign's batched sweep,
including mutants whose specs the scheduler and judge cannot tell
apart.
"""

from __future__ import annotations

__all__ = [
    "plan_pruning",
    "judge_equivalent",
]


def plan_pruning(injected, sensor_type: str) -> "dict[int, str]":
    """The statically equivalent entries of an injected model's
    ``MUTANTS`` table: mutant index -> reason (``"hf-first-tick"``)."""
    if sensor_type != "counter" or injected.scheduler_kind != "dual":
        return {}
    late = injected.compiled_class().LATE_ENDPOINTS
    return {
        i: "hf-first-tick"
        for i, spec in enumerate(injected.mutants)
        if spec.hf_tick == 1 and spec.target not in late
    }


def judge_equivalent(
    index: int,
    spec,
    golden,
    *,
    tap_order,
    thresholds: "dict[str, int] | None" = None,
):
    """Synthesise the verdict of a statically-equivalent Counter mutant
    by feeding the golden trace to a
    :class:`~repro.mutation.analysis.CounterMutantJudge` as the mutant
    stream -- the stream such a mutant produces.  The functional
    compare never fires on the golden stream, so only the measurement
    lane decides the verdict."""
    from repro.mutation.analysis import CounterMutantJudge

    judge = CounterMutantJudge(
        index, spec, golden,
        lo=8 * list(tap_order).index(spec.register),
        threshold=(thresholds or {}).get(spec.register, 8),
    )
    for outs, functional in zip(golden.full, golden.functional):
        judge.observe(outs, functional=functional)
    return judge.finish()
