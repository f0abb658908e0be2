"""Static mutant analysis: equivalent / duplicate detection before any
simulation.

The ``MUTANTS`` table of an injected TLM model
(:class:`repro.abstraction.GeneratedTlm`) is analysed purely
structurally, and :func:`repro.mutation.campaign.prepare_campaign`
acts on the result for every campaign:

**Equivalent mutants** (``equivalent_static``) are entries whose
activation provably cannot change the observable stream, so their
verdict is *synthesised* by feeding the golden trace to the campaign's
own :class:`~repro.mutation.analysis.CounterMutantJudge`.  One
criterion applies -- ``hf-first-tick``: dual-scheduler (Counter)
mutants with ``hf_tick == 1``, whose postponed endpoint commit is
applied immediately after the main delta cycle, *before* the first HF
sample, which is exactly where the golden commit is first observable.
The two schedules are indistinguishable as long as every write to the
endpoint settles in that delta cycle; the generated model lists the
endpoints where one may not (``LATE_ENDPOINTS``: a synchronous writer,
or a combinational writer that falling-edge or window-close commits
can re-run), and their tick-1 mutants execute.

Mutants that merely never *apply* (wrong kind for the scheduler) are
**not** equivalent: activation alone diverts every write of the target
to the postponement slot, so such mutants behave as stuck-at-init
faults.

**Duplicate mutants** share a behavioural fingerprint: the single
(Razor) scheduler consults only ``(kind, target)`` and its judge adds
nothing spec-dependent; the dual (Counter) scheduler consults
``(target, hf_tick)`` and its judge adds ``register`` (measurement
lane + LUT threshold).  Entries with equal fingerprints produce
field-identical verdicts, so one representative executes and the rest
clone its outcome (sharing its content-addressed
:class:`~repro.mutation.cache.ResultCache` entry via write-back).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "PrunePlan",
    "plan_pruning",
    "judge_equivalent",
    "clone_outcome",
]


@dataclass(frozen=True)
class PrunePlan:
    """Static classification of one ``MUTANTS`` table."""

    total: int
    #: mutant index -> reason (``"hf-first-tick"``).
    equivalent: "dict[int, str]" = field(default_factory=dict)
    #: duplicate index -> representative (lowest) index with the same
    #: behavioural fingerprint.
    duplicate_of: "dict[int, int]" = field(default_factory=dict)

    @property
    def equivalent_count(self) -> int:
        return len(self.equivalent)

    @property
    def duplicate_count(self) -> int:
        return len(self.duplicate_of)

    @property
    def prunable(self) -> int:
        return self.equivalent_count + self.duplicate_count

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "equivalent": {
                str(i): r for i, r in sorted(self.equivalent.items())
            },
            "duplicate_of": {
                str(i): rep for i, rep in sorted(self.duplicate_of.items())
            },
            "prunable": self.prunable,
        }


def _fingerprint(spec, scheduler_kind: str):
    if scheduler_kind == "dual":
        # The dual scheduler ignores ``kind``; the judge reads the
        # register's lane and threshold.
        return (spec.target, spec.hf_tick, spec.register)
    # The single scheduler ignores ``hf_tick``; the Razor judge reads
    # no further spec field.
    return (spec.kind, spec.target)


def plan_pruning(injected, sensor_type: str) -> PrunePlan:
    """Classify every ``MUTANTS`` entry of an injected model."""
    specs = injected.mutants
    scheduler_kind = injected.scheduler_kind
    equivalent: "dict[int, str]" = {}

    if sensor_type == "counter" and scheduler_kind == "dual":
        late = injected.compiled_class().LATE_ENDPOINTS
        for i, spec in enumerate(specs):
            if spec.hf_tick == 1 and spec.target not in late:
                equivalent[i] = "hf-first-tick"

    duplicate_of: "dict[int, int]" = {}
    if (sensor_type, scheduler_kind) in (
        ("razor", "single"), ("counter", "dual")
    ):
        first: "dict[tuple, int]" = {}
        for i, spec in enumerate(specs):
            if i in equivalent:
                continue
            fp = _fingerprint(spec, scheduler_kind)
            rep = first.setdefault(fp, i)
            if rep != i:
                duplicate_of[i] = rep

    return PrunePlan(
        total=len(specs),
        equivalent=equivalent,
        duplicate_of=duplicate_of,
    )


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


def clone_outcome(source, index: int, spec):
    """Clone a representative's verdict onto a duplicate mutant: spec
    fields come from the duplicate's own table entry, verdict fields
    from the executed (or cached) representative."""
    from repro.mutation.analysis import MutantOutcome

    return MutantOutcome(
        index=index,
        kind=spec.kind,
        target=spec.target,
        register=spec.register,
        hf_tick=spec.hf_tick,
        killed=source.killed,
        detected=source.detected,
        error_risen=source.error_risen,
        corrected=source.corrected,
        meas_val=source.meas_val,
        first_divergence=source.first_divergence,
        timed_out=source.timed_out,
    )
