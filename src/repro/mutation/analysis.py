"""Mutation analysis of augmented TLM models (paper Section 7).

The injected TLM model is simulated in lockstep with a non-injected
TLM model under the same stimuli, once per mutant:

* a mutant is **killed** when the two models become observably
  different -- functional outputs diverging, or (for within-cycle
  delays that cannot corrupt function, i.e. Counter mutants) the
  sensor measurement reporting the injected delay;
* for Razor versions the per-sensor ``E`` flag verifies **detection /
  error risen**, and with recovery enabled the corrected output stream
  must equal the golden stream (stall cycles discounted) --
  **corrected**;
* for Counter versions ``MEAS_VAL`` must equal the mutant's HF tick
  (detection), and ``OUT_OK`` flags **errors risen** only above the
  LUT threshold -- delays below it are tolerable by design, which is
  why the Counter "risen" percentage sits below 100% in Table 5.

The stimulus driver implements the stall handshake: when the injected
model asserts ``razor_stall``, the input vector whose consuming edge
was stalled is re-presented (a valid/stall interface, which real
recovery-capable pipelines require anyway).

The golden stream depends only on the stimuli (and the recovery
setting), never on the active mutant, so it is computed **once per
campaign** as a :class:`GoldenTrace` and shared by every per-mutant
run.  Campaigns run through the sharded engine in
:mod:`repro.mutation.campaign`
(:func:`~repro.mutation.campaign.run_campaign`), which executes
through the streaming cross-IP scheduler in
:mod:`repro.mutation.scheduler`.

Score accounting
----------------
A run that exhausts its stall budget (``MutantOutcome.timed_out``) was
truncated by the driver, not judged: its tail is not kill evidence, and
treating it as a survivor silently deflates the campaign score.  All
aggregate percentages (``killed_pct`` / ``detected_pct`` / ``risen_pct``
/ ``mutation_score``) therefore exclude timed-out outcomes entirely and
divide by :attr:`MutationReport.effective_total` (the judged runs).
The exclusion is surfaced by :func:`repro.reporting.mutation_summary_pairs`
and the ``repro mutate`` / ``repro bench`` CLI summaries; the raw
per-outcome verdicts (including a divergence observed *before* a
timeout) remain available on :attr:`MutationReport.outcomes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CounterMutantJudge",
    "GoldenTrace",
    "MutantOutcome",
    "MutationReport",
    "RazorMutantJudge",
    "compute_golden_trace",
]

#: Sensor-infrastructure ports excluded from functional comparison.
SENSOR_PORTS = ("metric_ok", "razor_err", "razor_stall", "meas_val")


@dataclass(frozen=True)
class MutantOutcome:
    """Verdict for one mutant."""

    index: int
    kind: str            # "min" | "max" | "delta"
    target: str          # mutated signal
    register: str        # monitored register
    hf_tick: int
    killed: bool
    detected: bool
    error_risen: bool
    corrected: "bool | None"
    meas_val: "int | None"
    first_divergence: "int | None"
    #: True when the stall handshake exhausted its cycle budget before
    #: consuming every stimulus; the truncated tail is then *not*
    #: evidence of a kill (only divergence observed before the timeout
    #: is).
    timed_out: bool = False


@dataclass
class MutationReport:
    """Aggregate campaign result (one IP x one sensor type)."""

    ip_name: str
    sensor_type: str
    variant: str
    outcomes: "list[MutantOutcome]" = field(default_factory=list)
    cycles_per_run: int = 0
    #: Wall-clock campaign time -- runtime metadata, not a verdict, so
    #: it is excluded from report equality (two reports are equal iff
    #: every *scored* field matches).
    seconds: float = field(default=0.0, compare=False)
    #: Result-cache accounting for this campaign: ``None`` when no
    #: cache was in play, otherwise replayed / executed mutant counts.
    #: ``compare=False`` keeps cached and uncached reports equal on
    #: every scored field -- the cache must never change a verdict.
    cache_hits: "int | None" = field(default=None, compare=False)
    cache_misses: "int | None" = field(default=None, compare=False)
    #: Whether the golden trace was replayed from the result cache
    #: (``True``), simulated and stored (``False``), or the campaign
    #: ran cache-less / with an unfingerprintable golden (``None``).
    golden_cache_hit: "bool | None" = field(default=None, compare=False)
    #: Static-prune accounting (:mod:`repro.lint.mutants`) over the
    #: whole mutant table: the number of equivalent mutants whose
    #: verdicts are synthesised from the golden trace instead of
    #: simulated; ``None`` on a report that does not carry it (e.g.
    #: one decoded from the service wire).  ``compare=False`` for the
    #: same reason as the cache counters -- pruning must never change
    #: a verdict, so pruned reports compare equal to the serial,
    #: unpruned oracle.
    pruned_equivalent: "int | None" = field(default=None, compare=False)
    #: Mutants this run actually simulated: outcomes whose index sat
    #: in an executed shard (cache replays and pruned verdicts
    #: excluded).  The numerator of
    #: :attr:`mutants_per_second`.
    executed: int = field(default=0, compare=False)
    #: Aggregated observability data (:mod:`repro.obs`): per-campaign
    #: shard-capture counters (batched forks, early kills, re-joins,
    #: executed shard/mutant counts).  ``None`` unless at least one
    #: shard carried a capture.  ``compare=False`` like ``seconds`` --
    #: tracing on vs off must leave reports field-identical.
    obs: "dict | None" = field(default=None, compare=False, repr=False)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def judged(self) -> "list[MutantOutcome]":
        """Outcomes whose verdict counts toward the aggregate score:
        runs that completed within the stall budget.  A timed-out run
        was truncated by the driver, so it can neither be scored as a
        kill nor as a survivor (counting it in the denominator would
        silently under-report the score)."""
        return [o for o in self.outcomes if not o.timed_out]

    @property
    def effective_total(self) -> int:
        """Denominator of every aggregate percentage: mutants whose
        runs completed (``total`` minus ``timed_out_count``)."""
        return self.total - self.timed_out_count

    @property
    def killed_pct(self) -> float:
        judged = self.judged()
        return _pct(sum(o.killed for o in judged), len(judged))

    @property
    def detected_pct(self) -> float:
        judged = self.judged()
        return _pct(sum(o.detected for o in judged), len(judged))

    @property
    def risen_pct(self) -> float:
        judged = self.judged()
        return _pct(sum(o.error_risen for o in judged), len(judged))

    @property
    def corrected_pct(self) -> "float | None":
        judged = [o for o in self.outcomes if o.corrected is not None]
        if not judged:
            return None
        return _pct(sum(o.corrected for o in judged), len(judged))

    @property
    def timed_out_count(self) -> int:
        return sum(o.timed_out for o in self.outcomes)

    @property
    def mutants_per_second(self) -> float:
        """Campaign throughput: mutants actually *executed* per
        wall-clock second (:attr:`executed`).  Cache-replayed and
        statically-pruned verdicts are excluded (a fully-warm campaign
        reports 0.0 rather than a replay rate mislabelled as
        execution), matching
        :attr:`repro.mutation.scheduler.SuiteResult.mutants_per_second`."""
        if self.seconds <= 0:
            return 0.0
        return self.executed / self.seconds

    @property
    def mutation_score(self) -> float:
        """Killed over judged non-equivalent mutants (all delay mutants
        on exercised paths are non-equivalent by construction; timed-out
        runs are excluded -- see :meth:`judged`)."""
        return self.killed_pct

    def survivors(self) -> "list[MutantOutcome]":
        """Judged mutants that were not killed.  Timed-out runs are not
        survivors -- they were never fully driven."""
        return [o for o in self.judged() if not o.killed]


def _pct(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0


def _functional(outputs: dict, functional_ports: "tuple[str, ...]") -> dict:
    return {k: outputs[k] for k in functional_ports}


def _is_subsequence(needle: "list", hay: "list") -> bool:
    it = iter(hay)
    return all(any(x == y for y in it) for x in needle)


@dataclass(frozen=True)
class GoldenTrace:
    """The mutant-independent golden reference, computed once per
    campaign and shared (pickled to worker processes) by every
    per-mutant run.

    ``full`` holds all primary outputs per cycle (the kill check --
    sensor flags are primary outputs of the augmented IP), while
    ``functional`` holds only the non-sensor subset (the corrected
    check discounts stall repeats against this stream).
    """

    functional_ports: "tuple[str, ...]"
    full: "tuple[dict, ...]"
    functional: "tuple[dict, ...]"


def compute_golden_trace(
    golden,
    stimuli: "list[dict[str, int]]",
    *,
    sensor_type: str = "razor",
    recovery: bool = True,
) -> GoldenTrace:
    """Simulate the non-injected model once over ``stimuli``.

    The golden stream depends only on the stimuli (plus the recovery
    bit for Razor versions), never on the active mutant -- so one
    trace serves the whole campaign.
    """
    functional_ports = tuple(
        p for p in golden.PORTS_OUT if p not in SENSOR_PORTS
    )
    recovery_bit = 1 if recovery else 0
    full = []
    for inputs in stimuli:
        if sensor_type == "razor":
            outs = golden.b_transport({**inputs, "razor_r": recovery_bit})
        else:
            outs = golden.b_transport(dict(inputs))
        full.append(outs)
    return GoldenTrace(
        functional_ports=functional_ports,
        full=tuple(full),
        functional=tuple(_functional(o, functional_ports) for o in full),
    )


class RazorMutantJudge:
    """Resumable per-cycle verdict accumulator for one Razor mutant.

    The monolithic per-mutant loop is factored into observation
    (:meth:`observe`, one call per driven cycle) and finalisation
    (:meth:`finish`), so the batched sweep
    (:mod:`repro.mutation.batched`) can feed a mutant base-simulation
    outputs while it is attached and its own outputs after it forks --
    the judge cannot tell the difference, which is what makes batched
    and serial verdicts field-identical.

    :meth:`settled` reports when every verdict field is already fixed
    (killed with its ``first_divergence``, error seen, and -- under
    recovery -- the golden stream fully recovered), enabling the
    early-kill cut: generated razor banks stall at most every other
    cycle (one-cycle cooldown), so a settled run can never reach the
    stall-budget timeout that the skipped tail would otherwise have to
    rule out.
    """

    __slots__ = (
        "index", "spec", "golden", "recovery", "calls", "error_seen",
        "killed", "first_divergence", "_cmp_done", "_sub_pos",
    )

    def __init__(self, index, spec, golden, recovery):
        self.index = index
        self.spec = spec
        self.golden = golden
        self.recovery = recovery
        self.calls = 0
        self.error_seen = False
        self.killed = False
        self.first_divergence = None
        #: Lockstep compare stops at the first mismatch, matching the
        #: serial runner's scan (later cycles cannot move the verdict).
        self._cmp_done = False
        #: Greedy two-pointer progress of the corrected check: how much
        #: of ``golden.functional`` has been matched, in order, inside
        #: the observed stream (incremental :func:`_is_subsequence`).
        self._sub_pos = 0

    def observe(self, outs, functional=None) -> None:
        """Record one observed output vector (cycle ``self.calls``)."""
        golden = self.golden
        i = self.calls
        self.calls = i + 1
        if outs.get("razor_err", 0):
            self.error_seen = True
        if not self._cmp_done and i < len(golden.full):
            if outs != golden.full[i]:
                self.killed = True
                self.first_divergence = i
                self._cmp_done = True
        if self._sub_pos < len(golden.functional):
            if functional is None:
                functional = _functional(outs, golden.functional_ports)
            if functional == golden.functional[self._sub_pos]:
                self._sub_pos += 1

    def settled(self) -> bool:
        """True once no future observation can change any verdict
        field: the kill (and its ``first_divergence``) is recorded, the
        error flag has risen, and -- when recovery is judged -- the
        golden stream has already been recovered in full."""
        return (
            self.killed
            and self._cmp_done
            and self.error_seen
            and (
                not self.recovery
                or self._sub_pos >= len(self.golden.functional)
            )
        )

    def finish(self, timed_out: bool):
        """Close the run and produce the :class:`MutantOutcome`."""
        golden = self.golden
        killed = self.killed
        if not timed_out and self.calls != len(golden.full):
            # A completed run yields at least one output per stimulus;
            # a short stream is itself an observable divergence.  An
            # early-killed run is already killed, so the cut cannot
            # reach here with ``killed`` unset.
            killed = True
        corrected = None
        if self.recovery and not timed_out:
            # Corrected: the golden stream survives inside the
            # recovered stream (stall repeats aside) and the error was
            # flagged.  A timed-out run never drove every stimulus, so
            # it cannot be judged either way and stays out of
            # corrected_pct.
            corrected = (
                self.error_seen
                and self._sub_pos >= len(golden.functional)
            )
        return MutantOutcome(
            index=self.index,
            kind=self.spec.kind,
            target=self.spec.target,
            register=self.spec.register,
            hf_tick=self.spec.hf_tick,
            killed=killed,
            detected=self.error_seen,
            error_risen=self.error_seen,
            corrected=corrected,
            meas_val=None,
            first_divergence=self.first_divergence,
            timed_out=timed_out,
        )


class CounterMutantJudge:
    """Resumable per-cycle verdict accumulator for one Counter mutant.

    Counter campaigns have no stall handshake (one output per
    stimulus), so the judge is a plain fold over the output stream.
    There is deliberately **no** early-kill analogue: ``meas_val``
    reports the *last* non-zero measurement, so every remaining cycle
    can still move the outcome.
    """

    __slots__ = (
        "index", "spec", "golden", "lo", "threshold", "calls", "killed",
        "first_divergence", "detected", "risen", "meas_val",
    )

    def __init__(self, index, spec, golden, *, lo, threshold):
        self.index = index
        self.spec = spec
        self.golden = golden
        self.lo = lo
        self.threshold = threshold
        self.calls = 0
        self.killed = False
        self.first_divergence = None
        self.detected = False
        self.risen = False
        self.meas_val = None

    def observe(self, outs, functional=None) -> None:
        """Record one observed output vector (cycle ``self.calls``)."""
        golden = self.golden
        i = self.calls
        self.calls = i + 1
        if functional is None:
            functional = _functional(outs, golden.functional_ports)
        if functional != golden.functional[i]:
            if self.first_divergence is None:
                self.first_divergence = i
            self.killed = True
        meas = (outs.get("meas_val", 0) >> self.lo) & 0xFF
        if meas:
            self.detected = True
            self.meas_val = meas
            if meas == self.spec.hf_tick:
                # Exact measurement of the injected delay: the sensor
                # observed the mutant -- this is the paper's Counter
                # kill criterion (MEAS_VAL != 0 for the activated
                # mutant).
                self.killed = True
            if meas > self.threshold:
                self.risen = True
        if outs.get("metric_ok", 1) == 0:
            self.risen = True

    def finish(self):
        """Close the run and produce the :class:`MutantOutcome`."""
        return MutantOutcome(
            index=self.index,
            kind=self.spec.kind,
            target=self.spec.target,
            register=self.spec.register,
            hf_tick=self.spec.hf_tick,
            killed=self.killed,
            detected=self.detected,
            error_risen=self.risen,
            corrected=None,
            meas_val=self.meas_val,
            first_divergence=self.first_divergence,
            timed_out=False,
        )


def _drive_razor(
    mutant,
    stimuli,
    recovery_bit: int,
    judge: RazorMutantJudge,
    *,
    position: int = 0,
    budget: "int | None" = None,
) -> bool:
    """Drive a Razor mutant through the stall handshake, feeding every
    observed output to ``judge``, until the stimuli are consumed or the
    judge is settled.  Returns whether the stall budget timed out.

    ``position`` / ``budget`` resume a run mid-stream: a mutant forked
    off a batched sweep at cycle ``position`` has already been judged
    for the shared prefix and has ``position`` fewer budget units left
    -- the prefix is stall-free, because the sweep forks every attached
    mutant on the first cycle the base stalls.  A drive that stops on a
    settled judge did not time out by construction (see
    :meth:`RazorMutantJudge.settled`).
    """
    pending = stimuli
    if budget is None:
        budget = 3 * len(stimuli) + 8
    prev_inputs = None
    stalled_next = False
    # A stall on the final stimulus still needs its re-presentation,
    # otherwise the recovered last output is never observed.
    while (position < len(pending) or stalled_next) and budget:
        budget -= 1
        if stalled_next and prev_inputs is not None:
            inputs = prev_inputs
        else:
            inputs = pending[position]
            position += 1
        outs = mutant.b_transport({**inputs, "razor_r": recovery_bit})
        judge.observe(outs)
        stalled_next = bool(outs.get("razor_stall", 0))
        prev_inputs = inputs
        if judge.settled():
            return False
    # Budget exhausted mid-stall: stimuli were never consumed, or a
    # trailing re-presentation was still pending.  That is a driver
    # timeout, not an observation -- the truncated tail must not count
    # as a kill by length mismatch, nor be judged for correction.
    return (position < len(pending) or stalled_next) and not budget
