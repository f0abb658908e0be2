"""RTL validation of the TLM mutation results (paper Section 8.5).

The paper validates the TLM campaign by reproducing each mutant at
RTL with explicitly delayed assignments (VHDL ``after`` clauses) and
checking that the sensors raise the same errors.  Delays are chosen so
that RTL and TLM fall *within the same high-frequency clock period*,
which makes the two levels indistinguishable to the sensors:

* **minimum delay** -> arrival just after the consuming edge
  (``T + T_HF/2`` after the launch);
* **maximum delay** -> arrival just inside the Razor window's end
  (``1.5 T - T_HF/2`` after the launch);
* **delta delay k** -> an absolute arrival of ``k`` HF periods after
  the launch (Counter versions).

These run on the event-driven kernel with the sensor banks active, so
they exercise the true shadow-latch / HF-counter mechanics rather than
the TLM emulation.  :func:`cross_level_disagreements` compares the
verdicts of the two levels mutant by mutant.

Forked sweep
------------
A mutant differs from the nominal design in one thing only: the
transport delay of its endpoint.  Until the first write that changes
the endpoint's value its simulation *is* the nominal one, so each
:class:`RtlValidationShard` runs its mutants as one forked sweep on a
single simulator:

* **golden pass** -- the testbench runs once at nominal delays,
  recording each cycle's judged sensor output (Razor ``tap.error``,
  Counter ``tap.meas_val``) and the time each monitored endpoint first
  changes value; it stops once every endpoint of the shard has;
* **fork point** -- that change lands ``nominal`` ps after the write
  that caused it, so a mutant restores a golden snapshot
  (:meth:`~repro.rtl.Simulation.snapshot_state`) taken at the last
  cycle boundary before that write.  The endpoint's writes still
  pending there were made before it changed, so they are no-ops in the
  mutant and are dropped.  The mutant then applies its delay, takes the
  golden observations for the skipped cycles and simulates only the
  rest.  A second golden run walks the fork points in cycle order,
  holding one snapshot at a time;
* **settled verdicts stop** -- ``error_risen`` is a Razor mutant's
  only verdict field, so its simulation stops at the first raised
  error;
* **judged from the golden pass** -- a mutant whose endpoint never
  changes within the testbench is state-identical to the nominal run,
  so its verdict comes from the golden observations without simulating.

Verdicts are field-identical to simulating each mutant on a fresh
simulator for the full testbench.  The sweep drives the testbench out
of order -- cycle ``i`` of the golden runs, then of each fork -- which
is exact because the canonical driver (:func:`_stimulus_driver`)
depends only on the simulator and the cycle index.

Execution model
---------------
Validation is lowered to :class:`RtlValidationShard` work units served
by the same :class:`~repro.mutation.scheduler.CampaignScheduler` pool
as the TLM campaign shards: mixed TLM-campaign + RTL-validation suites
interleave on one executor
(:func:`repro.mutation.scheduler.run_benchmark_suite` with
``rtl_validation=True``).  Each shard carries the
:class:`~repro.sensors.insertion.AugmentedIP` under validation itself
-- its sensor banks' native processes are module-level callables
holding their taps as data, so the design pickles -- and a worker
process simulates exactly the design the caller passed, registered
case study or not.

A prepared validation (:func:`prepare_rtl_validation`) has the
interface of a prepared TLM campaign -- replayed outcomes, shard
count, cache keys, outcome encoder, ``build_report`` -- so the
scheduler absorbs, writes back and times the shards of both levels
through one path.  Each shard runs under a shard capture: its result
carries ``shards``/``mutants`` counters and, when traced, a
``shard.execute`` span tagged ``level="rtl"``.

Results are cached in the same
:class:`~repro.mutation.cache.ResultCache` as the TLM campaign
verdicts, keyed by :func:`repro.mutation.cache.rtl_entry_key`
(structural RTL fingerprint, stimuli hash, testbench length, mutant
spec).
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

from repro.abstraction.codegen import MutantSpec
from repro.obs import TRACER, trace_span
from repro.sensors.insertion import AugmentedIP

from .campaign import ShardResult, _captured_run, _shard_sequence

__all__ = [
    "RtlMutantOutcome",
    "RtlValidationReport",
    "RtlValidationShard",
    "PreparedRtlValidation",
    "cross_level_disagreements",
    "prepare_rtl_validation",
    "validate_at_rtl",
]


@dataclass(frozen=True)
class RtlMutantOutcome:
    spec: MutantSpec
    error_risen: bool
    meas_val: "int | None"
    #: Position in the campaign's mutant table (for the deterministic
    #: merge of shard results and the result-cache write-back).
    index: int = -1


@dataclass
class RtlValidationReport:
    ip_name: str
    sensor_type: str
    outcomes: "list[RtlMutantOutcome]" = field(default_factory=list)
    #: Testbench cycles each mutant was judged over.
    cycles_per_run: int = 0
    #: Wall-clock time -- runtime metadata, excluded from equality.
    seconds: float = field(default=0.0, compare=False)
    #: Result-cache accounting (``None`` when validated cache-less);
    #: excluded from equality so cached and uncached reports compare
    #: identical on every verdict field.
    cache_hits: "int | None" = field(default=None, compare=False)
    cache_misses: "int | None" = field(default=None, compare=False)
    #: The executed shards' obs counters, summed (as
    #: :attr:`~repro.mutation.analysis.MutationReport.obs`).
    obs: "dict | None" = field(default=None, compare=False)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def risen_pct(self) -> float:
        if not self.outcomes:
            return 0.0
        return 100.0 * sum(o.error_risen for o in self.outcomes) / len(
            self.outcomes
        )


def cross_level_disagreements(tlm, rtl: RtlValidationReport) -> "list[int]":
    """Indices of the mutants whose TLM and RTL verdicts differ on
    ``error_risen`` or ``meas_val``, or that only one level judged --
    the per-mutant form of the paper's Section 8.5 claim that each TLM
    mutant reproduced at RTL makes the sensors raise the same errors.
    ``tlm`` is the campaign's
    :class:`~repro.mutation.analysis.MutationReport`."""
    def verdicts(report):
        return {o.index: (o.error_risen, o.meas_val) for o in report.outcomes}

    tlm_verdicts, rtl_verdicts = verdicts(tlm), verdicts(rtl)
    return sorted(
        index for index in tlm_verdicts.keys() | rtl_verdicts.keys()
        if tlm_verdicts.get(index) != rtl_verdicts.get(index)
    )


def _rtl_delay_for(spec: MutantSpec, augmented: AugmentedIP) -> int:
    """Absolute transport delay reproducing one TLM mutant at RTL."""
    period = augmented.main_period_ps
    hf = augmented.hf_period_ps() if augmented.sensor_type == "counter" \
        else period // 10
    if augmented.sensor_type == "razor":
        if spec.kind == "min":
            return period + hf // 2
        if spec.kind == "max":
            return period + period // 2 - hf // 2
        raise ValueError(f"unexpected razor mutant kind {spec.kind!r}")
    # Counter: all mutant classes are realised as an arrival inside HF
    # period k, matching the TLM dual-clock scheduler placement.  The
    # 2 ps pull-in keeps input-launched relaunches (which commit 1 ps
    # after the edge under the edge-launch convention) inside the same
    # HF period as register-launched ones -- the paper's "same HF
    # period at RTL and TLM" alignment.
    return max(1, spec.hf_tick * hf - 2)


def _stimulus_driver(augmented: AugmentedIP, stimuli):
    """The testbench driver ``drive(sim, i)``: poke input vector
    ``stimuli[i]`` (plus a low Razor recovery enable) and advance one
    clock.  It depends only on ``sim`` and ``i``, as the forked sweep's
    out-of-order cycles require.  Recovery stays off because a Razor
    verdict is settled by the first raised error, before recovery can
    act."""
    input_ports = {p.name: p for p in augmented.module.inputs()}
    extra = {}
    if augmented.sensor_type == "razor" and \
            augmented.bank.recovery is not None:
        extra[augmented.bank.recovery] = 0

    def drive(sim, i):
        pokes = {input_ports[k]: v for k, v in stimuli[i].items()}
        pokes.update(extra)
        sim.cycle(pokes)

    return drive


def _judged_tap(augmented: AugmentedIP, register: str):
    """The sensor tap monitoring ``register`` and the output a mutant
    of it is judged on: Razor ``error``, Counter ``meas_val``."""
    if augmented.sensor_type == "razor":
        tap = next(
            t for t in augmented.bank.taps if t.register.name == register
        )
        return tap, tap.error
    tap = augmented.bank.tap_for(register)
    return tap, tap.meas_val


def _verdict(augmented: AugmentedIP, tap,
             observed: "list[int]") -> "tuple[bool, int | None]":
    """``(error_risen, meas_val)`` from a mutant's judged sensor
    output, one value per testbench cycle: Razor rises on any error;
    Counter reports the last non-zero measurement and rises on any
    above the LUT threshold."""
    if augmented.sensor_type == "razor":
        return any(observed), None
    measured = [meas for meas in observed if meas]
    return (
        any(meas > tap.lut_threshold for meas in measured),
        measured[-1] if measured else None,
    )


def _forked_sweep(augmented: AugmentedIP, indices, specs, drive,
                  cycles: int) -> "list[RtlMutantOutcome]":
    """Reproduce a shard's mutants at RTL as one forked sweep on a
    single simulator (see the module docstring); outcomes in
    ``indices`` order, field-identical to simulating each mutant on a
    fresh simulator for the full testbench."""
    sim = augmented.make_simulation(input_launch_at_edge=True)
    razor = augmented.sensor_type == "razor"
    taps = {spec.register: _judged_tap(augmented, spec.register)
            for spec in specs}
    endpoint_of = {reg: augmented.endpoint_for(reg) for reg in taps}
    snap = sim.snapshot_state()

    # -- golden pass: judged outputs per cycle, first endpoint changes --
    golden: "dict[str, list[int]]" = {reg: [] for reg in taps}
    unchanged = {ep: sim.peek(ep) for ep in endpoint_of.values()}
    changed_at: dict = {}  # endpoint -> time its value first changed

    def first_change(sim, t) -> None:
        for ep in [ep for ep, v0 in unchanged.items()
                   if sim.peek(ep) != v0]:
            changed_at[ep] = t
            del unchanged[ep]

    bounds = [sim.time]  # bounds[c]: simulated time after c cycles
    sim.watch(first_change)
    for i in range(cycles):
        if not unchanged:
            break  # every fork point is known
        drive(sim, i)
        bounds.append(sim.time)
        for reg, (_, judged) in taps.items():
            golden[reg].append(sim.peek_int(judged))
    sim.unwatch(first_change)
    # A change written inside the testbench may land after its end,
    # where a mutant with a shorter delay still sees it.
    for land, _, sig, value in (
        sim.snapshot_state()["delayed"] if unchanged else ()
    ):
        if sig in unchanged and value != unchanged[sig]:
            changed_at[sig] = min(land, changed_at.get(sig, land))

    # -- fork points: the last cycle boundary before the first write
    # that changes the endpoint (it lands ``nominal`` ps later) --------
    observed: "dict[int, list[int]]" = {}
    forks: "dict[int, list]" = {}
    for index, spec in zip(indices, specs):
        tap, _ = taps[spec.register]
        endpoint = endpoint_of[spec.register]
        if endpoint not in changed_at:
            # State-identical to the golden run for the whole testbench.
            observed[index] = golden[spec.register]
            continue
        write = changed_at[endpoint] - tap.nominal_delay_ps
        fork = max(0, bisect.bisect_left(bounds, write) - 1)
        forks.setdefault(fork, []).append((index, spec))

    # -- forks, in cycle order along one more golden run holding one
    # snapshot at a time ------------------------------------------------
    sim.restore_state(snap)
    done = 0
    for fork in sorted(forks):
        for i in range(done, fork):
            drive(sim, i)
        done = fork
        snap = sim.snapshot_state()
        for index, spec in forks[fork]:
            tap, judged = taps[spec.register]
            endpoint = endpoint_of[spec.register]
            # Every pending write to the endpoint predates its first
            # changing write, so each lands as a no-op in the mutant.
            sim.restore_state({**snap, "delayed": sorted(
                e for e in snap["delayed"] if e[2] is not endpoint
            )})
            sim.set_transport_delay(endpoint, _rtl_delay_for(spec, augmented))
            seen = observed[index] = golden[spec.register][:fork]
            # error_risen is a Razor mutant's only verdict field: the
            # first raised error settles it.
            if not (razor and any(seen)):
                for i in range(fork, cycles):
                    drive(sim, i)
                    seen.append(sim.peek_int(judged))
                    if razor and seen[-1]:
                        break
            sim.set_transport_delay(endpoint, tap.nominal_delay_ps)
        sim.restore_state(snap)
    return [
        RtlMutantOutcome(
            spec, *_verdict(augmented, taps[spec.register][0],
                            observed[index]),
            index=index,
        )
        for index, spec in zip(indices, specs)
    ]


@dataclass(frozen=True)
class RtlValidationShard:
    """One schedulable batch of RTL-validation mutants, with everything
    a worker process needs to reproduce them: the augmented design
    itself and the declarative testbench, one cycle per stimulus
    vector."""

    indices: "tuple[int, ...]"
    specs: "tuple[MutantSpec, ...]"           # aligned with ``indices``
    stimuli: "tuple[dict, ...]"
    augmented: AugmentedIP
    #: Record a worker-side ``shard.execute`` span, as
    #: :attr:`~repro.mutation.campaign.CampaignShard.trace` does.
    trace: bool = False

    def run(self) -> ShardResult:
        return _captured_run(self, "rtl", lambda: _forked_sweep(
            self.augmented, self.indices, self.specs,
            _stimulus_driver(self.augmented, self.stimuli),
            len(self.stimuli),
        ))


@dataclass(frozen=True)
class PreparedRtlValidation:
    """An RTL validation lowered to its schedulable form, with the
    interface of :class:`~repro.mutation.campaign.PreparedCampaign`:
    shards cover the cache misses, the cache hits sit in
    ``replayed_outcomes`` (absorbed as one virtual first shard), and
    ``cache_keys`` maps every mutant index to its entry key for
    write-back.  RTL validation never prunes: every mutant re-executes
    at RTL by definition of the cross-level check."""

    ip_name: str
    sensor_type: str
    total: int
    cycles_per_run: int
    shards: "tuple[RtlValidationShard, ...]"
    replayed_outcomes: "tuple" = ()
    cache_keys: "tuple[str, ...] | None" = None
    cache_hits: "int | None" = None
    cache_misses: "int | None" = None

    @property
    def total_shards(self) -> int:
        return len(self.shards) + (1 if self.replayed_outcomes else 0)

    @staticmethod
    def encode_outcome(outcome) -> dict:
        """One verdict's cache payload
        (:func:`~repro.mutation.cache.encode_rtl_outcome`)."""
        from .cache import encode_rtl_outcome

        return encode_rtl_outcome(outcome)

    def build_report(self, outcomes, seconds: float = 0.0,
                     counters: "dict[str, int] | None" = None
                     ) -> RtlValidationReport:
        """Deterministic merged report: outcomes in mutant-table order
        regardless of shard completion order or cache state;
        ``counters`` (the executed shards' obs counters, summed)
        becomes ``report.obs``."""
        return RtlValidationReport(
            ip_name=self.ip_name,
            sensor_type=self.sensor_type,
            outcomes=sorted(outcomes, key=lambda o: o.index),
            cycles_per_run=self.cycles_per_run,
            seconds=seconds,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            obs={"counters": dict(sorted(counters.items()))}
            if counters else None,
        )


def prepare_rtl_validation(
    augmented: AugmentedIP,
    mutants: "list[MutantSpec]",
    *,
    stimuli,
    ip_name: str = "ip",
    workers: int = 1,
    shard_size: "int | None" = None,
    cache=None,
) -> PreparedRtlValidation:
    """Lower an RTL validation to schedulable shards.

    Each shard carries ``augmented`` and the declarative per-cycle
    ``stimuli``, so it runs the same in the parent and in a worker
    process; cache misses become shards, hits replay from ``cache``
    (see :func:`validate_at_rtl` for the arguments).
    """
    with trace_span("rtl_validation.prepare", ip=ip_name,
                    sensor=augmented.sensor_type):
        specs = tuple(mutants)
        stimuli = tuple(stimuli)

        replayed: "list[RtlMutantOutcome]" = []
        cache_keys = None
        hits = misses = None
        miss_indices = list(range(len(specs)))
        if cache is not None:
            from .cache import (
                decode_rtl_outcome,
                rtl_entry_key,
                rtl_fingerprint,
                stimuli_hash,
            )

            rtl_fp = rtl_fingerprint(augmented)
            stim_hash = stimuli_hash(stimuli)
            cache_keys = tuple(
                rtl_entry_key(rtl_fp, stim_hash, len(stimuli), spec)
                for spec in specs
            )
            replayed, miss_indices = cache.probe(
                cache_keys, decode_rtl_outcome
            )
            hits = len(replayed)
            misses = len(miss_indices)

        shards = tuple(
            RtlValidationShard(
                indices=indices,
                specs=tuple(specs[i] for i in indices),
                stimuli=stimuli,
                augmented=augmented,
                trace=TRACER.enabled,
            )
            for indices in _shard_sequence(miss_indices, workers,
                                           shard_size)
        )
        return PreparedRtlValidation(
            ip_name=ip_name,
            sensor_type=augmented.sensor_type,
            total=len(specs),
            cycles_per_run=len(stimuli),
            shards=shards,
            replayed_outcomes=tuple(replayed),
            cache_keys=cache_keys,
            cache_hits=hits,
            cache_misses=misses,
        )


def validate_at_rtl(
    augmented: AugmentedIP,
    mutants: "list[MutantSpec]",
    *,
    stimuli,
    ip_name: str = "ip",
    workers: int = 1,
    shard_size: "int | None" = None,
    scheduler=None,
    cache=None,
) -> RtlValidationReport:
    """Re-run each mutant at RTL via delayed assignments.

    Args:
        augmented: the sensor-augmented design under validation --
            a registry build or any ad-hoc or modified design; pool
            workers receive it pickled inside each shard.
        mutants: the TLM campaign's :class:`MutantSpec` table.
        stimuli: declarative per-cycle ``name -> int`` input vectors
            (the same form the TLM campaign consumes).  The testbench
            runs one cycle per vector -- the canonical driver presents
            ``stimuli[i]`` at cycle ``i``, with the Razor recovery
            enable held low -- so passing the campaign's own stimuli
            validates each mutant over exactly the cycles it was
            judged on at TLM.
        workers / shard_size / scheduler: shard sizing and pool
            placement, exactly as in
            :func:`~repro.mutation.campaign.run_campaign`; pass the
            campaign's :class:`CampaignScheduler` to interleave RTL
            shards with TLM shards on one executor.
        cache: a :class:`~repro.mutation.cache.ResultCache`; known
            verdicts replay instantly, fresh ones are written back.

    Returns:
        An :class:`RtlValidationReport` with outcomes in mutant-table
        order -- deterministic for any worker count, shard size and
        cache state -- and the executed shards' obs counters.
    """
    from .scheduler import (
        _absorb_executed,
        _ephemeral_width,
        _leased_scheduler,
        _stream_shard_results,
    )

    started = time.perf_counter()
    with trace_span("rtl_validation.run", ip=ip_name,
                    sensor=augmented.sensor_type):
        prepared = prepare_rtl_validation(
            augmented,
            mutants,
            stimuli=stimuli,
            ip_name=ip_name,
            workers=workers if scheduler is None else scheduler.workers,
            shard_size=shard_size,
            cache=cache,
        )
        outcomes = list(prepared.replayed_outcomes)
        counters: "dict[str, int]" = {}
        with _leased_scheduler(
            scheduler, _ephemeral_width(workers, prepared)
        ) as sched:
            for result in _stream_shard_results(sched, prepared.shards):
                outcomes.extend(
                    _absorb_executed(prepared, result, cache, counters)
                )
    return prepared.build_report(
        outcomes, seconds=time.perf_counter() - started, counters=counters
    )
