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
simulator for the full testbench.  The sweep calls the testbench driver
``drive(sim, i)`` out of order -- cycle ``i`` of the golden runs, then
of each fork -- so ``drive`` must depend only on ``sim`` and ``i``
(the canonical stimulus driver and every legacy caller do).

Execution model
---------------
Validation is lowered to :class:`RtlValidationShard` work units served
by the same :class:`~repro.mutation.scheduler.CampaignScheduler` pool
as the TLM campaign shards: mixed TLM-campaign + RTL-validation suites
interleave on one executor
(:func:`repro.mutation.scheduler.run_benchmark_suite` with
``rtl_validation=True``).

An :class:`~repro.sensors.insertion.AugmentedIP` holds native sensor
processes (local closures) and therefore does not pickle, so a shard
ships one of two payloads:

* a **rebuild recipe** -- the registry name of the IP plus the sensor
  type; each worker process reconstructs the augmented design once
  via :func:`repro.flow.pipeline.build_augmented` (memoised per
  process, deterministic by construction) and serves every subsequent
  shard of that campaign from the memo;
* the **live object** -- when the caller validates an ad-hoc augmented
  design (no registry entry) or passes an opaque ``drive`` callable,
  the shard is flagged ``inline_only`` and executes in the parent
  process even on a multi-worker pool.

Results are cached in the same
:class:`~repro.mutation.cache.ResultCache` as the TLM campaign
verdicts, keyed by :func:`repro.mutation.cache.rtl_entry_key`
(structural RTL fingerprint, stimuli hash, cycle count, recovery
value, mutant spec); caching needs the declarative ``stimuli`` form --
an opaque ``drive`` callable cannot be fingerprinted and bypasses the
cache.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

from repro.abstraction.codegen import MutantSpec
from repro.sensors.insertion import AugmentedIP

from .campaign import _shard_sequence

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


def _stimulus_driver(augmented: AugmentedIP, stimuli,
                     recovery_value: int = 0):
    """The canonical testbench driver: poke the cycle's input vector
    (plus the Razor recovery enable) and advance one clock.  Built
    identically in the parent and in worker processes, so declarative
    ``stimuli`` validation is location-independent."""
    input_ports = {p.name: p for p in augmented.module.inputs()}
    extra = {}
    if augmented.sensor_type == "razor" and \
            augmented.bank.recovery is not None:
        extra[augmented.bank.recovery] = recovery_value

    def drive(sim, i):
        vec = stimuli[i % len(stimuli)]
        pokes = {input_ports[k]: v for k, v in vec.items()}
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


#: Per-process memo of rebuilt augmented designs, keyed by the
#: ``(ip_name, sensor_type)`` recipe: every shard of the same
#: validation campaign served by one worker reuses one rebuild.
_REBUILT_AUGMENTED: "dict[tuple, AugmentedIP]" = {}


def _rebuilt_augmented(recipe: "tuple[str, str]") -> AugmentedIP:
    augmented = _REBUILT_AUGMENTED.get(recipe)
    if augmented is None:
        # Function-level import: repro.flow imports repro.mutation, so
        # the reverse edge must stay out of module import time.
        from repro.flow.pipeline import build_augmented
        from repro.ips import case_study

        ip_name, sensor_type = recipe
        augmented = build_augmented(case_study(ip_name), sensor_type).augmented
        _REBUILT_AUGMENTED[recipe] = augmented
    return augmented


@dataclass(frozen=True)
class RtlValidationShard:
    """One schedulable batch of RTL-validation mutants.

    Picklable when it carries a ``rebuild`` recipe (registry IP name +
    sensor type); otherwise it holds the live ``augmented`` object /
    ``drive`` callable and is flagged ``inline_only`` so the scheduler
    executes it in the parent process.
    """

    indices: "tuple[int, ...]"
    specs: "tuple[MutantSpec, ...]"           # aligned with ``indices``
    cycles: int
    recovery_value: int
    stimuli: "tuple[dict, ...] | None"        # None -> ``drive`` carried
    rebuild: "tuple[str, str] | None"         # (ip registry name, sensor)
    augmented: "AugmentedIP | None" = None
    drive: "object | None" = None

    #: RTL shards never travel to remote worker daemons: the rebuild
    #: recipe references the local IP registry and the live-object
    #: variants do not serialise at all.  A fleet routes them to its
    #: local placement instead.
    remote_ok = False

    @property
    def inline_only(self) -> bool:
        # An opaque drive callable never leaves the parent, even when a
        # rebuild recipe would make the rest of the payload picklable.
        return self.rebuild is None or self.drive is not None

    def run(self) -> "list[RtlMutantOutcome]":
        augmented = self.augmented
        if augmented is None:
            augmented = _rebuilt_augmented(self.rebuild)
        drive = self.drive
        if drive is None:
            drive = _stimulus_driver(
                augmented, list(self.stimuli), self.recovery_value
            )
        return _forked_sweep(
            augmented, self.indices, self.specs, drive, self.cycles
        )


@dataclass(frozen=True)
class PreparedRtlValidation:
    """An RTL validation lowered to its schedulable form (the RTL
    analogue of :class:`~repro.mutation.campaign.PreparedCampaign`):
    shards cover the cache misses, replayed verdicts sit in
    ``cached_outcomes``, and ``cache_keys`` maps every mutant index to
    its entry key for write-back."""

    ip_name: str
    sensor_type: str
    total: int
    cycles_per_run: int
    shards: "tuple[RtlValidationShard, ...]"
    cached_outcomes: "tuple" = ()
    cache_keys: "tuple[str, ...] | None" = None
    cache_hits: "int | None" = None
    cache_misses: "int | None" = None

    @property
    def total_shards(self) -> int:
        return len(self.shards) + (1 if self.cached_outcomes else 0)

    def build_report(self, outcomes,
                     seconds: float = 0.0) -> RtlValidationReport:
        """Deterministic merged report: outcomes in mutant-table order
        regardless of shard completion order or cache state."""
        return RtlValidationReport(
            ip_name=self.ip_name,
            sensor_type=self.sensor_type,
            outcomes=sorted(outcomes, key=lambda o: o.index),
            cycles_per_run=self.cycles_per_run,
            seconds=seconds,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
        )


def prepare_rtl_validation(
    augmented: AugmentedIP,
    mutants: "list[MutantSpec]",
    *,
    stimuli=None,
    drive=None,
    cycles: int = 24,
    ip_name: str = "ip",
    recovery_value: int = 0,
    rebuild: "str | None" = None,
    workers: int = 1,
    shard_size: "int | None" = None,
    cache=None,
) -> PreparedRtlValidation:
    """Lower an RTL validation to schedulable shards.

    Exactly one of ``stimuli`` (declarative per-cycle input vectors --
    shardable across processes and cacheable) or ``drive`` (an opaque
    ``drive(sim, cycle_index)`` callable -- inline-only, cache
    bypassed) must be given.  ``rebuild`` names a registered case
    study whose augmentation the workers reconstruct instead of
    pickling ``augmented``; without it, shards carry the live object
    and execute in the parent.

    Contract: when ``rebuild`` is set, ``augmented`` must be *exactly*
    the registry build of that IP (derive the name via
    :func:`repro.ips.rebuild_recipe`, which identity-checks the spec,
    as :func:`repro.flow.run_flow` and the suite do).  Passing a
    modified design with ``rebuild`` set makes pool workers simulate
    the registry design while inline shards simulate yours -- a report
    mixing two designs, cached under the wrong fingerprint.
    """
    if (stimuli is None) == (drive is None):
        raise ValueError("pass exactly one of stimuli= or drive=")
    specs = tuple(mutants)

    cached_outcomes: "list[RtlMutantOutcome]" = []
    cache_keys = None
    hits = misses = None
    miss_indices = list(range(len(specs)))
    if cache is not None and stimuli is not None:
        from .cache import (
            decode_rtl_outcome,
            rtl_entry_key,
            rtl_fingerprint,
            stimuli_hash,
        )

        rtl_fp = rtl_fingerprint(augmented)
        stim_hash = stimuli_hash(stimuli)
        cache_keys = tuple(
            rtl_entry_key(rtl_fp, stim_hash, cycles, recovery_value, spec)
            for spec in specs
        )
        cached_outcomes, miss_indices = cache.probe(
            cache_keys, decode_rtl_outcome
        )
        hits = len(cached_outcomes)
        misses = len(miss_indices)

    recipe = (rebuild, augmented.sensor_type) if rebuild else None
    if recipe is not None:
        # Seed the per-process rebuild memo with the design we already
        # hold: inline execution (workers=1, or backfill in the
        # parent) reuses it instead of paying a second flow front-end;
        # worker processes still rebuild into their own memo.  Assign
        # (not setdefault) so inline shards always simulate exactly
        # the object being validated -- ``rebuild=`` asserts it equals
        # the registry build, which is what pool workers reconstruct.
        _REBUILT_AUGMENTED[recipe] = augmented
    shards = tuple(
        RtlValidationShard(
            indices=indices,
            specs=tuple(specs[i] for i in indices),
            cycles=cycles,
            recovery_value=recovery_value,
            stimuli=tuple(stimuli) if stimuli is not None else None,
            rebuild=recipe,
            augmented=None if recipe else augmented,
            drive=drive,
        )
        for indices in _shard_sequence(miss_indices, workers, shard_size)
    )
    return PreparedRtlValidation(
        ip_name=ip_name,
        sensor_type=augmented.sensor_type,
        total=len(specs),
        cycles_per_run=cycles,
        shards=shards,
        cached_outcomes=tuple(cached_outcomes),
        cache_keys=cache_keys,
        cache_hits=hits,
        cache_misses=misses,
    )


def validate_at_rtl(
    augmented: AugmentedIP,
    mutants: "list[MutantSpec]",
    drive=None,
    *,
    stimuli=None,
    cycles: int = 24,
    ip_name: str = "ip",
    recovery_value: int = 0,
    rebuild: "str | None" = None,
    workers: int = 1,
    shard_size: "int | None" = None,
    scheduler=None,
    cache=None,
) -> RtlValidationReport:
    """Re-run each mutant at RTL via delayed assignments.

    Args:
        augmented: the sensor-augmented design under validation.
        mutants: the TLM campaign's :class:`MutantSpec` table.
        drive: legacy ``drive(sim, cycle_index)`` testbench callable
            (one full cycle: poke inputs, advance the clock).  Opaque,
            so it forces inline execution and bypasses the cache;
            prefer ``stimuli``.
        stimuli: declarative per-cycle ``name -> int`` input vectors
            (the same form the TLM campaign consumes); the canonical
            driver re-presents ``stimuli[i % len(stimuli)]`` each
            cycle, with the Razor recovery enable poked to
            ``recovery_value``.
        cycles: testbench cycles per mutant.
        rebuild: registry name of the IP, enabling worker processes to
            reconstruct the augmentation instead of pickling it --
            required for the shards to leave the parent process.
            ``augmented`` must then be exactly the registry build; use
            :func:`repro.ips.rebuild_recipe` to derive the name safely
            (see :func:`prepare_rtl_validation` for the contract).
        workers / shard_size / scheduler: shard sizing and pool
            placement, exactly as in
            :func:`~repro.mutation.campaign.run_campaign`; pass the
            campaign's :class:`CampaignScheduler` to interleave RTL
            shards with TLM shards on one executor.
        cache: a :class:`~repro.mutation.cache.ResultCache`; known
            verdicts replay instantly (``stimuli`` form only).

    Returns:
        An :class:`RtlValidationReport` with outcomes in mutant-table
        order -- deterministic for any worker count, shard size and
        cache state.
    """
    from .scheduler import (
        _ephemeral_width,
        _leased_scheduler,
        _stream_shard_results,
        _write_back,
    )

    started = time.perf_counter()
    prepared = prepare_rtl_validation(
        augmented,
        mutants,
        stimuli=stimuli,
        drive=drive,
        cycles=cycles,
        ip_name=ip_name,
        recovery_value=recovery_value,
        rebuild=rebuild,
        workers=workers if scheduler is None else scheduler.workers,
        shard_size=shard_size,
        cache=cache,
    )
    outcomes = list(prepared.cached_outcomes)
    with _leased_scheduler(
        scheduler, _ephemeral_width(workers, prepared)
    ) as sched:
        for batch in _stream_shard_results(sched, prepared.shards):
            if cache is not None:
                from .cache import encode_rtl_outcome

                _write_back(cache, prepared.cache_keys, batch,
                            encode_rtl_outcome, ip=ip_name)
            outcomes.extend(batch)
    return prepared.build_report(
        outcomes, seconds=time.perf_counter() - started
    )
