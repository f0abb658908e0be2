"""Sharded, parallel mutation-campaign engine (paper Section 7 at scale).

A mutation campaign is embarrassingly parallel -- one golden/injected
lockstep run per mutant -- but the naive loop pays two mutant-
independent costs per mutant: the golden stimulus run (depends only on
stimuli and the recovery bit) and the ``exec`` of the generated model
source.  The engine amortises both:

1. the golden trace is computed **once per campaign**
   (:func:`repro.mutation.analysis.compute_golden_trace`) and shipped
   to workers inside the shard payload;
2. mutants are grouped into **shards**; the generated source is
   compiled once per shard/worker process (the
   :meth:`GeneratedTlm.compiled_class` cache), and each shard runs as
   one batched sweep (:mod:`repro.mutation.batched`): its mutants ride
   a shared base simulation and fork off on first divergence;
3. statically equivalent mutants are **pruned** at preparation
   (:mod:`repro.lint.mutants`): their verdicts are synthesised from
   the golden trace instead of simulated;
4. shard execution goes through the streaming cross-IP scheduler
   (:mod:`repro.mutation.scheduler`): ``workers > 1`` runs the shards
   on a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
   owned by a :class:`~repro.mutation.scheduler.CampaignScheduler`
   (pass ``scheduler=`` to share one pool across many campaigns);
   every shard is a picklable plain-data work unit, and outcomes are
   merged back in mutant-index order, so the report is
   **deterministic** -- byte-identical outcomes and percentages for
   any ``workers`` / ``shard_size`` combination, including the inline
   ``workers=1`` path;
5. with a :class:`~repro.mutation.cache.ResultCache` (``cache=``),
   previously-computed verdicts are **replayed** instead of executed:
   :func:`prepare_campaign` probes the cache per mutant, shards only
   the misses, and carries the replayed outcomes (plus per-mutant
   entry keys for write-back) on the :class:`PreparedCampaign`.  The
   golden trace itself is cached the same way (keyed by the golden
   model's structural fingerprint and the stimuli hash), so a warm
   preparation skips the golden simulation entirely.

This module owns campaign *preparation* (golden memoisation, cache
probe, pruning, shard construction -- :func:`prepare_campaign`)
and the blocking :func:`run_campaign` entry point, which hands the
prepared campaign to the scheduler's one driver; the service's
shard-by-shard stream of a prepared campaign is
:func:`repro.mutation.scheduler.stream_shard_batches`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.abstraction import GeneratedTlm
from repro.obs import (
    REGISTRY,
    TRACER,
    shard_capture,
    shard_span,
    trace_span,
)

from .analysis import GoldenTrace, MutationReport, compute_golden_trace
from .batched import run_batched_shard

__all__ = [
    "CampaignShard",
    "PreparedCampaign",
    "ShardResult",
    "prepare_campaign",
    "run_campaign",
]


class ShardResult(list):
    """A shard's outcome list plus its observability side-channel.

    Behaves exactly like the plain ``list`` every existing consumer
    expects (merging, sorting, pickling across the process pool), with
    one extra attribute: ``obs``, the worker-side
    :class:`~repro.obs.tracer.ShardCapture` payload of relative-offset
    spans and counters.  Code that concatenates or re-wraps outcome
    lists may silently degrade the result to ``list`` -- readers must
    treat ``obs`` as best-effort (``getattr(result, "obs", None)``).
    """

    def __init__(self, outcomes=(), obs: "dict | None" = None) -> None:
        super().__init__(outcomes)
        self.obs = obs


@dataclass(frozen=True)
class CampaignShard:
    """One picklable unit of campaign work: a group of mutant indices
    plus everything a worker process needs to evaluate them in one
    batched sweep (:func:`~repro.mutation.batched.run_batched_shard`)."""

    indices: "tuple[int, ...]"
    injected: GeneratedTlm
    stimuli: "tuple[dict, ...]"
    golden: GoldenTrace
    sensor_type: str
    recovery: bool
    #: Record worker-side spans (:mod:`repro.obs`) during execution.
    #: Counters are collected regardless (cheap integer adds); spans
    #: only when the coordinator prepared the campaign with tracing
    #: enabled.  Pure metadata -- never changes an outcome.
    trace: bool = False

    def run(self) -> ShardResult:
        """Evaluate the shard's mutants as one batched sweep (in a
        worker process, or inline for ``workers=1``).  The generated
        model class is compiled once per process via the
        :meth:`GeneratedTlm.compiled_class` cache."""
        return _captured_run(self, "tlm", lambda: run_batched_shard(self))


def _captured_run(shard, level: str, execute) -> ShardResult:
    """Run ``execute()`` for ``shard`` under a shard capture: the
    :class:`ShardResult` carries the outcomes plus the obs payload --
    ``shards`` and ``mutants`` counters always, a ``shard.execute``
    span tagged with ``level`` (``"tlm"`` or ``"rtl"``) when
    ``shard.trace``.  Shared by every shard kind."""
    mutants = len(shard.indices)
    with shard_capture(shard.trace) as capture:
        capture.count("shards", 1)
        capture.count("mutants", mutants)
        with shard_span("shard.execute", level=level, mutants=mutants):
            outcomes = execute()
        return ShardResult(outcomes, obs=capture.payload())


@dataclass(frozen=True)
class PreparedCampaign:
    """A campaign lowered to its schedulable form: the shard list plus
    the metadata needed to assemble the merged :class:`MutationReport`.
    Preparation (golden trace, cache probe, pruning) runs once in the
    parent; the shards are then free to execute on any pool,
    interleaved with shards from other campaigns.

    When prepared against a :class:`~repro.mutation.cache.ResultCache`,
    ``shards`` covers only the cache *misses*; the replayed verdicts
    sit in ``cached_outcomes`` (already re-indexed) and ``cache_keys``
    maps every mutant index to its entry key so executed outcomes can
    be written back.

    Statically-equivalent mutants are judged against the golden trace
    at prepare time (``pruned_outcomes``).  Pruned mutants are
    *counted, never dropped*: every mutant index appears in the final
    outcome stream.
    """

    ip_name: str
    sensor_type: str
    variant: str
    cycles_per_run: int
    total: int
    shards: "tuple[CampaignShard, ...]"
    #: Verdicts replayed from the result cache (empty without a cache).
    cached_outcomes: "tuple" = ()
    #: Per-mutant-index entry keys (``None`` when prepared cache-less).
    cache_keys: "tuple[str, ...] | None" = None
    cache_hits: "int | None" = None
    cache_misses: "int | None" = None
    #: ``True`` when the golden trace was replayed from the cache,
    #: ``False`` when it was simulated (and stored), ``None`` when no
    #: cache was in play.
    golden_cached: "bool | None" = None
    #: Verdicts the static mutant analyzer synthesised at prepare time
    #: (equivalents judged against the golden trace).
    pruned_outcomes: "tuple" = ()
    pruned_equivalent: int = 0

    @property
    def replayed_outcomes(self) -> "tuple":
        """Every verdict known before any shard executes: cache
        replays plus statically-pruned verdicts, absorbed as one
        virtual first shard."""
        return tuple(self.cached_outcomes) + tuple(self.pruned_outcomes)

    @property
    def total_shards(self) -> int:
        """Shard count as seen by progress accounting: the executable
        shards plus one virtual "replay shard" when replayed (cached
        or pruned) outcomes exist (they are absorbed as a single
        batch)."""
        return len(self.shards) + (1 if self.replayed_outcomes else 0)

    @staticmethod
    def encode_outcome(outcome) -> dict:
        """One verdict's cache payload
        (:func:`~repro.mutation.cache.encode_outcome`)."""
        from .cache import encode_outcome

        return encode_outcome(outcome)

    def build_report(self, outcomes, seconds: float = 0.0,
                     counters: "dict[str, int] | None" = None
                     ) -> MutationReport:
        """Assemble the deterministic merged report: outcomes sorted
        by mutant index plus the campaign metadata captured at prepare
        time.  Shared by :func:`run_campaign`,
        :func:`repro.mutation.scheduler.run_benchmark_suite` and the
        campaign service so their reports cannot drift apart.

        ``executed`` counts the outcomes whose index sat in a shard:
        replayed and pruned verdicts never are, and a shard an
        abort left unrun contributes no outcome at all.  ``counters``
        (the executed shards' obs counters, summed) becomes
        ``report.obs``; ``None`` or empty leaves it ``None``."""
        sharded = {i for shard in self.shards for i in shard.indices}
        report = MutationReport(
            ip_name=self.ip_name,
            sensor_type=self.sensor_type,
            variant=self.variant,
            outcomes=sorted(outcomes, key=lambda o: o.index),
            cycles_per_run=self.cycles_per_run,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            golden_cache_hit=self.golden_cached,
            pruned_equivalent=self.pruned_equivalent,
            executed=sum(o.index in sharded for o in outcomes),
            obs={"counters": dict(sorted(counters.items()))}
            if counters else None,
        )
        report.seconds = seconds
        return report


def _shard_sequence(
    indices: "list[int]", workers: int, shard_size: "int | None" = None
) -> "list[tuple[int, ...]]":
    """Partition an index list into contiguous shards (after a cache
    probe the miss indices need not be contiguous).

    The default is one shard per worker: delay mutants are homogeneous
    in cost (same stimuli length each), so finer batching only
    multiplies the per-shard setup (pickling the golden trace,
    dispatching the task).  Pass ``shard_size`` explicitly to trade
    load balance against that overhead.
    """
    if not indices:
        return []
    if shard_size is None:
        shard_size = -(-len(indices) // max(1, workers))
    shard_size = max(1, shard_size)
    return [
        tuple(indices[lo:lo + shard_size])
        for lo in range(0, len(indices), shard_size)
    ]


def _run_shard(shard) -> "list":
    """Execute any shard kind by its ``run()`` method.  Module-level so
    :class:`~concurrent.futures.ProcessPoolExecutor` submissions can
    pickle it by reference; dispatches to :meth:`CampaignShard.run` or
    :meth:`repro.mutation.rtl_validation.RtlValidationShard.run`."""
    return shard.run()


def _write_back(cache, prepared, outcomes) -> None:
    """Store judged outcomes under ``prepared``'s entry keys, encoded
    by its level's ``encode_outcome`` (no-op without a cache).  Each
    payload is tagged with the IP for the per-IP cache statistics
    (:meth:`ResultCache.stats`); the tag is ignored on decode."""
    if cache is None or prepared.cache_keys is None:
        return
    for outcome in outcomes:
        payload = prepared.encode_outcome(outcome)
        payload["ip"] = prepared.ip_name
        cache.put(prepared.cache_keys[outcome.index], payload)


def prepare_campaign(
    golden: GeneratedTlm,
    injected: GeneratedTlm,
    stimuli: "list[dict[str, int]]",
    *,
    ip_name: str = "ip",
    sensor_type: str = "razor",
    recovery: bool = True,
    workers: int = 1,
    shard_size: "int | None" = None,
    cache=None,
) -> PreparedCampaign:
    """Run the mutant-independent campaign setup once.

    Simulates the golden model (exactly once, regardless of the mutant
    count -- or not at all, when ``cache`` holds the golden trace for
    this (golden fingerprint, stimuli) pair), probes ``cache`` (a
    :class:`~repro.mutation.cache.ResultCache`) for already-known
    verdicts, and partitions the remaining mutant indices into
    :class:`CampaignShard` work units sized for ``workers`` /
    ``shard_size`` -- each shard executes as one batched sweep.

    The static mutant analyzer (:func:`repro.lint.mutants.plan_pruning`)
    removes provably-equivalent mutants from the executable set: their
    verdicts are synthesised against the golden trace right here and
    written back to ``cache`` like executed ones.  Razor preparation
    never compiles the injected model: its workers compile it in their
    own processes.

    Returns a :class:`PreparedCampaign` whose ``shards`` cover exactly
    the cache misses minus the pruned set; replayed verdicts are
    carried in ``cached_outcomes`` / ``pruned_outcomes``, re-indexed
    to the current mutant table.
    """
    from repro.lint.mutants import judge_equivalent, plan_pruning

    with trace_span("campaign.prepare", ip=ip_name, sensor=sensor_type):
        specs = injected.mutants
        # The Counter ``meas_val`` lane order: part of a Counter
        # verdict's cache key and of the equivalent-mutant judge.
        taps = (
            tuple(injected.compiled_class().COUNTER_TAP_ORDER)
            if sensor_type == "counter" else ()
        )

        golden_trace = None
        golden_cached = None
        golden_key = None
        if cache is not None:
            from .cache import (
                decode_golden_trace,
                golden_entry_key,
                model_fingerprint,
                stimuli_hash,
            )

            golden_key = golden_entry_key(
                model_fingerprint(golden),
                stimuli_hash(stimuli),
                sensor_type,
                recovery=recovery,
            )
            payload = cache.get(golden_key)
            if payload is not None:
                golden_trace = decode_golden_trace(payload)
                golden_cached = True
                REGISTRY.inc("repro_golden_cache_hits_total")
        if golden_trace is None:
            golden_model = golden.instantiate()
            with trace_span("campaign.golden", ip=ip_name,
                            cycles=len(stimuli)):
                golden_trace = compute_golden_trace(
                    golden_model, stimuli, sensor_type=sensor_type,
                    recovery=recovery
                )
            if golden_key is not None:
                from .cache import encode_golden_trace

                cache.put(
                    golden_key, encode_golden_trace(golden_trace, ip=ip_name)
                )
                golden_cached = False
                REGISTRY.inc("repro_golden_cache_misses_total")

        cached_outcomes: "list" = []
        cache_keys = None
        hits = misses = None
        miss_indices = list(range(len(specs)))
        if cache is not None:
            from .cache import (
                decode_outcome,
                golden_trace_hash,
                model_fingerprint,
                mutant_entry_key,
                stimuli_hash,
            )

            model_fp = model_fingerprint(injected)
            stim_hash = stimuli_hash(stimuli)
            golden_hash = golden_trace_hash(golden_trace)
            cache_keys = tuple(
                mutant_entry_key(
                    model_fp, stim_hash, golden_hash, sensor_type, spec,
                    recovery=recovery, tap_order=taps,
                )
                for spec in specs
            )
            with trace_span("campaign.cache_probe", ip=ip_name,
                            keys=len(cache_keys)):
                cached_outcomes, miss_indices = cache.probe(
                    cache_keys, decode_outcome
                )
            hits = len(cached_outcomes)
            misses = len(miss_indices)

        equivalent = plan_pruning(injected, sensor_type)
        thresholds = None
        if equivalent:
            thresholds = dict(
                getattr(injected.compiled_class(), "LUT_THRESHOLDS", {})
                or {}
            )
        pruned_outcomes = [
            judge_equivalent(i, specs[i], golden_trace,
                             tap_order=taps, thresholds=thresholds)
            for i in miss_indices if i in equivalent
        ]
        miss_indices = [i for i in miss_indices if i not in equivalent]

        shards = tuple(
            CampaignShard(
                indices=indices,
                injected=injected,
                stimuli=tuple(stimuli),
                golden=golden_trace,
                sensor_type=sensor_type,
                recovery=recovery,
                trace=TRACER.enabled,
            )
            for indices in _shard_sequence(miss_indices, workers, shard_size)
        )
        prepared = PreparedCampaign(
            ip_name=ip_name,
            sensor_type=sensor_type,
            variant=injected.variant,
            cycles_per_run=len(stimuli),
            total=len(specs),
            shards=shards,
            cached_outcomes=tuple(cached_outcomes),
            cache_keys=cache_keys,
            cache_hits=hits,
            cache_misses=misses,
            golden_cached=golden_cached,
            pruned_outcomes=tuple(pruned_outcomes),
            # Plan-level count (all table entries, not just cache
            # misses) so cold and warm runs of the same campaign report
            # identical prune statistics.
            pruned_equivalent=len(equivalent),
        )
        _write_back(cache, prepared, prepared.pruned_outcomes)
        return prepared


def run_campaign(
    golden: GeneratedTlm,
    injected: GeneratedTlm,
    stimuli: "list[dict[str, int]]",
    *,
    ip_name: str = "ip",
    sensor_type: str = "razor",
    recovery: bool = True,
    workers: int = 1,
    shard_size: "int | None" = None,
    scheduler=None,
    cache=None,
) -> MutationReport:
    """Run a full mutation campaign, sharded across ``workers``.

    Args:
        golden: the non-injected reference model.  It is simulated
            exactly once, regardless of the mutant count, and a warm
            ``cache`` replays its trace instead.
        injected: the ADAM-generated description.
        stimuli: per-cycle ``name -> int`` input vectors.
        workers / shard_size: shard sizing (``shard_size`` overrides
            the automatic one-shard-per-worker split).  Each shard is
            one batched sweep (:mod:`repro.mutation.batched`), so the
            shard size is also the sweep width.
        scheduler: a
            :class:`~repro.mutation.scheduler.CampaignScheduler` to
            reuse one persistent worker pool across many campaigns
            instead of paying a pool spin-up per call (``workers`` is
            then ignored in favour of ``scheduler.workers``).
        cache: a :class:`~repro.mutation.cache.ResultCache`; known
            verdicts are replayed instead of executed, and fresh
            verdicts are written back as their shards complete.

    The prepared campaign runs on the scheduler's one driver
    (:func:`repro.mutation.scheduler._drive`), the loop every suite
    runs on, with all its shards submitted at once.  Per-shard
    progress and early abort live on
    :func:`~repro.mutation.scheduler.stream_shard_batches`.

    Returns:
        The merged :class:`MutationReport`, with ``cache_hits`` /
        ``cache_misses`` set when a cache was in play, the
        whole-table ``pruned_equivalent`` count of the static mutant
        analyzer (:mod:`repro.lint.mutants`), and ``seconds`` from the
        start of preparation to the last shard's completion.

    Determinism: the report equals the serial, unpruned
    one-simulation-per-mutant oracle on every scored field, for any
    ``workers`` / ``shard_size`` / ``scheduler`` combination and any
    cache state (cold, warm, or partial).
    """
    from .scheduler import _run_one

    started = time.perf_counter()
    with trace_span("campaign.run", ip=ip_name, sensor=sensor_type):
        prepared = prepare_campaign(
            golden,
            injected,
            stimuli,
            ip_name=ip_name,
            sensor_type=sensor_type,
            recovery=recovery,
            workers=workers if scheduler is None else scheduler.workers,
            shard_size=shard_size,
            cache=cache,
        )
        return _run_one(prepared, started, workers=workers,
                        scheduler=scheduler, cache=cache)
