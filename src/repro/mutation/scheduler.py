"""Streaming cross-IP campaign scheduler (one pool, many campaigns).

:mod:`repro.mutation.campaign` turned one campaign into picklable
shards; this module turns *many* campaigns -- all IPs x both sensor
types x any variant -- into one service-shaped workload fed to a
single persistent worker pool:

* :class:`CampaignScheduler` (defined in
  :mod:`repro.mutation.placement`, re-exported here) owns one
  self-healing :class:`concurrent.futures.ProcessPoolExecutor` for its
  whole lifetime.  Campaigns share it instead of paying a pool
  spin-up and tear-down per
  :func:`~repro.mutation.campaign.run_campaign` call; ``workers=1``
  degrades to inline execution (no processes, fully deterministic
  ordering).
* :func:`stream_shard_batches` is the streaming face of one prepared
  campaign: a generator yielding each completed shard's outcomes with
  a :class:`CampaignProgress` snapshot, honouring
  :class:`AbortPolicy` early-abort (stop on the first surviving
  mutant, or once the score threshold is reached -- new shards stop
  being submitted, in-flight shards drain).  Collecting every batch
  and sorting by mutant index reproduces the blocking
  :func:`~repro.mutation.campaign.run_campaign` report
  byte-for-byte; the campaign service streams its ``/events`` feed
  from it.
* :func:`run_benchmark_suite` batches whole campaign *suites* across
  IPs: each campaign's shards are submitted to the shared pool as soon
  as that campaign is prepared (prep of later campaigns overlaps
  execution of earlier ones), and the shared queue lets short
  campaigns backfill pool slots left idle while the long ones drain --
  no per-campaign serialisation barrier, one pool warm for the whole
  regression.  With ``rtl_validation=True`` the suite also lowers
  every campaign's RTL-validation mutants to
  :class:`~repro.mutation.rtl_validation.RtlValidationShard` work
  units on the *same* pool, so TLM campaigns and RTL validations
  interleave on one executor.

A prepared RTL validation
(:class:`~repro.mutation.rtl_validation.PreparedRtlValidation`) has
the interface of a prepared campaign -- ``replayed_outcomes``,
``total_shards``, ``cache_keys``, ``encode_outcome`` and
``build_report(outcomes, seconds, counters)`` -- so one suite job type
serves both levels, and every executed shard of either level goes
through one absorption path (:func:`_absorb_executed`: obs counters
and spans, then cache write-back).

Every entry point threads ``cache=`` (a
:class:`~repro.mutation.cache.ResultCache`) through the preparation:
known verdicts are replayed instantly as a virtual first shard, only
cache misses are submitted, and fresh verdicts are written back as
their shards complete -- so a warm re-run of an unchanged suite
executes (nearly) nothing.

Score accounting in the merged reports follows
:class:`repro.mutation.analysis.MutationReport`: timed-out runs are
excluded from every aggregate percentage (``effective_total``).
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import TRACER, absorb_shard_counters, trace_span

from .campaign import PreparedCampaign, _write_back, prepare_campaign
from .placement import CampaignScheduler

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from .analysis import MutationReport
    from .rtl_validation import PreparedRtlValidation

__all__ = [
    "AbortPolicy",
    "CampaignProgress",
    "CampaignScheduler",
    "SuiteResult",
    "run_benchmark_suite",
    "stream_shard_batches",
]


@dataclass(frozen=True)
class AbortPolicy:
    """Early-abort policy for streaming campaigns.

    ``stop_on_survivor``
        stop submitting new shards as soon as a judged mutant survives
        (the paper's closure loop cares about the *first* hole in the
        sensor net, not the full count);
    ``score_threshold``
        stop once the killed percentage over the judged outcomes so
        far reaches the threshold (metric-driven closure: the campaign
        has proven enough).  The running score over a few mutants is
        noisy -- ``min_judged`` requires a minimum judged sample
        before the threshold may trigger (default 1: any judged
        outcome counts).

    Aborting never discards observations: shards already in flight
    drain and their outcomes are still yielded; only *new* submissions
    stop.
    """

    stop_on_survivor: bool = False
    score_threshold: "float | None" = None
    min_judged: int = 1

    def triggered(self, *, killed: int, survivors: int, judged: int) -> bool:
        if self.stop_on_survivor and survivors > 0:
            return True
        if (
            self.score_threshold is not None
            and judged >= max(1, self.min_judged)
            and 100.0 * killed / judged >= self.score_threshold
        ):
            return True
        return False


@dataclass(frozen=True)
class CampaignProgress:
    """Snapshot handed to ``progress`` callbacks after every shard."""

    ip_name: str
    sensor_type: str
    done: int            # outcomes observed so far
    total: int           # mutants in the campaign
    killed: int          # judged kills (timed-out runs are neither)
    survivors: int       # judged, not killed
    timed_out: int       # truncated runs (excluded from the score);
                         # killed + survivors + timed_out == done
    shards_done: int
    shards_total: int
    aborted: bool = False


class _CampaignTracker:
    """Mutable per-campaign counters behind the progress snapshots and
    the abort policy."""

    def __init__(self, prepared: PreparedCampaign,
                 abort: "AbortPolicy | None" = None) -> None:
        self.prepared = prepared
        self.abort = abort
        self.done = 0
        self.killed = 0
        self.survivors = 0
        self.timed_out = 0
        self.shards_done = 0
        self.aborted = False

    def record(self, outcome) -> None:
        self.done += 1
        # Mirror MutationReport's score accounting: a timed-out run is
        # neither a kill nor a survivor, even if it diverged before the
        # truncation -- so killed + survivors + timed_out == done and
        # the running abort score agrees with the final report.
        if outcome.timed_out:
            self.timed_out += 1
        elif outcome.killed:
            self.killed += 1
        else:
            self.survivors += 1
        if self.abort is not None and not self.aborted:
            self.aborted = self.abort.triggered(
                killed=self.killed,
                survivors=self.survivors,
                judged=self.done - self.timed_out,
            )

    def absorb(self, outcomes, progress=None) -> None:
        """Account one completed shard: record every outcome, bump the
        shard counter, fire the progress callback.  The single
        absorption path shared by :func:`stream_shard_batches` and
        :func:`run_benchmark_suite`, so streaming and suite accounting
        cannot drift apart."""
        for outcome in outcomes:
            self.record(outcome)
        self.shards_done += 1
        if progress is not None:
            progress(self.snapshot())

    def snapshot(self) -> CampaignProgress:
        p = self.prepared
        return CampaignProgress(
            ip_name=p.ip_name,
            sensor_type=p.sensor_type,
            done=self.done,
            total=p.total,
            killed=self.killed,
            survivors=self.survivors,
            timed_out=self.timed_out,
            shards_done=self.shards_done,
            shards_total=p.total_shards,
            aborted=self.aborted,
        )


def _ephemeral_width(workers: int, prepared: PreparedCampaign) -> int:
    """Pool width for a one-campaign ephemeral scheduler: never more
    workers than shards (a one-shard campaign executes inline), never
    fewer than one (``workers <= 1`` keeps the historical inline
    semantics instead of raising)."""
    return min(max(1, workers), max(1, len(prepared.shards)))


@contextmanager
def _leased_scheduler(scheduler: "CampaignScheduler | None", width: int):
    """Yield ``scheduler`` untouched when one was passed (the caller
    owns its lifetime), or an ephemeral :class:`CampaignScheduler` of
    ``width`` workers that is shut down on exit.  The single
    scheduler-lifecycle policy shared by every campaign entry point."""
    if scheduler is not None:
        yield scheduler
        return
    ephemeral = CampaignScheduler(max(1, width))
    try:
        yield ephemeral
    finally:
        ephemeral.shutdown()


def _stream_shard_results(scheduler: "CampaignScheduler", shards, *,
                          stop=None):
    """Windowed shard submission: yield each completed shard's outcome
    list in completion order, keeping at most one submitted shard per
    pool slot so a ``stop()`` predicate (e.g. an abort policy)
    genuinely stops work instead of merely ignoring results of shards
    already queued behind the pool.  The low-level drain loop shared
    by :func:`stream_shard_batches` and
    :func:`repro.mutation.rtl_validation.validate_at_rtl`.

    The in-flight window is **never abandoned**: if the consumer stops
    iterating early -- a raising ``progress`` callback, an aborted
    stream, a disconnected service client closing its generator -- the
    ``finally`` block cancels what it can and drains the rest, so a
    shared pool is left with no orphan futures and the next campaign
    starts clean.
    """
    remaining = iter(shards)
    pending: "set[Future]" = set()
    exhausted = False
    try:
        while True:
            while not exhausted and len(pending) < scheduler.workers and \
                    not (stop is not None and stop()):
                shard = next(remaining, None)
                if shard is None:
                    exhausted = True
                    break
                pending.add(scheduler.submit(shard))
            if not pending:
                break
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()
    finally:
        if pending:
            for future in pending:
                future.cancel()
            wait(pending)


def _absorb_executed(
    prepared: "PreparedCampaign | PreparedRtlValidation", result, cache,
    counters: "dict[str, int]",
) -> "list":
    """Account one freshly executed shard of either level; return its
    outcomes as a plain list.

    The shard's obs side-channel is absorbed: its counters feed the
    metrics registry and are added to ``counters``, the report's total
    (``report.obs``), and its relative-offset spans are re-anchored
    onto the tracer.  Every outcome is then written back to ``cache``.
    The one path shared by :func:`stream_shard_batches`,
    :func:`run_benchmark_suite` and
    :func:`~repro.mutation.rtl_validation.validate_at_rtl`."""
    obs = getattr(result, "obs", None)
    for name, value in absorb_shard_counters(obs).items():
        counters[name] = counters.get(name, 0) + value
    TRACER.absorb_shard(obs, ip=prepared.ip_name)
    _write_back(cache, prepared, result)
    return list(result)


def stream_shard_batches(
    scheduler: "CampaignScheduler",
    prepared: PreparedCampaign,
    *,
    progress=None,
    abort: "AbortPolicy | None" = None,
    cache=None,
    counters: "dict[str, int] | None" = None,
):
    """Run an already-prepared campaign on ``scheduler``, yielding one
    ``(outcomes, CampaignProgress)`` pair per completed shard.  The
    shard-granular streaming core shared by
    :func:`repro.mutation.campaign.run_campaign` and the campaign
    service (whose ``/jobs/<id>/events`` wire format is exactly this:
    per-shard outcome batches interleaved with progress snapshots);
    the caller owns the scheduler's lifetime.

    Every outcome is yielded exactly once, in shard-completion order
    (deterministic for one worker, pool-dependent otherwise); the
    outcomes themselves do not depend on sharding, so
    :meth:`~repro.mutation.campaign.PreparedCampaign.build_report`
    over the collected batches is deterministic.

    ``progress`` is called with each snapshot.  ``abort`` (an
    :class:`AbortPolicy`) stops *submission* of new shards once
    triggered; shards already in flight drain and are still yielded.
    Replayed outcomes (``prepared.replayed_outcomes``: cache hits plus
    statically-pruned verdicts) are yielded first as one virtual shard
    -- they count toward progress and can trigger the abort policy
    before any submission happens.  Freshly executed shards go through
    :func:`_absorb_executed` (pass the cache the campaign was prepared
    with); ``counters``, when given, collects their obs counters for
    ``build_report``.

    Abandoning the generator early (``close()``, or an exception out
    of a ``progress`` callback) stops submission and drains in-flight
    shards before returning, so a shared scheduler is never left with
    orphan work -- see :func:`_stream_shard_results`.
    """
    counters = {} if counters is None else counters
    with trace_span("scheduler.stream", ip=prepared.ip_name,
                    sensor=prepared.sensor_type,
                    shards=prepared.total_shards):
        tracker = _CampaignTracker(prepared, abort)
        replayed = prepared.replayed_outcomes
        if replayed:
            tracker.absorb(replayed, progress)
            yield list(replayed), tracker.snapshot()
        results = _stream_shard_results(
            scheduler, prepared.shards, stop=lambda: tracker.aborted
        )
        try:
            for result in results:
                outcomes = _absorb_executed(prepared, result, cache,
                                            counters)
                tracker.absorb(outcomes, progress)
                yield outcomes, tracker.snapshot()
        finally:
            # Deterministic cleanup even when our *own* frame is torn
            # down mid-yield (consumer close) or a callback raised
            # above: close the drain loop now instead of waiting for
            # GC.
            results.close()


@dataclass
class SuiteResult:
    """Outcome of one :func:`run_benchmark_suite` run."""

    #: ``(ip_name, sensor_type) -> MutationReport``, every report
    #: field-identical to a standalone ``run_campaign``, ``obs``
    #: counters included (modulo the wall-clock ``seconds``, which
    #: here spans that campaign's own preparation to its last shard;
    #: campaigns overlap on the shared pool, so the per-campaign times
    #: can sum past the suite total).
    reports: "dict[tuple[str, str], MutationReport]"
    seconds: float           # whole suite, including flow builds
    campaign_seconds: float  # prepare+execute phase (prep of later
                             # campaigns overlaps earlier shards)
    workers: int
    #: ``(ip_name, sensor_type) -> RtlValidationReport`` when the
    #: suite ran with ``rtl_validation=True`` (empty otherwise); the
    #: RTL shards interleaved with the TLM shards on the same pool.
    rtl_reports: "dict" = field(default_factory=dict)

    @property
    def total_mutants(self) -> int:
        """TLM campaign mutants (RTL validations counted separately
        via :attr:`total_rtl_mutants`)."""
        return sum(r.total for r in self.reports.values())

    @property
    def total_rtl_mutants(self) -> int:
        return sum(r.total for r in self.rtl_reports.values())

    @property
    def cache_hits(self) -> "int | None":
        """Replayed verdicts across every report (TLM + RTL), or
        ``None`` when the suite ran without a cache."""
        hits = [
            r.cache_hits
            for r in (*self.reports.values(), *self.rtl_reports.values())
            if r.cache_hits is not None
        ]
        return sum(hits) if hits else None

    @property
    def cache_misses(self) -> "int | None":
        misses = [
            r.cache_misses
            for r in (*self.reports.values(), *self.rtl_reports.values())
            if r.cache_misses is not None
        ]
        return sum(misses) if misses else None

    @property
    def mutants_per_second(self) -> float:
        """Pool throughput over the campaign window: mutants actually
        *executed* per second.  RTL-validation mutants run inside the
        same window, so they count; cache-replayed and statically
        pruned verdicts never touch the pool, so they do not (a
        fully-warm re-run reports 0.0 rather than a replay rate
        mislabelled as execution)."""
        if self.campaign_seconds <= 0:
            return 0.0
        executed = sum(r.executed for r in self.reports.values()) + sum(
            r.total - (r.cache_hits or 0) for r in self.rtl_reports.values()
        )
        return executed / self.campaign_seconds

    @property
    def all_killed(self) -> bool:
        return all(r.killed_pct == 100.0 for r in self.reports.values())

    @property
    def timed_out_count(self) -> int:
        return sum(r.timed_out_count for r in self.reports.values())

    @property
    def rtl_disagreements(self) -> "dict[tuple[str, str], list[int]]":
        """Per RTL-validated campaign, the indices of the mutants whose
        TLM and RTL ``error_risen``/``meas_val`` disagree
        (:func:`~repro.mutation.rtl_validation.cross_level_disagreements`).
        Both levels drive the campaign's own stimuli, so every
        campaign is compared."""
        from .rtl_validation import cross_level_disagreements

        return {
            key: cross_level_disagreements(self.reports[key], rtl)
            for key, rtl in self.rtl_reports.items()
        }

    @property
    def rtl_validation_ok(self) -> bool:
        """True when no RTL validation ran, or every Razor RTL report
        raised its error on every mutant and every mutant of
        :attr:`rtl_disagreements` agrees across the two levels (the
        paper's cross-level agreement criterion).  Counter risen
        percentages sit below 100% by LUT-threshold design, so only
        their per-mutant agreement is gated."""
        return all(
            r.risen_pct == 100.0
            for (_, sensor), r in self.rtl_reports.items()
            if sensor == "razor"
        ) and not any(self.rtl_disagreements.values())


@dataclass
class _SuiteJob:
    """One TLM campaign or RTL validation inside a suite: its prepared
    work plus merge state.  Only TLM jobs carry a tracker: RTL outcomes
    have no kill/timeout verdict for :class:`CampaignProgress` to
    report."""

    key: "tuple[str, str]"
    prepared: "PreparedCampaign | PreparedRtlValidation"
    started: float           # perf_counter at this job's preparation
    tracker: "_CampaignTracker | None" = None
    outcomes: "list" = field(default_factory=list)
    #: The executed shards' obs counters, summed (``report.obs``).
    counters: "dict[str, int]" = field(default_factory=dict)
    #: perf_counter at the end of this job's preparation, then at each
    #: of its shards' completion as read by the shard future's
    #: done-callback -- so the job's time ends where its last shard
    #: finished, not whenever the parent (perhaps busy preparing a
    #: later campaign) drains it.
    finished: float = 0.0

    def absorb(self, outcomes, progress, finished: float) -> None:
        self.outcomes.extend(outcomes)
        self.finished = max(self.finished, finished)
        if self.tracker is not None:
            self.tracker.absorb(outcomes, progress)

    def report(self):
        return self.prepared.build_report(
            self.outcomes, seconds=self.finished - self.started,
            counters=self.counters,
        )


def run_benchmark_suite(
    specs,
    sensor_types=("razor", "counter"),
    *,
    workers: int = 4,
    shard_size: "int | None" = None,
    mutation_cycles: "int | None" = None,
    scheduler: "CampaignScheduler | None" = None,
    progress=None,
    flows: "dict | None" = None,
    cache=None,
    rtl_validation: bool = False,
) -> SuiteResult:
    """Run the cross-IP campaign suite on one shared worker pool.

    Args:
        specs: iterable of :class:`repro.ips.IpSpec` or registry
            names; every distinct ``spec x sensor_type`` pair becomes
            one campaign (duplicates are run once).
        sensor_types: the sensor variants to cover (default both).
        workers: pool width when no ``scheduler`` is passed.
        shard_size: overrides the one-shard-per-worker split (and
            with it the width of each TLM shard's batched sweep).
        mutation_cycles: overrides each IP's testbench length (TLM
            campaign and RTL validation alike).
        scheduler: a :class:`CampaignScheduler` owning the shared pool
            (its ``workers`` takes precedence).
        progress: per-shard :class:`CampaignProgress` callback, tagged
            with the shard's campaign.
        flows: optional ``(ip_name, sensor_type) ->``
            :class:`~repro.flow.pipeline.FlowResult` map of pre-built
            flows (the benchmark harness uses this to time scheduling
            strategies without re-running flow setup); missing entries
            are built via :func:`repro.flow.run_flow`.
        cache: a :class:`~repro.mutation.cache.ResultCache` shared by
            every campaign (and RTL validation) in the suite: known
            verdicts replay instantly, fresh ones are written back, so
            a second identical suite run executes (nearly) nothing.
        rtl_validation: also lower every campaign's RTL-validation
            mutants to shards on the *same* pool
            (:class:`~repro.mutation.rtl_validation.RtlValidationShard`),
            interleaved with the TLM shards; reports land in
            :attr:`SuiteResult.rtl_reports`.  RTL validation replays
            the campaign's own stimuli, so a short ``mutation_cycles``
            truncates it too: slowly-toggling endpoints (e.g. the
            filter's decimated outputs) may then legitimately miss
            100% risen, the same caveat as the TLM kill gate.

    Each campaign's flow (characterise + insert + abstract + inject)
    and golden trace are prepared in the parent, and its shards are
    submitted to the one shared :class:`CampaignScheduler` **as soon
    as that campaign is ready** -- the pool chews earlier campaigns'
    shards while later ones still prepare, and the shared queue lets
    short campaigns backfill the slots long ones leave idle.  The pool
    is spun up exactly once for the whole suite.

    Returns:
        A :class:`SuiteResult`.  The per-campaign reports are
        deterministic: field-identical to a standalone
        :func:`~repro.mutation.campaign.run_campaign` of the same
        campaign (``seconds`` aside), for any worker count and any
        cache state.
    """
    from repro.flow import run_flow
    from repro.ips import IpSpec, case_study

    from .rtl_validation import prepare_rtl_validation

    suite_started = time.perf_counter()
    resolved: "list[IpSpec]" = [
        case_study(s) if isinstance(s, str) else s for s in specs
    ]
    sensor_types = tuple(sensor_types)
    for sensor in sensor_types:
        # Fail fast in the parent: an unknown sensor type would
        # otherwise surface as a tap-order crash inside a worker.
        if sensor not in ("razor", "counter"):
            raise ValueError(f"unknown sensor type {sensor!r}")

    campaign_started = time.perf_counter()
    jobs: "list[_SuiteJob]" = []
    rtl_jobs: "list[_SuiteJob]" = []
    pending: "set[Future]" = set()
    #: ``(job, future, perf_counter)`` put by each shard future's
    #: done-callback.  Draining this queue rather than waiting on the
    #: futures means a shard is absorbed only once its callback has
    #: read its completion time (a future wakes its waiters before it
    #: runs its callbacks).
    completed: "queue.SimpleQueue" = queue.SimpleQueue()
    seen: "set[tuple[str, str]]" = set()

    def _absorb_completed(block: bool) -> None:
        """Absorb every completed shard, first waiting for one when
        ``block``."""
        while pending:
            try:
                job, future, finished = completed.get(block=block)
            except queue.Empty:
                return
            block = False
            pending.remove(future)
            job.absorb(
                _absorb_executed(job.prepared, future.result(), cache,
                                 job.counters),
                progress, finished,
            )

    def _start(sched, job) -> None:
        # Preparation is done.  Replayed verdicts (cache hits +
        # statically pruned) are already in the cache: absorb them as
        # the first batch.
        job.finished = time.perf_counter()
        if job.prepared.replayed_outcomes:
            job.absorb(list(job.prepared.replayed_outcomes), progress,
                       job.finished)
        # Submit immediately: the pool starts on this job's shards
        # while the next campaign's flow and golden trace still
        # prepare in the parent.  Inline execution resolves at
        # submission, so drain after each one.
        for shard in job.prepared.shards:
            future = sched.submit(shard)
            pending.add(future)
            future.add_done_callback(
                lambda f, job=job: completed.put(
                    (job, f, time.perf_counter()))
            )
            _absorb_completed(block=False)

    def _run_suite(sched) -> None:
        for spec in resolved:
            for sensor in sensor_types:
                key = (spec.name, sensor)
                if key in seen:
                    continue
                seen.add(key)
                flow = (flows or {}).get(key)
                if flow is None:
                    flow = run_flow(spec, sensor, run_mutation=False)
                stimuli = spec.stimulus(
                    mutation_cycles or spec.mutation_cycles
                )
                # Campaign time starts at its own preparation (golden
                # trace + sharding), matching run_campaign.seconds --
                # the flow build above is suite setup, not campaign.
                started = time.perf_counter()
                prepared = prepare_campaign(
                    flow.tlm_optimized,
                    flow.injected,
                    stimuli,
                    ip_name=spec.name,
                    sensor_type=sensor,
                    recovery=True,
                    workers=sched.workers,
                    shard_size=shard_size,
                    cache=cache,
                )
                job = _SuiteJob(key, prepared, started,
                                tracker=_CampaignTracker(prepared))
                jobs.append(job)
                _start(sched, job)

                if rtl_validation:
                    # Both levels drive the same stimuli, so per-mutant
                    # agreement is defined for every campaign.
                    started = time.perf_counter()
                    prepared = prepare_rtl_validation(
                        flow.augmented,
                        flow.injected.mutants,
                        stimuli=stimuli,
                        ip_name=spec.name,
                        workers=sched.workers,
                        shard_size=shard_size,
                        cache=cache,
                    )
                    job = _SuiteJob(key, prepared, started)
                    rtl_jobs.append(job)
                    _start(sched, job)
                # Keep progress live: drain whatever finished while
                # this campaign prepared.
                _absorb_completed(block=False)
        while pending:
            _absorb_completed(block=True)

    # A passed scheduler defines the pool width; shard to fill it.
    with _leased_scheduler(scheduler, workers) as sched:
        try:
            _run_suite(sched)
        except BaseException:
            # A raising progress callback (or any mid-suite failure)
            # must not leave orphan futures behind on a *shared* pool:
            # cancel what never started, drain what is in flight, so
            # the next suite on the same scheduler starts clean.
            for future in pending:
                future.cancel()
            if pending:
                wait(pending)
            raise
    campaign_seconds = time.perf_counter() - campaign_started

    return SuiteResult(
        reports={job.key: job.report() for job in jobs},
        seconds=time.perf_counter() - suite_started,
        campaign_seconds=campaign_seconds,
        workers=sched.workers,
        rtl_reports={job.key: job.report() for job in rtl_jobs},
    )
