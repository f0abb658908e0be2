"""Streaming cross-IP scheduler suite + PR-3 regression tests.

Covers the streaming equivalence guarantee (every outcome yielded
exactly once; the merged report field-identical to the blocking
``run_campaign`` for several ``workers`` / ``shard_size`` combinations
on all three case-study IPs and both sensor types), persistent-pool
reuse across campaigns, cross-IP suite batching, early-abort policies
(submission stops), pool self-healing and the drain of cancelled
supervised futures, and regressions for two accounting bugfixes:
timed-out runs excluded from the mutation score, and Razor preparation
never compiling the injected model (only Counter campaigns read its
tap order).
"""

import os
import signal
from concurrent.futures import wait

import pytest

from repro.abstraction import GeneratedTlm
from repro.flow import run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.mutation import (
    AbortPolicy,
    CampaignScheduler,
    MutantOutcome,
    MutationReport,
    SupervisedFuture,
    prepare_campaign,
    run_benchmark_suite,
    run_campaign,
    stream_shard_batches,
)
from repro.reporting import mutation_summary_pairs

#: Shortened testbench shared by the cross-IP streaming tests: long
#: enough to exercise every engine path, short enough that the suite
#: stays in tier-1 time budget.  Kill percentages at this length are
#: irrelevant here -- only blocking/streaming equivalence is.
REDUCED_CYCLES = 24


@pytest.fixture(scope="module")
def flows():
    """Memoised ``run_flow(..., run_mutation=False)`` per (ip, sensor)."""
    cache = {}

    def get(ip, sensor):
        key = (ip, sensor)
        if key not in cache:
            cache[key] = run_flow(case_study(ip), sensor,
                                  run_mutation=False)
        return cache[key]

    return get


def assert_reports_match(actual: MutationReport, expected: MutationReport):
    """Field-for-field equality, ``seconds`` (wall clock) aside."""
    assert actual.ip_name == expected.ip_name
    assert actual.sensor_type == expected.sensor_type
    assert actual.variant == expected.variant
    assert actual.cycles_per_run == expected.cycles_per_run
    assert actual.outcomes == expected.outcomes
    assert actual.total == expected.total
    assert actual.effective_total == expected.effective_total
    assert actual.timed_out_count == expected.timed_out_count
    assert actual.killed_pct == expected.killed_pct
    assert actual.detected_pct == expected.detected_pct
    assert actual.risen_pct == expected.risen_pct
    assert actual.corrected_pct == expected.corrected_pct
    assert actual.mutation_score == expected.mutation_score


def prepare(flow, stim, ip, sensor, *, workers, shard_size=None):
    """Prepare one campaign sharded for a ``workers``-wide pool."""
    return prepare_campaign(
        flow.tlm_optimized, flow.injected, stim,
        ip_name=ip, sensor_type=sensor,
        workers=workers, shard_size=shard_size,
    )


def streamed(scheduler, prepared, **kwargs):
    """Every outcome :func:`stream_shard_batches` yields, in yield
    order."""
    return [
        outcome
        for batch, _snapshot in stream_shard_batches(
            scheduler, prepared, **kwargs
        )
        for outcome in batch
    ]


class CountingScheduler(CampaignScheduler):
    """Scheduler that counts shard submissions (early-abort probes)."""

    def __init__(self, workers: int = 1):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, shard):
        self.submitted += 1
        return super().submit(shard)


# ----------------------------------------------------------------------
# Streaming equivalence: stream_shard_batches == run_campaign, all IPs
# ----------------------------------------------------------------------

class TestStreamingEquivalence:
    @pytest.mark.parametrize("sensor", ["razor", "counter"])
    @pytest.mark.parametrize("ip", sorted(CASE_STUDIES))
    def test_stream_matches_blocking_report(self, flows, ip, sensor):
        spec = case_study(ip)
        flow = flows(ip, sensor)
        stim = spec.stimulus(REDUCED_CYCLES)
        baseline = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name=ip, sensor_type=sensor, workers=1,
        )
        for workers, shard_size in [(1, None), (4, None), (4, 2)]:
            prepared = prepare(flow, stim, ip, sensor, workers=workers,
                               shard_size=shard_size)
            with CampaignScheduler(workers) as scheduler:
                outcomes = streamed(scheduler, prepared)
            # Every outcome exactly once, no duplicates, no gaps.
            assert sorted(o.index for o in outcomes) == \
                list(range(baseline.total))
            report = MutationReport(
                ip_name=ip,
                sensor_type=sensor,
                variant=flow.injected.variant,
                outcomes=sorted(outcomes, key=lambda o: o.index),
                cycles_per_run=len(stim),
            )
            assert_reports_match(report, baseline)

    def test_progress_callback_sees_every_shard(self, flows):
        spec = case_study("dsp")
        flow = flows("dsp", "razor")
        stim = spec.stimulus(REDUCED_CYCLES)
        snapshots = []
        outcomes = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor",
            workers=1, shard_size=4, progress=snapshots.append,
        ).outcomes
        total = len(flow.injected.mutants)
        assert [s.shards_done for s in snapshots] == \
            list(range(1, len(snapshots) + 1))
        last = snapshots[-1]
        assert last.shards_done == last.shards_total
        assert last.done == last.total == total == len(outcomes)
        assert last.killed + last.survivors + last.timed_out == last.done
        assert not last.aborted


# ----------------------------------------------------------------------
# Persistent pool sharing
# ----------------------------------------------------------------------

class TestPersistentScheduler:
    def test_one_pool_serves_many_campaigns(self, flows):
        stim = {
            ip: case_study(ip).stimulus(REDUCED_CYCLES)
            for ip in ("plasma", "dsp")
        }
        with CampaignScheduler(workers=2) as scheduler:
            reports = {}
            pools = set()
            for ip in ("plasma", "dsp"):
                flow = flows(ip, "razor")
                reports[ip] = run_campaign(
                    flow.tlm_optimized, flow.injected, stim[ip],
                    ip_name=ip, sensor_type="razor",
                    scheduler=scheduler,
                )
                pools.add(id(scheduler._pool))
            assert len(pools) == 1          # the pool was reused
            assert scheduler._pool is not None
        for ip in ("plasma", "dsp"):
            flow = flows(ip, "razor")
            baseline = run_campaign(
                flow.tlm_optimized, flow.injected, stim[ip],
                ip_name=ip, sensor_type="razor", workers=1,
            )
            assert_reports_match(reports[ip], baseline)

    def test_shutdown_refuses_new_work(self):
        scheduler = CampaignScheduler(workers=2)
        scheduler.shutdown()
        with pytest.raises(RuntimeError):
            scheduler.pool()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignScheduler(workers=0)

    def test_describe_reports_counters(self, flows):
        # The /healthz pool block: in-flight and finished shards plus
        # the self-healing counters.
        flow = flows("dsp", "razor")
        stim = case_study("dsp").stimulus(REDUCED_CYCLES)
        prepared = prepare_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor", shard_size=4,
        )
        with CampaignScheduler(workers=1) as scheduler:
            before = scheduler.describe()
            assert before == {
                "workers": 1, "live": False, "in_flight": 0,
                "shards_done": 0, "pool_rebuilds": 0,
                "shard_isolations": 0,
            }
            for shard in prepared.shards:
                scheduler.submit(shard).result()
            after = scheduler.describe()
            assert after["shards_done"] == len(prepared.shards)
            assert after["in_flight"] == 0
            # workers=1 runs inline: no process pool is ever built.
            assert after["live"] is False

    def test_run_campaign_workers_zero_still_runs_inline(self, flows):
        # Historical behaviour: workers <= 1 meant "inline", it never
        # raised -- the ephemeral scheduler must clamp, not reject.
        flow = flows("plasma", "razor")
        stim = case_study("plasma").stimulus(REDUCED_CYCLES)
        report = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="plasma", sensor_type="razor", workers=0,
        )
        baseline = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="plasma", sensor_type="razor", workers=1,
        )
        assert_reports_match(report, baseline)


# ----------------------------------------------------------------------
# Cross-IP suite batching
# ----------------------------------------------------------------------

class TestBenchmarkSuite:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_suite_reports_match_standalone_campaigns(self, flows,
                                                      workers):
        ips = sorted(CASE_STUDIES)
        prepared_flows = {(ip, "razor"): flows(ip, "razor") for ip in ips}
        suite = run_benchmark_suite(
            ips, ("razor",), workers=workers,
            mutation_cycles=REDUCED_CYCLES, flows=prepared_flows,
        )
        assert set(suite.reports) == {(ip, "razor") for ip in ips}
        for ip in ips:
            flow = prepared_flows[(ip, "razor")]
            stim = case_study(ip).stimulus(REDUCED_CYCLES)
            baseline = run_campaign(
                flow.tlm_optimized, flow.injected, stim,
                ip_name=ip, sensor_type="razor", workers=1,
            )
            assert_reports_match(suite.reports[(ip, "razor")], baseline)
        assert suite.total_mutants == sum(
            r.total for r in suite.reports.values()
        )
        assert suite.workers == workers
        assert suite.campaign_seconds <= suite.seconds
        # Each campaign is timed from its preparation to its last
        # shard's completion, inside the suite's campaign window.
        for report in suite.reports.values():
            assert 0.0 < report.seconds <= suite.campaign_seconds

    def test_suite_rejects_unknown_sensor_type(self):
        with pytest.raises(ValueError, match="unknown sensor type"):
            run_benchmark_suite(["plasma"], ("razr",), workers=1)

    def test_suite_deduplicates_repeated_campaigns(self, flows):
        prepared_flows = {("plasma", "razor"): flows("plasma", "razor")}
        suite = run_benchmark_suite(
            ["plasma", "plasma"], ("razor", "razor"), workers=1,
            mutation_cycles=REDUCED_CYCLES, flows=prepared_flows,
        )
        assert list(suite.reports) == [("plasma", "razor")]
        assert suite.total_mutants == len(
            prepared_flows[("plasma", "razor")].injected.mutants
        )

    def test_suite_progress_is_tagged_per_campaign(self, flows):
        ips = ["plasma", "dsp"]
        prepared_flows = {(ip, "razor"): flows(ip, "razor") for ip in ips}
        snapshots = []
        run_benchmark_suite(
            ips, ("razor",), workers=1,
            mutation_cycles=REDUCED_CYCLES, flows=prepared_flows,
            progress=snapshots.append,
        )
        seen = {(s.ip_name, s.sensor_type) for s in snapshots}
        assert seen == {(ip, "razor") for ip in ips}
        for ip in ips:
            finals = [s for s in snapshots if s.ip_name == ip]
            assert finals[-1].done == finals[-1].total


# ----------------------------------------------------------------------
# Early abort
# ----------------------------------------------------------------------

class TestEarlyAbort:
    def test_first_survivor_stops_submission(self, flows):
        # A very short testbench leaves the filter's decimated outputs
        # untouched, so mutants survive -- the first survivor must
        # stop shard submission.
        flow = flows("filter", "razor")
        stim = case_study("filter").stimulus(8)
        scheduler = CountingScheduler(workers=1)
        outcomes = streamed(
            scheduler,
            prepare(flow, stim, "filter", "razor", workers=1, shard_size=1),
            abort=AbortPolicy(stop_on_survivor=True),
        )
        total = len(flow.injected.mutants)
        survivor_positions = [
            i for i, o in enumerate(outcomes)
            if not o.killed and not o.timed_out
        ]
        assert survivor_positions, "expected surviving mutants"
        # Inline mode submits one shard at a time, so submission halts
        # right after the shard that produced the first survivor.
        assert scheduler.submitted == survivor_positions[0] + 1
        assert scheduler.submitted < total

    def test_score_threshold_stops_submission(self, flows):
        # The full-length DSP campaign kills every mutant, so the very
        # first kill reaches a 100% running score and aborts.
        spec = case_study("dsp")
        flow = flows("dsp", "razor")
        stim = spec.stimulus(spec.mutation_cycles)
        scheduler = CountingScheduler(workers=1)
        outcomes = streamed(
            scheduler,
            prepare(flow, stim, "dsp", "razor", workers=1, shard_size=1),
            abort=AbortPolicy(score_threshold=100.0),
        )
        assert outcomes[0].killed
        assert scheduler.submitted == 1
        assert len(outcomes) < len(flow.injected.mutants)

    def test_no_policy_never_aborts(self):
        policy = AbortPolicy()
        assert not policy.triggered(killed=5, survivors=5, judged=10)

    def test_threshold_ignores_unjudged_runs(self):
        policy = AbortPolicy(score_threshold=50.0)
        assert not policy.triggered(killed=0, survivors=0, judged=0)
        assert policy.triggered(killed=1, survivors=1, judged=2)

    def test_min_judged_defers_a_noisy_threshold(self):
        policy = AbortPolicy(score_threshold=90.0, min_judged=5)
        # 2/2 = 100% but the sample is below the guard.
        assert not policy.triggered(killed=2, survivors=0, judged=2)
        assert policy.triggered(killed=5, survivors=0, judged=5)

    def test_tracker_score_matches_report_accounting(self):
        # A kill observed before a timeout is unjudged for the running
        # abort score, exactly as it is for MutationReport -- it must
        # not trip a 100% threshold that the final report would refute.
        from repro.mutation import PreparedCampaign
        from repro.mutation.scheduler import _CampaignTracker

        prepared = PreparedCampaign(
            ip_name="ip", sensor_type="razor", variant="hdtlib",
            cycles_per_run=4, total=2, shards=(),
        )
        tracker = _CampaignTracker(
            prepared, AbortPolicy(score_threshold=100.0)
        )
        tracker.record(_outcome(0, killed=True, timed_out=True))
        assert not tracker.aborted        # no judged outcomes yet
        tracker.record(_outcome(1))       # a real survivor: score 0%
        snap = tracker.snapshot()
        assert (snap.killed, snap.survivors, snap.timed_out) == (0, 1, 1)
        assert snap.killed + snap.survivors + snap.timed_out == snap.done
        assert not tracker.aborted


# ----------------------------------------------------------------------
# Regression: raising callbacks / abandoned streams must not wedge the
# shared pool (PR 5)
# ----------------------------------------------------------------------

class TestCallbackHardening:
    def _baseline(self, flows, ip="dsp"):
        flow = flows(ip, "razor")
        stim = case_study(ip).stimulus(REDUCED_CYCLES)
        return flow, stim, run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name=ip, sensor_type="razor", workers=1,
        )

    def test_raising_progress_callback_does_not_wedge_pool(self, flows):
        flow, stim, baseline = self._baseline(flows)

        def boom(_snapshot):
            raise RuntimeError("user callback exploded")

        with CampaignScheduler(workers=2) as scheduler:
            with pytest.raises(RuntimeError, match="exploded"):
                run_campaign(
                    flow.tlm_optimized, flow.injected, stim,
                    ip_name="dsp", sensor_type="razor",
                    scheduler=scheduler, shard_size=1, progress=boom,
                )
            # The abandoned campaign drained its in-flight shards, so
            # the same pool serves the next campaign deterministically.
            report = run_campaign(
                flow.tlm_optimized, flow.injected, stim,
                ip_name="dsp", sensor_type="razor", scheduler=scheduler,
            )
            assert_reports_match(report, baseline)

    def test_raising_suite_progress_does_not_wedge_pool(self, flows):
        ips = ["plasma", "dsp"]
        prepared_flows = {(ip, "razor"): flows(ip, "razor") for ip in ips}

        def boom(_snapshot):
            raise RuntimeError("suite callback exploded")

        with CampaignScheduler(workers=2) as scheduler:
            with pytest.raises(RuntimeError, match="exploded"):
                run_benchmark_suite(
                    ips, ("razor",), mutation_cycles=REDUCED_CYCLES,
                    scheduler=scheduler, flows=prepared_flows,
                    shard_size=1, progress=boom,
                )
            suite = run_benchmark_suite(
                ips, ("razor",), mutation_cycles=REDUCED_CYCLES,
                scheduler=scheduler, flows=prepared_flows,
            )
            for ip in ips:
                flow = prepared_flows[(ip, "razor")]
                stim = case_study(ip).stimulus(REDUCED_CYCLES)
                baseline = run_campaign(
                    flow.tlm_optimized, flow.injected, stim,
                    ip_name=ip, sensor_type="razor", workers=1,
                )
                assert_reports_match(suite.reports[(ip, "razor")],
                                     baseline)

    def test_abandoned_stream_drains_in_flight_shards(self, flows):
        # A service client dropping its /events connection closes the
        # consuming generator mid-stream; the drain-on-close contract
        # means the shared pool must come back clean.
        flow, stim, baseline = self._baseline(flows)
        with CampaignScheduler(workers=2) as scheduler:
            gen = stream_shard_batches(
                scheduler,
                prepare(flow, stim, "dsp", "razor", workers=2, shard_size=1),
            )
            next(gen)          # at least one shard in flight
            gen.close()        # consumer disappears
            report = run_campaign(
                flow.tlm_optimized, flow.injected, stim,
                ip_name="dsp", sensor_type="razor", scheduler=scheduler,
            )
            assert_reports_match(report, baseline)


# ----------------------------------------------------------------------
# Regression: timed-out runs excluded from the score denominators
# ----------------------------------------------------------------------

def _outcome(index, *, killed=False, timed_out=False, detected=False,
             risen=False, corrected=None):
    return MutantOutcome(
        index=index, kind="delta", target="t", register="r", hf_tick=1,
        killed=killed, detected=detected, error_risen=risen,
        corrected=corrected, meas_val=None, first_divergence=None,
        timed_out=timed_out,
    )


class TestScoreAccounting:
    def test_timeouts_excluded_from_denominator(self):
        report = MutationReport("ip", "razor", "hdtlib", outcomes=[
            _outcome(0, killed=True, detected=True, risen=True),
            _outcome(1, killed=True, detected=True, risen=True),
            _outcome(2, killed=True, detected=True, risen=True),
            _outcome(3, timed_out=True),
        ])
        assert report.total == 4
        assert report.timed_out_count == 1
        assert report.effective_total == 3
        # Regression: these were 75% -- the timed-out run silently
        # deflated the score as a phantom survivor.
        assert report.killed_pct == 100.0
        assert report.mutation_score == 100.0
        assert report.detected_pct == 100.0
        assert report.risen_pct == 100.0
        assert report.survivors() == []

    def test_timed_out_kill_is_not_scored(self):
        # A divergence observed before the timeout stays on the
        # outcome, but the aggregate score only judges completed runs.
        report = MutationReport("ip", "razor", "hdtlib", outcomes=[
            _outcome(0, killed=True),
            _outcome(1, killed=True, timed_out=True),
        ])
        assert report.effective_total == 1
        assert report.killed_pct == 100.0

    def test_all_timed_out_scores_zero(self):
        report = MutationReport("ip", "razor", "hdtlib", outcomes=[
            _outcome(0, timed_out=True),
            _outcome(1, timed_out=True),
        ])
        assert report.effective_total == 0
        assert report.killed_pct == 0.0
        assert report.survivors() == []

    def test_real_survivor_still_counts(self):
        report = MutationReport("ip", "razor", "hdtlib", outcomes=[
            _outcome(0, killed=True),
            _outcome(1),
        ])
        assert report.killed_pct == 50.0
        assert len(report.survivors()) == 1

    def test_summary_surfaces_the_exclusion(self):
        report = MutationReport("ip", "razor", "hdtlib", outcomes=[
            _outcome(0, killed=True),
            _outcome(1, timed_out=True),
        ])
        pairs = dict(mutation_summary_pairs(report))
        assert pairs["mutants"] == "1 judged / 2 total"
        assert pairs["timed out (excluded from score)"] == "1 of 2"

    def test_summary_is_quiet_without_timeouts(self):
        report = MutationReport("ip", "razor", "hdtlib", outcomes=[
            _outcome(0, killed=True),
        ])
        pairs = dict(mutation_summary_pairs(report))
        assert pairs["mutants"] == 1
        assert "timed out (excluded from score)" not in pairs


# ----------------------------------------------------------------------
# Regression: only Counter preparation compiles the injected model
# ----------------------------------------------------------------------

class TestLazyTapOrder:
    def test_razor_prepare_never_compiles_injected(self, flows,
                                                   monkeypatch):
        flow = flows("dsp", "razor")
        injected = flow.injected
        compiled = []
        orig = GeneratedTlm.compiled_class

        def spy(self):
            compiled.append(self)
            return orig(self)

        monkeypatch.setattr(GeneratedTlm, "compiled_class", spy)
        prepare_campaign(
            flow.tlm_optimized, injected,
            case_study("dsp").stimulus(8), sensor_type="razor",
        )
        # The golden model must compile (it simulates); the injected
        # description must not -- its compile belongs to the workers.
        assert all(gen is not injected for gen in compiled)


# ----------------------------------------------------------------------
# Pool self-healing (PR 7, recovery layer 1)
# ----------------------------------------------------------------------

class _PoisonShard:
    """A shard whose *execution* kills its host process -- the organic
    poison-pill case (a mutant tickling a segfault in a C extension
    would look exactly like this to the pool)."""

    indices = (0,)

    def run(self):  # pragma: no cover - dies before returning
        os._exit(1)


class _HonestShard:
    """Control shard: runs fine anywhere."""

    indices = (1,)

    def run(self):
        return ["ok"]


class TestPoolSelfHealing:
    """Regressions for the PR-7 supervised pool: before the fix, a
    worker process dying mid-campaign surfaced as a raw
    ``BrokenProcessPool`` and the whole campaign was lost."""

    def test_sigkilled_worker_mid_campaign_heals(self, flows):
        spec = case_study("dsp")
        flow = flows("dsp", "razor")
        stim = spec.stimulus(REDUCED_CYCLES)
        baseline = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor", workers=1,
        )
        with CampaignScheduler(workers=2) as scheduler:
            killed = False
            outcomes = []
            for batch, _snapshot in stream_shard_batches(
                scheduler,
                prepare(flow, stim, "dsp", "razor", workers=2, shard_size=1),
            ):
                outcomes.extend(batch)
                if not killed:
                    killed = True
                    # SIGKILL a real pool process while the remaining
                    # shards are still in flight on it.
                    pid = next(iter(scheduler._pool._processes))
                    os.kill(pid, signal.SIGKILL)
            assert sorted(o.index for o in outcomes) == \
                list(range(baseline.total))
            report = MutationReport(
                ip_name="dsp", sensor_type="razor",
                variant=flow.injected.variant,
                outcomes=sorted(outcomes, key=lambda o: o.index),
                cycles_per_run=len(stim),
            )
            assert_reports_match(report, baseline)
            assert scheduler.describe()["pool_rebuilds"] >= 1

    def test_poison_shard_is_quarantined_loudly(self):
        from repro.mutation import PoisonShardError

        with CampaignScheduler(workers=2) as scheduler:
            future = scheduler.submit(_PoisonShard())
            with pytest.raises(PoisonShardError) as excinfo:
                future.result(timeout=120)
            diag = excinfo.value.diagnostic
            assert diag["fault"] == "pool.poison_shard"
            assert diag["indices"] == [0]
            assert diag["pool_breaks"] == scheduler.pool_break_limit
            # The pool healed: an honest shard still runs afterwards.
            assert scheduler.submit(_HonestShard()).result(
                timeout=120) == ["ok"]
            assert scheduler.describe()["pool_rebuilds"] >= 2


# ----------------------------------------------------------------------
# Self-acknowledging cancellation of supervised futures (PR 7)
# ----------------------------------------------------------------------

class TestSupervisedFuture:
    def test_cancelled_future_is_done_for_wait(self):
        # A plain Future cancelled without an executor stays CANCELLED
        # (never CANCELLED_AND_NOTIFIED), so wait() would block
        # forever on it: exactly the cancel-then-drain wedge that hung
        # run_benchmark_suite's abandon path.  SupervisedFuture
        # acknowledges its own cancellation.
        future = SupervisedFuture()
        assert future.cancel()
        done, not_done = wait({future}, timeout=1)
        assert done == {future}
        assert not not_done
        assert future.cancelled()

    def test_double_cancel_is_idempotent(self):
        future = SupervisedFuture()
        assert future.cancel()
        assert future.cancel()
        done, _ = wait({future}, timeout=1)
        assert done == {future}

    def test_settled_future_refuses_cancel(self):
        future = SupervisedFuture()
        future.set_result(["ok"])
        assert not future.cancel()
        assert future.result() == ["ok"]

    def test_scheduler_outer_futures_drain_after_cancel(self, flows):
        # End-to-end shape of the wedge: cancel every in-flight outer
        # future, then wait() on them -- must return promptly whether
        # each cancel won or lost the race with shard completion.
        flow = flows("dsp", "razor")
        stim = case_study("dsp").stimulus(REDUCED_CYCLES)
        prepared = prepare_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor",
            workers=2, shard_size=1,
        )
        with CampaignScheduler(workers=2) as scheduler:
            futures = [scheduler.submit(s) for s in prepared.shards[:4]]
            for future in futures:
                future.cancel()
            done, not_done = wait(set(futures), timeout=60)
            assert not not_done
            assert done == set(futures)
