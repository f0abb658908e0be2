"""Shard-placement tests: the interface split, the fleet dispatch
policy, and the PR's determinism property.

The acceptance contract (PR 6):

* ``CampaignScheduler`` *is* a :class:`LocalPoolPlacement` -- the
  historical single-host behaviour is the base case of the placement
  interface, bit-identically;
* a :class:`~repro.service.FleetPlacement` over two ``repro serve``
  worker daemons produces **field-for-field identical** reports to the
  local pool -- for every IP x sensor type, and across a mid-campaign
  worker kill with re-dispatch to the survivor;
* dispatch policy invariants (least-loaded steal, at-most-once per
  placement per shard, loud exhaustion, local routing of
  non-remotable shards, dispatch-time cache strip) hold on scripted
  placements, independent of any real campaign.
"""

import threading
import time
from concurrent.futures import Future, wait
from types import SimpleNamespace

import pytest

from repro.flow import run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.mutation import (
    CampaignScheduler,
    LocalPoolPlacement,
    PlacementLostError,
    ResultCache,
    ShardPlacement,
    SupervisedFuture,
    run_campaign,
)
from repro.mutation.cache import encode_outcome, shard_entry_keys
from repro.mutation.campaign import prepare_campaign
from repro.mutation.scheduler import stream_shard_batches
from repro.service import (
    CampaignService,
    FleetPlacement,
    RemoteWorkerPlacement,
    ServiceServer,
)
from repro.service.fleet import run_shard_inline

REDUCED_CYCLES = 24

ALL_CAMPAIGNS = [
    (ip, sensor)
    for ip in sorted(CASE_STUDIES)
    for sensor in ("razor", "counter")
]


@pytest.fixture(scope="module")
def flows():
    built = {}

    def get(ip, sensor):
        key = (ip, sensor)
        if key not in built:
            built[key] = run_flow(case_study(ip), sensor,
                                  run_mutation=False)
        return built[key]

    return get


@pytest.fixture(scope="module")
def baselines(flows):
    """Local single-worker reports: the byte-identity reference every
    placement must reproduce."""
    reports = {}
    for ip, sensor in ALL_CAMPAIGNS:
        flow = flows(ip, sensor)
        stim = case_study(ip).stimulus(REDUCED_CYCLES)
        reports[(ip, sensor)] = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name=ip, sensor_type=sensor, workers=1,
        )
    return reports


def _worker_server(**kwargs):
    """One in-process worker daemon (the stand-in for ``repro serve
    --role worker``)."""
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("role", "worker")
    service = CampaignService(**kwargs)
    return ServiceServer(service)


def _remote(server, **kw):
    host, port = server.address
    return RemoteWorkerPlacement(host, port, **kw)


def _run_on(placement, flow, ip, sensor, *, shard_size=None, cache=None):
    """Prepare + stream one campaign on ``placement`` and build its
    report -- the placement-agnostic path the service job runner
    uses."""
    stim = case_study(ip).stimulus(REDUCED_CYCLES)
    prepared = prepare_campaign(
        flow.tlm_optimized, flow.injected, stim,
        ip_name=ip, sensor_type=sensor,
        workers=placement.workers, shard_size=shard_size, cache=cache,
    )
    outcomes = []
    for batch, _snapshot in stream_shard_batches(
        placement, prepared, cache=cache
    ):
        outcomes.extend(batch)
    return prepared.build_report(outcomes)


# ----------------------------------------------------------------------
# The interface split
# ----------------------------------------------------------------------

class TestLocalPoolPlacement:
    def test_scheduler_is_a_local_placement(self):
        with CampaignScheduler(workers=1) as scheduler:
            assert isinstance(scheduler, LocalPoolPlacement)
            assert isinstance(scheduler, ShardPlacement)
            assert scheduler.kind == "local"
            assert scheduler.alive

    def test_describe_reports_identity_and_counters(self, flows):
        flow = flows("dsp", "razor")
        stim = case_study("dsp").stimulus(REDUCED_CYCLES)
        prepared = prepare_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor", shard_size=4,
        )
        with CampaignScheduler(workers=1) as scheduler:
            before = scheduler.describe()
            assert before["kind"] == "local"
            assert before["identity"].startswith("local/")
            assert before["shards_done"] == 0
            for shard in prepared.shards:
                scheduler.submit(shard).result()
            after = scheduler.describe()
            assert after["shards_done"] == len(prepared.shards)
            assert after["in_flight"] == 0
            assert after["alive"] is True
        assert not scheduler.alive


# ----------------------------------------------------------------------
# Fleet dispatch policy on scripted placements
# ----------------------------------------------------------------------

class ScriptedPlacement(ShardPlacement):
    """A placement with a scripted failure budget: the first
    ``fail_times`` submissions die with PlacementLostError (and mark
    it dead), the rest resolve to ``result``."""

    kind = "scripted"

    def __init__(self, name, *, workers=1, fail_times=0,
                 in_flight=0, result=()):
        self.identity = name
        self.workers = workers
        self.submitted = []
        self.result = list(result)
        self._fail_times = fail_times
        self._in_flight = in_flight
        self._alive = True

    @property
    def alive(self):
        return self._alive

    def submit(self, shard):
        self.submitted.append(shard)
        future = Future()
        if self._fail_times > 0:
            self._fail_times -= 1
            self._alive = False
            future.set_exception(
                PlacementLostError(f"{self.identity} scripted loss")
            )
        else:
            future.set_result(list(self.result))
        return future

    def shutdown(self, wait=True):
        self._alive = False

    def describe(self):
        return {
            "kind": self.kind,
            "identity": self.identity,
            "workers": self.workers,
            "alive": self.alive,
            "in_flight": self._in_flight,
        }


def _wire_shard(**over):
    """A stand-in shard for dispatch-policy tests (never executed)."""
    shard = SimpleNamespace(remote_ok=True, inline_only=False)
    for name, value in over.items():
        setattr(shard, name, value)
    return shard


class TestFleetDispatch:
    def test_least_loaded_placement_steals_the_shard(self):
        busy = ScriptedPlacement("busy", workers=2, in_flight=4)
        idle = ScriptedPlacement("idle", workers=2, in_flight=0)
        fleet = FleetPlacement([busy, idle])
        assert fleet.submit(_wire_shard()).result() == []
        assert idle.submitted and not busy.submitted

    def test_lost_placement_redispatches_to_survivor(self):
        flaky = ScriptedPlacement("flaky", fail_times=1, in_flight=0)
        backup = ScriptedPlacement("backup", in_flight=9,
                                   result=["ok"])
        fleet = FleetPlacement([flaky, backup])
        assert fleet.submit(_wire_shard()).result() == ["ok"]
        # The loss marked the placement dead and was re-dispatched.
        assert not flaky.alive
        assert len(backup.submitted) == 1
        assert fleet.stats()["redispatches"] == 1
        # Capacity follows liveness: only the survivor counts now.
        assert fleet.workers == backup.workers

    def test_exhausted_fleet_fails_the_shard_loudly(self):
        a = ScriptedPlacement("a", fail_times=1)
        b = ScriptedPlacement("b", fail_times=1)
        fleet = FleetPlacement([a, b])
        future = fleet.submit(_wire_shard())
        with pytest.raises(PlacementLostError, match="no live"):
            future.result(timeout=5)

    def test_each_placement_tried_at_most_once_per_shard(self):
        # Placement "a" has a two-failure budget, but the shard that
        # hits it must try it exactly once before settling on "b" --
        # a re-dispatch never returns to a placement it already tried.
        a = ScriptedPlacement("a", fail_times=2)
        b = ScriptedPlacement("b", result=["ok"])
        fleet = FleetPlacement([a, b])
        results = [
            fleet.submit(_wire_shard()).result(timeout=5)
            for _ in range(2)
        ]
        assert results == [["ok"], ["ok"]]
        assert len(a.submitted) == 1

    def test_non_remotable_shard_runs_on_the_local_placement(self):
        local = ScriptedPlacement("local", result=["local"])
        remote = ScriptedPlacement("remote", result=["remote"])
        fleet = FleetPlacement([remote], local=local)
        pinned = _wire_shard(remote_ok=False)
        assert fleet.submit(pinned).result() == ["local"]
        assert not remote.submitted
        inline = _wire_shard(inline_only=True)
        assert fleet.submit(inline).result() == ["local"]
        assert not remote.submitted

    def test_non_remotable_shard_without_local_fails(self):
        fleet = FleetPlacement([ScriptedPlacement("remote")])
        with pytest.raises(PlacementLostError, match="local"):
            fleet.submit(_wire_shard(remote_ok=False))

    def test_empty_fleet_with_local_degrades_to_it(self):
        local = ScriptedPlacement("local", workers=3, result=["x"])
        fleet = FleetPlacement(local=local)
        assert fleet.workers == 3
        assert fleet.submit(_wire_shard()).result() == ["x"]

    def test_add_replaces_member_by_address(self):
        old = ScriptedPlacement("old")
        old.host, old.port = "127.0.0.1", 9001
        new = ScriptedPlacement("new", result=["new"])
        new.host, new.port = "127.0.0.1", 9001
        fleet = FleetPlacement([old])
        fleet.add(new)
        assert fleet.members == [new]
        assert not old.alive  # replaced proxies are shut down

    def test_dispatch_time_cache_strip_skips_known_mutants(self, flows):
        # Pre-prove every mutant of one real shard into a shared
        # cache: dispatching it through the fleet must not touch any
        # remote member at all (a fully-known shard never leaves the
        # coordinator), and the replayed outcomes must equal the
        # executed ones.
        flow = flows("dsp", "razor")
        stim = case_study("dsp").stimulus(REDUCED_CYCLES)
        prepared = prepare_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor",
        )
        shard = prepared.shards[0]
        executed = run_shard_inline(shard)
        cache = ResultCache(None)
        keys = shard_entry_keys(shard)
        for outcome in executed:
            cache.put(keys[outcome.index], encode_outcome(outcome))
        remote = ScriptedPlacement("remote")
        fleet = FleetPlacement([remote], cache=cache)
        outcomes = fleet.submit(shard).result(timeout=30)
        assert not remote.submitted
        assert sorted(o.index for o in outcomes) == list(shard.indices)
        assert outcomes == sorted(executed, key=lambda o: o.index)
        assert fleet.stats()["cache_strip_hits"] == len(shard.indices)

    @staticmethod
    def _half_cached_shard(flows):
        """One real shard with every other mutant pre-proved into a
        cache: ``(shard, executed, known, missing, cache)``."""
        flow = flows("dsp", "razor")
        stim = case_study("dsp").stimulus(REDUCED_CYCLES)
        prepared = prepare_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor",
        )
        shard = prepared.shards[0]
        assert len(shard.indices) >= 2
        executed = sorted(run_shard_inline(shard),
                          key=lambda o: o.index)
        known, missing = executed[::2], executed[1::2]
        cache = ResultCache(None)
        keys = shard_entry_keys(shard)
        for outcome in known:
            cache.put(keys[outcome.index], encode_outcome(outcome))
        return shard, executed, known, missing, cache

    def test_redispatch_preserves_cache_stripped_outcomes(self, flows):
        # The ragged case the strip and the re-dispatch share: the
        # dispatch-time cache probe narrows the shard, then the chosen
        # worker dies mid-flight.  The retry runs only the narrowed
        # remainder, so the stripped outcomes must ride along to the
        # final result -- dropping them silently truncates the report.
        shard, executed, known, missing, cache = \
            self._half_cached_shard(flows)
        flaky = ScriptedPlacement("flaky", fail_times=1, in_flight=0)
        backup = ScriptedPlacement("backup", in_flight=9,
                                   result=missing)
        fleet = FleetPlacement([flaky, backup], cache=cache)
        outcomes = fleet.submit(shard).result(timeout=30)
        assert fleet.stats()["redispatches"] == 1
        assert sorted(o.index for o in outcomes) == list(shard.indices)
        assert sorted(outcomes, key=lambda o: o.index) == executed
        # The survivor saw only the narrowed remainder (the strip
        # itself held across the retry), and the strip counted once.
        assert [list(s.indices) for s in backup.submitted] == \
            [[o.index for o in missing]]
        assert fleet.stats()["cache_strip_hits"] == len(known)

    def test_sync_retry_preserves_cache_stripped_outcomes(self, flows):
        # Same property on the synchronous retry path: the placement
        # dies between _choose and submit (submit *raises* instead of
        # failing its future).
        class RaisesOnSubmit(ScriptedPlacement):
            def submit(self, shard):
                self.submitted.append(shard)
                self._alive = False
                raise PlacementLostError(
                    f"{self.identity} shut down"
                )

        shard, executed, known, missing, cache = \
            self._half_cached_shard(flows)
        flaky = RaisesOnSubmit("flaky", in_flight=0)
        backup = ScriptedPlacement("backup", in_flight=9,
                                   result=missing)
        fleet = FleetPlacement([flaky, backup], cache=cache)
        outcomes = fleet.submit(shard).result(timeout=30)
        assert flaky.submitted
        assert sorted(outcomes, key=lambda o: o.index) == executed


# ----------------------------------------------------------------------
# The equivalence property: local pool vs remote worker fleet
# ----------------------------------------------------------------------

class TestPlacementEquivalence:
    def test_two_worker_fleet_reports_equal_local_all_campaigns(
            self, flows, baselines):
        """The PR's determinism invariant: a 2-worker remote fleet
        produces field-for-field identical reports to the local pool
        for every IP x sensor type."""
        with _worker_server() as worker_a, _worker_server() as worker_b:
            fleet = FleetPlacement([
                _remote(worker_a), _remote(worker_b),
            ])
            try:
                assert fleet.workers == 2
                for (ip, sensor), baseline in baselines.items():
                    flow = flows(ip, sensor)
                    report = _run_on(fleet, flow, ip, sensor)
                    assert report == baseline, (ip, sensor)
                    assert report.outcomes == baseline.outcomes
            finally:
                fleet.shutdown()
            # Both daemons actually executed shards (the fleet really
            # distributed, it didn't funnel everything to one member).
            received = [
                server.service.worker.describe()["shards_received"]
                for server in (worker_a, worker_b)
            ]
            assert all(count > 0 for count in received), received

    def test_killed_worker_redispatches_to_survivor(self, flows,
                                                    baselines):
        """Deterministic re-dispatch: one of the two daemons is dead
        before streaming starts (connection refused on first POST), so
        every shard it is offered re-dispatches to the survivor -- and
        the report still equals the local baseline."""
        with _worker_server() as survivor:
            doomed = _worker_server()
            doomed.start()
            fleet = FleetPlacement([
                _remote(doomed), _remote(survivor),
            ])
            try:
                doomed.kill()       # SIGKILL stand-in: RST, no drain
                doomed.stop()       # reap the execution core
                flow = flows("dsp", "razor")
                report = _run_on(fleet, flow, "dsp", "razor",
                                 shard_size=1)
                assert report == baselines[("dsp", "razor")]
                assert fleet.stats()["redispatches"] > 0
                dead, alive = fleet.describe()
                assert dead["alive"] is False
                assert alive["alive"] is True
                assert alive["shards_done"] > 0
            finally:
                fleet.shutdown()

    def test_mid_campaign_kill_still_matches_baseline(self, flows,
                                                      baselines):
        """The ragged case: the kill lands *while* shards are in
        flight on the doomed daemon (its in-flight POSTs get reset),
        and the campaign still completes with the identical report."""
        with _worker_server() as survivor:
            doomed = _worker_server()
            doomed.start()
            fleet = FleetPlacement([
                _remote(doomed), _remote(survivor),
            ])
            try:
                flow = flows("filter", "razor")
                stim = case_study("filter").stimulus(REDUCED_CYCLES)
                prepared = prepare_campaign(
                    flow.tlm_optimized, flow.injected, stim,
                    ip_name="filter", sensor_type="razor",
                    workers=fleet.workers, shard_size=1,
                )
                killed = threading.Event()
                outcomes = []
                for batch, _snapshot in stream_shard_batches(
                    fleet, prepared
                ):
                    outcomes.extend(batch)
                    if not killed.is_set():
                        killed.set()
                        doomed.kill()
                report = prepared.build_report(outcomes)
                assert killed.is_set()
                assert report == baselines[("filter", "razor")]
                assert report.outcomes == \
                    baselines[("filter", "razor")].outcomes
            finally:
                fleet.shutdown()
                doomed.stop()

    def test_fleet_shares_one_cache_across_workers(self, flows,
                                                   baselines):
        """Cross-worker dedup: a campaign run against worker A warms
        the shared cache; the same campaign against worker B replays
        entirely from it (worker B's scheduler never executes)."""
        cache = ResultCache(None)
        with _worker_server(cache=cache) as worker_a, \
                _worker_server(cache=cache) as worker_b:
            flow = flows("dsp", "counter")
            fleet_a = FleetPlacement([_remote(worker_a)])
            try:
                first = _run_on(fleet_a, flow, "dsp", "counter")
            finally:
                fleet_a.shutdown()
            assert first == baselines[("dsp", "counter")]
            fleet_b = FleetPlacement([_remote(worker_b)])
            try:
                second = _run_on(fleet_b, flow, "dsp", "counter")
            finally:
                fleet_b.shutdown()
            assert second == first
            # Pruned mutants never leave the coordinator, so worker B
            # is sent -- and replays -- only the rest, executing none.
            b_core = worker_b.service.worker.describe()
            assert b_core["cache_replays"] == (
                first.total - first.pruned_equivalent
                - first.pruned_duplicate
            )
            assert worker_b.service.scheduler.describe()[
                "shards_done"] == 0


# ----------------------------------------------------------------------
# Remote placement plumbing
# ----------------------------------------------------------------------

class TestRemoteWorkerPlacement:
    def test_probes_capacity_and_identity_from_healthz(self):
        with _worker_server(workers=2) as server:
            placement = _remote(server)
            try:
                assert placement.workers == 2
                assert placement.alive
                core = server.service.worker.identity
                assert placement.identity.startswith(core)
                detail = placement.describe()
                assert detail["kind"] == "remote"
                assert detail["queued"] == 0
            finally:
                placement.shutdown()

    def test_unreachable_daemon_raises_placement_lost(self):
        with _worker_server() as server:
            host, port = server.address
        # Server is down now; the construction probe must fail loudly.
        with pytest.raises(PlacementLostError, match="unreachable"):
            RemoteWorkerPlacement(host, port)

    def test_ping_revives_a_placement_marked_dead(self):
        with _worker_server() as server:
            placement = _remote(server)
            try:
                placement._alive = False
                assert not placement.alive
                assert placement.ping()
                assert placement.alive
            finally:
                placement.shutdown()

    def test_worker_5xx_is_placement_loss_not_poison(self, flows,
                                                     monkeypatch):
        # HTTP 5xx means the worker's *machinery* broke (e.g. its
        # local process pool died): the shard would succeed on a
        # survivor, so the placement must be marked lost (triggering
        # fleet re-dispatch) instead of the job failing outright.
        flow = flows("dsp", "razor")
        stim = case_study("dsp").stimulus(REDUCED_CYCLES)
        prepared = prepare_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor",
        )
        with _worker_server() as server:
            placement = _remote(server)
            try:
                def broken_pool(payload):
                    raise RuntimeError("process pool is broken")

                monkeypatch.setattr(server.service.worker,
                                    "run_shard_payload", broken_pool)
                future = placement.submit(prepared.shards[0])
                with pytest.raises(PlacementLostError,
                                   match="failed shard-side"):
                    future.result(timeout=30)
                assert not placement.alive
            finally:
                placement.shutdown()

    def test_rejected_shard_propagates_not_redispatches(self):
        # A worker that coherently rejects the shard (HTTP 4xx): the
        # *shard* is the problem, so the fleet must fail it rather
        # than poison the survivor with a re-dispatch.  (5xx means the
        # worker's machinery broke and *does* re-dispatch -- see
        # TestRemoteWorkerPlacement.)
        class Rejecting(ScriptedPlacement):
            def submit(self, shard):
                self.submitted.append(shard)
                future = Future()
                future.set_exception(
                    RuntimeError("worker rejected shard: HTTP 400")
                )
                return future

        rejecting = Rejecting("rejecting", in_flight=0)
        healthy = ScriptedPlacement("healthy", result=["ok"],
                                    in_flight=5)
        fleet = FleetPlacement([rejecting, healthy])
        future = fleet.submit(_wire_shard())
        with pytest.raises(RuntimeError, match="HTTP 400"):
            future.result(timeout=5)
        assert not healthy.submitted
        assert fleet.stats()["redispatches"] == 0


# ----------------------------------------------------------------------
# Heartbeat supervision (PR 7, recovery layer 2)
# ----------------------------------------------------------------------

class _BlackHolePlacement(ScriptedPlacement):
    """Accepts shards and never resolves them -- a worker whose host
    dropped off the network mid-shard.  ``ping`` is scripted so tests
    steer the supervisor; a successful ping revives the member (like
    :meth:`RemoteWorkerPlacement.ping`)."""

    def __init__(self, name, *, pings=False, **kw):
        super().__init__(name, **kw)
        self.pings = pings
        self.mark_dead_calls = 0
        self.futures = []

    def submit(self, shard):
        self.submitted.append(shard)
        future = Future()
        self.futures.append(future)
        return future

    def ping(self):
        if self.pings:
            self._alive = True
            return True
        return False

    def mark_dead(self):
        self.mark_dead_calls += 1
        self._alive = False


class TestHeartbeatSupervision:
    """Regressions for the PR-7 fleet supervisor: before the fix, a
    shard on a silently-dead worker sat in flight until the 600s HTTP
    timeout expired -- the campaign stalled for minutes per lost
    worker instead of re-dispatching within a couple of heartbeats."""

    def _fleet(self, *members, **kw):
        kw.setdefault("heartbeat_interval", 0.05)
        return FleetPlacement(list(members), **kw)

    def test_silent_member_evicted_and_shard_redispatched(self):
        hole = _BlackHolePlacement("hole", workers=4)
        good = ScriptedPlacement("good", in_flight=9, result=["ok"])
        fleet = self._fleet(hole, good, heartbeat_misses=2)
        try:
            future = fleet.submit(_wire_shard())
            assert len(hole.submitted) == 1  # dispatched to the hole
            # Resolved well before the shard timeout: the supervisor
            # evicted the silent member and re-dispatched.
            assert future.result(timeout=10) == ["ok"]
            stats = fleet.stats()
            assert stats["evictions"] == 1
            assert stats["redispatches"] == 1
            assert hole.mark_dead_calls >= 1
            assert not hole.alive
        finally:
            fleet.shutdown()

    def test_straggler_completion_after_eviction_is_discarded(self):
        hole = _BlackHolePlacement("hole", workers=4)
        good = ScriptedPlacement("good", in_flight=9, result=["ok"])
        fleet = self._fleet(hole, good, heartbeat_misses=2)
        try:
            future = fleet.submit(_wire_shard())
            assert future.result(timeout=10) == ["ok"]
            # The evicted member finally answers (e.g. the HTTP
            # response crawls in): exactly-once claim tokens discard
            # it rather than double-resolving the outer future.
            hole.futures[0].set_result(["stale"])
            assert future.result(timeout=1) == ["ok"]
            assert fleet.stats()["redispatches"] == 1
        finally:
            fleet.shutdown()

    def test_recovered_member_rejoins_on_successful_ping(self):
        hole = _BlackHolePlacement("hole", workers=4)
        good = ScriptedPlacement("good", in_flight=9, result=["ok"])
        fleet = self._fleet(hole, good, heartbeat_misses=2)
        try:
            fleet.submit(_wire_shard()).result(timeout=10)
            assert not hole.alive
            hole.pings = True  # the worker came back
            deadline = time.monotonic() + 10
            while not hole.alive and time.monotonic() < deadline:
                time.sleep(0.02)
            assert hole.alive  # revived by the supervisor's ping
            assert hole in fleet._candidates()
        finally:
            fleet.shutdown()

    def test_stall_timeout_evicts_a_responsive_but_stuck_member(self):
        # The worker.hang shape: /healthz answers, the shard never
        # does.  Ping-based supervision can't see it; the opt-in
        # stall detector can.
        hole = _BlackHolePlacement("hole", workers=4, pings=True)
        good = ScriptedPlacement("good", in_flight=9, result=["ok"])
        fleet = self._fleet(hole, good, stall_timeout=0.15)
        try:
            future = fleet.submit(_wire_shard())
            assert future.result(timeout=10) == ["ok"]
            assert fleet.stats()["evictions"] >= 1
            assert fleet.stats()["redispatches"] == 1
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# self-acknowledging cancellation of supervised futures (PR 7)
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
