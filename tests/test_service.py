"""Campaign service tests: wire format, concurrency, cancellation,
restart recovery, client retries and the daemon's status view.

The service's acceptance contract (PR 5):

* a report streamed through ``repro serve`` decodes **field-for-field
  equal** to a direct :func:`~repro.mutation.run_campaign` of the same
  campaign -- for every IP x sensor type, under N simultaneous
  streaming clients on one shared scheduler pool;
* ``DELETE /jobs/<id>`` cancels shard-granularly mid-stream: the
  stream ends with an ``aborted`` terminal event carrying the partial
  report, and the pool keeps serving subsequent jobs;
* a restarted server (same ``--state-dir``) still serves every
  finished job's report; jobs interrupted *running* are re-queued and
  resumed warm through the shared result cache (PR 7), failing loudly
  only once the restart budget is exhausted -- never silently
  vanishing;
* ``ServiceClient`` retries idempotent GETs and a submit carrying its
  idempotency key with capped backoff, and reassembles a dropped event
  stream so every shard outcome arrives exactly once;
* ``repro status --server`` and ``repro top`` render the one shared
  pool from ``/healthz``.

Tests that must observe a job's live stream, or cancel it at a given
point, do not race its completion: they install a ``job.hold`` fault
plan (:mod:`repro.faults`), which parks the job thread at its start or
at a shard-batch boundary until the test releases the site or cancels
the job.
"""

import json
import threading

import pytest

from repro.faults import FaultPlan, active_plan
from repro.flow import run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.mutation import run_campaign
from repro.service import (
    CampaignService,
    JobRecord,
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceServer,
    decode_report,
    encode_report,
)
from repro.service.client import ServiceError

#: Shortened testbench shared with tests/test_scheduler.py: equality
#: of the streamed and direct reports is what matters here, not the
#: kill percentages at this length.
REDUCED_CYCLES = 24

ALL_CAMPAIGNS = [
    (ip, sensor)
    for ip in sorted(CASE_STUDIES)
    for sensor in ("razor", "counter")
]


@pytest.fixture(scope="module")
def flows():
    """Memoised ``run_flow(..., run_mutation=False)`` per (ip, sensor),
    shared by the service (seeded flow cache) and the direct
    baselines."""
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
    """Direct ``run_campaign`` reports for every IP x sensor at the
    reduced testbench length -- the equality reference."""
    reports = {}
    for ip, sensor in ALL_CAMPAIGNS:
        flow = flows(ip, sensor)
        stim = case_study(ip).stimulus(REDUCED_CYCLES)
        reports[(ip, sensor)] = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name=ip, sensor_type=sensor, workers=1,
        )
    return reports


def _server(flows, *, seed_all=False, **kwargs):
    """A ServiceServer over a fresh CampaignService with the module's
    flow cache pre-seeded (so tests pay flow construction once)."""
    seeded = {
        key: flows(*key) for key in (ALL_CAMPAIGNS if seed_all else [])
    }
    kwargs.setdefault("workers", 1)
    service = CampaignService(flows=seeded, **kwargs)
    return ServiceServer(service)


def _client(server, **kw):
    host, port = server.address
    kw.setdefault("timeout", 60.0)
    kw.setdefault("stream_timeout", 120.0)
    return ServiceClient(host, port, **kw)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------

class TestJobSpec:
    def test_payload_roundtrip(self):
        spec = JobSpec(ip="dsp", sensor="counter", cycles=32,
                       shard_size=2, recovery=False,
                       stop_on_survivor=True, score_threshold=90.0,
                       min_judged=3)
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_rejects_unknown_sensor(self):
        with pytest.raises(ValueError, match="unknown sensor"):
            JobSpec(ip="dsp", sensor="razr")

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_payload({"ip": "dsp", "sensor": "razor",
                                  "cycels": 9})

    def test_requires_ip_and_sensor(self):
        with pytest.raises(ValueError, match="at least"):
            JobSpec.from_payload({"ip": "dsp"})

    def test_abort_policy_mapping(self):
        assert JobSpec(ip="dsp", sensor="razor").abort_policy() is None
        policy = JobSpec(ip="dsp", sensor="razor",
                         stop_on_survivor=True).abort_policy()
        assert policy.triggered(killed=0, survivors=1, judged=1)


class TestReportWireFormat:
    def test_roundtrip_is_field_for_field_equal(self, baselines):
        for report in baselines.values():
            decoded = decode_report(
                json.loads(json.dumps(encode_report(report)))
            )
            assert decoded == report          # dataclass eq: scored fields
            assert decoded.outcomes == report.outcomes
            assert decoded.cycles_per_run == report.cycles_per_run
            assert decoded.seconds == report.seconds
            assert decoded.killed_pct == report.killed_pct
            assert decoded.corrected_pct == report.corrected_pct
            assert decoded.risen_pct == report.risen_pct


class TestJobStore:
    def test_save_and_load_roundtrip(self, tmp_path):
        store = JobStore(tmp_path / "state")
        record = JobRecord(
            id="abc123", spec=JobSpec(ip="dsp", sensor="razor"),
            status="done", created=5.0, started=6.0, finished=7.0,
            report={"ip_name": "dsp"},
        )
        store.save(record)
        loaded = JobStore(tmp_path / "state").load_all()
        assert [r.to_payload() for r in loaded] == [record.to_payload()]

    def test_corrupt_file_is_skipped(self, tmp_path):
        store = JobStore(tmp_path / "state")
        store.save(JobRecord(id="ok1", created=1.0,
                             spec=JobSpec(ip="dsp", sensor="razor")))
        (tmp_path / "state" / "jobs" / "bad.json").write_text("{torn")
        assert [r.id for r in store.load_all()] == ["ok1"]

    def test_memory_store_persists_nothing(self):
        store = JobStore(None)
        store.save(JobRecord(id="x", spec=JobSpec(ip="dsp",
                                                  sensor="razor")))
        assert store.load_all() == []


# ----------------------------------------------------------------------
# Round trips and concurrency over HTTP
# ----------------------------------------------------------------------

class TestServiceRoundTrip:
    def test_streamed_report_equals_direct_run(self, flows, baselines):
        with _server(flows) as server:
            client = _client(server)
            record = client.submit({"ip": "plasma", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            end = client.watch(record["id"])
            assert end["status"] == "done"
            assert decode_report(end["report"]) == \
                baselines[("plasma", "razor")]
            # GET /jobs/<id> serves the identical report.
            assert client.report(record["id"]) == \
                baselines[("plasma", "razor")]

    def test_event_stream_shape(self, flows, baselines):
        # The job parks at its start (job.hold) until the subscriber
        # has read the first event, so the stream deterministically
        # carries the complete live history.
        plan = FaultPlan.from_spec("job.hold=1")
        with active_plan(plan), _server(flows) as server:
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 4})
            stream = client.events(record["id"])
            first = next(stream)
            plan.release("job.hold")
            events = [first, *stream]
            kinds = [e["type"] for e in events]
            assert kinds[0] == "status" and kinds[-1] == "end"
            assert all(e["job"] == record["id"] for e in events)
            shard_outcomes = sum(
                len(e["outcomes"]) for e in events if e["type"] == "shard"
            )
            total = baselines[("dsp", "razor")].total
            assert shard_outcomes == total
            dones = [e["done"] for e in events if e["type"] == "progress"]
            assert dones == sorted(dones) and dones[-1] == total

    def test_concurrent_clients_all_ips_both_sensors(self, flows,
                                                     baselines):
        """The acceptance bar: >= 4 simultaneous streaming clients
        (here 6: every IP x sensor type), each receiving a report
        field-for-field equal to the direct run."""
        # Every job parks at its start; the hold opens only once every
        # watcher has read its first event, so no stream can miss its
        # job's live progress.
        plan = FaultPlan.from_spec("job.hold=always")
        with active_plan(plan), \
                _server(flows, seed_all=True, max_jobs=6) as server:
            barrier = threading.Barrier(len(ALL_CAMPAIGNS))
            results = {}
            errors = []

            def one_client(ip, sensor):
                try:
                    client = _client(server)
                    barrier.wait(timeout=30)
                    record = client.submit({
                        "ip": ip, "sensor": sensor,
                        "cycles": REDUCED_CYCLES,
                    })
                    stream = client.events(record["id"])
                    events = [next(stream)]
                    barrier.wait(timeout=60)
                    plan.release("job.hold")
                    events.extend(stream)
                    results[(ip, sensor)] = (events[-1], events)
                except BaseException as exc:   # surfaced below
                    errors.append((ip, sensor, exc))
                    barrier.abort()

            threads = [
                threading.Thread(target=one_client, args=key)
                for key in ALL_CAMPAIGNS
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not errors, errors
            assert set(results) == set(ALL_CAMPAIGNS)
            for key, (end, events) in results.items():
                assert end["type"] == "end"
                assert end["status"] == "done"
                assert decode_report(end["report"]) == baselines[key]
            # Every watcher attached while its job was parked, so every
            # stream carries live progress.
            assert all(
                any(e["type"] == "progress" for e in events)
                for _, events in results.values()
            )
            health = _client(server).health()
            assert health["jobs"]["done"] == len(ALL_CAMPAIGNS)

    def test_late_subscriber_gets_the_terminal_event(self, flows,
                                                     baselines):
        with _server(flows) as server:
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "counter",
                                    "cycles": REDUCED_CYCLES})
            client.watch(record["id"])
            # The job is terminal: its retained history has collapsed
            # to the terminal event (the record carries the report),
            # so a fresh stream yields exactly that one line.
            replay = list(client.events(record["id"]))
            assert [e["type"] for e in replay] == ["end"]
            assert decode_report(replay[-1]["report"]) == \
                baselines[("dsp", "counter")]

    def test_multiworker_pool_serves_jobs(self, flows, baselines):
        # workers=2 exercises the real process pool under the service:
        # the scheduler uses a fork+exec start method (forkserver /
        # spawn) because job threads trigger the lazy pool creation.
        with _server(flows, workers=2) as server:
            assert server.service.scheduler.mp_context is not None
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 4})
            end = client.watch(record["id"])
            assert end["status"] == "done"
            assert decode_report(end["report"]) == \
                baselines[("dsp", "razor")]

    def test_unknown_ip_is_400(self, flows):
        with _server(flows) as server:
            with pytest.raises(ServiceError) as err:
                _client(server).submit({"ip": "nope", "sensor": "razor"})
            assert err.value.status == 400

    def test_unknown_spec_field_is_400(self, flows):
        with _server(flows) as server:
            with pytest.raises(ServiceError) as err:
                _client(server).submit({"ip": "dsp", "sensor": "razor",
                                        "cycels": 3})
            assert err.value.status == 400

    def test_unknown_job_is_404(self, flows):
        with _server(flows) as server:
            client = _client(server)
            with pytest.raises(ServiceError) as err:
                client.job("doesnotexist")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                list(client.events("doesnotexist"))
            assert err.value.status == 404

    def test_healthz_reports_pool_queue_and_cache(self, flows, tmp_path):
        from repro.mutation import ResultCache

        cache = ResultCache(tmp_path / "cache")
        with _server(flows, cache=cache) as server:
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            client.watch(record["id"])
            health = client.health()
            assert health["status"] == "ok"
            assert health["pool"]["workers"] == 1
            assert health["jobs"]["total"] == 1
            assert health["jobs"]["done"] == 1
            # /healthz reuses ResultCache.stats(): the job's verdicts
            # and golden trace are accounted under its IP.
            assert health["cache"]["entries"] == len(cache)
            assert "dsp" in health["cache"]["per_ip"]


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------

class TestCancellation:
    def test_mid_stream_delete_aborts_shard_granularly(self, flows):
        # Full-length filter campaign, one mutant per shard: plenty of
        # shard boundaries.  The job parks after its first shard batch
        # (the second job.hold hit) and is cancelled while parked.
        cycles = case_study("filter").mutation_cycles
        plan = FaultPlan.from_spec("job.hold=2")
        with active_plan(plan), _server(flows) as server:
            client = _client(server)
            record = client.submit({"ip": "filter", "sensor": "razor",
                                    "cycles": cycles, "shard_size": 1})
            cancelled = threading.Event()

            def on_event(event):
                if event["type"] == "shard" and not cancelled.is_set():
                    cancelled.set()
                    _client(server).cancel(record["id"])

            end = client.watch(record["id"], on_event)
            assert cancelled.is_set()
            assert end["status"] == "aborted"
            partial = decode_report(end["report"])
            total = len(flows("filter", "razor").injected.mutants)
            assert 0 < partial.total < total
            assert client.job(record["id"])["status"] == "aborted"

            # The shared pool is not wedged: the next job completes.
            follow = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            assert client.watch(follow["id"])["status"] == "done"

    def test_report_less_abort_summary_does_not_crash(self):
        # A job cancelled before its first shard ends "aborted" with
        # report=None; the CLI summary must degrade gracefully, not
        # TypeError inside decode_report.
        from repro.cli import _print_end_event

        code = _print_end_event(
            {"job": "x1", "status": "aborted", "report": None}
        )
        assert code == 1

    def test_cancel_before_start_aborts_without_running(self, flows):
        # max_jobs=1 and a job parked at its start (job.hold) in front
        # keep the victim queued until it is cancelled.
        plan = FaultPlan.from_spec("job.hold=1")
        with active_plan(plan), _server(flows, max_jobs=1) as server:
            client = _client(server)
            holder = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            victim = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            client.cancel(victim["id"])
            client.cancel(holder["id"])
            end = client.watch(victim["id"])
            assert end["status"] == "aborted"
            assert end["report"] is None
            assert client.watch(holder["id"])["status"] == "aborted"


# ----------------------------------------------------------------------
# Restart recovery
# ----------------------------------------------------------------------

class TestRestartRecovery:
    def test_finished_job_survives_restart(self, flows, baselines,
                                           tmp_path):
        state = tmp_path / "state"
        with _server(flows, state_dir=state) as server:
            client = _client(server)
            record = client.submit({"ip": "plasma", "sensor": "counter",
                                    "cycles": REDUCED_CYCLES})
            client.watch(record["id"])
        # Same state dir, fresh process-equivalent server.
        with _server(flows, state_dir=state) as server:
            client = _client(server)
            recovered = client.job(record["id"])
            assert recovered["status"] == "done"
            assert decode_report(recovered["report"]) == \
                baselines[("plasma", "counter")]
            # The event stream of a recovered job replays its
            # terminal event.
            events = list(client.events(record["id"]))
            assert [e["type"] for e in events] == ["end"]
            assert decode_report(events[-1]["report"]) == \
                baselines[("plasma", "counter")]

    def test_record_with_retired_batch_size_loads_after_restart(
            self, flows, baselines, tmp_path):
        """Records written before every shard became one batched sweep
        carry a ``batch_size`` spec field.  They must still load after
        a restart (the store skips records that fail to parse), while
        a new job naming the retired field is still rejected."""
        state = tmp_path / "state"
        with _server(flows, state_dir=state) as server:
            client = _client(server)
            record = client.submit({"ip": "plasma", "sensor": "counter",
                                    "cycles": REDUCED_CYCLES})
            client.watch(record["id"])
        path = state / "jobs" / f"{record['id']}.json"
        stored = json.loads(path.read_text())
        stored["spec"]["batch_size"] = None
        path.write_text(json.dumps(stored))
        with _server(flows, state_dir=state) as server:
            client = _client(server)
            recovered = client.job(record["id"])
            assert recovered["status"] == "done"
            assert "batch_size" not in recovered["spec"]
            assert decode_report(recovered["report"]) == \
                baselines[("plasma", "counter")]
            with pytest.raises(ServiceError) as err:
                client.submit({"ip": "dsp", "sensor": "razor",
                               "batch_size": None})
            assert err.value.status == 400

    def test_job_caught_running_requeues_and_resumes_warm(
            self, flows, baselines, tmp_path):
        """The layer-3 recovery regression (fails pre-PR 7, when a
        crashed-running job was marked failed): a job the previous
        server died on mid-run is re-queued, resumed through the
        content-addressed cache, and finishes with the exact
        fault-free report."""
        from repro.ips import case_study as _case_study
        from repro.mutation import ResultCache

        state = tmp_path / "state"
        cache_dir = tmp_path / "cache"
        # The crashed server got through the whole campaign's shards
        # before dying (worst case for wasted work, best case for
        # observing the warm resume): the verdicts live in the cache.
        flow = flows("dsp", "razor")
        stim = _case_study("dsp").stimulus(REDUCED_CYCLES)
        run_campaign(
            flow.tlm_optimized, flow.injected, stim, ip_name="dsp",
            sensor_type="razor", workers=1,
            cache=ResultCache(cache_dir),
        )
        store = JobStore(state)
        store.save(JobRecord(
            id="deadbeef0000", created=1.0, status="running",
            spec=JobSpec(ip="dsp", sensor="razor",
                         cycles=REDUCED_CYCLES),
        ))
        service = CampaignService(
            flows={("dsp", "razor"): flow}, state_dir=state,
            cache=ResultCache(cache_dir),
        )
        with ServiceServer(service) as server:
            client = _client(server)
            record = client.job("deadbeef0000")
            assert record["status"] in ("queued", "running", "done")
            assert record["restarts"] == 1
            end = client.watch("deadbeef0000")
            assert end["status"] == "done"
            report = decode_report(end["report"])
            assert report == baselines[("dsp", "razor")]
            # Warm resume, not a cold re-run: every verdict replayed.
            assert report.cache_hits == report.total
            assert report.cache_misses == 0

    def test_restart_budget_exhausted_fails_loudly(self, tmp_path):
        state = tmp_path / "state"
        store = JobStore(state)
        store.save(JobRecord(
            id="deadbeef0001", created=1.0, status="running",
            restarts=CampaignService.max_restarts,
            spec=JobSpec(ip="dsp", sensor="razor"),
        ))
        service = CampaignService(state_dir=state)
        try:
            record = service.get("deadbeef0001")
            assert record.status == "failed"
            assert "restart budget" in record.error
            # ... and the failure is persisted, not just in memory.
            reloaded = JobStore(state).load_all()[0]
            assert reloaded.status == "failed"
        finally:
            service.close()


# ----------------------------------------------------------------------
# Idempotent submission
# ----------------------------------------------------------------------

class _LossyResponseClient(ServiceClient):
    """Drops the *response* of the first POST /jobs after the server
    processed it -- the failure mode that makes naive POST retries
    enqueue duplicates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dropped = 0
        self.sleeps = []

    def _sleep(self, seconds):
        self.sleeps.append(seconds)

    def _request(self, method, path, payload=None):
        data = super()._request(method, path, payload)
        if method == "POST" and path == "/jobs" and not self.dropped:
            self.dropped += 1
            raise ConnectionResetError("response lost after processing")
        return data


class TestSubmitIdempotency:
    def test_retried_submit_dedups_on_idempotency_key(self, flows):
        with _server(flows) as server:
            client = _LossyResponseClient(*server.address, timeout=60.0)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            assert client.dropped == 1  # the retry actually happened
            assert client.sleeps  # ... through the backoff path
            jobs = client.jobs()
            assert len(jobs) == 1  # deduped, not enqueued twice
            assert jobs[0]["id"] == record["id"]
            assert client.watch(record["id"])["status"] == "done"

    def test_distinct_keys_enqueue_distinct_jobs(self, flows):
        with _server(flows) as server:
            client = _client(server)
            spec = {"ip": "dsp", "sensor": "razor",
                    "cycles": REDUCED_CYCLES}
            first = client.submit(dict(spec))
            second = client.submit(dict(spec))
            assert first["id"] != second["id"]
            assert len(client.jobs()) == 2
            for record in (first, second):
                assert client.watch(record["id"])["status"] == "done"


# ----------------------------------------------------------------------
# Client retry / reconnect policy
# ----------------------------------------------------------------------

class _FlakyClient(ServiceClient):
    """A client whose first N requests die with a connection reset;
    sleeps are recorded instead of slept."""

    def __init__(self, *args, fail_first=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_first = fail_first
        self.attempts = 0
        self.slept = []

    def _sleep(self, seconds):
        self.slept.append(seconds)

    def _request(self, method, path, payload=None):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise ConnectionResetError("scripted reset")
        return super()._request(method, path, payload)


class TestClientRetries:
    def test_idempotent_get_retries_with_capped_backoff(self, flows):
        with _server(flows) as server:
            host, port = server.address
            client = _FlakyClient(host, port, fail_first=3,
                                  retries=4, backoff=0.05,
                                  backoff_cap=0.08)
            health = client.health()
            assert health["status"] == "ok"
            assert client.attempts == 4
            # Exponential, then capped: 0.05, 0.08, 0.08.
            assert client.slept == [0.05, 0.08, 0.08]

    def test_get_gives_up_after_the_retry_budget(self):
        client = _FlakyClient("127.0.0.1", 9, fail_first=99, retries=2)
        with pytest.raises(ConnectionResetError):
            client.health()
        assert client.attempts == 3
        assert len(client.slept) == 2

    def test_submit_retries_behind_idempotency_key(self, flows):
        # PR 7: submit joined the retry policy -- safe because the
        # payload carries a client-generated idempotency key the
        # server dedups on (TestSubmitIdempotency pins the dedup).
        with _server(flows) as server:
            host, port = server.address
            client = _FlakyClient(host, port, fail_first=1, retries=4,
                                  timeout=60.0)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            assert client.attempts == 2
            assert len(client.slept) == 1
            assert client.watch(record["id"])["status"] == "done"

    def test_service_error_is_never_retried(self, flows):
        with _server(flows) as server:
            host, port = server.address
            client = _FlakyClient(host, port, retries=4)
            with pytest.raises(ServiceError):
                client.job("doesnotexist")
            assert client.attempts == 1

    def test_event_stream_reconnects_without_duplicates(self, flows,
                                                        baselines):
        """The stream drops after every event; the client reconnects,
        the server replays history, and the dedup yields each event
        exactly once, terminal included."""
        with _server(flows) as server:
            client = _client(server, retries=8)
            client.slept = []
            client._sleep = client.slept.append
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 4})
            # Run the job to completion first so the reference stream
            # is stable (a terminal job replays deterministically).
            reference = [
                e for e in _client(server).events(record["id"])
            ]
            assert reference[-1]["type"] == "end"

            real_stream_once = client._stream_once

            def dropping_stream(job_id, skip, state=None):
                # Yield exactly one event per connection, then die.
                for event in real_stream_once(job_id, skip, state):
                    yield event
                    if event.get("type") != "end":
                        raise ConnectionResetError("scripted drop")

            client._stream_once = dropping_stream
            events = list(client.events(record["id"]))
            assert events[-1]["type"] == "end"
            assert decode_report(events[-1]["report"]) == \
                baselines[("dsp", "razor")]

    def test_live_stream_survives_mid_job_drops(self, flows, baselines):
        """Reconnect against a *running* job: each connection dies
        after two events; the reassembled stream still carries every
        shard outcome exactly once.  The job parks at its start
        (job.hold) until the dropping stream has read its first event,
        so the drops land while the job runs."""
        baseline = baselines[("dsp", "razor")]
        plan = FaultPlan.from_spec("job.hold=1")
        with active_plan(plan), _server(flows) as server:
            client = _client(server, retries=10)
            client._sleep = lambda seconds: None
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 2})

            real_stream_once = client._stream_once

            def dropping_stream(job_id, skip, state=None):
                for position, event in enumerate(
                    real_stream_once(job_id, skip, state)
                ):
                    yield event
                    if event.get("type") != "end" and position >= 1:
                        raise ConnectionResetError("scripted drop")

            client._stream_once = dropping_stream
            stream = client.events(record["id"])
            first = next(stream)
            plan.release("job.hold")
            events = [first, *stream]
            assert first["type"] == "status"
            assert events[-1]["type"] == "end"
            indices = sorted(
                o["index"]
                for e in events if e["type"] == "shard"
                for o in e["outcomes"]
            )
            assert indices == list(range(baseline.total))
            assert decode_report(events[-1]["report"]) == baseline

    def test_stream_gives_up_after_consecutive_dead_connections(self):
        client = ServiceClient("127.0.0.1", 9, retries=2)
        client._sleep = lambda seconds: None
        with pytest.raises(ServiceError, match="without 'end'"):
            list(client.events("whatever"))


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestServerStatusCli:
    def test_status_server_and_top_render_the_pool(self, flows, capsys):
        from repro.cli import main

        with _server(flows) as server:
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 4})
            assert client.watch(record["id"])["status"] == "done"
            pool = client.health()["pool"]
            host, port = server.address
            address = ["--host", host, "--port", str(port)]
            assert main(["status", "--server", *address]) == 0
            status = capsys.readouterr().out
            assert main(["top", "--once", *address]) == 0
            top = capsys.readouterr().out
        assert pool["shards_done"] >= 1
        for out in (status, top):
            rows = dict(
                (key.strip(), value.strip())
                for key, value in (
                    line.split(" : ", 1)
                    for line in out.splitlines() if " : " in line
                )
            )
            assert rows["pool workers"] == "1"
            assert rows["shards done"] == str(pool["shards_done"])
            assert rows["in-flight shards"] == "0"
            assert rows["pool rebuilds"] == "0"
            assert rows["shard isolations"] == "0"
            assert "done=1" in rows["jobs"]
