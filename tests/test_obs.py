"""Observability tests (PR 10): tracer, metrics, service endpoints.

Acceptance contract:

* the span tracer is inert when disabled and records coordinator
  spans, instants, thread-local context attributes and absorbed
  worker-shard captures when enabled; its Chrome-trace export passes
  :func:`repro.obs.validate_chrome_trace`;
* a step that raises still closes its span, tagged with the exception
  type (``error="LintGateError"`` on a lint-gated ``flow.run``);
* tracing changes **nothing** about campaign results: on every IP x
  sensor type x workers {1, 2} x shard size {default, 3} the traced
  report equals the untraced one field for field (wall clock aside),
  and on filter/razor both equal the serial, unpruned oracle;
* a traced :func:`repro.mutation.run_benchmark_suite` absorbs every
  executed shard of both levels like ``run_campaign`` and
  ``validate_at_rtl`` do: one ``shard.execute`` span per shard, tagged
  ``level="tlm"`` or ``"rtl"`` and placed on a worker track, the same
  ``report.obs`` counters and the same
  ``repro_shards_executed_total`` count;
* the metrics registry renders valid Prometheus text with at least
  10 well-known series, and ``GET /metrics`` serves it raw;
* each pool worker process gets its own trace track, and no two
  ``shard.execute`` spans on one track overlap;
* ``GET /healthz`` carries the scheduler's pool snapshot and the
  compact metrics snapshot behind ``repro status --server`` /
  ``repro top``;
* ``/events`` progress events stay monotonic under batched sweeps
  and every mutant -- early-killed included -- is counted exactly
  once (the stream is attached while the job is parked at its
  ``job.hold`` fault site, so it carries the complete live history);
* ``GET /jobs/<id>/trace`` 404s while tracing is off and exports a
  valid, job-filtered Chrome trace when the server runs with
  ``--trace``.
"""

import dataclasses
import http.client
import multiprocessing

import pytest

from repro.faults import FaultPlan, active_plan
from repro.flow import run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.mutation import (
    CampaignScheduler,
    MutationReport,
    run_benchmark_suite,
    run_campaign,
    validate_at_rtl,
)
from repro.mutation.campaign import _shard_sequence
from repro.obs import (
    REGISTRY,
    TRACER,
    MetricsRegistry,
    ShardCapture,
    absorb_shard_counters,
    shard_capture,
    shard_count,
    shard_span,
    trace_span,
    validate_chrome_trace,
)
from repro.obs.tracer import _WORKER_PID_BASE, MAX_TRACED_JOBS
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceServer,
    decode_report,
)
from serial_oracle import assert_matches_oracle, serial_report

REDUCED_CYCLES = 24

#: Every case-study IP x sensor type.
CELLS = [(ip, sensor) for ip in sorted(CASE_STUDIES)
         for sensor in ("razor", "counter")]


@pytest.fixture(autouse=True)
def _clean_obs():
    """Obs state is process-global; leave every test a blank slate."""
    TRACER.disable()
    TRACER.clear()
    REGISTRY.reset()
    yield
    TRACER.disable()
    TRACER.clear()
    REGISTRY.reset()


@pytest.fixture(scope="module")
def flows():
    """Memoised ``run_flow(..., run_mutation=False)`` per cell."""
    built = {}

    def get(ip, sensor):
        if (ip, sensor) not in built:
            built[(ip, sensor)] = run_flow(case_study(ip), sensor,
                                           run_mutation=False)
        return built[(ip, sensor)]

    return get


@pytest.fixture(scope="module")
def flow(flows):
    """The filter/razor flow most tests of the module share."""
    return flows("filter", "razor")


@pytest.fixture(scope="module")
def oracle(flow):
    """The serial, unpruned filter/razor report at the reduced
    testbench length."""
    return serial_report(
        flow.tlm_optimized, flow.injected,
        case_study("filter").stimulus(REDUCED_CYCLES),
        ip_name="filter", sensor_type="razor",
    )


def _campaign(flow, **kwargs):
    stim = case_study("filter").stimulus(REDUCED_CYCLES)
    return run_campaign(
        flow.tlm_optimized, flow.injected, stim,
        ip_name="filter", sensor_type="razor", **kwargs,
    )


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        with trace_span("quiet", ip="filter"):
            TRACER.instant("ping")
        assert len(TRACER) == 0
        # Disabled spans share one nullcontext -- no per-call object.
        assert trace_span("a") is trace_span("b")

    def test_enabled_span_and_instant_are_recorded(self):
        TRACER.enable()
        with trace_span("work", ip="filter"):
            TRACER.instant("ping", n=3)
        assert len(TRACER) == 2
        events = TRACER.chrome_trace()["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert spans[0]["name"] == "work"
        assert spans[0]["args"]["ip"] == "filter"
        assert spans[0]["dur"] >= 0
        assert instants[0]["name"] == "ping"
        assert instants[0]["args"]["n"] == 3

    def test_context_attrs_flow_into_spans_and_filter_exports(self):
        TRACER.enable()
        with TRACER.context(job="j1"):
            with trace_span("inner"):
                pass
        with TRACER.context(job="j2"):
            TRACER.instant("other")
        j1 = TRACER.chrome_trace(job="j1")["traceEvents"]
        assert [e["name"] for e in j1 if e["ph"] != "M"] == ["inner"]
        assert all(e["args"]["job"] == "j1"
                   for e in j1 if e["ph"] != "M")
        everything = TRACER.chrome_trace()["traceEvents"]
        assert {e["name"] for e in everything} >= {"inner", "other"}

    def test_absorb_shard_re_anchors_on_a_worker_track(self):
        TRACER.enable()
        capture = ShardCapture(spans_enabled=True)
        with capture.span("mutant", index=7):
            pass
        payload = capture.payload()
        payload["worker"] = "worker-a:1234"
        TRACER.absorb_shard(payload)
        events = TRACER.chrome_trace()["traceEvents"]
        mutant = [e for e in events if e["name"] == "mutant"]
        assert mutant and mutant[0]["pid"] > _WORKER_PID_BASE
        # The worker identity becomes a named track.
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "repro worker worker-a:1234" in names
        assert validate_chrome_trace(TRACER.chrome_trace()) == []

    def test_late_absorbed_shard_keeps_its_place_on_the_track(self):
        # Two shards run back to back on one worker and the first
        # one's result is absorbed last, as when the coordinator drains
        # it late: the spans still sit where the worker ran them.
        TRACER.enable()
        payloads = []
        for index in (0, 1):
            capture = ShardCapture(spans_enabled=True)
            with capture.span("shard.execute", index=index):
                pass
            payloads.append(capture.payload())
        for payload in reversed(payloads):
            TRACER.absorb_shard(payload)
        first, second = sorted(_spans_named("shard.execute"),
                               key=lambda e: e["ts"])
        assert [first["args"]["index"], second["args"]["index"]] == [0, 1]
        assert first["ts"] + first["dur"] <= second["ts"]

    def test_enable_resets_the_timeline(self):
        TRACER.enable()
        with trace_span("old"):
            pass
        TRACER.enable()
        assert len(TRACER) == 0

    def test_buffer_keeps_only_the_most_recent_jobs(self):
        # A traced daemon that has run 200 jobs holds the events of the
        # last MAX_TRACED_JOBS of them, each job complete; events
        # outside any job context are all kept.
        TRACER.enable()
        TRACER.instant("boot")
        for n in range(200):
            with TRACER.context(job=f"j{n}"):
                with trace_span("job.run"):
                    TRACER.instant("shard", n=n)
        assert len(TRACER) == 1 + 2 * MAX_TRACED_JOBS
        jobs = {e["args"].get("job")
                for e in TRACER.chrome_trace()["traceEvents"]
                if e["ph"] != "M"}
        assert jobs == {None} | {f"j{n}" for n in
                                 range(200 - MAX_TRACED_JOBS, 200)}
        newest = [e for e in TRACER.chrome_trace(job="j199")["traceEvents"]
                  if e["ph"] != "M"]
        assert sorted(e["name"] for e in newest) == ["job.run", "shard"]
        assert all(e["args"]["job"] == "j199" for e in newest)
        assert TRACER.chrome_trace(job="j0")["traceEvents"] == []

    def test_an_active_job_outlives_newer_finished_ones(self):
        # Retention follows the last event, not the first: a long job
        # that keeps recording is not dropped while short ones finish.
        TRACER.enable()
        for n in range(MAX_TRACED_JOBS + 5):
            with TRACER.context(job="long"):
                TRACER.instant("step", n=n)
            with TRACER.context(job=f"short{n}"):
                TRACER.instant("done")
        steps = [e for e in TRACER.chrome_trace(job="long")["traceEvents"]
                 if e["ph"] != "M"]
        assert len(steps) == MAX_TRACED_JOBS + 5


def _spans_named(name):
    return [e for e in TRACER.chrome_trace()["traceEvents"]
            if e["name"] == name]


class TestFailedRunsAreTraced:
    """A step that raises still closes its span, tagged with the
    exception type."""

    def test_span_records_the_error_type(self):
        TRACER.enable()
        with pytest.raises(KeyError):
            with trace_span("work"):
                raise KeyError("missing")
        (span,) = _spans_named("work")
        assert span["args"]["error"] == "KeyError"

    def test_lint_gated_flow_run(self, monkeypatch):
        import repro.lint
        from repro.lint import LintGateError, lint_module
        from repro.rtl import Assign, Module, const

        broken = Module("dd")
        clk = broken.input("clk")
        q = broken.output("q", 4)
        broken.sync("p1", clk, [Assign(q, const(1, 4))])
        broken.sync("p2", clk, [Assign(q, const(2, 4))])
        report = lint_module(broken)
        monkeypatch.setattr(repro.lint, "lint_module", lambda m: report)
        TRACER.enable()
        with pytest.raises(LintGateError):
            run_flow(case_study("dsp"), "razor", run_mutation=False)
        (span,) = _spans_named("flow.run")
        assert span["args"]["error"] == "LintGateError"
        assert span["args"]["ip"] == "dsp"
        assert validate_chrome_trace(TRACER.chrome_trace()) == []

    def test_failing_golden_run_in_campaign_prepare(self, flow,
                                                    monkeypatch):
        import repro.mutation.campaign as campaign
        from repro.mutation import prepare_campaign

        def golden_run(*args, **kwargs):
            raise RuntimeError("golden model unavailable")

        monkeypatch.setattr(campaign, "compute_golden_trace", golden_run)
        TRACER.enable()
        with pytest.raises(RuntimeError):
            prepare_campaign(
                flow.tlm_optimized, flow.injected,
                case_study("filter").stimulus(REDUCED_CYCLES),
                ip_name="filter", sensor_type="razor",
            )
        (span,) = _spans_named("campaign.prepare")
        assert span["args"]["error"] == "RuntimeError"


class TestShardCapture:
    def test_helpers_are_noops_outside_a_capture(self):
        shard_count("mutants", 5)
        with shard_span("mutant"):
            pass  # must not raise

    def test_counters_always_spans_only_when_enabled(self):
        with shard_capture(spans_enabled=False) as capture:
            shard_count("mutants", 2)
            with shard_span("mutant"):
                pass
        payload = capture.payload()
        assert payload["counters"] == {"mutants": 2}
        assert payload["spans"] == []
        assert payload["elapsed_s"] >= 0
        with shard_capture(spans_enabled=True) as capture:
            with shard_span("mutant", index=1):
                pass
        spans = capture.payload()["spans"]
        assert [s["name"] for s in spans] == ["mutant"]
        assert spans[0]["start_s"] >= 0 and spans[0]["dur_s"] >= 0


class TestValidateChromeTrace:
    def test_accepts_a_well_formed_trace(self):
        payload = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 5,
             "pid": 1, "tid": 1},
            {"name": "b", "ph": "i", "ts": 2, "pid": 1, "tid": 1},
            {"name": "process_name", "ph": "M", "ts": 0,
             "pid": 1, "tid": 0, "args": {"name": "p"}},
        ]}
        assert validate_chrome_trace(payload) == []

    def test_rejects_malformed_traces(self):
        assert validate_chrome_trace([]) == ["payload is not an object"]
        assert validate_chrome_trace({}) == ["traceEvents is not a list"]
        bad = {"traceEvents": [
            {"name": "", "ph": "X", "ts": 0, "dur": -1,
             "pid": 1, "tid": 1},
            {"name": "x", "ph": "?", "ts": 0, "pid": 1, "tid": 1},
            {"name": "open", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
        ]}
        problems = validate_chrome_trace(bad)
        text = "\n".join(problems)
        assert "missing name" in text
        assert "bad dur" in text
        assert "unknown phase" in text
        assert "unclosed B" in text


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("repro_cache_hits_total", 3)
        reg.set_gauge("repro_inflight_shards", 2)
        reg.observe("repro_shard_seconds", 0.2)
        snap = reg.snapshot()
        assert snap["counters"] == {"repro_cache_hits_total": 3.0}
        assert snap["gauges"] == {"repro_inflight_shards": 2.0}
        assert snap["histograms"]["repro_shard_seconds"]["count"] == 1

    def test_labels_render_prometheus_style(self):
        reg = MetricsRegistry()
        reg.inc("repro_jobs_total", status="done")
        reg.inc("repro_jobs_total", status="failed")
        text = reg.render()
        assert '# TYPE repro_jobs_total counter' in text
        assert 'repro_jobs_total{status="done"} 1' in text
        assert 'repro_jobs_total{status="failed"} 1' in text

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        reg.observe("repro_shard_seconds", 0.03)
        reg.observe("repro_shard_seconds", 5.0)
        text = reg.render()
        assert 'repro_shard_seconds_bucket{le="0.05"} 1' in text
        assert 'repro_shard_seconds_bucket{le="10"} 2' in text
        assert 'repro_shard_seconds_bucket{le="+Inf"} 2' in text
        assert 'repro_shard_seconds_count 2' in text

    def test_at_least_ten_series_have_help_text(self):
        # The acceptance bar: >= 10 named series on GET /metrics.
        from repro.obs.metrics import _HELP

        reg = MetricsRegistry()
        for name in _HELP:
            if name == "repro_shard_seconds":
                reg.observe(name, 0.1)
            elif name.endswith("_total"):
                reg.inc(name)
            else:
                reg.set_gauge(name, 1.0)
        text = reg.render()
        typed = [ln for ln in text.splitlines()
                 if ln.startswith("# TYPE ")]
        assert len(typed) >= 10
        for name in _HELP:
            assert f"# HELP {name} " in text

    def test_absorb_shard_counters_maps_to_series(self):
        # The autouse fixture reset the global registry.
        raw = absorb_shard_counters(
            {"counters": {"shards": 1, "mutants": 4, "batch_forks": 2},
             "elapsed_s": 0.5},
        )
        assert raw == {"shards": 1, "mutants": 4, "batch_forks": 2}
        snap = REGISTRY.snapshot()
        assert snap["counters"]["repro_shards_executed_total"] == 1
        assert snap["counters"]["repro_mutants_executed_total"] == 4
        assert snap["counters"]["repro_batch_forks_total"] == 2
        assert snap["histograms"]["repro_shard_seconds"]["count"] == 1
        assert absorb_shard_counters(None) == {}


# ----------------------------------------------------------------------
# Tracing never changes results
# ----------------------------------------------------------------------

class TestTracingFieldIdentity:
    @pytest.mark.parametrize("shard_size", [None, 3])
    def test_report_identical_with_tracing_on(self, flow, oracle,
                                              shard_size):
        untraced = _campaign(flow, workers=1, shard_size=shard_size)
        TRACER.enable()
        traced = _campaign(flow, workers=1, shard_size=shard_size)
        TRACER.disable()
        assert_matches_oracle(untraced, oracle)
        assert_matches_oracle(traced, oracle)
        # The traced run actually recorded campaign, shard and sweep
        # spans.
        names = {e["name"]
                 for e in TRACER.chrome_trace()["traceEvents"]}
        assert {"campaign.run", "shard.execute", "batch.sweep"} <= names

    @pytest.mark.parametrize("shard_size", [None, 3],
                             ids=["default", "shard3"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("ip,sensor", CELLS)
    def test_traced_equals_untraced(self, flows, ip, sensor, workers,
                                    shard_size):
        flow = flows(ip, sensor)
        stim = case_study(ip).stimulus(REDUCED_CYCLES)

        def run():
            return run_campaign(
                flow.tlm_optimized, flow.injected, stim,
                ip_name=ip, sensor_type=sensor,
                workers=workers, shard_size=shard_size,
            )

        untraced = run()
        TRACER.enable()
        traced = run()
        TRACER.disable()
        assert traced == untraced
        assert traced.outcomes == untraced.outcomes
        # The compare=False metadata too (obs counters included): only
        # the wall clock may differ.
        for f in dataclasses.fields(MutationReport):
            if f.name != "seconds":
                assert getattr(traced, f.name) == \
                    getattr(untraced, f.name), f.name

    def test_campaign_report_carries_obs_counters(self, flow):
        report = _campaign(flow, workers=1)
        assert report.obs is not None
        counters = report.obs["counters"]
        assert counters["mutants"] == report.total
        assert counters["shards"] >= 1


class TestSuiteObs:
    """``run_benchmark_suite`` (the methodology run) absorbs each
    executed shard's obs payload exactly as the standalone entry
    points do, counted per level: TLM shards as ``run_campaign``'s,
    RTL-validation shards as ``validate_at_rtl``'s."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_suite_matches_run_campaign_obs(self, flows, workers):
        sensors = ("razor", "counter")
        TRACER.enable()
        suite = run_benchmark_suite(
            ["dsp"], sensors, workers=workers,
            mutation_cycles=REDUCED_CYCLES, rtl_validation=True,
            flows={("dsp", s): flows("dsp", s) for s in sensors},
        )
        TRACER.disable()
        levels = [e["args"]["level"] for e in _spans_named("shard.execute")]
        absorbed = REGISTRY.snapshot()["counters"].get(
            "repro_shards_executed_total", 0.0)

        stim = case_study("dsp").stimulus(REDUCED_CYCLES)
        shards = {"tlm": 0, "rtl": 0}
        for sensor in sensors:
            flow = flows("dsp", sensor)
            direct = run_campaign(
                flow.tlm_optimized, flow.injected, stim,
                ip_name="dsp", sensor_type=sensor, workers=workers,
            )
            report = suite.reports[("dsp", sensor)]
            assert report == direct
            assert report.obs == direct.obs
            shards["tlm"] += direct.obs["counters"]["shards"]
            direct = validate_at_rtl(
                flow.augmented, flow.injected.mutants, stimuli=stim,
                ip_name="dsp", workers=workers,
            )
            report = suite.rtl_reports[("dsp", sensor)]
            assert report == direct
            assert report.obs == direct.obs
            shards["rtl"] += direct.obs["counters"]["shards"]
        assert {level: levels.count(level) for level in shards} == shards
        assert len(levels) == absorbed == sum(shards.values())


def _rtl_shard_spans():
    """The ``shard.execute`` spans of RTL shards, each checked to sit
    on a worker track."""
    events = TRACER.chrome_trace()["traceEvents"]
    tracks = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    spans = [e for e in events if e["name"] == "shard.execute"
             and e["args"].get("level") == "rtl"]
    for span in spans:
        assert tracks[span["pid"]].startswith("repro worker pool/")
    return spans


class TestRtlShardObs:
    """RTL-validation shards run under a shard capture like TLM
    shards: a traced run records one ``shard.execute`` span tagged
    ``level="rtl"`` per executed RTL shard, on a worker track."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_suite_records_one_span_per_rtl_shard(self, flows, workers):
        sensors = ("razor", "counter")
        TRACER.enable()
        suite = run_benchmark_suite(
            ["dsp"], sensors, workers=workers,
            mutation_cycles=REDUCED_CYCLES, rtl_validation=True,
            flows={("dsp", s): flows("dsp", s) for s in sensors},
        )
        TRACER.disable()
        executed = sum(
            len(_shard_sequence(list(range(report.total)), workers))
            for report in suite.rtl_reports.values()
        )
        assert executed >= len(sensors)
        assert len(_rtl_shard_spans()) == executed

    def test_validate_at_rtl_records_one_span_per_shard(self, flows):
        flow = flows("dsp", "counter")
        TRACER.enable()
        report = validate_at_rtl(
            flow.augmented, flow.injected.mutants,
            stimuli=case_study("dsp").stimulus(REDUCED_CYCLES),
            ip_name="dsp", shard_size=3,
        )
        TRACER.disable()
        spans = _rtl_shard_spans()
        assert len(spans) == len(
            _shard_sequence(list(range(report.total)), 1, 3))
        assert sum(span["args"]["mutants"] for span in spans) == \
            report.total
        assert report.obs == {"counters": {"mutants": report.total,
                                           "shards": len(spans)}}
        for name in ("rtl_validation.run", "rtl_validation.prepare"):
            assert len(_spans_named(name)) == 1


class _Rendezvous:
    """Runs the wrapped shard once its partner has started too: both
    wait on one barrier, so they execute on two pool processes."""

    def __init__(self, shard, barrier) -> None:
        self.shard = shard
        self.barrier = barrier

    def run(self):
        self.barrier.wait(timeout=60)
        return self.shard.run()


class _PairedScheduler(CampaignScheduler):
    """A 2-worker scheduler whose first two shards rendezvous, so both
    pool workers deterministically run at least one shard."""

    def __init__(self, barrier) -> None:
        super().__init__(2)
        self._barrier = barrier
        self._paired = 0

    def submit(self, shard):
        if self._paired < 2:
            self._paired += 1
            shard = _Rendezvous(shard, self._barrier)
        return super().submit(shard)


class TestWorkerTracks:
    def test_each_pool_worker_gets_its_own_track(self, flow, oracle):
        TRACER.enable()
        with multiprocessing.Manager() as manager, \
                _PairedScheduler(manager.Barrier(2)) as scheduler:
            report = _campaign(flow, scheduler=scheduler, shard_size=9)
        assert_matches_oracle(report, oracle)
        events = TRACER.chrome_trace()["traceEvents"]
        names = {e["pid"]: e["args"]["name"]
                 for e in events if e["ph"] == "M"}
        tracks: "dict[int, list]" = {}
        for e in events:
            if e["name"] == "shard.execute":
                tracks.setdefault(e["pid"], []).append(
                    (e["ts"], e["ts"] + e["dur"])
                )
        assert sum(map(len, tracks.values())) == 6
        assert len(tracks) >= 2
        assert all(names[pid].startswith("repro worker pool/")
                   for pid in tracks)
        for spans in tracks.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end


# ----------------------------------------------------------------------
# Service endpoints
# ----------------------------------------------------------------------

def _server(flow, **kwargs):
    kwargs.setdefault("workers", 1)
    service = CampaignService(
        flows={("filter", "razor"): flow}, **kwargs
    )
    return ServiceServer(service)


def _client(server):
    host, port = server.address
    return ServiceClient(host, port, timeout=60.0,
                         stream_timeout=120.0)


def _http_get(server, path):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), \
            response.read().decode()
    finally:
        conn.close()


SPEC = {"ip": "filter", "sensor": "razor", "cycles": REDUCED_CYCLES}


class TestServiceMetricsEndpoints:
    def test_metrics_endpoint_serves_prometheus_text(self, flow):
        with _server(flow) as server:
            client = _client(server)
            record = client.submit(dict(SPEC))
            end = client.watch(record["id"])
            assert end["status"] == "done"
            status, ctype, body = _http_get(server, "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert "version=0.0.4" in ctype
            assert 'repro_jobs_total{status="done"} 1' in body
            assert "repro_shards_executed_total" in body
            assert "repro_mutants_executed_total" in body
            assert "# TYPE repro_uptime_seconds gauge" in body
            assert "# TYPE repro_inflight_shards gauge" in body

    def test_healthz_carries_the_metrics_snapshot(self, flow):
        with _server(flow) as server:
            client = _client(server)
            record = client.submit(dict(SPEC))
            client.watch(record["id"])
            health = client.health()
            metrics = health["metrics"]
            assert metrics["tracing"] is False
            counters = metrics["local"]["counters"]
            assert counters["repro_shards_executed_total"] >= 1
            assert set(metrics) == {"local", "tracing"}
            # The pool block is the shared scheduler's own snapshot.
            pool = health["pool"]
            assert pool == {**server.service.scheduler.describe(),
                            "max_jobs": 4}
            assert pool["shards_done"] == \
                counters["repro_shards_executed_total"]
            assert pool["in_flight"] == 0
            assert pool["pool_rebuilds"] == 0
            assert pool["shard_isolations"] == 0


class TestBatchedProgressEvents:
    def test_progress_monotonic_and_each_mutant_counted_once(self, flow,
                                                             oracle):
        """/events under batched sweeps (forks + early-kills happen at
        this testbench length).  The job parks at its ``job.hold``
        site on start; the stream attaches, reads the first event,
        then releases it -- so the stream carries the full history."""
        plan = FaultPlan.from_spec("job.hold=1")
        with active_plan(plan), _server(flow) as server:
            client = _client(server)
            record = client.submit({**SPEC, "shard_size": 4})
            stream = client.events(record["id"])
            first = next(stream)
            plan.release("job.hold")
            events = [first, *stream]
            assert first["type"] == "status"
            end = events[-1]
            assert end["type"] == "end" and end["status"] == "done"
            report = decode_report(end["report"])
            total = report.total
            # Monotonic executed counts, finishing exactly at total.
            dones = [e["done"] for e in events
                     if e["type"] == "progress"]
            assert dones == sorted(dones)
            assert dones[-1] == total
            # Every mutant -- early-killed included -- exactly once.
            indices = sorted(
                o["index"]
                for e in events if e["type"] == "shard"
                for o in e["outcomes"]
            )
            assert indices == list(range(total))
            # And the batched report equals the serial oracle.
            assert_matches_oracle(report, oracle)


class TestTraceEndpoint:
    def test_trace_404s_when_tracing_is_disabled(self, flow):
        with _server(flow) as server:
            client = _client(server)
            record = client.submit(dict(SPEC))
            client.watch(record["id"])
            status, _ctype, body = _http_get(
                server, f"/jobs/{record['id']}/trace"
            )
            assert status == 404
            assert "tracing is disabled" in body
            status, _ctype, _body = _http_get(
                server, "/jobs/nope/trace"
            )
            assert status == 404

    def test_traced_server_exports_a_valid_job_trace(self, flow):
        with _server(flow, trace=True) as server:
            client = _client(server)
            first = client.submit(dict(SPEC))
            client.watch(first["id"])
            second = client.submit({**SPEC, "shard_size": 3})
            second_end = client.watch(second["id"])
            payload = client.trace(second["id"])
            assert validate_chrome_trace(payload) == []
            events = payload["traceEvents"]
            names = {e["name"] for e in events}
            assert {"job.run", "campaign.prepare", "shard.execute",
                    "batch.sweep"} <= names
            # Job filtering: nothing from the first job leaks in.
            assert all(e["args"]["job"] == second["id"]
                       for e in events if e["ph"] != "M")
            # Tracing did not perturb the report either.
            assert decode_report(second_end["report"]).total > 0
