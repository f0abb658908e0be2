"""The benchmark's three workloads.

Each workload has a set-up (timed separately, see ``run.py``) and a
*unit*: the fixed set of operations one measurement covers.  A unit
returns a :class:`Unit` with its host wall time, the verdicts it
delivered, its per-job latencies and per-cell times, and how many of
its operations failed their correctness check.

Every unit runs in one of three modes: ``plain`` (nothing added),
``bench`` (the layer probes of ``probes.py`` record spans) and ``obs``
(``repro.obs`` span tracing enabled, probes off).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future

from probes import (
    CAMPAIGN_PATCHES,
    FRONTEND_PATCHES,
    Recorder,
    TimedCache,
    TimedPlacement,
    patched,
    shard_layer,
)

IPS = ("plasma", "dsp", "filter")
SENSORS = ("razor", "counter")

#: Stimulus seeds per IP.  Index 0 is the registry testbench's own
#: seed.  Every entry was checked, when the list was made, to kill 100%
#: of the mutants of both sensor types at TLM, raise every Razor error
#: at RTL and agree per mutant between TLM and RTL (filter seed 8 kills
#: only 96% of the Counter mutants, so it is left out).
STIMULUS_SEEDS = {
    "plasma": (5, 1, 2, 3, 4, 6, 7, 8),
    "dsp": (23, 1, 2, 3, 4, 5, 6, 7),
    "filter": (11, 1, 2, 3, 4, 5, 6, 7),
}

#: The workload seed whose inputs are the registry testbenches exactly.
DEFAULT_SEED = 0

#: ``campaign_sweep`` verdict digest for the default seed over all
#: three IPs, recorded at the commit that introduced the benchmark.
SWEEP_DIGEST = (
    "34be2748e18f7607527125f8edf908c6dff2fbaa6de7e275d0e5f8326f0f4608"
)

#: Stimulus seeds per IP in one ``campaign_sweep`` unit.
SWEEP_STIMULI = 2
#: Pool width of ``campaign_sweep``: the core count of the two-vCPU
#: host the benchmark was tuned on.
SWEEP_WORKERS = 2
#: ``service_warm``: concurrent clients and jobs per client per unit.
SERVICE_CLIENTS = 2
SERVICE_JOBS_PER_CLIENT = 30

#: A child interpreter must finish one methodology unit within this.
CHILD_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclasses.dataclass
class Unit:
    """What one measured unit produced."""

    wall_s: float
    verdicts: int
    attempted: int
    failed: int
    #: Per-job latencies (seconds) -- the workload's own notion of a job.
    jobs: "list[float]" = dataclasses.field(default_factory=list)
    #: ``"ip.sensor" -> seconds`` spent on that cell in this unit.
    cells: "dict[str, float]" = dataclasses.field(default_factory=dict)
    disagreements: int = 0
    import_s: "float | None" = None
    notes: "list[str]" = dataclasses.field(default_factory=list)


def ip_spec(name: str, index: int):
    """The case study ``name`` driven by stimulus seed ``index`` of
    :data:`STIMULUS_SEEDS`.  Index 0 returns the registry object
    itself, so the default seed reproduces the registry testbench (and
    its RTL rebuild recipe) exactly."""
    from repro.ips import CASE_STUDIES

    spec = CASE_STUDIES[name]
    seeds = STIMULUS_SEEDS[name]
    if index % len(seeds) == 0:
        return spec
    return dataclasses.replace(
        spec,
        stimulus=functools.partial(spec.stimulus,
                                   seed=seeds[index % len(seeds)]),
    )


@contextlib.contextmanager
def obs_tracing(enabled: bool):
    """``repro.obs`` span tracing on for the block (then cleared)."""
    if not enabled:
        yield
        return
    from repro.obs import TRACER

    TRACER.enable()
    try:
        yield
    finally:
        TRACER.disable()
        TRACER.clear()


def cell_name(ip: str, sensor: str) -> str:
    return f"{ip}.{sensor}"


def tlm_problems(report, expected_total: int) -> "list[str]":
    """Correctness of one TLM campaign report: every mutant exactly
    once, none timed out, all killed."""
    problems = []
    indices = sorted(o.index for o in report.outcomes)
    if indices != list(range(expected_total)):
        problems.append("mutant indices are not each present exactly once")
    if report.timed_out_count:
        problems.append(f"{report.timed_out_count} mutants timed out")
    if report.killed_pct != 100.0:
        problems.append(f"killed {report.killed_pct:.1f}%")
    return problems


def cross_level_problems(report, rtl) -> "tuple[list[str], int]":
    """Per-mutant TLM vs RTL agreement on ``error_risen`` and
    ``meas_val``, plus Razor's 100% RTL error-risen criterion."""
    problems = []
    if rtl.sensor_type == "razor" and rtl.risen_pct != 100.0:
        problems.append(f"RTL risen {rtl.risen_pct:.1f}%")
    rtl_by_index = {o.index: o for o in rtl.outcomes}
    disagreements = 0
    for tlm in report.outcomes:
        other = rtl_by_index.get(tlm.index)
        if other is None or (other.error_risen, other.meas_val) != (
            tlm.error_risen, tlm.meas_val
        ):
            disagreements += 1
    disagreements += len(set(rtl_by_index) - {o.index
                                              for o in report.outcomes})
    if disagreements:
        problems.append(f"{disagreements} TLM/RTL disagreements")
    return problems, disagreements


def verdict_digest(reports) -> str:
    """sha256 over every verdict field of ``(ip, sensor, stimulus
    index) -> MutationReport``, in a fixed order."""
    rows = []
    for key in sorted(reports):
        for o in reports[key].outcomes:
            rows.append([*key, o.index, o.kind, o.target, o.register,
                         o.hf_tick, o.killed, o.detected, o.error_risen,
                         o.corrected, o.meas_val, o.first_divergence,
                         o.timed_out])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class FlipFirstRtlVerdict:
    """Fault injection for the self-test: a placement that inverts the
    ``error_risen`` of the first RTL-validation verdict it returns."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.flipped = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def submit(self, shard) -> Future:
        future = self.inner.submit(shard)
        if self.flipped or shard_layer(shard) != "rtl_validation":
            return future
        self.flipped = True
        outcomes = list(future.result())
        outcomes[0] = dataclasses.replace(
            outcomes[0], error_risen=not outcomes[0].error_risen
        )
        flipped: Future = Future()
        flipped.set_result(outcomes)
        return flipped


def corrupt_one_verdict(cache_root: str) -> None:
    """Fault injection for the self-test: invert ``killed`` in one
    stored mutant verdict, keeping the entry valid JSON."""
    objects = os.path.join(cache_root, "objects")
    for directory, _, files in sorted(os.walk(objects)):
        for name in sorted(files):
            path = os.path.join(directory, name)
            with open(path) as handle:
                payload = json.load(handle)
            if "killed" in payload:
                payload["killed"] = not payload["killed"]
                with open(path, "w") as handle:
                    json.dump(payload, handle)
                return
    raise RuntimeError("no mutant verdict in the cache to corrupt")


@dataclasses.dataclass
class Context:
    """Per-run settings and state shared by set-up and units."""

    seed: int
    recorder: Recorder
    tmp: str
    traced: bool = False
    inject: "str | None" = None
    state: dict = dataclasses.field(default_factory=dict)

    @property
    def cells(self) -> "list[tuple[str, str]]":
        return [(ip, sensor) for ip in IPS for sensor in SENSORS]


# ---------------------------------------------------------------------------
# methodology_rtl
# ---------------------------------------------------------------------------

def methodology_unit(seed: int, mode: str, inject: "str | None") -> dict:
    """One full methodology run (3 IPs x both sensors, RTL cross-
    validation, no cache, 1 worker) -- the suite behind ``repro bench
    --rtl-validation``.  Runs inside a fresh child interpreter and
    returns a JSON-able dict."""
    from repro.mutation import CampaignScheduler, run_benchmark_suite

    recorder = Recorder()
    specs = [ip_spec(ip, seed) for ip in IPS]
    scheduler = CampaignScheduler(1)
    placement = scheduler
    if mode == "bench":
        placement = TimedPlacement(scheduler, recorder)
    if inject == "flip-rtl-verdict":
        placement = FlipFirstRtlVerdict(placement)
    with contextlib.ExitStack() as stack:
        if mode == "bench":
            stack.enter_context(recorder.active("op"))
            stack.enter_context(
                patched(recorder, FRONTEND_PATCHES + CAMPAIGN_PATCHES)
            )
        stack.enter_context(obs_tracing(mode == "obs"))
        start = time.perf_counter()
        with recorder.span("op", workload="methodology_rtl"):
            suite = run_benchmark_suite(
                specs, SENSORS, workers=1, scheduler=placement,
                rtl_validation=True,
            )
        wall = time.perf_counter() - start
    scheduler.shutdown()

    cells, problems = {}, {}
    disagreements = verdicts = 0
    for spec in specs:
        for sensor in SENSORS:
            key = (spec.name, sensor)
            report, rtl = suite.reports[key], suite.rtl_reports[key]
            found = tlm_problems(report, rtl.total)
            cross, count = cross_level_problems(report, rtl)
            disagreements += count
            verdicts += report.total + rtl.total
            name = cell_name(*key)
            cells[name] = report.seconds + rtl.seconds
            if found + cross:
                problems[name] = found + cross
    return {
        "wall_s": wall,
        "verdicts": verdicts,
        "cells": cells,
        "problems": problems,
        "disagreements": disagreements,
        "spans": recorder.spans,
    }


class Methodology:
    name = "methodology_rtl"
    #: Fewest units a run measures; the peak RSS is read after them.
    #: One unit takes most of a run, so a slow host gets one, not two.
    min_units = 1
    #: Width of the shard placement the program is handed.
    workers = 1

    def setup(self, ctx: Context) -> None:
        """Nothing beyond the interpreter: every unit starts a fresh
        one, so set-up is interpreter start plus ``import repro``."""

    def unit(self, ctx: Context, mode: str) -> Unit:
        request = {"seed": ctx.seed, "mode": mode, "inject": ctx.inject}
        start = time.perf_counter()
        ready, lines, error = run_child("methodology", request)
        latency = time.perf_counter() - start
        attempted = len(ctx.cells)
        if error is not None:
            return Unit(wall_s=float("nan"), verdicts=0,
                        attempted=attempted, failed=attempted,
                        notes=[error])
        result = json.loads(lines[-1])
        ctx.recorder.extend(result["spans"])
        notes = [f"{cell}: {'; '.join(found)}"
                 for cell, found in sorted(result["problems"].items())]
        return Unit(
            wall_s=result["wall_s"],
            verdicts=result["verdicts"],
            attempted=attempted,
            failed=len(result["problems"]),
            jobs=[latency],
            cells=result["cells"],
            disagreements=result["disagreements"],
            import_s=ready["import_s"],
            notes=notes,
        )

    def teardown(self, ctx: Context) -> None:
        pass


def run_child(task: str, request: dict):
    """Run ``child.py task`` in a fresh interpreter.  Returns
    ``(ready, lines, error)``: the child's first stdout line (sent once
    it is set up), the remaining lines, and an error text or ``None``.
    The child is always waited for."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), task,
         json.dumps(request)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, [], f"{task} child timed out"
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        return None, lines, f"{task} child exited {proc.returncode}"
    return json.loads(lines[0]), lines[1:], None


# ---------------------------------------------------------------------------
# campaign_sweep
# ---------------------------------------------------------------------------

class CampaignSweep:
    name = "campaign_sweep"
    min_units = 2
    workers = SWEEP_WORKERS

    def setup(self, ctx: Context) -> None:
        """Build every flow the sweep needs and start the shared pool."""
        from repro.flow import run_flow
        from repro.mutation import CampaignScheduler

        groups = []
        for j in range(SWEEP_STIMULI):
            specs = [ip_spec(ip, ctx.seed + j) for ip in IPS]
            flows = {
                (spec.name, sensor): run_flow(spec, sensor,
                                              run_mutation=False)
                for spec in specs for sensor in SENSORS
            }
            groups.append((j, specs, flows))
        scheduler = CampaignScheduler(SWEEP_WORKERS)
        ctx.state.update(
            groups=groups,
            scheduler=scheduler,
            placement=(TimedPlacement(scheduler, ctx.recorder)
                       if ctx.traced else scheduler),
        )

    def unit(self, ctx: Context, mode: str) -> Unit:
        from repro.mutation import ResultCache, run_benchmark_suite

        placement = ctx.state["placement"]
        reports, suite_seconds, notes = {}, [], []
        with tempfile.TemporaryDirectory(dir=ctx.tmp) as root:
            cache = (TimedCache(root, ctx.recorder) if ctx.traced
                     else ResultCache(root))
            with contextlib.ExitStack() as stack:
                if mode == "bench":
                    stack.enter_context(ctx.recorder.active("op"))
                    stack.enter_context(
                        patched(ctx.recorder, CAMPAIGN_PATCHES)
                    )
                stack.enter_context(obs_tracing(mode == "obs"))
                start = time.perf_counter()
                with ctx.recorder.span("op", workload=self.name):
                    for j, specs, flows in ctx.state["groups"]:
                        try:
                            suite = run_benchmark_suite(
                                specs, SENSORS, scheduler=placement,
                                flows=flows, cache=cache,
                            )
                        except Exception as exc:  # its cells count failed
                            notes.append(f"stimulus {j}: suite raised "
                                         f"{exc!r}")
                            continue
                        suite_seconds.append(suite.seconds)
                        for (ip, sensor), report in suite.reports.items():
                            reports[(ip, sensor, j)] = report
                wall = time.perf_counter() - start

        failed, cells = set(), {}
        for key, report in sorted(reports.items()):
            ip, sensor, j = key
            flow = ctx.state["groups"][j][2][(ip, sensor)]
            total = len(flow.injected.mutants)
            found = tlm_problems(report, total)
            if report.cache_hits != 0 or report.cache_misses != total:
                found.append("not every verdict executed on a cold cache")
            if found:
                failed.add(key)
                notes.append(f"{ip}.{sensor} stimulus {j}: "
                             + "; ".join(found))
            name = cell_name(ip, sensor)
            cells[name] = cells.get(name, 0.0) + report.seconds
        expected = {(ip, s, j) for ip, s in ctx.cells
                    for j in range(SWEEP_STIMULI)}
        failed |= expected - set(reports)
        digest = verdict_digest(reports)
        if ctx.seed == DEFAULT_SEED and digest != SWEEP_DIGEST:
            notes.append(f"verdict digest {digest} != pinned {SWEEP_DIGEST}")
            failed = expected
        notes.append(f"verdict digest {digest}")
        return Unit(
            wall_s=wall,
            verdicts=sum(r.total for r in reports.values()),
            attempted=len(expected),
            failed=len(failed),
            jobs=suite_seconds,
            cells=cells,
            notes=notes,
        )

    def teardown(self, ctx: Context) -> None:
        scheduler = ctx.state.get("scheduler")
        if scheduler is not None:
            scheduler.shutdown()


# ---------------------------------------------------------------------------
# service_warm
# ---------------------------------------------------------------------------

class ServiceWarm:
    name = "service_warm"
    min_units = 20
    workers = 1

    def setup(self, ctx: Context) -> None:
        """Build the flows, fill an on-disk cache by running every
        campaign once directly (those reports are the references every
        streamed report must equal) and boot the server over it."""
        from repro.flow import run_flow
        from repro.ips import CASE_STUDIES
        from repro.mutation import ResultCache, run_campaign
        from repro.service import CampaignService, ServiceServer

        cache_dir = os.path.join(ctx.tmp, "cache")
        cache = (TimedCache(cache_dir, ctx.recorder) if ctx.traced
                 else ResultCache(cache_dir))
        flows, references = {}, {}
        for ip, sensor in ctx.cells:
            spec = CASE_STUDIES[ip]
            flows[(ip, sensor)] = flow = run_flow(spec, sensor,
                                                  run_mutation=False)
            references[(ip, sensor)] = run_campaign(
                flow.tlm_optimized, flow.injected,
                spec.stimulus(spec.mutation_cycles), ip_name=ip,
                sensor_type=sensor, recovery=True, cache=cache,
            )
        if ctx.inject == "corrupt-cache-entry":
            corrupt_one_verdict(cache_dir)
        service = CampaignService(
            workers=1, max_jobs=2, state_dir=os.path.join(ctx.tmp, "state"),
            cache=cache, flows=flows,
        )
        server = ServiceServer(service)
        ctx.state.update(server=server, cache=cache,
                         flows=flows, references=references,
                         address=server.start())
        rng = random.Random(ctx.seed)
        ctx.state["orders"] = [
            rng.sample(ctx.cells, len(ctx.cells))
            for _ in range(SERVICE_CLIENTS)
        ]

    def _client(self, ctx: Context, order, results: list) -> None:
        from repro.service import ServiceClient

        host, port = ctx.state["address"]
        client = ServiceClient(host, port, timeout=60)
        recorder = ctx.recorder
        with recorder.span("op", workload=self.name):
            for i in range(SERVICE_JOBS_PER_CLIENT):
                ip, sensor = order[i % len(order)]
                start = time.perf_counter()
                try:
                    with recorder.span("service.submit"):
                        job = client.submit({"ip": ip, "sensor": sensor})
                    with recorder.span("service.watch"):
                        end = client.watch(job["id"])
                except Exception as exc:  # a failed job, not a crash
                    end = {"status": "error", "error": repr(exc)}
                results.append(((ip, sensor),
                                time.perf_counter() - start, end))

    def unit(self, ctx: Context, mode: str) -> Unit:
        from repro.service.api import decode_report

        results: list = []
        threads = [
            threading.Thread(target=self._client,
                             args=(ctx, order, results))
            for order in ctx.state["orders"]
        ]
        with contextlib.ExitStack() as stack:
            if mode == "bench":
                stack.enter_context(ctx.recorder.active("op"))
                stack.enter_context(patched(ctx.recorder, CAMPAIGN_PATCHES))
            stack.enter_context(obs_tracing(mode == "obs"))
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start

        references = ctx.state["references"]
        failed, verdicts, notes = 0, 0, []
        cells: "dict[str, list[float]]" = {}
        for key, latency, end in results:
            cells.setdefault(cell_name(*key), []).append(latency)
            ok = end.get("status") == "done" and end.get("report")
            if ok:
                report = decode_report(end["report"])
                verdicts += report.total
                ok = report == references[key]
            if not ok:
                failed += 1
                if len(notes) < 3:
                    notes.append(f"{cell_name(*key)}: status "
                                 f"{end.get('status')} {end.get('error')}"
                                 " or report differs from reference")
        expected = SERVICE_CLIENTS * SERVICE_JOBS_PER_CLIENT
        return Unit(
            wall_s=wall,
            verdicts=verdicts,
            attempted=expected,
            failed=failed + expected - len(results),
            jobs=[latency for _, latency, _ in results],
            cells={name: statistics.median(v) for name, v in cells.items()},
            notes=notes,
        )

    def direct_p50_s(self, ctx: Context) -> float:
        """Median latency of the same warm campaigns called directly
        through ``run_campaign`` (the service-overhead baseline)."""
        from repro.ips import CASE_STUDIES
        from repro.mutation import run_campaign

        flows, cache = ctx.state["flows"], ctx.state["cache"]
        order = ctx.state["orders"][0]
        latencies = []
        for i in range(SERVICE_JOBS_PER_CLIENT):
            ip, sensor = order[i % len(order)]
            spec, flow = CASE_STUDIES[ip], flows[(ip, sensor)]
            start = time.perf_counter()
            run_campaign(
                flow.tlm_optimized, flow.injected,
                spec.stimulus(spec.mutation_cycles), ip_name=ip,
                sensor_type=sensor, recovery=True, cache=cache,
            )
            latencies.append(time.perf_counter() - start)
        return statistics.median(latencies)

    def teardown(self, ctx: Context) -> None:
        server = ctx.state.get("server")
        if server is not None:
            server.stop()


WORKLOADS = {w.name: w for w in (Methodology(), CampaignSweep(),
                                 ServiceWarm())}
