"""The campaign service daemon: asyncio bridge + stdlib HTTP server.

Two layers, one file:

:class:`CampaignService`
    owns the long-lived execution state -- one shared
    :class:`~repro.mutation.CampaignScheduler` worker pool, one
    :class:`~repro.mutation.ResultCache`, a per-(IP, sensor) flow
    cache, the :class:`~repro.service.jobs.JobStore` -- and runs each
    job on a bounded thread pool.  A job thread consumes
    :func:`~repro.mutation.stream_shard_batches` (shard-granular
    streaming over the shared process pool) and pumps every completed
    shard onto the asyncio event loop via
    ``loop.call_soon_threadsafe``; all job-record mutation and event
    fan-out happens **on the loop thread only**, which is what lets
    one process serve many concurrent campaigns and any number of
    streaming subscribers without locks around the hot state.

:class:`ServiceServer`
    a minimal HTTP/1.1 front end on :func:`asyncio.start_server` (the
    repository is stdlib-only by policy): request parsing, routing,
    JSON responses, and the NDJSON ``/events`` stream.

Endpoints::

    POST   /jobs             submit a JobSpec         -> 201 + record
    GET    /jobs             list all job records     -> 200
    GET    /jobs/<id>        one record (with report) -> 200
    GET    /jobs/<id>/events NDJSON live event stream -> 200 (streams)
    GET    /jobs/<id>/trace  Chrome trace JSON export -> 200 | 404
    DELETE /jobs/<id>        cancel (shard-granular)  -> 200 + record
    GET    /healthz          pool/queue/cache stats,
                             metrics snapshot         -> 200
    GET    /metrics          Prometheus text metrics  -> 200

Every job prepares and streams on the one shared scheduler, so a
report served here is byte-identical to a direct
:func:`~repro.mutation.run_campaign` of the same campaign.

Cancellation maps onto the scheduler's abort machinery: the job's
abort predicate (:class:`_JobAbort`) reports triggered once the cancel
event is set, so shard *submission* stops and in-flight shards drain
-- exactly the :class:`~repro.mutation.AbortPolicy` semantics, with
the partial report preserved on the record.

A disconnected ``/events`` subscriber affects nothing but itself: the
campaign publishes into per-subscriber queues, so the job -- and the
shared pool -- never see the broken socket (the library-level
equivalent, an abandoned stream, is likewise drained cleanly; see
:func:`repro.mutation.stream_shard_batches`).
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.faults import fault_point, get_fault_plan
from repro.mutation import CampaignScheduler, prepare_campaign
from repro.mutation.scheduler import stream_shard_batches
from repro.obs import REGISTRY, TRACER, trace_span

from . import api
from .jobs import JobRecord, JobSpec, JobStore, new_job_id

__all__ = ["CampaignService", "ServiceServer"]


class _JobAbort:
    """Duck-typed abort policy for one job: triggered by the client's
    DELETE (the cancel event) or by the spec's own
    :class:`~repro.mutation.AbortPolicy`, whichever first."""

    def __init__(self, policy, cancel: threading.Event) -> None:
        self._policy = policy
        self._cancel = cancel

    def triggered(self, *, killed: int, survivors: int,
                  judged: int) -> bool:
        if self._cancel.is_set():
            return True
        if self._policy is None:
            return False
        return self._policy.triggered(
            killed=killed, survivors=survivors, judged=judged
        )


class CampaignService:
    """Execution core of the campaign service.

    Args:
        workers: width of the shared :class:`CampaignScheduler` pool
            every job's shards execute on (1 = inline in the job
            thread, still concurrent across jobs).
        max_jobs: campaigns *running* simultaneously; submissions
            beyond that wait in the queue (FIFO).
        state_dir: :class:`~repro.service.jobs.JobStore` directory --
            pass the parent of (or a sibling to) the cache directory
            so job records live next to the result cache; ``None``
            keeps records in memory (nothing survives a restart).
        cache: a :class:`~repro.mutation.ResultCache` shared by every
            job, or ``None``.
        flows: optional pre-built ``(ip, sensor) -> FlowResult`` map
            seeding the flow cache (tests and benchmarks).

    On construction the store is read back: finished jobs keep their
    reports (``GET /jobs/<id>`` serves them immediately), jobs caught
    *running* by the crash are re-queued (bounded by
    :attr:`max_restarts`) and resume warm through the shared result
    cache, and jobs still queued are re-queued once :meth:`bind_loop`
    attaches the event loop.
    """

    #: Times a job may be caught ``running`` by a server restart and
    #: re-queued before the crash loop is declared real and the job
    #: fails loudly instead (a job whose execution *causes* the crash
    #: must not bounce forever).
    max_restarts = 2

    def __init__(
        self,
        *,
        workers: int = 1,
        max_jobs: int = 4,
        state_dir=None,
        cache=None,
        flows: "dict | None" = None,
        trace: bool = False,
    ) -> None:
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if trace:
            # Span tracing for the daemon's lifetime: every job runs
            # under its own trace context, exported per job via
            # ``GET /jobs/<id>/trace`` (``repro trace``).
            TRACER.enable()
        # Job threads trigger the lazy pool creation, and forking a
        # multi-threaded process can deadlock the children on locks
        # snapshotted mid-hold -- use a fork+exec start method
        # (forkserver, falling back to spawn where it is unavailable).
        try:
            mp_context = multiprocessing.get_context("forkserver")
        except ValueError:  # pragma: no cover - platform-dependent
            mp_context = multiprocessing.get_context("spawn")
        self.scheduler = CampaignScheduler(
            workers=workers, mp_context=mp_context
        )
        self.cache = cache
        self.store = JobStore(state_dir)
        self.max_jobs = max_jobs
        self._jobs: "dict[str, JobRecord]" = {}
        self._cancels: "dict[str, threading.Event]" = {}
        self._subscribers: "dict[str, list[asyncio.Queue]]" = {}
        self._flows: "dict[tuple[str, str], object]" = dict(flows or {})
        self._flow_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_jobs, thread_name_prefix="repro-job"
        )
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._started_at = time.time()
        self._closed = False
        self._recovered_queued: "list[JobRecord]" = []
        self._idempotency: "dict[str, str]" = {}
        self._recover()

    # -- restart recovery --------------------------------------------------

    def _recover(self) -> None:
        for record in self.store.load_all():
            if record.status == "running":
                # The previous server died mid-campaign.  The shards it
                # finished live on in the content-addressed result
                # cache, so re-queue the job and run it again: known
                # verdicts replay from the cache (a warm resume) and
                # only the genuinely lost tail re-executes.  A job that
                # keeps getting caught running -- its own execution
                # crashes the server -- fails loudly after
                # ``max_restarts`` instead of crash-looping forever.
                if record.restarts >= self.max_restarts:
                    record.status = "failed"
                    record.error = (
                        "interrupted by server restart "
                        f"{record.restarts + 1} times; restart budget "
                        f"({self.max_restarts}) exhausted -- the job "
                        "itself may be crashing the server"
                    )
                    record.finished = record.finished or time.time()
                else:
                    record.status = "queued"
                    record.restarts += 1
                    record.started = None
                    record.error = None
                self.store.save(record)
            if record.idempotency_key:
                self._idempotency[record.idempotency_key] = record.id
            if record.terminal:
                record.events = [{
                    "job": record.id,
                    **api.end_event(record.status, record.report,
                                    record.error),
                }]
            else:
                self._cancels[record.id] = threading.Event()
                self._recovered_queued.append(record)
            self._jobs[record.id] = record

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the event loop (called once by the server thread
        before accepting connections) and release any queued jobs
        recovered from the store."""
        self._loop = loop
        recovered, self._recovered_queued = self._recovered_queued, []
        for record in recovered:
            self._executor.submit(self._run_job, record)

    # -- request-level API (loop thread) -----------------------------------

    def submit(self, payload: dict) -> JobRecord:
        """Validate and enqueue one job (``POST /jobs``).

        A payload may carry an ``idempotency_key`` (the
        :class:`~repro.service.client.ServiceClient` always sends
        one): resubmitting the same key returns the existing record
        instead of enqueueing a duplicate, which is what makes a
        *retried* POST safe -- the client cannot tell a lost request
        from a lost response, and with the key it no longer has to.
        Runs on the loop thread, so the key check-and-claim is atomic.
        """
        from repro.ips import CASE_STUDIES

        payload = dict(payload)
        idempotency_key = payload.pop("idempotency_key", None)
        if idempotency_key is not None and \
                not isinstance(idempotency_key, str):
            raise ValueError("idempotency_key must be a string")
        if idempotency_key:
            existing = self._idempotency.get(idempotency_key)
            if existing is not None and existing in self._jobs:
                return self._jobs[existing]
        spec = JobSpec.from_payload(payload)
        if spec.ip not in CASE_STUDIES:
            raise ValueError(
                f"unknown IP {spec.ip!r} "
                f"(choose from {', '.join(sorted(CASE_STUDIES))})"
            )
        if self._closed:
            raise RuntimeError("service is shutting down")
        record = JobRecord(
            id=new_job_id(), spec=spec, created=time.time(),
            idempotency_key=idempotency_key or None,
        )
        if idempotency_key:
            self._idempotency[idempotency_key] = record.id
        self._jobs[record.id] = record
        self._cancels[record.id] = threading.Event()
        self.store.save(record)
        self._executor.submit(self._run_job, record)
        return record

    def get(self, job_id: str) -> "JobRecord | None":
        return self._jobs.get(job_id)

    def list_jobs(self) -> "list[JobRecord]":
        return sorted(
            self._jobs.values(), key=lambda r: (r.created, r.id)
        )

    def cancel(self, job_id: str) -> "JobRecord | None":
        """``DELETE /jobs/<id>``: stop shard submission at the next
        boundary; in-flight shards drain and the partial report is
        kept.  Cancelling a terminal job is a no-op."""
        record = self._jobs.get(job_id)
        if record is None:
            return None
        cancel = self._cancels.get(job_id)
        if cancel is not None:
            cancel.set()
            _wake_holds()
        return record

    def subscribe(self, job_id: str):
        """Event history + live queue for one ``/events`` stream.

        Returns ``(history, queue)`` -- the events published so far
        (terminal event included, if any) and an
        :class:`asyncio.Queue` receiving everything published after
        the snapshot, or ``None`` when the job is already terminal
        (the history then ends the stream by itself).  Runs on the
        loop thread, synchronously with :meth:`_publish`, so no event
        can fall between history and subscription.
        """
        record = self._jobs[job_id]
        history = list(record.events)
        if record.terminal:
            return history, None
        queue: "asyncio.Queue" = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        return history, queue

    def unsubscribe(self, job_id: str, queue) -> None:
        if queue is None:
            return
        queues = self._subscribers.get(job_id, [])
        if queue in queues:
            queues.remove(queue)

    def refresh_gauges(self) -> dict:
        """Bring the registry's gauge series up to date (called at
        every ``/healthz`` and ``/metrics`` scrape -- gauges describe
        *now*, unlike the monotonic counters).  Returns the
        scheduler's :meth:`~repro.mutation.CampaignScheduler.describe`
        snapshot the gauges were read from."""
        REGISTRY.set_gauge(
            "repro_uptime_seconds",
            round(time.time() - self._started_at, 3),
        )
        pool = self.scheduler.describe()
        REGISTRY.set_gauge("repro_inflight_shards", pool["in_flight"])
        return pool

    def health(self, cache_stats: "dict | None" = None) -> dict:
        """``GET /healthz``: pool, queue and cache statistics.

        ``cache_stats`` is the pre-computed
        :meth:`~repro.mutation.ResultCache.stats` block: it walks the
        whole object store, so the HTTP handler computes it on an
        executor thread rather than on the event loop (a big shared
        cache must not stall every stream for the duration of the
        walk)."""
        pool = self.refresh_gauges()
        counts = {status: 0 for status in
                  ("queued", "running", "done", "aborted", "failed")}
        for record in self._jobs.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return {
            "status": "ok",
            "uptime_s": time.time() - self._started_at,
            # The shared scheduler: width, whether the process pool
            # exists yet, in-flight and finished shards, and its
            # self-healing counters (pool rebuilds, shard isolations).
            "pool": {**pool, "max_jobs": self.max_jobs},
            "jobs": {"total": len(self._jobs), **counts},
            "flows_cached": len(self._flows),
            "state_dir": self.store.root,
            "cache": cache_stats,
            # Compact observability snapshot: the process-local
            # registry -- the data behind ``repro top`` and
            # ``repro status --server``.
            "metrics": {
                "local": REGISTRY.snapshot(),
                "tracing": TRACER.enabled,
            },
        }

    # -- loop-thread state mutation ----------------------------------------

    def _post(self, fn, *args, **kwargs) -> None:
        """Run ``fn`` on the event loop thread (the only place job
        records mutate and events fan out)."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(
            functools.partial(fn, *args, **kwargs)
        )

    def _publish(self, job_id: str, event: dict) -> None:
        record = self._jobs[job_id]
        event = {"job": job_id, **event}
        record.events.append(event)
        for queue in self._subscribers.get(job_id, []):
            queue.put_nowait(event)

    def _update(self, job_id: str, **fields) -> None:
        record = self._jobs[job_id]
        if record.terminal:
            return
        for name, value in fields.items():
            setattr(record, name, value)
        self.store.save(record)
        if "status" in fields:
            self._publish(job_id, api.status_event(record.status))

    def _finish(self, job_id: str, status: str, report: "dict | None" = None,
                error: "str | None" = None) -> None:
        record = self._jobs[job_id]
        if record.terminal:
            return
        record.status = status
        record.finished = time.time()
        record.report = report
        record.error = error
        REGISTRY.inc("repro_jobs_total", status=status)
        self.store.save(record)
        self._publish(job_id, api.end_event(status, report, error))
        # Live subscribers received the full stream; from here on the
        # record alone carries the result, so collapse the retained
        # history to its terminal event (exactly the post-restart
        # shape) -- without this, a long-lived daemon would hold every
        # job's per-shard outcome payloads twice, forever.
        record.events = record.events[-1:]

    # -- job execution (worker threads) ------------------------------------

    def _flow(self, ip: str, sensor: str):
        """The (memoised) flow build for one IP x sensor type.  The
        build lock serialises flow construction across job threads --
        builds are parent-side, GIL-bound work anyway, and one build
        per (ip, sensor) is the whole point of the memo."""
        from repro.flow import run_flow
        from repro.ips import case_study

        key = (ip, sensor)
        with self._flow_lock:
            flow = self._flows.get(key)
            if flow is None:
                flow = run_flow(case_study(ip), sensor, run_mutation=False)
                self._flows[key] = flow
        return flow

    def _run_job(self, record: JobRecord) -> None:
        """One job, start to finish, on a worker thread.  Every state
        change and event is bounced to the loop thread via
        :meth:`_post`; the thread itself only computes."""
        from repro.ips import case_study

        job_id = record.id
        cancel = self._cancels[job_id]
        if cancel.is_set():
            self._post(self._finish, job_id, "aborted")
            return
        self._post(self._update, job_id, status="running",
                   started=time.time())
        self._hold(cancel)
        try:
            spec = record.spec
            # Every span (and the shard spans absorbed back from the
            # pool) carries ``job=<id>``, so ``GET /jobs/<id>/trace``
            # can export exactly this job's slice of the trace.
            with TRACER.context(job=job_id), trace_span(
                "job.run", ip=spec.ip, sensor=spec.sensor,
            ):
                ip_spec = case_study(spec.ip)
                flow = self._flow(spec.ip, spec.sensor)
                stimuli = ip_spec.stimulus(
                    spec.cycles or ip_spec.mutation_cycles
                )
                started = time.perf_counter()
                prepared = prepare_campaign(
                    flow.tlm_optimized,
                    flow.injected,
                    stimuli,
                    ip_name=spec.ip,
                    sensor_type=spec.sensor,
                    recovery=spec.recovery,
                    workers=self.scheduler.workers,
                    shard_size=spec.shard_size,
                    cache=self.cache,
                )
                abort = _JobAbort(spec.abort_policy(), cancel)
                outcomes: "list" = []
                counters: "dict[str, int]" = {}
                for batch, snapshot in stream_shard_batches(
                    self.scheduler, prepared, abort=abort,
                    cache=self.cache, counters=counters,
                ):
                    outcomes.extend(batch)
                    self._post(self._publish, job_id,
                               api.shard_event(batch))
                    self._post(self._publish, job_id,
                               api.progress_event(snapshot))
                    plan = fault_point("server.crash.mid_job")
                    if plan is not None:
                        self._crash(plan)
                    self._hold(cancel)
                report = prepared.build_report(
                    outcomes, seconds=time.perf_counter() - started,
                    counters=counters,
                )
            status = "aborted" if cancel.is_set() else "done"
            self._post(self._finish, job_id, status,
                       report=api.encode_report(report))
        except Exception as exc:
            self._post(self._finish, job_id, "failed",
                       error=f"{type(exc).__name__}: {exc}")

    @staticmethod
    def _hold(cancel: threading.Event) -> None:
        """The ``job.hold`` fault site, reached at job start and at
        every shard-batch boundary: when it fires, the job thread
        parks until the plan releases the site, the job is cancelled,
        or the service closes (bounded by the plan's
        ``hang_seconds``).  Tests use it to attach to a job's event
        stream, or to cancel it, at a fixed point of its run."""
        plan = fault_point("job.hold")
        if plan is not None:
            plan.hold("job.hold", cancel)

    @staticmethod
    def _crash(plan) -> None:
        """The ``server.crash.mid_job`` fault fired.  A daemon run
        (``repro serve --fault-plan`` / ``REPRO_FAULT_PLAN``) dies the
        way a real crash does -- the job record stays ``running`` on
        disk, and the *next* server re-queues and warm-resumes it.
        In-process plans raise instead, so a test harness survives:
        the job then fails loudly with the fault's name in its error.
        """
        if plan.allow_exit:  # pragma: no cover - kills the process
            import os

            os._exit(70)
        raise plan.error(
            "server.crash.mid_job",
            "simulated server crash between shard batches",
        )

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work and wind down: running jobs are
        cancelled (shard-granular, their partial state persisted as
        ``aborted``), queued jobs whose threads never started stay
        ``queued`` on disk and are re-queued by the next server.  Must
        be called while the event loop still runs (job threads flush
        their final events through it)."""
        self._closed = True
        for cancel in self._cancels.values():
            cancel.set()
        _wake_holds()
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.scheduler.shutdown()


def _wake_holds() -> None:
    """Let job threads parked at ``job.hold`` see a cancellation."""
    plan = get_fault_plan()
    if plan is not None:
        plan.wake()


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------

_MAX_BODY = 1 << 20  # 1 MiB: job specs are tiny; refuse anything wild.


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class ServiceServer:
    """Stdlib HTTP/1.1 server in front of a :class:`CampaignService`.

    Runs its own event loop on a dedicated thread
    (:meth:`start` / :meth:`stop`), so tests, benchmarks and the
    ``repro serve`` CLI all drive the exact same stack; every
    connection is served ``Connection: close`` (one request per
    connection -- the clients are short CLI calls and long NDJSON
    streams, neither of which wants keep-alive multiplexing).
    """

    def __init__(self, service: CampaignService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.address: "tuple[str, int] | None" = None
        self._thread: "threading.Thread | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._server = None
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "tuple[str, int]":
        """Boot the server thread; returns the bound ``(host, port)``
        (the kernel-chosen port when constructed with ``port=0``)."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self.address = self._server.sockets[0].getsockname()[:2]
        self.service.bind_loop(loop)
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self) -> None:
        """Graceful shutdown: drain the service (while the loop still
        runs, so final events and job records flush), then stop the
        loop and join the thread."""
        if self._thread is None:
            return
        self.service.close()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request handling (loop thread) ------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            await self._route(writer, method, path, body)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            try:
                await self._respond(writer, 500, {
                    "error": f"{type(exc).__name__}: {exc}",
                })
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        path = target.split("?", 1)[0]
        length = int(headers.get("content-length") or 0)
        if length > _MAX_BODY:
            raise ValueError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _respond(self, writer, code: int, payload,
                       content_type: str = "application/json") -> None:
        body = _json_bytes(payload) + b"\n"
        reason = {200: "OK", 201: "Created", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  500: "Internal Server Error"}.get(code, "OK")
        writer.write(
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        writer.write(body)
        await writer.drain()

    async def _respond_text(self, writer, code: int, text: str,
                            content_type: str) -> None:
        """Raw (non-JSON) response -- the Prometheus text exposition
        of ``GET /metrics`` must not be JSON-encoded."""
        body = text.encode()
        reason = {200: "OK"}.get(code, "OK")
        writer.write(
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        writer.write(body)
        await writer.drain()

    async def _route(self, writer, method: str, path: str,
                     body: bytes) -> None:
        service = self.service
        if path == "/metrics" and method == "GET":
            service.refresh_gauges()
            await self._respond_text(
                writer, 200, REGISTRY.render(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path == "/healthz" and method == "GET":
            cache_stats = None
            if service.cache is not None:
                cache_stats = await asyncio.get_running_loop() \
                    .run_in_executor(None, service.cache.stats)
            await self._respond(writer, 200,
                                service.health(cache_stats))
            return
        if path == "/jobs":
            if method == "POST":
                try:
                    payload = json.loads(body or b"{}")
                    if not isinstance(payload, dict):
                        raise ValueError("job spec must be a JSON object")
                    record = service.submit(payload)
                except (ValueError, TypeError) as exc:
                    await self._respond(writer, 400, {"error": str(exc)})
                    return
                await self._respond(writer, 201, record.to_payload())
            elif method == "GET":
                await self._respond(writer, 200, {
                    "jobs": [r.to_payload() for r in service.list_jobs()],
                })
            else:
                await self._respond(writer, 405,
                                    {"error": f"{method} not allowed"})
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/events") and method == "GET":
                await self._stream_events(writer, rest[:-len("/events")])
                return
            if rest.endswith("/trace") and method == "GET":
                job_id = rest[:-len("/trace")]
                if service.get(job_id) is None:
                    await self._respond(writer, 404, {
                        "error": f"no such job {job_id!r}",
                    })
                elif not TRACER.enabled:
                    await self._respond(writer, 404, {
                        "error": "tracing is disabled on this server "
                                 "(boot it with `repro serve --trace`)",
                    })
                else:
                    await self._respond(
                        writer, 200, TRACER.chrome_trace(job=job_id)
                    )
                return
            record = service.get(rest)
            if record is None:
                await self._respond(writer, 404,
                                    {"error": f"no such job {rest!r}"})
                return
            if method == "GET":
                await self._respond(writer, 200, record.to_payload())
            elif method == "DELETE":
                record = service.cancel(rest)
                await self._respond(writer, 200, record.to_payload())
            else:
                await self._respond(writer, 405,
                                    {"error": f"{method} not allowed"})
            return
        await self._respond(writer, 404, {"error": f"no route for {path}"})

    async def _stream_events(self, writer, job_id: str) -> None:
        service = self.service
        if service.get(job_id) is None:
            await self._respond(writer, 404,
                                {"error": f"no such job {job_id!r}"})
            return
        history, queue = service.subscribe(job_id)
        try:
            writer.write(
                "HTTP/1.1 200 OK\r\n"
                f"Content-Type: {api.NDJSON_CONTENT_TYPE}\r\n"
                "Cache-Control: no-store\r\n"
                "Connection: close\r\n\r\n".encode("latin-1")
            )
            ended = False
            for event in history:
                writer.write(_json_bytes(event) + b"\n")
                ended = ended or event.get("type") == "end"
            await writer.drain()
            while not ended and queue is not None:
                event = await queue.get()
                writer.write(_json_bytes(event) + b"\n")
                await writer.drain()
                ended = event.get("type") == "end"
        finally:
            # A disconnected subscriber unsubscribes itself here; the
            # job (and the shared pool) never notice.
            service.unsubscribe(job_id, queue)
