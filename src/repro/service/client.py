"""Stdlib HTTP client for the campaign service.

:class:`ServiceClient` speaks exactly the wire format defined in
:mod:`repro.service.api` -- submit a :class:`~repro.service.jobs.JobSpec`
payload, poll records, stream NDJSON events, cancel -- over plain
``http.client`` connections (one per request, matching the server's
``Connection: close`` policy).  The ``repro submit|status|watch|cancel``
CLI subcommands are thin wrappers over it, and the service tests use
it to assert the streamed reports against direct
:func:`~repro.mutation.run_campaign` runs.

Transient-failure policy (a daemon restarting after a crash, or a
connection reset on a busy host, must not fail a caller that can
simply ask again): **idempotent GETs** -- ``job``, ``jobs``,
``health``, and the ``/events`` stream -- retry on connection errors
with capped exponential backoff, and a broken event stream
*reconnects*: the server replays the job's event history on
every ``GET /jobs/<id>/events``, so the client skips the events it
already yielded (counting non-terminal events; the terminal ``end`` is
always yielded).  When the job finished between connections and the
server already collapsed its history to the ``end`` event alone, the
shard outcomes the replay can no longer provide are backfilled from
the job record as one synthetic ``"recovered"`` shard event -- every
mutant outcome is delivered exactly once either way.  ``submit``
stamps every payload with a client-generated **idempotency key** the
server dedups on, which is what makes retrying a POST safe: a retry
that races a submission the server actually processed returns the
*same* job record instead of enqueueing a duplicate campaign.
``cancel`` stays never-retried (it is a no-op on terminal jobs and
the caller can simply call it again).
"""

from __future__ import annotations

import http.client
import json
import time
import uuid

from .api import decode_report

__all__ = ["ServiceClient", "ServiceError"]

#: Transport-level failures worth retrying (connection refused/reset,
#: truncated responses).  :class:`ServiceError` -- an *answer* from the
#: server -- is never retried.
_RETRYABLE = (OSError, http.client.HTTPException)


class ServiceError(RuntimeError):
    """A non-2xx response from the service (carries the HTTP status
    and the server's ``error`` text)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Client for one ``repro serve`` endpoint.

    Args:
        host / port: where the service listens.
        timeout: socket timeout (seconds) for request/response calls;
            event streams (:meth:`events`, :meth:`watch`) use
            ``stream_timeout`` instead, which defaults to unlimited --
            a campaign may legitimately stay silent while a long shard
            executes.
        retries: connection-error retries for idempotent GETs and
            event-stream reconnects (0 disables).
        backoff / backoff_cap: retry ``i`` sleeps
            ``min(backoff_cap, backoff * 2**i)`` seconds.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8731, *,
                 timeout: float = 60.0,
                 stream_timeout: "float | None" = None,
                 retries: int = 4, backoff: float = 0.05,
                 backoff_cap: float = 2.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.stream_timeout = stream_timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str, payload=None) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read() or b"{}")
            if response.status >= 400:
                raise ServiceError(
                    response.status, data.get("error", "unknown error")
                )
            return data
        finally:
            conn.close()

    def _sleep(self, seconds: float) -> None:
        """Backoff hook -- tests patch this to run retries instantly."""
        time.sleep(seconds)

    def _delay(self, attempt: int) -> float:
        return min(self.backoff_cap, self.backoff * (2 ** attempt))

    def _get(self, path: str) -> dict:
        """An idempotent GET: safe to replay, so connection errors
        retry with capped exponential backoff before giving up."""
        for attempt in range(self.retries + 1):
            try:
                return self._request("GET", path)
            except _RETRYABLE:
                if attempt >= self.retries:
                    raise
                self._sleep(self._delay(attempt))
        raise AssertionError("unreachable")

    # -- API ---------------------------------------------------------------

    def submit(self, spec: "dict") -> dict:
        """``POST /jobs``: submit a job-spec payload (see
        :class:`~repro.service.jobs.JobSpec`); returns the queued job
        record (``record["id"]`` is the handle for everything else).

        The payload is stamped with a fresh ``idempotency_key``
        (unless the caller provided one), so connection errors retry
        with the same backoff as idempotent GETs: if the original POST
        actually reached the server, the retry returns the same job
        instead of enqueueing a second campaign."""
        payload = dict(spec)
        payload.setdefault("idempotency_key", uuid.uuid4().hex)
        for attempt in range(self.retries + 1):
            try:
                return self._request("POST", "/jobs", payload)
            except _RETRYABLE:
                if attempt >= self.retries:
                    raise
                self._sleep(self._delay(attempt))
        raise AssertionError("unreachable")

    def job(self, job_id: str) -> dict:
        """``GET /jobs/<id>``: the full job record (retried)."""
        return self._get(f"/jobs/{job_id}")

    def jobs(self) -> "list[dict]":
        """``GET /jobs``: every record, oldest first (retried)."""
        return self._get("/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        """``DELETE /jobs/<id>``: request shard-granular cancellation;
        returns the record (the terminal ``aborted`` state lands once
        in-flight shards drain)."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def health(self) -> dict:
        """``GET /healthz`` (retried)."""
        return self._get("/healthz")

    def trace(self, job_id: str) -> dict:
        """``GET /jobs/<id>/trace``: the job's Chrome-trace export
        (retried).  The server must have been booted with
        ``repro serve --trace``; otherwise this raises the 404 it
        answers with."""
        return self._get(f"/jobs/{job_id}/trace")

    def _stream_once(self, job_id: str, skip: int, state=None):
        """One ``GET /jobs/<id>/events`` connection, skipping the
        first ``skip`` non-terminal events of the server's history
        replay (events this client already yielded on an earlier
        connection).  The terminal ``end`` event is never skipped.

        If the replay holds *fewer* non-terminal events than ``skip``
        asked for, the server has collapsed a finished job's history
        between our connections -- ``state["lost"]`` (when a state
        dict is passed) records the shortfall so the caller can
        backfill from the job record."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.stream_timeout
        )
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                data = json.loads(response.read() or b"{}")
                raise ServiceError(
                    response.status, data.get("error", "unknown error")
                )
            for line in response:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("type") != "end" and skip > 0:
                    skip -= 1
                    continue
                if event.get("type") == "end" and state is not None:
                    state["lost"] = skip
                yield event
                if event.get("type") == "end":
                    return
        finally:
            conn.close()

    def _recover_missing(self, job_id: str, delivered: set):
        """Backfill shard outcomes a collapsed history can no longer
        replay: the job record's report carries every outcome, so
        anything whose mutant ``index`` was never streamed to this
        client is re-yielded as one synthetic ``shard`` event (marked
        ``"recovered": true``).  Best effort -- the terminal ``end``
        event that triggered this carries the full report anyway."""
        try:
            report = self.job(job_id).get("report")
        except (ServiceError, *_RETRYABLE):
            return
        if not report:
            return
        missing = [o for o in report.get("outcomes", [])
                   if o.get("index") not in delivered]
        if missing:
            yield {"job": job_id, "type": "shard",
                   "outcomes": missing, "recovered": True}

    def events(self, job_id: str):
        """``GET /jobs/<id>/events``: generator of event dicts, ending
        with (and including) the terminal ``end`` event.  Closing the
        generator closes the connection; the job keeps running.

        A dropped stream **reconnects** (up to ``retries`` consecutive
        failures, capped exponential backoff): the server replays the
        event history on every connection, so the generator skips what
        it already yielded and carries on -- the caller sees one
        seamless, duplicate-free stream even across a server restart
        that preserved the job store.  A stream that closes cleanly
        *without* an ``end`` event counts as a failure too (the server
        died between accept and finish).

        If the job finishes while the client is between connections,
        the server may already have collapsed the history this
        reconnect needed to replay; the missed shard outcomes are then
        backfilled from the job record as one synthetic ``shard``
        event (``"recovered": true``) right before the terminal
        ``end`` -- consumers still see every mutant outcome exactly
        once."""
        seen = 0
        failures = 0
        delivered: "set" = set()
        while True:
            progressed = False
            state = {"lost": 0}
            try:
                for event in self._stream_once(job_id, skip=seen,
                                               state=state):
                    progressed = True
                    if event.get("type") == "end":
                        if state["lost"]:
                            yield from self._recover_missing(
                                job_id, delivered
                            )
                        yield event
                        return
                    seen += 1
                    if event.get("type") == "shard":
                        delivered.update(
                            o.get("index")
                            for o in event.get("outcomes", ())
                        )
                    yield event
                # Clean EOF without "end": the server went away
                # mid-job; fall through to the retry path.
            except _RETRYABLE:
                pass
            except ValueError:
                pass  # truncated/garbled NDJSON line: connection died
            if progressed:
                failures = 0  # the link worked; only count dead air
            if failures >= self.retries:
                raise ServiceError(
                    0, "event stream ended without 'end' event"
                )
            self._sleep(self._delay(failures))
            failures += 1

    def watch(self, job_id: str, on_event=None) -> dict:
        """Stream a job to completion; returns its terminal ``end``
        event.  ``on_event`` (if given) sees every event, terminal
        included."""
        last = None
        for event in self.events(job_id):
            if on_event is not None:
                on_event(event)
            last = event
        if last is None or last.get("type") != "end":
            raise ServiceError(0, "event stream ended without 'end' event")
        return last

    def report(self, job_id: str):
        """The job's decoded :class:`~repro.mutation.MutationReport`,
        or ``None`` while it has no report yet."""
        payload = self.job(job_id).get("report")
        return decode_report(payload) if payload is not None else None
