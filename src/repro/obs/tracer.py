"""Span-based tracer with Chrome/Perfetto ``trace.json`` export.

One process-local :class:`Tracer` (:data:`TRACER`) records **spans**
(named intervals with attributes) and **instants** (point events:
fault recoveries, dispatch decisions).  Disabled -- the default -- a
:func:`trace_span` call returns a shared ``nullcontext`` and an
:func:`instant` is a single attribute check, so the instrumented hot
paths cost nothing measurable.  What tracing *on* costs is printed as
``obs.overhead_frac`` by every traced ``perfbench/run.py`` run.

Determinism contract
--------------------
Everything here is *runtime metadata*, never a verdict input:

* coordinator-side spans use ``time.perf_counter`` offsets from the
  tracer epoch (explicitly allowed by ``tools/lint_determinism.py``);
* worker-side timings never cross a process boundary as wall-clock
  data.  A shard records into a :class:`ShardCapture` whose spans are
  **relative offsets** from the shard's own start, and the start
  itself is a ``time.perf_counter`` reading -- a monotonic clock every
  process on the host shares.  The payload rides back inside a
  :class:`~repro.mutation.campaign.ShardResult` and the coordinator
  places it on its own timeline where the shard ran
  (:meth:`Tracer.absorb_shard`).  Reports stay byte-identical: every
  obs field is ``compare=False``, like
  :attr:`~repro.mutation.MutationReport.seconds`.

Span context
------------
:meth:`Tracer.context` pushes attributes onto a thread-local stack;
every span/instant opened by that thread inherits them.  The campaign
service wraps each job's execution in ``TRACER.context(job=job_id)``,
which is what lets ``repro trace <job-id>`` filter one job out of a
shared daemon's timeline.

Retention
---------
A ``repro serve --trace`` daemon traces every job it runs, so the
tracer keeps events per job and holds at most :data:`MAX_TRACED_JOBS`
jobs: when one more job records its first event, the job that recorded
least recently loses all of its events at once.  Events recorded
outside any job context (a serverless ``repro mutate --trace`` run) are
kept until the next :meth:`Tracer.enable` or :meth:`Tracer.clear`.

Export
------
:meth:`Tracer.chrome_trace` emits the Chrome trace-event JSON format
(``"X"`` complete events in microseconds, ``"i"`` instants, ``"M"``
process-name metadata), one ``pid`` track per process: the
coordinator itself plus one synthesized track per absorbed worker
identity.  :func:`validate_chrome_trace` is the schema check used by
the tests and the CI ``obs`` job.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import OrderedDict

__all__ = [
    "MAX_TRACED_JOBS",
    "TRACER",
    "CompletionStamps",
    "ShardCapture",
    "Tracer",
    "active_capture",
    "shard_capture",
    "shard_count",
    "shard_span",
    "trace_span",
    "validate_chrome_trace",
]

#: Shared disabled-path context manager: entering/exiting it is the
#: whole cost of an instrumented block while tracing is off.
_NULL = contextlib.nullcontext()

#: Jobs whose events one tracer keeps (see "Retention" above).
MAX_TRACED_JOBS = 32

#: Synthetic ``pid`` base for absorbed worker tracks (far above any
#: real pid, so worker tracks never collide with the coordinator's).
_WORKER_PID_BASE = 1_000_000


class _Span:
    """One live coordinator-side span (context manager)."""

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = time.perf_counter()
        args = {**tracer.current_attrs(), **self._args}
        if exc_type is not None:
            # A span left by an exception still records, tagged with it.
            args["error"] = exc_type.__name__
        tracer._record({
            "name": self._name,
            "ph": "X",
            "ts": self._start - tracer._epoch,
            "dur": end - self._start,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        })
        return False


class Tracer:
    """Process-local span recorder (see module docstring).

    Thread-safe; one instance (:data:`TRACER`) serves the whole
    process.  ``enable()`` stamps the epoch every span offset is
    relative to and clears any previous timeline.  Events are kept per
    ``job`` context attribute, least recently active job first
    (``None`` holds the events recorded outside any job).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.enabled = False
        self._epoch = 0.0
        self._events: "OrderedDict[object, list[dict]]" = OrderedDict()
        self._workers: "dict[str, int]" = {}

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        with self._lock:
            self.enabled = True
            self._epoch = time.perf_counter()
            self._events = OrderedDict()
            self._workers = {}

    def disable(self) -> None:
        with self._lock:
            self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._events = OrderedDict()
            self._workers = {}

    def __len__(self) -> int:
        with self._lock:
            return sum(len(events) for events in self._events.values())

    # -- thread-local span context ----------------------------------------

    def _stack(self) -> "list[dict]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextlib.contextmanager
    def context(self, **attrs):
        """Attach ``attrs`` to every span/instant this thread opens
        inside the block (e.g. ``TRACER.context(job=job_id)``)."""
        stack = self._stack()
        stack.append(attrs)
        try:
            yield
        finally:
            stack.pop()

    def current_attrs(self) -> dict:
        merged: dict = {}
        for frame in self._stack():
            merged.update(frame)
        return merged

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs):
        """Context manager timing one named interval.  Disabled, it is
        the shared ``nullcontext`` -- no allocation, no clock read."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """Record a point event (fault recovery, dispatch decision)."""
        if not self.enabled:
            return
        self._record({
            "name": name,
            "ph": "i",
            "ts": time.perf_counter() - self._epoch,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": {**self.current_attrs(), **attrs},
        })

    def _record(self, event: dict) -> None:
        job = event["args"].get("job")
        with self._lock:
            if not self.enabled:
                return
            events = self._events.get(job)
            if events is None:
                events = self._events[job] = []
                jobs = [j for j in self._events if j is not None]
                for stale in jobs[:-MAX_TRACED_JOBS]:
                    del self._events[stale]
            else:
                self._events.move_to_end(job)
            events.append(event)

    # -- worker-shard absorption ------------------------------------------

    def absorb_shard(self, payload: "dict | None", **attrs) -> None:
        """Merge a shard's :class:`ShardCapture` payload into the
        timeline.  The payload's spans are offsets from the shard's
        own start, which the payload carries on the host-wide
        ``perf_counter`` clock, so they land where the shard ran
        however late its result is absorbed: one worker's spans never
        overlap.  Each distinct worker identity gets its own synthetic
        ``pid`` track."""
        if not self.enabled or not payload:
            return
        spans = payload.get("spans") or []
        if not spans:
            return
        worker = str(payload.get("worker") or "local")
        anchor = float(payload["started_s"]) - self._epoch
        with self._lock:
            pid = self._workers.get(worker)
            if pid is None:
                pid = _WORKER_PID_BASE + len(self._workers) + 1
                self._workers[worker] = pid
        base = {**self.current_attrs(), **attrs}
        for span in spans:
            event = {
                "name": span.get("name", "span"),
                "ph": span.get("ph", "X"),
                "ts": anchor + float(span.get("start_s", 0.0)),
                "pid": pid,
                "tid": 1,
                "args": {**base, **(span.get("args") or {})},
            }
            if event["ph"] == "X":
                event["dur"] = float(span.get("dur_s", 0.0))
            self._record(event)

    # -- export ------------------------------------------------------------

    def chrome_trace(self, job: "str | None" = None) -> dict:
        """The recorded timeline as Chrome trace-event JSON.  With
        ``job``, only events carrying that ``job`` context attribute
        are exported (a shared daemon traces many jobs); a job whose
        events were dropped (see "Retention") exports none."""
        with self._lock:
            if job is None:
                events = [e for bucket in self._events.values()
                          for e in bucket]
            else:
                events = list(self._events.get(job, ()))
            workers = dict(self._workers)
        names = {os.getpid(): "repro coordinator"}
        names.update(
            {pid: f"repro worker {worker}"
             for worker, pid in workers.items()}
        )
        out: "list[dict]" = []
        for pid in sorted({e["pid"] for e in events}):
            out.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": names.get(pid, f"pid {pid}")},
            })
        for e in events:
            event = {
                "name": e["name"],
                "cat": "repro",
                "ph": e["ph"],
                "ts": round(e["ts"] * 1e6, 3),
                "pid": e["pid"],
                "tid": e["tid"],
                "args": e.get("args") or {},
            }
            if e["ph"] == "X":
                event["dur"] = round(max(0.0, e.get("dur", 0.0)) * 1e6, 3)
            out.append(event)
        return {"traceEvents": out, "displayTimeUnit": "ms"}


#: The process-wide tracer.
TRACER = Tracer()


def trace_span(name: str, **attrs):
    """``TRACER.span(...)`` -- the instrumentation entry point."""
    return TRACER.span(name, **attrs)


# ---------------------------------------------------------------------------
# Worker-side shard capture (relative offsets only)
# ---------------------------------------------------------------------------

class ShardCapture:
    """Obs data recorded *inside* one shard execution.

    Counters are always collected (plain integer adds).  Spans are
    collected only when the shard was built with ``trace=True`` --
    every span is a ``(start, duration)`` pair **relative to the
    shard's own start**, and that start is a ``perf_counter`` reading,
    so no wall-clock value ever leaves the worker process (the
    det-lint rule this design exists to honour)."""

    __slots__ = ("spans_enabled", "spans", "counters", "_t0")

    def __init__(self, spans_enabled: bool = False) -> None:
        self.spans_enabled = spans_enabled
        self.spans: "list[dict]" = []
        self.counters: "dict[str, int]" = {}
        self._t0 = time.perf_counter()

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name: str, **args):
        start = time.perf_counter() - self._t0
        try:
            yield
        finally:
            self.spans.append({
                "name": name,
                "start_s": start,
                "dur_s": (time.perf_counter() - self._t0) - start,
                "args": args,
            })

    def instant(self, name: str, **args) -> None:
        self.spans.append({
            "name": name,
            "ph": "i",
            "start_s": time.perf_counter() - self._t0,
            "args": args,
        })

    def payload(self) -> dict:
        """The JSON-safe dict carried home inside the shard result.
        ``worker`` names the executing process, so each pool worker
        gets its own trace track; ``started_s`` is the shard's start
        on ``time.perf_counter``, a clock the coordinator shares with
        its pool workers."""
        return {
            "worker": f"pool/{os.getpid()}",
            "started_s": self._t0,
            "elapsed_s": time.perf_counter() - self._t0,
            "spans": self.spans,
            "counters": dict(self.counters),
        }


_shard_local = threading.local()


@contextlib.contextmanager
def shard_capture(spans_enabled: bool = False):
    """Install a :class:`ShardCapture` as this thread's active capture
    for the duration of one shard execution."""
    capture = ShardCapture(spans_enabled)
    _shard_local.capture = capture
    try:
        yield capture
    finally:
        _shard_local.capture = None


def active_capture() -> "ShardCapture | None":
    return getattr(_shard_local, "capture", None)


def shard_count(name: str, value: int = 1) -> None:
    """Bump a counter on the active capture (no-op outside a shard)."""
    capture = active_capture()
    if capture is not None:
        capture.count(name, value)


def shard_span(name: str, **args):
    """A relative-offset span on the active capture; the shared
    ``nullcontext`` when capture is absent or spans are disabled."""
    capture = active_capture()
    if capture is None or not capture.spans_enabled:
        return _NULL
    return capture.span(name, **args)


def shard_instant(name: str, **args) -> None:
    """A relative-offset instant on the active capture (no-op unless
    spans are enabled)."""
    capture = active_capture()
    if capture is not None and capture.spans_enabled:
        capture.instant(name, **args)


# ---------------------------------------------------------------------------
# Validation (tests + the CI obs job)
# ---------------------------------------------------------------------------

_VALID_PHASES = {"X", "B", "E", "i", "I", "M"}


def validate_chrome_trace(payload) -> "list[str]":
    """Schema-check a Chrome trace JSON payload.  Returns the list of
    problems (empty == valid): well-formed events, known phases,
    numeric timestamps, non-negative ``X`` durations, and balanced
    ``B``/``E`` pairs per ``(pid, tid)`` track."""
    problems: "list[str]" = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    open_stacks: "dict[tuple, int]" = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"event {i}: missing name")
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event {i}: non-numeric ts")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: X event with bad dur "
                                f"{dur!r}")
        track = (event.get("pid"), event.get("tid"))
        if ph == "B":
            open_stacks[track] = open_stacks.get(track, 0) + 1
        elif ph == "E":
            depth = open_stacks.get(track, 0)
            if depth <= 0:
                problems.append(f"event {i}: E without matching B on "
                                f"track {track}")
            else:
                open_stacks[track] = depth - 1
    for track, depth in sorted(open_stacks.items(), key=repr):
        if depth:
            problems.append(f"track {track}: {depth} unclosed B "
                            "event(s)")
    return problems


# ---------------------------------------------------------------------------
# Guarded future-completion stamps (scheduler drain-loop fix)
# ---------------------------------------------------------------------------

class CompletionStamps:
    """Future-completion timestamps with a close() guard.

    ``run_benchmark_suite`` stamps each future's completion time from
    an ``add_done_callback`` -- which the executor may fire *after*
    the drain loop has exited (cancellation during teardown, a result
    landing while the suite unwinds an exception).  The previous bare
    ``dict.setdefault`` kept accepting those late stamps forever,
    leaking entries on an object the loop no longer reads.  This class
    makes the hand-off explicit: once :meth:`close` runs, late
    callbacks become no-ops and the map is emptied."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stamps: "dict[object, float]" = {}
        self._closed = False

    def stamp(self, key) -> bool:
        """Record ``key``'s completion time (first stamp wins, like
        ``setdefault``).  Returns ``False`` -- recording nothing --
        once closed."""
        now = time.perf_counter()
        with self._lock:
            if self._closed:
                return False
            self._stamps.setdefault(key, now)
            return True

    def pop(self, key) -> "float | None":
        with self._lock:
            return self._stamps.pop(key, None)

    def close(self) -> None:
        """Reject all future stamps and drop any unread ones."""
        with self._lock:
            self._closed = True
            self._stamps.clear()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._stamps)
