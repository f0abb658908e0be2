"""Layer probes: time calls into repro's public functions from outside.

Nothing here changes what the program computes.  The probes either
wrap an object the benchmark hands to the program (the ``scheduler=``
placement, the result cache) or, for calls the program makes itself,
swap a module attribute for a timing wrapper for the duration of one
measured unit and restore it afterwards.

Spans are kept in memory by a :class:`Recorder` and exported as
Chrome trace-event JSON, the format ``repro.obs`` exports.
``time.perf_counter`` is CLOCK_MONOTONIC on Linux, shared by every
process on the host, so spans recorded in pool workers and in child
interpreters land on the same timeline without re-anchoring.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import os
import sys
import threading
import time
from concurrent.futures import Future

from repro.mutation.cache import ResultCache
from repro.mutation.placement import SupervisedFuture

#: Calls the flow front-end makes itself: ``(module, attribute, layer)``.
FRONTEND_PATCHES = (
    ("repro.flow.pipeline", "build_augmented", "flow.augment"),
    ("repro.flow.pipeline", "generate_tlm", "abstraction.generate_tlm"),
    ("repro.flow.pipeline", "inject_mutants", "mutation.inject"),
    ("repro.lint", "lint_module", "lint.module"),
)

#: Calls the campaign engines make themselves.  ``prepare_campaign`` is
#: bound under three names (run_campaign, the suite, the service); each
#: call goes through exactly one of them, so nothing is counted twice.
CAMPAIGN_PATCHES = (
    ("repro.mutation.campaign", "prepare_campaign", "campaign.prepare"),
    ("repro.mutation.scheduler", "prepare_campaign", "campaign.prepare"),
    ("repro.service.server", "prepare_campaign", "campaign.prepare"),
    ("repro.mutation.campaign", "compute_golden_trace", "campaign.golden"),
    ("repro.mutation.rtl_validation", "prepare_rtl_validation",
     "rtl_validation.prepare"),
)


class Recorder:
    """Thread-safe in-memory span store.

    ``enabled`` gates every probe (a disabled probe forwards the call
    untouched); ``phase`` tags spans as set-up or measured-unit work.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "op"
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self.spans: "list[dict]" = []

    def add(self, name: str, start: float, end: float, *,
            pid: "int | None" = None, tid: "int | None" = None,
            **args) -> None:
        span = {
            "name": name,
            "start": start,
            "end": end,
            "pid": os.getpid() if pid is None else pid,
            "tid": threading.get_ident() if tid is None else tid,
            "phase": self.phase,
            "args": args,
        }
        with self._lock:
            self.spans.append(span)

    def extend(self, spans) -> None:
        """Absorb spans recorded by another process (a child
        interpreter's JSON result)."""
        with self._lock:
            self.spans.extend(spans)

    @contextlib.contextmanager
    def span(self, name: str, **args):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), **args)

    @contextlib.contextmanager
    def active(self, phase: str):
        """Record everything inside the block under ``phase``."""
        self.enabled, self.phase = True, phase
        try:
            yield
        finally:
            self.enabled = False

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (``ph: X``, microsecond
        timestamps, one ``process_name`` record per pid)."""
        with self._lock:
            spans = list(self.spans)
        events = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "ts": 0, "args": {"name": f"perfbench pid {pid}"}}
            for pid in sorted({s["pid"] for s in spans})
        ]
        for s in spans:
            events.append({
                "name": s["name"],
                "cat": "perfbench",
                "ph": "X",
                "ts": round((s["start"] - self.epoch) * 1e6, 3),
                "dur": round(max(0.0, s["end"] - s["start"]) * 1e6, 3),
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {"phase": s["phase"], **s["args"]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _timed(fn, recorder: Recorder, layer: str):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add(layer, start, time.perf_counter())

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def patched(recorder: Recorder, patches):
    """Swap each ``(module, attribute)`` for a timing wrapper inside
    the block.  A missing target is reported on stderr and skipped: its
    layer then reads zero instead of breaking the run."""
    saved = []
    try:
        for module_name, attr, layer in patches:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError) as exc:
                print(f"perfbench: cannot probe {module_name}.{attr}: {exc}",
                      file=sys.stderr)
                continue
            setattr(module, attr, _timed(original, recorder, layer))
            saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Shards and placement
# ---------------------------------------------------------------------------

def shard_layer(shard) -> str:
    """``rtl_validation`` for RTL-validation shards, else ``campaign``."""
    return ("rtl_validation" if type(shard).__name__ == "RtlValidationShard"
            else "campaign")


def shard_cycles(shard) -> int:
    """Simulated clock cycles a shard executes (mutants x testbench)."""
    per_mutant = getattr(shard, "cycles", None)
    if not isinstance(per_mutant, int):
        per_mutant = len(getattr(shard, "stimuli", ()) or ())
    return len(shard.indices) * per_mutant


@dataclasses.dataclass(frozen=True)
class TimedShard:
    """Runs the wrapped shard wherever the placement puts it and
    returns its result with the busy interval measured there."""

    shard: object

    @property
    def inline_only(self) -> bool:
        return getattr(self.shard, "inline_only", False)

    def run(self):
        start = time.perf_counter()
        result = self.shard.run()
        return (result, start, time.perf_counter(), os.getpid(),
                threading.get_ident())


class _ChainedFuture(SupervisedFuture):
    def __init__(self, inner: Future) -> None:
        super().__init__()
        self._inner = inner

    def cancel(self) -> bool:
        self._inner.cancel()
        return super().cancel()


class TimedPlacement:
    """The ``scheduler=`` placement handed to the program: forwards to
    the real one and records, per shard, the busy interval in the
    process that ran it and how long the shard waited besides."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self.inner = inner
        self.recorder = recorder

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def submit(self, shard) -> Future:
        if not self.recorder.enabled:
            return self.inner.submit(shard)
        submitted = time.perf_counter()
        inner = self.inner.submit(TimedShard(shard))
        outer = _ChainedFuture(inner)
        layer = shard_layer(shard)
        mutants, cycles = len(shard.indices), shard_cycles(shard)

        def resolve(future: Future) -> None:
            if outer.cancelled():
                return
            if future.cancelled():
                outer.cancel()
                return
            exc = future.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            result, start, end, pid, tid = future.result()
            # Submit-to-result time the shard did not spend executing.
            waited = time.perf_counter() - submitted - (end - start)
            self.recorder.add(f"{layer}.execute", start, end, pid=pid,
                              tid=tid, mutants=mutants, cycles=cycles,
                              waited=waited)
            outer.set_result(result)

        inner.add_done_callback(resolve)
        return outer


class TimedCache(ResultCache):
    """A :class:`ResultCache` timing every ``get`` and ``put`` --
    including the ones ``probe`` makes -- while its recorder is on."""

    def __init__(self, root, recorder: Recorder) -> None:
        super().__init__(root)
        self.recorder = recorder

    def get(self, key):
        if not self.recorder.enabled:
            return super().get(key)
        start = time.perf_counter()
        payload = super().get(key)
        self.recorder.add("cache.get", start, time.perf_counter(),
                          hit=payload is not None)
        return payload

    def put(self, key, payload) -> None:
        if not self.recorder.enabled:
            return super().put(key, payload)
        start = time.perf_counter()
        super().put(key, payload)
        self.recorder.add("cache.put", start, time.perf_counter())


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def self_times(spans) -> "list[tuple[dict, float]]":
    """``(span, self_seconds)`` for every span: its duration minus the
    part covered by spans nested inside it on the same (pid, thread)
    track."""
    tracks: "dict[tuple, list[dict]]" = {}
    for span in spans:
        tracks.setdefault((span["pid"], span["tid"]), []).append(span)
    out = []
    for track in tracks.values():
        track.sort(key=lambda s: (s["start"], -s["end"]))
        child_time = [0.0] * len(track)
        stack: "list[int]" = []
        for i, span in enumerate(track):
            while stack and track[stack[-1]]["end"] <= span["start"]:
                stack.pop()
            if stack and span["end"] <= track[stack[-1]]["end"]:
                child_time[stack[-1]] += span["end"] - span["start"]
            stack.append(i)
        out.extend(
            (span, span["end"] - span["start"] - child_time[i])
            for i, span in enumerate(track)
        )
    return out
