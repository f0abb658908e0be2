"""Process-local metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` (:data:`REGISTRY`) per process collects
counters, gauges and histograms from every layer -- cache hits, pool
rebuilds, batched-sweep forks -- and renders
them:

* :meth:`MetricsRegistry.render` -- the Prometheus text format served
  by ``GET /metrics`` (``# HELP`` / ``# TYPE`` lines, histogram
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` series);
* :meth:`MetricsRegistry.snapshot` -- a JSON-safe dict embedded in
  ``GET /healthz`` and rendered by ``repro status --server`` and
  ``repro top``.

Pool worker *processes* do not push to this registry directly: they
die with their memory.  Instead, shard executions bump plain-integer
counters on their :class:`~repro.obs.tracer.ShardCapture`, the counts
ride back inside the shard result, and the parent process folds them
in (:func:`absorb_shard_counters`).

Everything is runtime metadata -- nothing here feeds a verdict, so
determinism is untouched (enforced by ``tools/lint_determinism.py``
and the traced-vs-untraced field-identity tests in
``tests/test_obs.py``).
"""

from __future__ import annotations

import threading

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "absorb_shard_counters",
]

#: Default histogram buckets (seconds) -- shard/campaign durations.
DEFAULT_BUCKETS = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: ``# HELP`` text of the well-known series (unknown names render
#: with an empty help line; add entries as instrumentation grows).
_HELP = {
    "repro_shards_executed_total":
        "Campaign shards executed (cache replays excluded)",
    "repro_mutants_executed_total":
        "Mutants executed inside shards (cache replays excluded)",
    "repro_cache_hits_total": "Result-cache lookup hits",
    "repro_cache_misses_total": "Result-cache lookup misses",
    "repro_golden_cache_hits_total": "Golden traces replayed from cache",
    "repro_golden_cache_misses_total":
        "Golden traces simulated and stored",
    "repro_pool_rebuilds_total":
        "Local worker-pool rebuilds after a broken process",
    "repro_shard_isolations_total":
        "Shards isolated as poisonous after repeated pool breaks",
    "repro_batch_forks_total":
        "Mutant simulations forked off a batched base sweep",
    "repro_batch_early_kills_total":
        "Batched mutants whose verdict settled before the testbench "
        "ended",
    "repro_batch_rejoins_total":
        "Forked counter-sweep mutants re-joined to the base simulation",
    "repro_jobs_total": "Service jobs reaching a terminal status",
    "repro_shard_seconds": "Shard execution wall time (seconds)",
    "repro_inflight_shards": "Shards currently executing",
    "repro_uptime_seconds": "Seconds since this process enabled obs",
}

_TYPE_COUNTER = "counter"
_TYPE_GAUGE = "gauge"
_TYPE_HISTOGRAM = "histogram"


def _label_suffix(labels: "tuple[tuple[str, str], ...]") -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _series_name(key: "tuple[str, tuple]") -> str:
    name, labels = key
    return name + _label_suffix(labels)


def _key(name: str, labels: dict) -> "tuple[str, tuple]":
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe counters / gauges / histograms (see module
    docstring).  Series register themselves on first touch."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: "dict[tuple, float]" = {}
        self._gauges: "dict[tuple, float]" = {}
        self._hist: "dict[tuple, dict]" = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = _key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        key = _key(name, labels)
        with self._lock:
            hist = self._hist.get(key)
            if hist is None:
                hist = {
                    "buckets": [0] * len(DEFAULT_BUCKETS),
                    "sum": 0.0,
                    "count": 0,
                }
                self._hist[key] = hist
            for i, bound in enumerate(DEFAULT_BUCKETS):
                if value <= bound:
                    hist["buckets"][i] += 1
            hist["sum"] += value
            hist["count"] += 1

    def reset(self) -> None:
        """Drop every series (tests; a fresh ``enable``)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hist.clear()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe summary for ``/healthz`` and ``repro top``."""
        with self._lock:
            return {
                "counters": {
                    _series_name(key): value
                    for key, value in sorted(self._counters.items())
                },
                "gauges": {
                    _series_name(key): value
                    for key, value in sorted(self._gauges.items())
                },
                "histograms": {
                    _series_name(key): {
                        "count": hist["count"],
                        "sum": hist["sum"],
                    }
                    for key, hist in sorted(self._hist.items())
                },
            }

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            hists = sorted(self._hist.items())
        lines: "list[str]" = []

        def _head(name: str, kind: str, emitted: set) -> None:
            if name in emitted:
                return
            emitted.add(name)
            lines.append(f"# HELP {name} {_HELP.get(name, '')}".rstrip())
            lines.append(f"# TYPE {name} {kind}")

        emitted: "set[str]" = set()
        for (name, labels), value in counters:
            _head(name, _TYPE_COUNTER, emitted)
            lines.append(f"{name}{_label_suffix(labels)} {_num(value)}")
        for (name, labels), value in gauges:
            _head(name, _TYPE_GAUGE, emitted)
            lines.append(f"{name}{_label_suffix(labels)} {_num(value)}")
        for (name, labels), hist in hists:
            _head(name, _TYPE_HISTOGRAM, emitted)
            cumulative = 0
            for bound, count in zip(DEFAULT_BUCKETS, hist["buckets"]):
                cumulative = count
                bucket_labels = labels + (("le", _num(bound)),)
                lines.append(
                    f"{name}_bucket{_label_suffix(bucket_labels)} "
                    f"{cumulative}"
                )
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(
                f"{name}_bucket{_label_suffix(inf_labels)} "
                f"{hist['count']}"
            )
            lines.append(
                f"{name}_sum{_label_suffix(labels)} {_num(hist['sum'])}"
            )
            lines.append(
                f"{name}_count{_label_suffix(labels)} {hist['count']}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _num(value: float) -> str:
    """Integral floats render without the trailing ``.0`` (Prometheus
    accepts either; the compact form reads better in tests/CI logs)."""
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


#: The process-wide registry.
REGISTRY = MetricsRegistry()

#: ShardCapture counter name -> registry series absorbed by
#: :func:`absorb_shard_counters`.
_SHARD_COUNTER_SERIES = {
    "shards": "repro_shards_executed_total",
    "mutants": "repro_mutants_executed_total",
    "batch_forks": "repro_batch_forks_total",
    "batch_early_kills": "repro_batch_early_kills_total",
    "batch_rejoins": "repro_batch_rejoins_total",
}


def absorb_shard_counters(payload: "dict | None",
                          registry: "MetricsRegistry | None" = None
                          ) -> "dict[str, int]":
    """Fold one shard-result obs payload's counters into the registry
    (and its elapsed time into the ``repro_shard_seconds`` histogram).
    Returns the raw counter dict so callers can also aggregate it
    per-campaign."""
    registry = REGISTRY if registry is None else registry
    if not payload:
        return {}
    counters = payload.get("counters") or {}
    for name, value in sorted(counters.items()):
        series = _SHARD_COUNTER_SERIES.get(name)
        if series is not None:
            registry.inc(series, value)
    elapsed = payload.get("elapsed_s")
    if elapsed is not None:
        registry.observe("repro_shard_seconds", float(elapsed))
    return dict(counters)
