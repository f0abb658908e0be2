"""Observability: span tracing + metrics for the whole harness.

The paper's methodology embeds timing monitors *inside* a design to
observe its behaviour at speed; this package applies the same idea to
the harness itself (see ``docs/observability.md``):

* :mod:`repro.obs.tracer` -- a span-based tracer instrumenting every
  layer (flow, campaign preparation, golden simulation, scheduler
  streaming, shard execution, cache, pool self-healing, batched-sweep
  fork/early-kill/re-join), exportable as Chrome/Perfetto
  ``trace.json`` via ``repro trace``;
* :mod:`repro.obs.metrics` -- a process-local counters / gauges /
  histograms registry served as Prometheus text on ``GET /metrics``
  and summarised by ``repro top`` / ``repro status --server``;
* :mod:`repro.obs.clock` -- the single sanctioned wall-clock read for
  storage metadata (the determinism linter's ``wall-clock-boundary``).

Everything is ``compare=False`` runtime metadata: enabling tracing or
metrics never changes a :class:`~repro.mutation.MutationReport` field
(``tests/test_obs.py`` compares traced and untraced campaigns on every
IP x sensor type x workers {1, 2} x shard size {default, 3}).
"""

from .clock import metadata_wall_clock
from .metrics import REGISTRY, MetricsRegistry, absorb_shard_counters
from .tracer import (
    TRACER,
    CompletionStamps,
    ShardCapture,
    Tracer,
    active_capture,
    shard_capture,
    shard_count,
    shard_instant,
    shard_span,
    trace_span,
    validate_chrome_trace,
)

__all__ = [
    "REGISTRY",
    "TRACER",
    "CompletionStamps",
    "MetricsRegistry",
    "ShardCapture",
    "Tracer",
    "absorb_shard_counters",
    "active_capture",
    "metadata_wall_clock",
    "shard_capture",
    "shard_count",
    "shard_instant",
    "shard_span",
    "trace_span",
    "validate_chrome_trace",
]
