"""Static timing analysis: arrival propagation, slack, worst paths.

A standard block-based STA over the operator-level timing graph:

* startpoint launch: registers contribute clk-to-Q, primary inputs an
  external input delay;
* arrivals propagate in topological order through combinational arcs,
  derated by the sign-off corner/OCV/aging model
  (``WORST_CASE.total_factor(TT)``, :mod:`repro.sta.corners`);
* endpoints (register D pins, primary outputs) get
  ``slack = T_clk - setup - arrival``;
* the worst path per endpoint is reconstructed from predecessor links.

This is deliberately conservative and algorithm-agnostic, matching the
paper's only requirement on the timing engine (Section 4.2): paths
left unmonitored must have a violation probability close to zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.rtl.ir import Signal
from repro.synth.cells import TechLibrary
from repro.synth.synthesize import SynthesisResult

from .corners import TT, WORST_CASE
from .graph import StaError, TimingGraph

__all__ = ["EndpointTiming", "StaReport", "analyze"]


@dataclass(frozen=True)
class EndpointTiming:
    """Worst-slack timing of a single endpoint."""

    endpoint: Signal
    kind: str  # "register" or "output"
    arrival_ps: float
    slack_ps: float
    startpoint: "Signal | None"
    path: "tuple[Signal, ...]"

    @property
    def name(self) -> str:
        return self.endpoint.name


@dataclass
class StaReport:
    """Full STA result at the sign-off derate ``derate_factor``."""

    clock_period_ps: int
    derate_factor: float
    endpoints: "list[EndpointTiming]" = field(default_factory=list)
    analysis_seconds: float = 0.0

    @property
    def worst(self) -> "EndpointTiming | None":
        return min(self.endpoints, key=lambda e: e.slack_ps, default=None)

    def register_endpoints(self) -> "list[EndpointTiming]":
        return [e for e in self.endpoints if e.kind == "register"]

    def by_name(self, name: str) -> EndpointTiming:
        for e in self.endpoints:
            if e.endpoint.name == name:
                return e
        raise KeyError(name)


def analyze(synth: SynthesisResult, clock_period_ps: int) -> StaReport:
    """Run STA on a synthesised design at the sign-off derate."""
    started = time.perf_counter()
    lib: TechLibrary = synth.library
    graph = TimingGraph.from_synthesis(synth)
    factor = WORST_CASE.total_factor(TT)

    report = StaReport(clock_period_ps=clock_period_ps, derate_factor=factor)

    # -- launch arrivals at startpoints ---------------------------------
    arrival: dict[Signal, float] = {}
    pred: dict[Signal, Signal] = {}
    clk_to_q = lib.ff_clk_to_q_ps * factor
    for reg in graph.registers:
        arrival[reg] = clk_to_q
    for pin in graph.primary_inputs:
        arrival[pin] = lib.input_delay_ps * factor

    # -- propagate through combinational signals --------------------------
    for sig in graph.comb_signals():
        best = 0.0
        best_src: Signal | None = None
        for arc in graph.comb_arcs[sig]:
            src_arrival = arrival.get(arc.src, 0.0)
            candidate = src_arrival + arc.delay_ps * factor
            if candidate > best:
                best = candidate
                best_src = arc.src
        arrival[sig] = best
        if best_src is not None:
            pred[sig] = best_src

    # -- endpoints: register D pins -----------------------------------------
    setup = lib.ff_setup_ps * factor
    for reg, arcs in sorted(
        graph.endpoint_arcs.items(), key=lambda kv: kv[0].name
    ):
        best = 0.0
        best_src: Signal | None = None
        for arc in arcs:
            candidate = arrival.get(arc.src, 0.0) + arc.delay_ps * factor
            if candidate > best:
                best = candidate
                best_src = arc.src
        slack = clock_period_ps - setup - best
        report.endpoints.append(
            EndpointTiming(
                endpoint=reg,
                kind="register",
                arrival_ps=best,
                slack_ps=slack,
                startpoint=_trace_start(best_src, pred),
                path=_trace_path(best_src, pred) + (reg,),
            )
        )

    # -- endpoints: primary outputs --------------------------------------------
    for out in sorted(graph.primary_outputs, key=lambda s: s.name):
        out_arrival = arrival.get(out)
        if out_arrival is None:
            continue
        slack = clock_period_ps - out_arrival  # no external setup modelled
        report.endpoints.append(
            EndpointTiming(
                endpoint=out,
                kind="output",
                arrival_ps=out_arrival,
                slack_ps=slack,
                startpoint=_trace_start(pred.get(out, out), pred),
                path=_trace_path(out, pred),
            )
        )

    report.analysis_seconds = time.perf_counter() - started
    return report


def _trace_path(
    sig: "Signal | None", pred: "dict[Signal, Signal]"
) -> "tuple[Signal, ...]":
    if sig is None:
        return ()
    path = [sig]
    seen = {id(sig)}
    while path[-1] in pred:
        nxt = pred[path[-1]]
        if id(nxt) in seen:
            raise StaError("cycle in predecessor chain")
        seen.add(id(nxt))
        path.append(nxt)
    path.reverse()
    return tuple(path)


def _trace_start(
    sig: "Signal | None", pred: "dict[Signal, Signal]"
) -> "Signal | None":
    if sig is None:
        return None
    while sig in pred:
        sig = pred[sig]
    return sig
