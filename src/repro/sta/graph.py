"""Timing graph extraction from synthesis arcs.

Nodes are signals; directed edges are the combinational arcs produced
by :func:`repro.synth.synthesize`.  Registers and primary inputs are
*startpoints* (timing restarts there); register D inputs and primary
outputs are *endpoints*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtl.ir import Module, Signal, registers_of
from repro.synth.synthesize import Arc, SynthesisResult

__all__ = ["TimingGraph", "StaError"]


class StaError(RuntimeError):
    """Raised on malformed timing graphs (e.g. combinational loops)."""


@dataclass
class TimingGraph:
    """Adjacency view of the combinational timing structure."""

    module: Module
    registers: "set[Signal]" = field(default_factory=set)
    primary_inputs: "set[Signal]" = field(default_factory=set)
    primary_outputs: "set[Signal]" = field(default_factory=set)
    #: arcs ending at a register D pin, keyed by register
    endpoint_arcs: "dict[Signal, list[Arc]]" = field(default_factory=dict)
    #: arcs ending at a combinationally-driven signal, keyed by signal
    comb_arcs: "dict[Signal, list[Arc]]" = field(default_factory=dict)

    @staticmethod
    def from_synthesis(synth: SynthesisResult) -> "TimingGraph":
        module = synth.module
        graph = TimingGraph(module=module)
        graph.registers = set(registers_of(module))
        clock_pins = {
            proc.clock
            for _, proc in module.all_processes()
            if getattr(proc, "clock", None) is not None
        }
        graph.primary_inputs = {
            p for p in module.inputs()
            if not p.is_clock and p not in clock_pins
        }
        graph.primary_outputs = set(module.outputs())
        for arc in synth.arcs:
            if arc.dst in graph.registers:
                graph.endpoint_arcs.setdefault(arc.dst, []).append(arc)
            else:
                graph.comb_arcs.setdefault(arc.dst, []).append(arc)
        return graph

    def comb_signals(self) -> "list[Signal]":
        """Combinationally-driven signals in topological order.

        Raises :class:`StaError` when a combinational cycle exists.
        """
        # Kahn's algorithm over the comb-to-comb restriction.
        indegree: dict[Signal, int] = {}
        dependents: dict[Signal, list[Signal]] = {}
        comb_set = set(self.comb_arcs)
        for dst, arcs in self.comb_arcs.items():
            count = 0
            for arc in arcs:
                if arc.src in comb_set and arc.src is not dst:
                    dependents.setdefault(arc.src, []).append(dst)
                    count += 1
            indegree[dst] = count
        ready = sorted(
            (s for s, d in indegree.items() if d == 0),
            key=lambda s: s.name,
        )
        order: list[Signal] = []
        while ready:
            sig = ready.pop()
            order.append(sig)
            for dep in dependents.get(sig, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(comb_set):
            cyclic = sorted(
                (s.name for s, d in indegree.items() if d > 0)
            )
            raise StaError(
                f"combinational cycle involving: {', '.join(cyclic[:8])}"
            )
        return order
