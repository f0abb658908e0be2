"""Operator-level synthesis: expression walks shared by area and STA.

A first (sensor-free) synthesis of the IP provides two artefacts the
methodology needs (paper Section 4.2):

* **area / gate statistics** (Table 1: FF and NAND2-equivalent counts),
* **combinational delay arcs** from every read signal to every written
  signal, the raw material of the timing graph.

Synthesis here is structural estimation, not technology mapping: each
IR operator node becomes a macro instance with the delay/area the
:class:`~repro.synth.cells.TechLibrary` assigns it.  That is exactly
the granularity STA needs to rank paths conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtl.ir import (
    ArrayRead,
    Binop,
    CombProcess,
    Concat,
    Const,
    Expr,
    Module,
    Mux,
    NativeProcess,
    Signal,
    Slice,
    SyncProcess,
    Unop,
    registers_of,
)
from repro.rtl.nextstate import _walk, next_state_exprs

from .cells import LIB45, TechLibrary

__all__ = ["Arc", "SynthesisResult", "synthesize", "expr_arrival", "expr_area"]


@dataclass(frozen=True)
class Arc:
    """A combinational timing arc: ``src`` drives ``dst`` with at most
    ``delay_ps`` of logic between them.  ``through_array`` marks arcs
    whose path traverses a memory read."""

    src: Signal
    dst: Signal
    delay_ps: float
    through_array: bool = False


@dataclass
class SynthesisResult:
    """Gate-level statistics and timing arcs for one module tree."""

    module: Module
    library: TechLibrary
    area_nand2: float = 0.0
    combinational_area: float = 0.0
    sequential_area: float = 0.0
    array_area: float = 0.0
    ff_bits: int = 0
    op_histogram: dict = field(default_factory=dict)
    arcs: list = field(default_factory=list)
    #: maps register -> worst self-contained next-state delay (for reports)
    register_input_delay: dict = field(default_factory=dict)

    @property
    def gate_count(self) -> int:
        return round(self.area_nand2)


def expr_arrival(
    expr: Expr, lib: TechLibrary
) -> "tuple[dict[Signal, float], float]":
    """Per-leaf worst path delay through an expression.

    Returns ``(delays, const_delay)`` where ``delays[s]`` is the worst
    delay from signal ``s`` to the expression output and
    ``const_delay`` is the output settling delay when no signal is
    involved (constant cones).
    """
    if isinstance(expr, Signal):
        return {expr: 0.0}, 0.0
    if isinstance(expr, Const):
        return {}, 0.0
    if isinstance(expr, Slice):
        return expr_arrival(expr.a, lib)
    if isinstance(expr, Concat):
        merged: dict[Signal, float] = {}
        worst_const = 0.0
        for part in expr.parts:
            delays, const_d = expr_arrival(part, lib)
            worst_const = max(worst_const, const_d)
            for sig, d in delays.items():
                if d > merged.get(sig, -1.0):
                    merged[sig] = d
        return merged, worst_const
    if isinstance(expr, Unop):
        delays, const_d = expr_arrival(expr.a, lib)
        step = lib.delay_ps(expr.op if expr.op != "not" else "not", expr.a.width)
        return {s: d + step for s, d in delays.items()}, const_d + step
    if isinstance(expr, Binop):
        da, ca = expr_arrival(expr.a, lib)
        db, cb = expr_arrival(expr.b, lib)
        step = lib.delay_ps(expr.op, expr.width if expr.op not in
                            ("eq", "ne", "lt", "le", "gt", "ge",
                             "lt_s", "le_s", "gt_s", "ge_s")
                            else expr.a.width)
        merged = dict(da)
        for sig, d in db.items():
            if d > merged.get(sig, -1.0):
                merged[sig] = d
        return (
            {s: d + step for s, d in merged.items()},
            max(ca, cb) + step,
        )
    if isinstance(expr, Mux):
        ds, cs = expr_arrival(expr.sel, lib)
        da, ca = expr_arrival(expr.a, lib)
        db, cb = expr_arrival(expr.b, lib)
        step = lib.delay_ps("mux", expr.width)
        merged = dict(ds)
        for other in (da, db):
            for sig, d in other.items():
                if d > merged.get(sig, -1.0):
                    merged[sig] = d
        return (
            {s: d + step for s, d in merged.items()},
            max(cs, ca, cb) + step,
        )
    if isinstance(expr, ArrayRead):
        di, ci = expr_arrival(expr.index, lib)
        step = lib.delay_ps("array_read", expr.width)
        return {s: d + step for s, d in di.items()}, ci + step
    raise TypeError(f"cannot time expression {expr!r}")


def expr_area(expr: Expr, lib: TechLibrary, histogram: dict) -> float:
    """NAND2-equivalent area of an expression tree (histogram updated
    in place with per-op instance counts)."""
    if isinstance(expr, (Signal, Const)):
        return 0.0
    if isinstance(expr, Slice):
        return expr_area(expr.a, lib, histogram)
    if isinstance(expr, Concat):
        return sum(expr_area(p, lib, histogram) for p in expr.parts)
    if isinstance(expr, Unop):
        histogram[expr.op] = histogram.get(expr.op, 0) + 1
        return lib.area_nand2(
            "not" if expr.op in ("not", "bool_not") else expr.op,
            expr.a.width,
        ) + expr_area(expr.a, lib, histogram)
    if isinstance(expr, Binop):
        histogram[expr.op] = histogram.get(expr.op, 0) + 1
        width = expr.width if expr.op not in (
            "eq", "ne", "lt", "le", "gt", "ge", "lt_s", "le_s", "gt_s", "ge_s"
        ) else expr.a.width
        return (
            lib.area_nand2(expr.op, width)
            + expr_area(expr.a, lib, histogram)
            + expr_area(expr.b, lib, histogram)
        )
    if isinstance(expr, Mux):
        histogram["mux"] = histogram.get("mux", 0) + 1
        return (
            lib.area_nand2("mux", expr.width)
            + expr_area(expr.sel, lib, histogram)
            + expr_area(expr.a, lib, histogram)
            + expr_area(expr.b, lib, histogram)
        )
    if isinstance(expr, ArrayRead):
        # Array storage/mux area is accounted once per array, not per read.
        return expr_area(expr.index, lib, histogram)
    raise TypeError(f"cannot size expression {expr!r}")


def _comb_targets(proc: CombProcess) -> "dict[Signal, Expr]":
    """Output expression per signal written by a combinational process
    (default: the signal keeps its value, i.e. latch-free designs must
    fully assign -- we model unassigned branches as feedback of the
    old value, which the kernel also does)."""
    from repro.rtl.ir import written_signals

    return {
        sig: _walk(proc.stmts, sig, default=sig)
        for sig in written_signals(proc.stmts)
    }


def synthesize(
    module: Module,
    library: TechLibrary = LIB45,
) -> SynthesisResult:
    """Estimate gates and extract timing arcs for a module tree."""
    result = SynthesisResult(module=module, library=library)
    lib = library

    registers = registers_of(module)
    result.ff_bits = sum(r.width for r in registers)
    result.sequential_area = lib.ff_area(result.ff_bits)

    for arr in module.all_arrays():
        result.array_area += lib.array_area(arr.depth, arr.width)

    comb_area = 0.0
    for _, proc in module.all_processes():
        if isinstance(proc, SyncProcess):
            for reg, expr in next_state_exprs(proc).items():
                comb_area += expr_area(expr, lib, result.op_histogram)
                delays, const_d = expr_arrival(expr, lib)
                worst = max(list(delays.values()) + [const_d], default=0.0)
                result.register_input_delay[reg] = worst
                for src, delay in delays.items():
                    if src is reg and delay == 0.0:
                        continue  # pure hold path, no logic
                    result.arcs.append(Arc(src=src, dst=reg, delay_ps=delay))
        elif isinstance(proc, CombProcess):
            for target, expr in _comb_targets(proc).items():
                comb_area += expr_area(expr, lib, result.op_histogram)
                delays, _ = expr_arrival(expr, lib)
                for src, delay in delays.items():
                    if src is target and delay == 0.0:
                        continue
                    result.arcs.append(Arc(src=src, dst=target, delay_ps=delay))
        elif isinstance(proc, NativeProcess):
            # Sensors: area from their meta (characterised separately,
            # e.g. the paper's 352-NAND2 counter figure); no user arcs.
            comb_area += float(proc.meta.get("area_nand2", 0.0))
            if proc.kind == "sync":
                result.ff_bits += int(proc.meta.get("ff_bits", 0))

    result.combinational_area = comb_area
    result.area_nand2 = (
        comb_area + result.sequential_area + result.array_area
    )
    return result
