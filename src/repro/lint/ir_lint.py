"""Static IR linter: structural checks over :mod:`repro.rtl.ir` netlists.

Check catalog (ids as reported on :class:`~repro.lint.findings.LintFinding`):

``comb-loop`` (error)
    A cycle in the combinational dependency graph (SCC over
    read->write edges of comb processes, including native comb
    processes).  The TLM code generator's topological sort tolerates
    such cycles by falling back to source order and the event kernel
    would delta-loop on them, so results are backend-dependent.
``multi-driver`` (error / info)
    One signal written by more than one process.  When one of the
    writers is a sensor-bank native process
    (``proc.meta["sensor"]``), the conflict is the *intentional* Razor
    recovery path (the bank restores a monitored register from its
    shadow latch) and is reported at info severity instead.
``width-mismatch`` (error)
    An assignment whose operand widths no longer match.  Statement
    constructors validate widths at construction, so this only fires
    on post-construction in-place rewrites (retargeting passes).
``inferred-latch`` (warning)
    A combinational process that assigns a signal on some control
    paths but not all: the signal holds state, i.e. synthesises to a
    latch the RTL author almost never intended.
``never-written`` (warning)
    A signal read by some process but driven by none (inputs, clocks
    and reset pins excluded): it is stuck at its init value and, in a
    real netlist, would float.
``never-read`` (info)
    A signal driven but observed by nothing (outputs excluded): dead
    logic.
``x-source`` (warning)
    An :class:`~repro.rtl.ir.ArrayRead` whose index is wide enough to
    address past the array depth; an out-of-range read yields all-X,
    so this is a latent X-propagation source.
"""

from __future__ import annotations

from repro.rtl.ir import (
    Array,
    ArrayWrite,
    Assign,
    Case,
    CombProcess,
    If,
    Module,
    NativeProcess,
    Process,
    Signal,
    SliceAssign,
    SyncProcess,
    expr_array_reads,
    process_reads,
    process_writes,
    walk_stmts,
    written_signals,
)

from .findings import LintFinding, LintReport

__all__ = ["lint_module", "CHECKS"]

CHECKS = (
    "comb-loop",
    "multi-driver",
    "width-mismatch",
    "inferred-latch",
    "never-written",
    "never-read",
    "x-source",
)


def _sig_path(module: Module, sig: Signal) -> str:
    return f"{module.name}.{sig.name}"


def _proc_stmt_lists(proc: Process):
    """The statement lists of a process (native processes have none)."""
    if isinstance(proc, SyncProcess):
        yield proc.stmts
        if proc.reset_stmts:
            yield proc.reset_stmts
    elif isinstance(proc, CombProcess):
        yield proc.stmts


def _top_exprs(stmts):
    """Every top-level expression in a statement list (conditions,
    selectors, right-hand sides, array indices)."""
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, (Assign, SliceAssign)):
            yield stmt.expr
        elif isinstance(stmt, ArrayWrite):
            yield stmt.index
            yield stmt.value
        elif isinstance(stmt, If):
            yield stmt.cond
        elif isinstance(stmt, Case):
            yield stmt.sel


def lint_module(module: Module) -> LintReport:
    """Run every structural check over a module tree; returns the raw
    (unwaived) :class:`LintReport`.  Pure static analysis -- nothing is
    simulated and the IR is never modified."""
    report = LintReport(module_name=module.name)
    procs = module.all_processes()
    signals = module.all_signals()

    _check_comb_loops(module, procs, report)
    _check_multi_driver(module, procs, report)
    _check_widths(module, procs, report)
    _check_latches(module, procs, report)
    _check_connectivity(module, procs, signals, report)
    _check_x_sources(module, procs, report)
    return report


# ----------------------------------------------------------------------
# comb-loop: SCC over the combinational dependency graph
# ----------------------------------------------------------------------

def _check_comb_loops(module, procs, report) -> None:
    comb = [
        (name, p) for name, p in procs
        if isinstance(p, CombProcess)
        or (isinstance(p, NativeProcess) and p.kind == "comb")
    ]
    # Signal-level graph: an edge read -> written for every comb
    # process.  A native comb process contributes its declared
    # footprint.  Self-edges (a process reading its own output) count.
    edges: "dict[int, set[int]]" = {}
    by_id: "dict[int, Signal]" = {}
    writer_name: "dict[int, str]" = {}
    for name, proc in comb:
        reads = process_reads(proc)
        writes = process_writes(proc)
        for w in writes:
            by_id[id(w)] = w
            writer_name.setdefault(id(w), name)
        for r in reads:
            by_id[id(r)] = r
            for w in writes:
                edges.setdefault(id(r), set()).add(id(w))

    # Iterative Tarjan SCC over the signal graph.
    index_of: "dict[int, int]" = {}
    low: "dict[int, int]" = {}
    on_stack: "set[int]" = set()
    stack: "list[int]" = []
    counter = [0]
    sccs: "list[list[int]]" = []

    def strongconnect(root: int) -> None:
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)

    for node in sorted(edges):
        if node not in index_of:
            strongconnect(node)

    for scc in sccs:
        cyclic = len(scc) > 1 or (scc[0] in edges.get(scc[0], ()))
        if not cyclic:
            continue
        names = sorted(by_id[n].name for n in scc if n in by_id)
        proc_names = sorted({
            writer_name[n] for n in scc if n in writer_name
        })
        report.findings.append(LintFinding(
            check="comb-loop",
            severity="error",
            message=(
                "combinational cycle through "
                + " -> ".join(names)
            ),
            signal=", ".join(
                _sig_path(module, by_id[n]) for n in scc
                if n in by_id and by_id[n].name in names
            ) or None,
            process=", ".join(proc_names) or None,
        ))


# ----------------------------------------------------------------------
# multi-driver
# ----------------------------------------------------------------------

def _check_multi_driver(module, procs, report) -> None:
    writers: "dict[int, list[tuple[str, Process]]]" = {}
    by_id: "dict[int, Signal]" = {}
    for name, proc in procs:
        for sig in process_writes(proc):
            by_id[id(sig)] = sig
            writers.setdefault(id(sig), []).append((name, proc))
    for sig_id, procs_here in sorted(
        writers.items(), key=lambda kv: by_id[kv[0]].name
    ):
        if len(procs_here) < 2:
            continue
        sig = by_id[sig_id]
        sensor = [
            (n, p) for n, p in procs_here
            if isinstance(p, NativeProcess) and p.meta.get("sensor")
        ]
        names = ", ".join(n for n, _ in procs_here)
        if sensor:
            report.findings.append(LintFinding(
                check="multi-driver",
                severity="info",
                message=(
                    f"{sig.name} driven by {len(procs_here)} processes; "
                    "intentional sensor recovery path "
                    f"({sensor[0][1].meta.get('sensor')} bank restore)"
                ),
                signal=_sig_path(module, sig),
                process=names,
            ))
        else:
            report.findings.append(LintFinding(
                check="multi-driver",
                severity="error",
                message=(
                    f"{sig.name} driven by {len(procs_here)} processes"
                ),
                signal=_sig_path(module, sig),
                process=names,
            ))


# ----------------------------------------------------------------------
# width-mismatch (post-construction re-validation)
# ----------------------------------------------------------------------

def _check_widths(module, procs, report) -> None:
    for name, proc in procs:
        for stmts in _proc_stmt_lists(proc):
            for stmt in walk_stmts(stmts):
                problem = _stmt_width_problem(stmt)
                if problem is None:
                    continue
                sig = getattr(stmt, "target", None)
                report.findings.append(LintFinding(
                    check="width-mismatch",
                    severity="error",
                    message=problem,
                    signal=(
                        _sig_path(module, sig)
                        if isinstance(sig, Signal) else None
                    ),
                    process=name,
                ))


def _stmt_width_problem(stmt) -> "str | None":
    if isinstance(stmt, Assign):
        if stmt.expr.width != stmt.target.width:
            return (
                f"assignment to {stmt.target.name}: target is "
                f"{stmt.target.width} bits, expression is "
                f"{stmt.expr.width}"
            )
    elif isinstance(stmt, SliceAssign):
        if not (0 <= stmt.lo <= stmt.hi < stmt.target.width):
            return (
                f"slice [{stmt.hi}:{stmt.lo}] out of range for "
                f"{stmt.target.name} ({stmt.target.width} bits)"
            )
        if stmt.expr.width != stmt.hi - stmt.lo + 1:
            return (
                f"slice assignment to {stmt.target.name}"
                f"[{stmt.hi}:{stmt.lo}] expects "
                f"{stmt.hi - stmt.lo + 1} bits, got {stmt.expr.width}"
            )
    elif isinstance(stmt, ArrayWrite):
        if stmt.value.width != stmt.array.width:
            return (
                f"array write to {stmt.array.name}: word is "
                f"{stmt.array.width} bits, value is {stmt.value.width}"
            )
    return None


# ----------------------------------------------------------------------
# inferred-latch (definite-assignment analysis on comb processes)
# ----------------------------------------------------------------------

def _definitely_assigned(stmts) -> "set[int]":
    assigned: "set[int]" = set()
    for stmt in stmts:
        if isinstance(stmt, Assign):
            assigned.add(id(stmt.target))
        elif isinstance(stmt, If):
            if stmt.orelse:
                assigned |= (
                    _definitely_assigned(stmt.then)
                    & _definitely_assigned(stmt.orelse)
                )
        elif isinstance(stmt, Case):
            branches = [body for _, body in stmt.cases]
            labels = {label for label, _ in stmt.cases}
            covers_all = len(labels) == (1 << stmt.sel.width)
            if stmt.default:
                branches = branches + [stmt.default]
            elif not covers_all:
                branches = []
            if branches:
                common = _definitely_assigned(branches[0])
                for body in branches[1:]:
                    common &= _definitely_assigned(body)
                assigned |= common
        # SliceAssign never fully covers its target: conservative.
    return assigned


def _check_latches(module, procs, report) -> None:
    for name, proc in procs:
        if not isinstance(proc, CombProcess):
            continue
        written = written_signals(proc.stmts)
        definite = _definitely_assigned(proc.stmts)
        for sig in sorted(written, key=lambda s: s.name):
            if id(sig) in definite:
                continue
            report.findings.append(LintFinding(
                check="inferred-latch",
                severity="warning",
                message=(
                    f"{sig.name} is assigned on some paths of "
                    f"combinational process {proc.name} but not all: "
                    "it holds state (inferred latch)"
                ),
                signal=_sig_path(module, sig),
                process=name,
            ))


# ----------------------------------------------------------------------
# never-written / never-read
# ----------------------------------------------------------------------

def _check_connectivity(module, procs, signals, report) -> None:
    written: "set[int]" = set()
    read: "set[int]" = set()
    for _, proc in procs:
        written |= {id(s) for s in process_writes(proc)}
        read |= {id(s) for s in process_reads(proc)}
        clock = getattr(proc, "clock", None)
        if clock is not None:
            read.add(id(clock))
        reset = getattr(proc, "reset", None)
        if reset is not None:
            read.add(id(reset))
        for sig in getattr(proc, "sensitivity", None) or []:
            read.add(id(sig))

    for sig in signals:
        if id(sig) in read and id(sig) not in written:
            if sig.direction == "in" or sig.is_clock:
                continue
            report.findings.append(LintFinding(
                check="never-written",
                severity="warning",
                message=(
                    f"{sig.name} is read but has no driver: it is "
                    f"stuck at its init value ({sig.init})"
                ),
                signal=_sig_path(module, sig),
            ))
        elif id(sig) in written and id(sig) not in read:
            if sig.direction == "out":
                continue
            report.findings.append(LintFinding(
                check="never-read",
                severity="info",
                message=f"{sig.name} is driven but never observed",
                signal=_sig_path(module, sig),
            ))


# ----------------------------------------------------------------------
# x-source: array reads that can address past the depth
# ----------------------------------------------------------------------

def _check_x_sources(module, procs, report) -> None:
    seen: "set[tuple[int, int]]" = set()
    for name, proc in procs:
        for stmts in _proc_stmt_lists(proc):
            for expr in _top_exprs(stmts):
                for node in expr_array_reads(expr):
                    arr: Array = node.array
                    if (1 << node.index.width) <= arr.depth:
                        continue
                    key = (id(arr), node.index.width)
                    if key in seen:
                        continue
                    seen.add(key)
                    report.findings.append(LintFinding(
                        check="x-source",
                        severity="warning",
                        message=(
                            f"read of {arr.name} (depth {arr.depth}) "
                            f"with a {node.index.width}-bit index: "
                            "out-of-range reads yield X"
                        ),
                        signal=f"{module.name}.{arr.name}",
                        process=name,
                    ))
