"""Next-state function extraction for synchronous processes.

For every register assigned by a synchronous process, this pass
derives a purely combinational expression for the value the register
takes at the next active clock edge (the classic mux-tree construction
a synthesis front-end performs).

Both the synthesis/STA substrate (register-to-register paths are paths
through next-state expressions) and the Razor insertion transform
(which needs the D input of a monitored flip-flop as an explicit
signal) are built on this.
"""

from __future__ import annotations

from .ir import (
    Assign,
    Case,
    Const,
    Expr,
    If,
    Mux,
    Signal,
    SliceAssign,
    Stmt,
    SyncProcess,
    written_signals,
)

__all__ = ["next_state_exprs", "drop_assignments_to"]


def next_state_exprs(proc: SyncProcess) -> "dict[Signal, Expr]":
    """Map each register assigned by ``proc`` to its next-state
    expression (reset behaviour excluded: the D input of the physical
    flip-flop is the synchronous data path only)."""
    targets = written_signals(proc.stmts)
    return {
        sig: _walk(proc.stmts, sig, default=sig) for sig in targets
    }


def _walk(stmts: "list[Stmt]", target: Signal, default: Expr) -> Expr:
    """Fold a statement list into the value ``target`` ends up with,
    given it enters the list holding ``default``."""
    result = default
    for stmt in stmts:
        if isinstance(stmt, Assign) and stmt.target is target:
            result = stmt.expr
        elif isinstance(stmt, SliceAssign) and stmt.target is target:
            result = _splice(result, stmt.hi, stmt.lo, stmt.expr)
        elif isinstance(stmt, If):
            then_val = _walk(stmt.then, target, result)
            else_val = _walk(stmt.orelse, target, result)
            if then_val is not result or else_val is not result:
                result = Mux(stmt.cond, then_val, else_val)
        elif isinstance(stmt, Case):
            result = _walk_case(stmt, target, result)
    return result


def _walk_case(stmt: Case, target: Signal, incoming: Expr) -> Expr:
    default_val = _walk(stmt.default, target, incoming)
    result = default_val
    # Build the selector mux chain from the last label backwards so the
    # first matching label wins (matching interpreter semantics).
    for label, body in reversed(stmt.cases):
        branch_val = _walk(body, target, incoming)
        cond = stmt.sel.eq(Const(label, stmt.sel.width))
        result = Mux(cond, branch_val, result)
    return result


def _splice(base: Expr, hi: int, lo: int, part: Expr) -> Expr:
    """Expression for ``base`` with bits hi..lo replaced by ``part``."""
    from .ir import Concat, Slice

    pieces: list[Expr] = []
    if hi < base.width - 1:
        pieces.append(Slice(base, base.width - 1, hi + 1))
    pieces.append(part)
    if lo > 0:
        pieces.append(Slice(base, lo - 1, 0))
    return pieces[0] if len(pieces) == 1 else Concat(*pieces)


def drop_assignments_to(stmts: "list[Stmt]", target: Signal) -> "list[Stmt]":
    """A copy of ``stmts`` with every assignment to ``target`` removed
    (used when a register's D input is re-routed through an explicit
    next-state signal during sensor insertion)."""
    out: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, (Assign, SliceAssign)) and stmt.target is target:
            continue
        if isinstance(stmt, If):
            new = If(
                stmt.cond,
                drop_assignments_to(stmt.then, target),
                drop_assignments_to(stmt.orelse, target),
            )
            if new.then or new.orelse:
                out.append(new)
            continue
        if isinstance(stmt, Case):
            new_cases = [
                (label, drop_assignments_to(body, target))
                for label, body in stmt.cases
            ]
            new_default = drop_assignments_to(stmt.default, target)
            if any(body for _, body in new_cases) or new_default:
                out.append(Case(stmt.sel, new_cases, new_default))
            continue
        out.append(stmt)
    return out
