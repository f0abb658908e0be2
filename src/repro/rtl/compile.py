"""Compile-once execution of RTL processes: IR -> Python closures.

This is the compiled counterpart of :mod:`repro.rtl.eval`.  At
elaboration time each :class:`~repro.rtl.ir.SyncProcess` /
:class:`~repro.rtl.ir.CombProcess` statement list is lowered to one
specialised Python function (source-generated, ``compile()``'d and
``exec``'d once), so a process activation costs a single call instead
of a recursive ``isinstance`` walk over the IR with a fresh
``EvalEnv`` per activation -- the same move a compiled-code simulator
(Verilator) makes over an event-driven interpreter, restricted to the
process granularity the kernel scheduler needs.

The compiled/interpreted contract
---------------------------------

The generated code preserves the four-valued semantics of
:mod:`repro.rtl.eval` **exactly**, bit for bit:

* every intermediate value is carried as the two integer planes of
  :class:`~repro.rtl.types.LV` (``value``/``unk``), with the plane
  equations of ``types.py`` inlined as word-parallel int arithmetic;
  ``LV`` objects are only materialised at commit boundaries (and
  interned for 1-bit results);
* X-contamination rules are reproduced verbatim: arithmetic, shifts
  by unknown amounts and comparisons contaminate, bitwise operators
  propagate per-bit with dominance, ``if``/``case`` selectors that
  evaluate to ``X`` take **no** branch;
* non-blocking assignment order is preserved: per-activation target
  slots with a written flag, later assignments overwrite earlier
  ones, reads never observe in-process writes, and a target that was
  not assigned on the taken path produces **no** pending write (so
  transport-delayed signals see exactly the events the interpreter
  would schedule);
* ``Mux`` arms and array reads stay lazy/guarded exactly as in
  ``eval_expr``;
* constant subexpressions (no signal or array reads) are folded at
  compile time through the reference interpreter itself, so both
  modes share one source of truth for literal semantics.

The interpreter remains the semantic reference: construct the
simulator with ``Simulation(..., exec_mode="interpreted")`` (or time
it with ``repro timing --rtl-exec interpreted``) to force it, e.g.
when debugging a suspected miscompile.
``tests/test_compiled_kernel.py`` drives both modes in lockstep over
randomised designs and all three case-study IPs (including X-init and
delay-annotated runs) to keep the contract honest.

Compiled closures are memoised per process object in a weak-key
cache, fingerprinted over the full statement/expression structure, so
re-elaborating the same module (e.g. one simulator per mutant in the
RTL validation loop) does not recompile -- while in-place IR rewrites
(endpoint extraction) are detected and trigger recompilation.
"""

from __future__ import annotations

import weakref

from .eval import eval_expr
from .ir import (
    Array,
    ArrayRead,
    ArrayWrite,
    Assign,
    Binop,
    Case,
    CombProcess,
    Concat,
    Const,
    Expr,
    If,
    Mux,
    Process,
    Signal,
    Slice,
    SliceAssign,
    Stmt,
    SyncProcess,
    Unop,
)
from .types import LV, ONEBIT, lv_raw

__all__ = [
    "CompiledProcess",
    "compile_process",
    "compile_stmts",
    "clear_cache",
    "expr_is_pure",
    "fold_constant",
]


def _mask(width: int) -> int:
    return (1 << width) - 1


def expr_is_pure(expr: Expr, memo: "dict[int, bool] | None" = None) -> bool:
    """True when ``expr`` reads no signal or array state, i.e. it can
    be evaluated once at compile time.  ``memo`` (keyed by ``id``) is
    shared across calls when the caller walks many expressions of one
    design."""
    if memo is None:
        memo = {}
    key = id(expr)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(expr, (Signal, ArrayRead)):
        pure = False
    elif isinstance(expr, Const):
        pure = True
    elif isinstance(expr, Slice):
        pure = expr_is_pure(expr.a, memo)
    elif isinstance(expr, Concat):
        pure = all(expr_is_pure(p, memo) for p in expr.parts)
    elif isinstance(expr, Unop):
        pure = expr_is_pure(expr.a, memo)
    elif isinstance(expr, Binop):
        pure = expr_is_pure(expr.a, memo) and expr_is_pure(expr.b, memo)
    elif isinstance(expr, Mux):
        pure = (
            expr_is_pure(expr.sel, memo)
            and expr_is_pure(expr.a, memo)
            and expr_is_pure(expr.b, memo)
        )
    else:
        pure = False
    memo[key] = pure
    return pure


def fold_constant(expr: Expr, memo: "dict[int, bool] | None" = None) -> "LV | None":
    """Fold a signal-free subtree to its :class:`LV` value through the
    reference interpreter (the single source of truth for literal
    semantics), or ``None`` when the subtree reads state.  Shared by
    the per-process compiler and the static analyses in
    :mod:`repro.lint`."""
    return eval_expr(expr, None) if expr_is_pure(expr, memo) else None


class CompiledProcess:
    """One process lowered to Python closures.

    ``body`` (and ``reset_body`` for synchronous processes with an
    asynchronous reset) have the signature ``fn(R, A, W, AW, S=False)``
    where ``R`` is the signal-value dict, ``A`` the array store, ``W``
    the non-blocking write buffer and ``AW`` the pending array-write
    list -- the kernel's own stores, written directly.  ``S`` is the
    strict-commit flag: callers MUST pass ``True`` whenever the
    simulation has transport delays configured, so value-preserving
    writes still reach the delayed-event heap exactly as the
    interpreter schedules them (the default elides them).  The
    generated sources are kept for inspection/debugging.
    """

    __slots__ = (
        "name",
        "body",
        "body_source",
        "reset",
        "reset_level",
        "reset_body",
        "reset_source",
    )

    def __init__(
        self,
        name: str,
        body,
        body_source: str,
        *,
        reset: "Signal | None" = None,
        reset_level: int = 1,
        reset_body=None,
        reset_source: "str | None" = None,
    ) -> None:
        self.name = name
        self.body = body
        self.body_source = body_source
        self.reset = reset
        self.reset_level = reset_level
        self.reset_body = reset_body
        self.reset_source = reset_source


# ----------------------------------------------------------------------
# Ordered IR walks (deterministic first-appearance order)
# ----------------------------------------------------------------------

def _collect_expr(expr: Expr, sigs: list, arrs: list, seen: set) -> None:
    if isinstance(expr, Signal):
        if id(expr) not in seen:
            seen.add(id(expr))
            sigs.append(expr)
    elif isinstance(expr, Slice):
        _collect_expr(expr.a, sigs, arrs, seen)
    elif isinstance(expr, Concat):
        for p in expr.parts:
            _collect_expr(p, sigs, arrs, seen)
    elif isinstance(expr, Unop):
        _collect_expr(expr.a, sigs, arrs, seen)
    elif isinstance(expr, Binop):
        _collect_expr(expr.a, sigs, arrs, seen)
        _collect_expr(expr.b, sigs, arrs, seen)
    elif isinstance(expr, Mux):
        _collect_expr(expr.sel, sigs, arrs, seen)
        _collect_expr(expr.a, sigs, arrs, seen)
        _collect_expr(expr.b, sigs, arrs, seen)
    elif isinstance(expr, ArrayRead):
        if ("arr", id(expr.array)) not in seen:
            seen.add(("arr", id(expr.array)))
            arrs.append(expr.array)
        _collect_expr(expr.index, sigs, arrs, seen)


def _collect_stmts(stmts, sigs, arrs, targets, tseen, seen) -> None:
    for stmt in stmts:
        if isinstance(stmt, (Assign, SliceAssign)):
            _collect_expr(stmt.expr, sigs, arrs, seen)
            if id(stmt.target) not in tseen:
                tseen.add(id(stmt.target))
                targets.append(stmt.target)
        elif isinstance(stmt, ArrayWrite):
            _collect_expr(stmt.index, sigs, arrs, seen)
            _collect_expr(stmt.value, sigs, arrs, seen)
        elif isinstance(stmt, If):
            _collect_expr(stmt.cond, sigs, arrs, seen)
            _collect_stmts(stmt.then, sigs, arrs, targets, tseen, seen)
            _collect_stmts(stmt.orelse, sigs, arrs, targets, tseen, seen)
        elif isinstance(stmt, Case):
            _collect_expr(stmt.sel, sigs, arrs, seen)
            for _, body in stmt.cases:
                _collect_stmts(body, sigs, arrs, targets, tseen, seen)
            _collect_stmts(stmt.default, sigs, arrs, targets, tseen, seen)
        else:
            raise TypeError(f"cannot compile statement {stmt!r}")


# ----------------------------------------------------------------------
# The statement-list compiler
# ----------------------------------------------------------------------

class _FnCompiler:
    """Lowers one statement list to the source of ``fn(R, A, W, AW)``."""

    def __init__(self) -> None:
        self.lines: "list[str]" = []
        self._tmp = 0
        #: exec-namespace bindings, passed as default arguments so the
        #: generated function loads them as fast locals.
        self.bound: "dict[str, object]" = {
            "LV": LV, "LVR": lv_raw, "B": ONEBIT,
        }
        self._bound_ids: "dict[int, str]" = {}
        self.read_planes: "dict[int, tuple[str, str]]" = {}
        self.arr_words: "dict[int, str]" = {}
        self.slots: "dict[int, tuple[str, str, str]]" = {}
        self._pure: "dict[int, bool]" = {}
        self._folded: "dict[int, LV | None]" = {}

    # -- small helpers --------------------------------------------------

    def emit(self, text: str, ind: int) -> None:
        self.lines.append("    " * ind + text)

    def tmp(self, base: str = "t") -> str:
        self._tmp += 1
        return f"_{base}{self._tmp}"

    def bind(self, obj, prefix: str) -> str:
        name = self._bound_ids.get(id(obj))
        if name is None:
            name = f"{prefix}{len(self._bound_ids)}"
            self._bound_ids[id(obj)] = name
            self.bound[name] = obj
        return name

    def mk_lv(self, width: int, v: str, u: str) -> str:
        """Source constructing an ``LV`` from (masked) plane strings."""
        if width == 1:
            return f"B[({v} << 1) | {u}]"
        return f"LVR({width}, {v}, {u})"

    # -- constant folding ----------------------------------------------

    def fold(self, expr: Expr) -> "LV | None":
        """Evaluate a signal-free subtree once, through the reference
        interpreter (single source of truth for literal semantics)."""
        key = id(expr)
        if key in self._folded:
            return self._folded[key]
        lv = fold_constant(expr, self._pure)
        self._folded[key] = lv
        return lv

    @staticmethod
    def _lit(text: str):
        """Plane string back to an int when it is a literal."""
        return int(text) if text.isdigit() else None

    # -- expression lowering -------------------------------------------
    #
    # ``ex()`` returns ``(value_plane, unk_plane)`` source strings that
    # are always *names or int literals* (safe to mention repeatedly);
    # compound nodes emit prelude statements at the given indent.

    def ex(self, expr: Expr, ind: int) -> "tuple[str, str]":
        folded = self.fold(expr)
        if folded is not None:
            return str(folded.value), str(folded.unk)
        if isinstance(expr, Signal):
            planes = self.read_planes.get(id(expr))
            if planes is None:
                # Signal not in the hoisted read set (defensive; every
                # read is collected up front) -- read it inline.
                s = self.bind(expr, "s")
                r, tv, tu = self.tmp("r"), self.tmp(), self.tmp()
                self.emit(f"{r} = R[{s}]", ind)
                self.emit(f"{tv} = {r}.value; {tu} = {r}.unk", ind)
                planes = (tv, tu)
                self.read_planes[id(expr)] = planes
            return planes
        if isinstance(expr, Slice):
            return self._ex_slice(expr, ind)
        if isinstance(expr, Concat):
            return self._ex_concat(expr, ind)
        if isinstance(expr, Unop):
            return self._ex_unop(expr, ind)
        if isinstance(expr, Binop):
            return self._ex_binop(expr, ind)
        if isinstance(expr, Mux):
            return self._ex_mux(expr, ind)
        if isinstance(expr, ArrayRead):
            return self._ex_array_read(expr, ind)
        raise TypeError(f"cannot compile expression {expr!r}")

    def _ex_slice(self, expr: Slice, ind: int):
        av, au = self.ex(expr.a, ind)
        if expr.lo == 0 and expr.width == expr.a.width:
            return av, au
        m = _mask(expr.width)
        tv, tu = self.tmp(), self.tmp()
        if expr.lo:
            self.emit(f"{tv} = ({av} >> {expr.lo}) & {m}", ind)
            self.emit(f"{tu} = ({au} >> {expr.lo}) & {m}", ind)
        else:
            self.emit(f"{tv} = {av} & {m}", ind)
            self.emit(f"{tu} = {au} & {m}", ind)
        return tv, tu

    def _ex_concat(self, expr: Concat, ind: int):
        planes = [self.ex(p, ind) for p in expr.parts]
        accv, accu = planes[0]
        for part, (pv, pu) in zip(expr.parts[1:], planes[1:]):
            accv = f"(({accv} << {part.width}) | {pv})"
            accu = f"(({accu} << {part.width}) | {pu})"
        tv, tu = self.tmp(), self.tmp()
        self.emit(f"{tv} = {accv}", ind)
        self.emit(f"{tu} = {accu}", ind)
        return tv, tu

    def _ex_unop(self, expr: Unop, ind: int):
        av, au = self.ex(expr.a, ind)
        m = _mask(expr.a.width)
        op = expr.op
        tv, tu = self.tmp(), self.tmp()
        if op == "not":
            self.emit(f"{tv} = ~{av} & ~{au} & {m}", ind)
            return tv, au
        if op == "neg":
            self.emit(f"if {au}:", ind)
            self.emit(f"    {tv} = 0; {tu} = {m}", ind)
            self.emit("else:", ind)
            self.emit(f"    {tv} = -{av} & {m}; {tu} = 0", ind)
            return tv, tu
        if op == "red_and":
            self.emit(f"if ~{av} & ~{au} & {m}:", ind)
            self.emit(f"    {tv} = 0; {tu} = 0", ind)
            self.emit(f"elif ({av} & ~{au}) == {m}:", ind)
            self.emit(f"    {tv} = 1; {tu} = 0", ind)
            self.emit("else:", ind)
            self.emit(f"    {tv} = 0; {tu} = 1", ind)
            return tv, tu
        if op == "red_or":
            self.emit(f"if {av} & ~{au}:", ind)
            self.emit(f"    {tv} = 1; {tu} = 0", ind)
            self.emit(f"elif (~{av} & ~{au} & {m}) == {m}:", ind)
            self.emit(f"    {tv} = 0; {tu} = 0", ind)
            self.emit("else:", ind)
            self.emit(f"    {tv} = 0; {tu} = 1", ind)
            return tv, tu
        if op == "red_xor":
            self.emit(f"if {au}:", ind)
            self.emit(f"    {tv} = 0; {tu} = 1", ind)
            self.emit("else:", ind)
            self.emit(f"    {tv} = ({av}).bit_count() & 1; {tu} = 0", ind)
            return tv, tu
        if op == "bool_not":
            # OR-reduce to a truth value, then invert (see eval.py).
            self.emit(f"if {av} & ~{au}:", ind)
            self.emit(f"    {tv} = 0; {tu} = 0", ind)
            self.emit(f"elif (~{av} & ~{au} & {m}) == {m}:", ind)
            self.emit(f"    {tv} = 1; {tu} = 0", ind)
            self.emit("else:", ind)
            self.emit(f"    {tv} = 0; {tu} = 1", ind)
            return tv, tu
        raise AssertionError(op)

    def _ex_binop(self, expr: Binop, ind: int):
        op = expr.op
        av, au = self.ex(expr.a, ind)
        bv, bu = self.ex(expr.b, ind)
        m = _mask(expr.a.width)
        tv, tu = self.tmp(), self.tmp()
        if op == "and":
            self.emit(f"{tv} = ({av} & ~{au}) & ({bv} & ~{bu})", ind)
            self.emit(
                f"{tu} = ~({tv} | (~{av} & ~{au}) | (~{bv} & ~{bu})) & {m}",
                ind,
            )
            return tv, tu
        if op == "or":
            self.emit(f"{tv} = ({av} & ~{au}) | ({bv} & ~{bu})", ind)
            self.emit(
                f"{tu} = ~({tv} | ((~{av} & ~{au}) & (~{bv} & ~{bu}))) & {m}",
                ind,
            )
            return tv, tu
        if op == "xor":
            self.emit(f"{tu} = {au} | {bu}", ind)
            self.emit(
                f"{tv} = ((({av} & ~{au}) & (~{bv} & ~{bu}))"
                f" | ((~{av} & ~{au}) & ({bv} & ~{bu}))) & ~{tu} & {m}",
                ind,
            )
            return tv, tu
        if op in ("add", "sub", "mul"):
            sym = {"add": "+", "sub": "-", "mul": "*"}[op]
            self.emit(f"if {au} | {bu}:", ind)
            self.emit(f"    {tv} = 0; {tu} = {m}", ind)
            self.emit("else:", ind)
            self.emit(f"    {tv} = ({av} {sym} {bv}) & {m}; {tu} = 0", ind)
            return tv, tu
        if op in ("shl", "shr", "sar"):
            return self._ex_shift(expr, av, au, bv, bu, ind)
        # comparisons (1-bit result)
        return self._ex_compare(expr, av, au, bv, bu, ind)

    def _ex_shift(self, expr: Binop, av, au, bv, bu, ind: int):
        w = expr.a.width
        m = _mask(w)
        op = expr.op
        tv, tu = self.tmp(), self.tmp()
        lit = self._lit(bv) if self._lit(bu) == 0 else None

        def emit_body(n_src: str, ind: int) -> None:
            if op == "shl":
                self.emit(f"{tv} = ({av} << {n_src}) & {m}", ind)
                self.emit(f"{tu} = ({au} << {n_src}) & {m}", ind)
                return
            if op == "shr":
                self.emit(f"{tv} = {av} >> {n_src}", ind)
                self.emit(f"{tu} = {au} >> {n_src}", ind)
                return
            # sar: clamp to width-1, sign-extend both planes
            sign = 1 << (w - 1)
            n2 = self.tmp("n")
            self.emit(f"{n2} = {n_src} if {n_src} < {w} else {w - 1}", ind)
            f = self.tmp("f")
            self.emit(
                f"{f} = ({m} >> ({w} - {n2})) << ({w} - {n2}) "
                f"if {n2} else 0",
                ind,
            )
            self.emit(
                f"{tv} = ({av} >> {n2}) | ({f} if {av} & {sign} else 0)", ind
            )
            self.emit(
                f"{tu} = ({au} >> {n2}) | ({f} if {au} & {sign} else 0)", ind
            )

        if lit is not None:
            emit_body(str(min(lit, w + 1)), ind)
            return tv, tu
        self.emit(f"if {bu}:", ind)
        self.emit(f"    {tv} = 0; {tu} = {m}", ind)
        self.emit("else:", ind)
        n = self.tmp("n")
        self.emit(f"    {n} = {bv} if {bv} < {w + 1} else {w + 1}", ind)
        emit_body(n, ind + 1)
        return tv, tu

    def _ex_compare(self, expr: Binop, av, au, bv, bu, ind: int):
        op = expr.op
        w = expr.a.width
        tv, tu = self.tmp(), self.tmp()
        self.emit(f"if {au} | {bu}:", ind)
        self.emit(f"    {tv} = 0; {tu} = 1", ind)
        self.emit("else:", ind)
        la, lb = av, bv
        if op.endswith("_s"):
            sign = 1 << (w - 1)
            full = 1 << w
            la, lb = self.tmp("a"), self.tmp("b")
            self.emit(
                f"    {la} = {av} - {full} if {av} & {sign} else {av}", ind
            )
            self.emit(
                f"    {lb} = {bv} - {full} if {bv} & {sign} else {bv}", ind
            )
        sym = {
            "eq": "==", "ne": "!=",
            "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
            "lt_s": "<", "le_s": "<=", "gt_s": ">", "ge_s": ">=",
        }[op]
        self.emit(f"    {tv} = 1 if {la} {sym} {lb} else 0; {tu} = 0", ind)
        return tv, tu

    def _ex_mux(self, expr: Mux, ind: int):
        sv, su = self.ex(expr.sel, ind)
        m = _mask(expr.width)
        tv, tu = self.tmp(), self.tmp()
        self.emit(f"if {su}:", ind)
        self.emit(f"    {tv} = 0; {tu} = {m}", ind)
        self.emit(f"elif {sv}:", ind)
        av, au = self.ex(expr.a, ind + 1)
        self.emit(f"    {tv} = {av}; {tu} = {au}", ind)
        self.emit("else:", ind)
        bv, bu = self.ex(expr.b, ind + 1)
        self.emit(f"    {tv} = {bv}; {tu} = {bu}", ind)
        return tv, tu

    def _ex_array_read(self, expr: ArrayRead, ind: int):
        iv, iu = self.ex(expr.index, ind)
        words = self.arr_words[id(expr.array)]
        m = _mask(expr.width)
        tv, tu = self.tmp(), self.tmp()
        word = self.tmp("w")
        self.emit(f"if {iu} or {iv} >= {expr.array.depth}:", ind)
        self.emit(f"    {tv} = 0; {tu} = {m}", ind)
        self.emit("else:", ind)
        self.emit(f"    {word} = {words}[{iv}]", ind)
        self.emit(f"    {tv} = {word}.value; {tu} = {word}.unk", ind)
        return tv, tu

    # -- statement lowering --------------------------------------------

    def stmts(self, stmts: "list[Stmt]", ind: int) -> None:
        if not stmts:
            self.emit("pass", ind)
            return
        for stmt in stmts:
            if isinstance(stmt, Assign):
                v, u = self.ex(stmt.expr, ind)
                nv, nu, nw = self.slots[id(stmt.target)]
                self.emit(f"{nv} = {v}; {nu} = {u}; {nw} = True", ind)
            elif isinstance(stmt, SliceAssign):
                self._slice_assign(stmt, ind)
            elif isinstance(stmt, ArrayWrite):
                iv, iu = self.ex(stmt.index, ind)
                vv, vu = self.ex(stmt.value, ind)
                g = self.bind(stmt.array, "g")
                idx = self.mk_lv(stmt.index.width, iv, iu)
                val = self.mk_lv(stmt.array.width, vv, vu)
                self.emit(f"AW.append(({g}, {idx}, {val}))", ind)
            elif isinstance(stmt, If):
                self._if(stmt, ind)
            elif isinstance(stmt, Case):
                self._case(stmt, ind)
            else:
                raise TypeError(f"cannot compile statement {stmt!r}")

    def _slice_assign(self, stmt: SliceAssign, ind: int) -> None:
        v, u = self.ex(stmt.expr, ind)
        nv, nu, nw = self.slots[id(stmt.target)]
        tw = stmt.target.width
        hole = _mask(stmt.hi - stmt.lo + 1) << stmt.lo
        keep = ~hole & _mask(tw)
        self.emit(f"if not {nw}:", ind)
        planes = self.read_planes.get(id(stmt.target))
        if planes is not None:
            pv, pu = planes
            self.emit(f"    {nv} = {pv}; {nu} = {pu}; {nw} = True", ind)
        else:
            s = self.bind(stmt.target, "s")
            b = self.tmp("b")
            self.emit(f"    {b} = R[{s}]", ind)
            self.emit(
                f"    {nv} = {b}.value; {nu} = {b}.unk; {nw} = True", ind
            )
        self.emit(
            f"{nv} = ({nv} & {keep}) | (({v} << {stmt.lo}) & {hole})", ind
        )
        self.emit(
            f"{nu} = ({nu} & {keep}) | (({u} << {stmt.lo}) & {hole})", ind
        )

    def _if(self, stmt: If, ind: int) -> None:
        cv, cu = self.ex(stmt.cond, ind)
        if stmt.orelse:
            self.emit(f"if not {cu}:", ind)
            self.emit(f"    if {cv}:", ind)
            self.stmts(stmt.then, ind + 2)
            self.emit("    else:", ind)
            self.stmts(stmt.orelse, ind + 2)
        else:
            self.emit(f"if not {cu} and {cv}:", ind)
            self.stmts(stmt.then, ind + 1)

    def _case(self, stmt: Case, ind: int) -> None:
        sv, su = self.ex(stmt.sel, ind)
        self.emit(f"if not {su}:", ind)
        if not stmt.cases:
            self.stmts(stmt.default, ind + 1)
            return
        for pos, (label, body) in enumerate(stmt.cases):
            key = "if" if pos == 0 else "elif"
            self.emit(f"    {key} {sv} == {label}:", ind)
            self.stmts(body, ind + 2)
        if stmt.default:
            self.emit("    else:", ind)
            self.stmts(stmt.default, ind + 2)

    # -- top-level assembly --------------------------------------------

    def build(self, stmts: "list[Stmt]", name: str):
        sigs: "list[Signal]" = []
        arrs: "list[Array]" = []
        targets: "list[Signal]" = []
        _collect_stmts(stmts, sigs, arrs, targets, set(), set())

        # Prologue: hoist every signal read once (reads never observe
        # in-process writes, so all reads see the pre-activation value)
        # and the word list of every array read.  Targets are hoisted
        # too, enabling the skip-unchanged commit below.
        for sig in sigs + [t for t in targets if id(t) not in
                           {id(s) for s in sigs}]:
            s = self.bind(sig, "s")
            r = self.tmp("r")
            tv, tu = self.tmp("v"), self.tmp("u")
            self.emit(f"{r} = R[{s}]", 1)
            self.emit(f"{tv} = {r}.value; {tu} = {r}.unk", 1)
            self.read_planes[id(sig)] = (tv, tu)
        for arr in arrs:
            g = self.bind(arr, "g")
            gw = self.tmp("gw")
            self.emit(f"{gw} = A[{g}]", 1)
            self.arr_words[id(arr)] = gw
        for i, sig in enumerate(targets):
            self.slots[id(sig)] = (f"nv{i}", f"nu{i}", f"nw{i}")
            self.emit(f"nw{i} = False", 1)

        self.stmts(stmts, 1)

        # Epilogue: commit the targets the taken path assigned.  An
        # assignment that reproduces the current value is elided
        # entirely -- valid because signal values are stable within a
        # delta and each signal has a single driving process per delta
        # (the synthesisable subset) -- unless ``S`` (strict mode) is
        # set: with transport delays active, even value-preserving
        # writes must reach the delayed-event heap exactly as the
        # interpreter schedules them.
        for sig in targets:
            nv, nu, nw = self.slots[id(sig)]
            pv, pu = self.read_planes[id(sig)]
            s = self.bind(sig, "s")
            self.emit(
                f"if {nw} and (S or {nv} != {pv} or {nu} != {pu}):", 1
            )
            self.emit(f"    W[{s}] = {self.mk_lv(sig.width, nv, nu)}", 1)

        if not self.lines:
            self.emit("pass", 1)
        params = ", ".join(f"{n}={n}" for n in self.bound)
        header = f"def _fn(R, A, W, AW, S=False, {params}):"
        source = "\n".join([header] + self.lines) + "\n"
        namespace = dict(self.bound)
        exec(compile(source, f"<rtl-compiled:{name}>", "exec"), namespace)
        return namespace["_fn"], source


def compile_stmts(stmts: "list[Stmt]", name: str = "stmts"):
    """Compile a statement list; returns ``(fn, source)`` where ``fn``
    has the ``fn(R, A, W, AW, S=False)`` closure signature described
    on :class:`CompiledProcess` (``S`` = strict commit, required True
    when transport delays are configured)."""
    return _FnCompiler().build(stmts, name)


# ----------------------------------------------------------------------
# Process-level compilation with a fingerprinted weak cache
# ----------------------------------------------------------------------

def _fp_expr(expr: Expr, out: list) -> None:
    t = type(expr)
    if t is Signal:
        out.append(id(expr))
    elif t is Const:
        out.append(("c", expr.width, expr.value))
    elif t is Slice:
        out.append(("sl", expr.hi, expr.lo))
        _fp_expr(expr.a, out)
    elif t is Concat:
        out.append(("cat", len(expr.parts)))
        for p in expr.parts:
            _fp_expr(p, out)
    elif t is Unop:
        out.append(("u", expr.op))
        _fp_expr(expr.a, out)
    elif t is Binop:
        out.append(("b", expr.op))
        _fp_expr(expr.a, out)
        _fp_expr(expr.b, out)
    elif t is Mux:
        out.append("m")
        _fp_expr(expr.sel, out)
        _fp_expr(expr.a, out)
        _fp_expr(expr.b, out)
    elif t is ArrayRead:
        out.append(("ar", id(expr.array)))
        _fp_expr(expr.index, out)
    else:
        out.append(("?", id(expr)))


def _fp_stmts(stmts, out: list) -> None:
    for stmt in stmts:
        t = type(stmt)
        if t is Assign:
            out.append(("a", id(stmt.target)))
            _fp_expr(stmt.expr, out)
        elif t is SliceAssign:
            out.append(("sa", id(stmt.target), stmt.hi, stmt.lo))
            _fp_expr(stmt.expr, out)
        elif t is ArrayWrite:
            out.append(("aw", id(stmt.array)))
            _fp_expr(stmt.index, out)
            _fp_expr(stmt.value, out)
        elif t is If:
            out.append(("if", len(stmt.then), len(stmt.orelse)))
            _fp_expr(stmt.cond, out)
            _fp_stmts(stmt.then, out)
            _fp_stmts(stmt.orelse, out)
        elif t is Case:
            # Labels *and* per-body statement counts: bodies are
            # flattened below, so without the counts a statement moved
            # between arms (or into the default) would fingerprint
            # identically and reuse a stale compilation.
            out.append((
                "case",
                tuple((l, len(body)) for l, body in stmt.cases),
                len(stmt.default),
            ))
            _fp_expr(stmt.sel, out)
            for _, body in stmt.cases:
                _fp_stmts(body, out)
            _fp_stmts(stmt.default, out)
        else:
            out.append(("?", id(stmt)))


def _fingerprint(proc: Process) -> tuple:
    out: list = []
    if isinstance(proc, SyncProcess):
        out.append(("sync", id(proc.reset), proc.reset_level))
        _fp_stmts(proc.stmts, out)
        out.append("reset")
        _fp_stmts(proc.reset_stmts, out)
    else:
        out.append("comb")
        _fp_stmts(proc.stmts, out)
    return tuple(out)


_CACHE: "weakref.WeakKeyDictionary[Process, tuple]" = (
    weakref.WeakKeyDictionary()
)


def clear_cache() -> None:
    """Drop all memoised compilations (mainly for tests)."""
    _CACHE.clear()


def compile_process(proc: Process) -> CompiledProcess:
    """Compile (or fetch the memoised compilation of) one process.

    The cache is keyed weakly by the process object and validated
    against a structural fingerprint, so in-place IR rewrites between
    elaborations force a recompile instead of silently running stale
    code.
    """
    if not isinstance(proc, (SyncProcess, CombProcess)):
        raise TypeError(
            f"only SyncProcess/CombProcess can be compiled, "
            f"got {type(proc).__name__}"
        )
    fp = _fingerprint(proc)
    entry = _CACHE.get(proc)
    if entry is not None and entry[0] == fp:
        return entry[1]
    body, body_src = compile_stmts(proc.stmts, proc.name)
    if isinstance(proc, SyncProcess) and proc.reset is not None:
        reset_body, reset_src = compile_stmts(
            proc.reset_stmts, proc.name + ".reset"
        )
        compiled = CompiledProcess(
            proc.name,
            body,
            body_src,
            reset=proc.reset,
            reset_level=proc.reset_level,
            reset_body=reset_body,
            reset_source=reset_src,
        )
    else:
        compiled = CompiledProcess(proc.name, body, body_src)
    _CACHE[proc] = (fp, compiled)
    return compiled
