"""Intermediate representation for RTL designs.

The IR mirrors a synthesisable VHDL/Verilog subset:

* **Expressions** -- constants, signal references, slices, concats,
  unary/binary operators, muxes and array (memory) reads.  Every
  expression carries a bit width, validated at construction.
* **Statements** -- (non-blocking) signal assignment, array writes,
  ``if``/``elsif``/``else`` and ``case``.
* **Processes** -- synchronous (clocked, optional async reset),
  combinational (sensitivity-list driven) and *native* processes whose
  behaviour is a Python callable (used for sensor primitives).
* **Modules** -- hierarchical containers.  Submodules share ``Signal``
  objects with their parent (elaboration-by-construction, as in migen),
  so a design is flattened simply by walking the tree.

The same IR feeds four backends: the event-driven RTL simulator
(:mod:`repro.rtl.kernel`), the VHDL emitter (:mod:`repro.rtl.vhdl`),
synthesis/STA (:mod:`repro.synth`, :mod:`repro.sta`) and the TLM code
generator (:mod:`repro.abstraction`).
"""

from __future__ import annotations

from .types import LV

__all__ = [
    "WidthError",
    "Expr",
    "Const",
    "Signal",
    "Array",
    "Slice",
    "Concat",
    "Unop",
    "Binop",
    "Mux",
    "ArrayRead",
    "Stmt",
    "Assign",
    "SliceAssign",
    "ArrayWrite",
    "If",
    "Case",
    "Process",
    "SyncProcess",
    "CombProcess",
    "NativeProcess",
    "Module",
    "UNARY_OPS",
    "BINARY_OPS",
    "COMPARE_OPS",
    "walk_stmts",
    "expr_array_reads",
]


class WidthError(ValueError):
    """Raised when expression operand widths are inconsistent."""


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

class Expr:
    """Base class for all IR expressions.  ``width`` is in bits."""

    __slots__ = ("width",)

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise WidthError(f"expression width must be positive, got {width}")
        self.width = width

    # Operator sugar so IPs read naturally ------------------------------

    def __and__(self, other: "Expr") -> "Binop":
        return Binop("and", self, other)

    def __or__(self, other: "Expr") -> "Binop":
        return Binop("or", self, other)

    def __xor__(self, other: "Expr") -> "Binop":
        return Binop("xor", self, other)

    def __invert__(self) -> "Unop":
        return Unop("not", self)

    def __add__(self, other: "Expr") -> "Binop":
        return Binop("add", self, other)

    def __sub__(self, other: "Expr") -> "Binop":
        return Binop("sub", self, other)

    def __mul__(self, other: "Expr") -> "Binop":
        return Binop("mul", self, other)

    def __lshift__(self, other: "Expr | int") -> "Binop":
        return Binop("shl", self, _as_shift(other, self.width))

    def __rshift__(self, other: "Expr | int") -> "Binop":
        return Binop("shr", self, _as_shift(other, self.width))

    def __getitem__(self, index: "int | slice") -> "Slice":
        if isinstance(index, slice):
            # expr[hi:lo] in HDL order (both inclusive)
            hi, lo = index.start, index.stop
            if hi is None or lo is None:
                raise IndexError("slices must be expr[hi:lo] with both bounds")
            return Slice(self, hi, lo)
        return Slice(self, index, index)

    def eq(self, other: "Expr | int") -> "Binop":
        return Binop("eq", self, _as_expr(other, self.width))

    def ne(self, other: "Expr | int") -> "Binop":
        return Binop("ne", self, _as_expr(other, self.width))

    def lt(self, other: "Expr | int") -> "Binop":
        return Binop("lt", self, _as_expr(other, self.width))

    def le(self, other: "Expr | int") -> "Binop":
        return Binop("le", self, _as_expr(other, self.width))

    def gt(self, other: "Expr | int") -> "Binop":
        return Binop("gt", self, _as_expr(other, self.width))

    def ge(self, other: "Expr | int") -> "Binop":
        return Binop("ge", self, _as_expr(other, self.width))

    def lt_s(self, other: "Expr | int") -> "Binop":
        return Binop("lt_s", self, _as_expr(other, self.width))

    def le_s(self, other: "Expr | int") -> "Binop":
        return Binop("le_s", self, _as_expr(other, self.width))

    def gt_s(self, other: "Expr | int") -> "Binop":
        return Binop("gt_s", self, _as_expr(other, self.width))

    def ge_s(self, other: "Expr | int") -> "Binop":
        return Binop("ge_s", self, _as_expr(other, self.width))


def _as_expr(value: "Expr | int", width: int) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(value, width)


def _as_shift(value: "Expr | int", width: int) -> Expr:
    if isinstance(value, Expr):
        return value
    bits = max(1, (width - 1).bit_length() + 1)
    return Const(value, bits)


class Const(Expr):
    """A literal of fixed width (two's-complement wrap for negatives)."""

    __slots__ = ("value",)

    def __init__(self, value: int, width: int) -> None:
        super().__init__(width)
        self.value = value & ((1 << width) - 1)

    def __repr__(self) -> str:
        return f"Const({self.value}, w={self.width})"


class Signal(Expr):
    """A named wire or register.

    ``direction`` is ``"in"``/``"out"`` for module ports and ``None``
    for internal signals.  ``kind`` is assigned during elaboration
    (``"reg"`` when written by a synchronous process, ``"wire"``
    otherwise).  A signal used in an expression *is* the expression
    node -- there is no separate reference wrapper.
    """

    __slots__ = ("name", "direction", "init", "kind", "signed", "is_clock")

    def __init__(
        self,
        name: str,
        width: int = 1,
        *,
        direction: str | None = None,
        init: int = 0,
        signed: bool = False,
        is_clock: bool = False,
    ) -> None:
        super().__init__(width)
        self.name = name
        self.direction = direction
        self.init = init & ((1 << width) - 1)
        self.kind = "wire"
        self.signed = signed
        self.is_clock = is_clock

    @property
    def init_lv(self) -> LV:
        return LV.from_int(self.width, self.init)

    def __repr__(self) -> str:
        d = f", {self.direction}" if self.direction else ""
        return f"Signal({self.name!r}, w={self.width}{d})"


class Array:
    """A memory: ``depth`` words of ``width`` bits (regfile, RAM, ROM).

    Arrays are not expressions; they are accessed through
    :class:`ArrayRead` / :class:`ArrayWrite`.
    """

    __slots__ = ("name", "depth", "width", "init")

    def __init__(
        self,
        name: str,
        depth: int,
        width: int,
        init: "list[int] | None" = None,
    ) -> None:
        if depth <= 0:
            raise ValueError("array depth must be positive")
        self.name = name
        self.depth = depth
        self.width = width
        mask = (1 << width) - 1
        words = list(init) if init else []
        if len(words) > depth:
            raise ValueError("array init longer than depth")
        words += [0] * (depth - len(words))
        self.init = [w & mask for w in words]

    @property
    def addr_width(self) -> int:
        return max(1, (self.depth - 1).bit_length())

    def __repr__(self) -> str:
        return f"Array({self.name!r}, depth={self.depth}, w={self.width})"


class Slice(Expr):
    """Bits ``hi`` down to ``lo`` (inclusive) of a sub-expression."""

    __slots__ = ("a", "hi", "lo")

    def __init__(self, a: Expr, hi: int, lo: int) -> None:
        if not (0 <= lo <= hi < a.width):
            raise WidthError(
                f"slice [{hi}:{lo}] out of range for width {a.width}"
            )
        super().__init__(hi - lo + 1)
        self.a = a
        self.hi = hi
        self.lo = lo


class Concat(Expr):
    """Concatenation; ``parts[0]`` is the most significant part."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Expr) -> None:
        if not parts:
            raise WidthError("empty concatenation")
        super().__init__(sum(p.width for p in parts))
        self.parts = tuple(parts)


UNARY_OPS = ("not", "neg", "red_and", "red_or", "red_xor", "bool_not")

#: op -> result width rule: "same" keeps operand width, 1 is single-bit.
_UNARY_WIDTH = {
    "not": "same",
    "neg": "same",
    "red_and": 1,
    "red_or": 1,
    "red_xor": 1,
    "bool_not": 1,
}


class Unop(Expr):
    """Unary operator node."""

    __slots__ = ("op", "a")

    def __init__(self, op: str, a: Expr) -> None:
        if op not in _UNARY_WIDTH:
            raise ValueError(f"unknown unary op {op!r}")
        if op == "bool_not" and a.width != 1:
            raise WidthError("bool_not requires a 1-bit operand")
        rule = _UNARY_WIDTH[op]
        super().__init__(a.width if rule == "same" else rule)
        self.op = op
        self.a = a


COMPARE_OPS = ("eq", "ne", "lt", "le", "gt", "ge", "lt_s", "le_s", "gt_s", "ge_s")

BINARY_OPS = (
    "and", "or", "xor",
    "add", "sub", "mul",
    "shl", "shr", "sar",
) + COMPARE_OPS

_SHIFT_OPS = ("shl", "shr", "sar")


class Binop(Expr):
    """Binary operator node.

    Width rules: logical/arithmetic ops require equal operand widths
    and keep them; shifts keep the left operand's width (the right
    operand is the shift amount and may be any width); comparisons
    require equal widths and produce one bit.
    """

    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr) -> None:
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        if op in _SHIFT_OPS:
            width = a.width
        else:
            if a.width != b.width:
                raise WidthError(
                    f"operand width mismatch for {op!r}: "
                    f"{a.width} vs {b.width}"
                )
            width = 1 if op in COMPARE_OPS else a.width
        super().__init__(width)
        self.op = op
        self.a = a
        self.b = b


class Mux(Expr):
    """``sel ? a : b`` with a 1-bit selector."""

    __slots__ = ("sel", "a", "b")

    def __init__(self, sel: Expr, a: Expr, b: Expr) -> None:
        if sel.width != 1:
            raise WidthError("mux selector must be 1 bit")
        if a.width != b.width:
            raise WidthError(
                f"mux arm width mismatch: {a.width} vs {b.width}"
            )
        super().__init__(a.width)
        self.sel = sel
        self.a = a
        self.b = b


class ArrayRead(Expr):
    """Asynchronous (combinational) read of ``array[index]``."""

    __slots__ = ("array", "index")

    def __init__(self, array: Array, index: Expr) -> None:
        super().__init__(array.width)
        self.array = array
        self.index = index


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------

class Stmt:
    """Base class for IR statements."""

    __slots__ = ()


class Assign(Stmt):
    """Non-blocking assignment ``target <= expr``.

    Widths must match exactly; use :class:`Slice`/``resize`` helpers on
    the right-hand side to adapt.
    """

    __slots__ = ("target", "expr")

    def __init__(self, target: Signal, expr: "Expr | int") -> None:
        if not isinstance(target, Signal):
            raise TypeError("assignment target must be a Signal")
        expr = _as_expr(expr, target.width)
        if expr.width != target.width:
            raise WidthError(
                f"assignment width mismatch on {target.name}: "
                f"{target.width} vs {expr.width}"
            )
        self.target = target
        self.expr = expr


class SliceAssign(Stmt):
    """Non-blocking assignment to a bit range: ``target[hi:lo] <= expr``."""

    __slots__ = ("target", "hi", "lo", "expr")

    def __init__(self, target: Signal, hi: int, lo: int, expr: "Expr | int") -> None:
        if not (0 <= lo <= hi < target.width):
            raise WidthError(
                f"slice [{hi}:{lo}] out of range for {target.name}"
            )
        expr = _as_expr(expr, hi - lo + 1)
        if expr.width != hi - lo + 1:
            raise WidthError("slice assignment width mismatch")
        self.target = target
        self.hi = hi
        self.lo = lo
        self.expr = expr


class ArrayWrite(Stmt):
    """Synchronous write ``array[index] <= value``."""

    __slots__ = ("array", "index", "value")

    def __init__(self, array: Array, index: Expr, value: "Expr | int") -> None:
        value = _as_expr(value, array.width)
        if value.width != array.width:
            raise WidthError(
                f"array write width mismatch on {array.name}"
            )
        self.array = array
        self.index = index
        self.value = value


class If(Stmt):
    """``if cond then ... else ...`` with 1-bit condition."""

    __slots__ = ("cond", "then", "orelse")

    def __init__(
        self,
        cond: Expr,
        then: "list[Stmt]",
        orelse: "list[Stmt] | None" = None,
    ) -> None:
        if cond.width != 1:
            raise WidthError("if condition must be 1 bit")
        self.cond = cond
        self.then = list(then)
        self.orelse = list(orelse) if orelse else []


class Case(Stmt):
    """``case sel of`` with integer labels and an optional default."""

    __slots__ = ("sel", "cases", "default")

    def __init__(
        self,
        sel: Expr,
        cases: "list[tuple[int, list[Stmt]]]",
        default: "list[Stmt] | None" = None,
    ) -> None:
        mask = (1 << sel.width) - 1
        self.sel = sel
        self.cases = [(label & mask, list(stmts)) for label, stmts in cases]
        self.default = list(default) if default else []


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

class Process:
    """Base class for processes.

    ``__weakref__`` is included so the per-process compiler
    (:mod:`repro.rtl.compile`) can memoise compiled closures in a
    :class:`weakref.WeakKeyDictionary` without keeping dead IR alive.
    """

    __slots__ = ("name", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name


class SyncProcess(Process):
    """A clocked process (``if rising_edge(clk) then ...``).

    ``reset`` is an optional asynchronous reset signal: when it holds
    ``reset_level`` the ``reset_stmts`` run instead of ``stmts``.
    """

    __slots__ = ("clock", "edge", "stmts", "reset", "reset_level", "reset_stmts")

    def __init__(
        self,
        name: str,
        clock: Signal,
        stmts: "list[Stmt]",
        *,
        edge: str = "rise",
        reset: "Signal | None" = None,
        reset_level: int = 1,
        reset_stmts: "list[Stmt] | None" = None,
    ) -> None:
        if edge not in ("rise", "fall"):
            raise ValueError("edge must be 'rise' or 'fall'")
        super().__init__(name)
        self.clock = clock
        self.edge = edge
        self.stmts = list(stmts)
        self.reset = reset
        self.reset_level = reset_level
        self.reset_stmts = list(reset_stmts) if reset_stmts else []


class CombProcess(Process):
    """A combinational process; sensitivity is inferred from reads
    unless given explicitly."""

    __slots__ = ("stmts", "sensitivity")

    def __init__(
        self,
        name: str,
        stmts: "list[Stmt]",
        sensitivity: "list[Signal] | None" = None,
    ) -> None:
        super().__init__(name)
        self.stmts = list(stmts)
        self.sensitivity = list(sensitivity) if sensitivity else None


class NativeProcess(Process):
    """A process whose behaviour is a Python callable.

    Used for sensor primitives whose semantics (shadow latches, HF
    counters) are easier to state directly than as IR.  ``fn`` is
    called with a context object exposing ``read(sig)``, ``write(sig,
    lv)``, ``now`` (ps) and ``state`` (a per-process dict persisting
    across activations).

    ``kind`` is ``"sync"`` (clock + edge required) or ``"comb"``
    (``sensitivity`` required).  ``reads``/``writes`` declare the
    signal footprint so the schedulers and the code generator can
    reason about the process without executing it.  A module-level
    callable object, rather than a closure, keeps the design
    picklable, as RTL-validation shards need.
    """

    __slots__ = ("kind", "fn", "clock", "edge", "sensitivity", "reads", "writes", "meta")

    def __init__(
        self,
        name: str,
        kind: str,
        fn,
        *,
        clock: "Signal | None" = None,
        edge: str = "rise",
        sensitivity: "list[Signal] | None" = None,
        reads: "list[Signal] | None" = None,
        writes: "list[Signal] | None" = None,
        meta: "dict | None" = None,
    ) -> None:
        if kind not in ("sync", "comb"):
            raise ValueError("kind must be 'sync' or 'comb'")
        if kind == "sync" and clock is None:
            raise ValueError("sync native process needs a clock")
        if kind == "comb" and not sensitivity:
            raise ValueError("comb native process needs a sensitivity list")
        super().__init__(name)
        self.kind = kind
        self.fn = fn
        self.clock = clock
        self.edge = edge
        self.sensitivity = list(sensitivity) if sensitivity else []
        self.reads = list(reads) if reads else []
        self.writes = list(writes) if writes else []
        self.meta = dict(meta) if meta else {}


# ----------------------------------------------------------------------
# Modules
# ----------------------------------------------------------------------

class Module:
    """A hardware module: ports, signals, arrays, processes, children.

    Submodules share ``Signal`` objects with their parent (connection
    by construction), so :meth:`all_processes` over the tree yields a
    flat, simulatable design.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.ports: list[Signal] = []
        self.signals: list[Signal] = []
        self.arrays: list[Array] = []
        self.processes: list[Process] = []
        self.submodules: list[tuple[str, "Module"]] = []
        self._names: set[str] = set()

    # -- construction helpers ------------------------------------------

    def _register_name(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate name {name!r} in module {self.name}")
        self._names.add(name)

    def input(self, name: str, width: int = 1, **kw) -> Signal:
        """Declare an input port."""
        self._register_name(name)
        sig = Signal(name, width, direction="in", **kw)
        self.ports.append(sig)
        return sig

    def output(self, name: str, width: int = 1, **kw) -> Signal:
        """Declare an output port."""
        self._register_name(name)
        sig = Signal(name, width, direction="out", **kw)
        self.ports.append(sig)
        return sig

    def signal(self, name: str, width: int = 1, **kw) -> Signal:
        """Declare an internal signal."""
        self._register_name(name)
        sig = Signal(name, width, **kw)
        self.signals.append(sig)
        return sig

    def array(self, name: str, depth: int, width: int, init=None) -> Array:
        """Declare a memory array."""
        self._register_name(name)
        arr = Array(name, depth, width, init)
        self.arrays.append(arr)
        return arr

    def adopt(self, sig: Signal) -> Signal:
        """Register an externally-created signal as internal to this
        module (used by augmentation passes)."""
        self._register_name(sig.name)
        self.signals.append(sig)
        return sig

    def sync(
        self,
        name: str,
        clock: Signal,
        stmts: "list[Stmt]",
        **kw,
    ) -> SyncProcess:
        """Add a synchronous process; marks written signals as registers."""
        proc = SyncProcess(name, clock, stmts, **kw)
        self.processes.append(proc)
        for sig in written_signals(proc.stmts) | written_signals(proc.reset_stmts):
            sig.kind = "reg"
        return proc

    def comb(
        self,
        name: str,
        stmts: "list[Stmt]",
        sensitivity: "list[Signal] | None" = None,
    ) -> CombProcess:
        """Add a combinational process."""
        proc = CombProcess(name, stmts, sensitivity)
        self.processes.append(proc)
        return proc

    def native(self, proc: NativeProcess) -> NativeProcess:
        """Attach a native (Python-behaviour) process."""
        self.processes.append(proc)
        return proc

    def add_submodule(self, inst_name: str, child: "Module") -> "Module":
        """Attach a child module instance (signals already shared)."""
        self._register_name(inst_name)
        self.submodules.append((inst_name, child))
        return child

    # -- queries --------------------------------------------------------

    def all_processes(self) -> "list[tuple[str, Process]]":
        """All processes in the tree as ``(hierarchical_name, process)``."""
        out: list[tuple[str, Process]] = []
        self._collect_processes("", out)
        return out

    def _collect_processes(self, prefix: str, out: list) -> None:
        for proc in self.processes:
            out.append((prefix + proc.name, proc))
        for inst_name, child in self.submodules:
            child._collect_processes(f"{prefix}{inst_name}.", out)

    def all_signals(self) -> "list[Signal]":
        """Every signal in the tree (ports first, depth-first), deduplicated."""
        seen: dict[int, Signal] = {}
        order: list[Signal] = []

        def visit(mod: "Module") -> None:
            for sig in list(mod.ports) + list(mod.signals):
                if id(sig) not in seen:
                    seen[id(sig)] = sig
                    order.append(sig)
            for _, child in mod.submodules:
                visit(child)

        visit(self)
        return order

    def all_arrays(self) -> "list[Array]":
        seen: set[int] = set()
        order: list[Array] = []

        def visit(mod: "Module") -> None:
            for arr in mod.arrays:
                if id(arr) not in seen:
                    seen.add(id(arr))
                    order.append(arr)
            for _, child in mod.submodules:
                visit(child)

        visit(self)
        return order

    def inputs(self) -> "list[Signal]":
        return [p for p in self.ports if p.direction == "in"]

    def outputs(self) -> "list[Signal]":
        return [p for p in self.ports if p.direction == "out"]

    def find_signal(self, name: str) -> Signal:
        """Look up a signal by (non-hierarchical) name anywhere in the tree."""
        for sig in self.all_signals():
            if sig.name == name:
                return sig
        raise KeyError(f"no signal named {name!r} in {self.name}")

    def stats(self) -> dict:
        """Structural statistics used by Table 1."""
        procs = [p for _, p in self.all_processes()]
        n_sync = sum(
            1 for p in procs
            if isinstance(p, SyncProcess)
            or (isinstance(p, NativeProcess) and p.kind == "sync")
        )
        n_comb = len(procs) - n_sync
        regs = registers_of(self)
        return {
            "name": self.name,
            "inputs": sum(p.width for p in self.inputs()),
            "outputs": sum(p.width for p in self.outputs()),
            "flip_flops": sum(r.width for r in regs),
            "sync_processes": n_sync,
            "comb_processes": n_comb,
            "signals": len(self.all_signals()),
        }

    def __repr__(self) -> str:
        return f"Module({self.name!r})"


# ----------------------------------------------------------------------
# IR walking utilities
# ----------------------------------------------------------------------

def walk_stmts(stmts: "list[Stmt]"):
    """Yield every statement in a statement list, pre-order, descending
    into :class:`If` / :class:`Case` bodies (the static linter's
    traversal)."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.orelse)
        elif isinstance(stmt, Case):
            for _, body in stmt.cases:
                yield from walk_stmts(body)
            yield from walk_stmts(stmt.default)


def expr_array_reads(expr: Expr, acc: "list[ArrayRead] | None" = None) -> "list[ArrayRead]":
    """All :class:`ArrayRead` nodes in an expression tree (pre-order)."""
    if acc is None:
        acc = []
    if isinstance(expr, ArrayRead):
        acc.append(expr)
        expr_array_reads(expr.index, acc)
    elif isinstance(expr, Slice):
        expr_array_reads(expr.a, acc)
    elif isinstance(expr, Concat):
        for p in expr.parts:
            expr_array_reads(p, acc)
    elif isinstance(expr, Unop):
        expr_array_reads(expr.a, acc)
    elif isinstance(expr, Binop):
        expr_array_reads(expr.a, acc)
        expr_array_reads(expr.b, acc)
    elif isinstance(expr, Mux):
        expr_array_reads(expr.sel, acc)
        expr_array_reads(expr.a, acc)
        expr_array_reads(expr.b, acc)
    return acc


def expr_signals(expr: Expr, acc: "set[Signal] | None" = None) -> "set[Signal]":
    """All signals read by an expression."""
    if acc is None:
        acc = set()
    if isinstance(expr, Signal):
        acc.add(expr)
    elif isinstance(expr, Slice):
        expr_signals(expr.a, acc)
    elif isinstance(expr, Concat):
        for p in expr.parts:
            expr_signals(p, acc)
    elif isinstance(expr, Unop):
        expr_signals(expr.a, acc)
    elif isinstance(expr, Binop):
        expr_signals(expr.a, acc)
        expr_signals(expr.b, acc)
    elif isinstance(expr, Mux):
        expr_signals(expr.sel, acc)
        expr_signals(expr.a, acc)
        expr_signals(expr.b, acc)
    elif isinstance(expr, ArrayRead):
        expr_signals(expr.index, acc)
    return acc


def stmt_read_signals(stmts: "list[Stmt]", acc: "set[Signal] | None" = None) -> "set[Signal]":
    """All signals read anywhere in a statement list."""
    if acc is None:
        acc = set()
    for stmt in stmts:
        if isinstance(stmt, Assign):
            expr_signals(stmt.expr, acc)
        elif isinstance(stmt, SliceAssign):
            expr_signals(stmt.expr, acc)
        elif isinstance(stmt, ArrayWrite):
            expr_signals(stmt.index, acc)
            expr_signals(stmt.value, acc)
        elif isinstance(stmt, If):
            expr_signals(stmt.cond, acc)
            stmt_read_signals(stmt.then, acc)
            stmt_read_signals(stmt.orelse, acc)
        elif isinstance(stmt, Case):
            expr_signals(stmt.sel, acc)
            for _, body in stmt.cases:
                stmt_read_signals(body, acc)
            stmt_read_signals(stmt.default, acc)
    return acc


def expr_arrays(expr: Expr, acc: "set[Array] | None" = None) -> "set[Array]":
    """All arrays read (via :class:`ArrayRead`) by an expression."""
    if acc is None:
        acc = set()
    if isinstance(expr, ArrayRead):
        acc.add(expr.array)
        expr_arrays(expr.index, acc)
    elif isinstance(expr, Slice):
        expr_arrays(expr.a, acc)
    elif isinstance(expr, Concat):
        for p in expr.parts:
            expr_arrays(p, acc)
    elif isinstance(expr, Unop):
        expr_arrays(expr.a, acc)
    elif isinstance(expr, Binop):
        expr_arrays(expr.a, acc)
        expr_arrays(expr.b, acc)
    elif isinstance(expr, Mux):
        expr_arrays(expr.sel, acc)
        expr_arrays(expr.a, acc)
        expr_arrays(expr.b, acc)
    return acc


def stmt_read_arrays(stmts: "list[Stmt]", acc: "set[Array] | None" = None) -> "set[Array]":
    """All arrays read anywhere in a statement list."""
    if acc is None:
        acc = set()
    for stmt in stmts:
        if isinstance(stmt, (Assign, SliceAssign)):
            expr_arrays(stmt.expr, acc)
        elif isinstance(stmt, ArrayWrite):
            expr_arrays(stmt.index, acc)
            expr_arrays(stmt.value, acc)
        elif isinstance(stmt, If):
            expr_arrays(stmt.cond, acc)
            stmt_read_arrays(stmt.then, acc)
            stmt_read_arrays(stmt.orelse, acc)
        elif isinstance(stmt, Case):
            expr_arrays(stmt.sel, acc)
            for _, body in stmt.cases:
                stmt_read_arrays(body, acc)
            stmt_read_arrays(stmt.default, acc)
    return acc


def written_signals(stmts: "list[Stmt]", acc: "set[Signal] | None" = None) -> "set[Signal]":
    """All signals assigned anywhere in a statement list."""
    if acc is None:
        acc = set()
    for stmt in stmts:
        if isinstance(stmt, (Assign, SliceAssign)):
            acc.add(stmt.target)
        elif isinstance(stmt, If):
            written_signals(stmt.then, acc)
            written_signals(stmt.orelse, acc)
        elif isinstance(stmt, Case):
            for _, body in stmt.cases:
                written_signals(body, acc)
            written_signals(stmt.default, acc)
    return acc


def written_arrays(stmts: "list[Stmt]", acc: "set[Array] | None" = None) -> "set[Array]":
    """All arrays written anywhere in a statement list."""
    if acc is None:
        acc = set()
    for stmt in stmts:
        if isinstance(stmt, ArrayWrite):
            acc.add(stmt.array)
        elif isinstance(stmt, If):
            written_arrays(stmt.then, acc)
            written_arrays(stmt.orelse, acc)
        elif isinstance(stmt, Case):
            for _, body in stmt.cases:
                written_arrays(body, acc)
            written_arrays(stmt.default, acc)
    return acc


def process_reads(proc: Process) -> "set[Signal]":
    """Signals a process reads (for sensitivity inference)."""
    if isinstance(proc, SyncProcess):
        reads = stmt_read_signals(proc.stmts) | stmt_read_signals(proc.reset_stmts)
        return reads
    if isinstance(proc, CombProcess):
        return stmt_read_signals(proc.stmts)
    if isinstance(proc, NativeProcess):
        return set(proc.reads)
    raise TypeError(f"unknown process type {type(proc)!r}")


def process_writes(proc: Process) -> "set[Signal]":
    """Signals a process writes."""
    if isinstance(proc, SyncProcess):
        return written_signals(proc.stmts) | written_signals(proc.reset_stmts)
    if isinstance(proc, CombProcess):
        return written_signals(proc.stmts)
    if isinstance(proc, NativeProcess):
        return set(proc.writes)
    raise TypeError(f"unknown process type {type(proc)!r}")


def registers_of(module: Module) -> "list[Signal]":
    """All signals written by synchronous processes in the tree."""
    regs: list[Signal] = []
    seen: set[int] = set()
    for _, proc in module.all_processes():
        if isinstance(proc, SyncProcess):
            targets = written_signals(proc.stmts) | written_signals(proc.reset_stmts)
        elif isinstance(proc, NativeProcess) and proc.kind == "sync":
            targets = set(proc.writes)
        else:
            continue
        for sig in targets:
            if id(sig) not in seen:
                seen.add(id(sig))
                regs.append(sig)
    return regs
