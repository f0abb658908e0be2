"""Data-type backends for the TLM code generator (paper Section 5.3).

The standard RTL-to-TLM abstraction maps HDL data types onto SystemC
data types; the optimised flow replaces them with HDTLib's word-packed
types.  Both are represented here as *expression emitters*: given an
IR expression, a backend produces the Python source text computing it
in the backend's value domain.

``ScBackend``
    values are :class:`repro.sctypes.ScLogicVector` objects; every
    operation validates widths and allocates a fresh vector, like the
    ``sc_lv``-based models the paper's Table 3 measures.

``IntBackend``
    values are plain masked integers; operations are native integer
    instructions (HDTLib's word-level layer), giving the Table 4
    speedup.  Multi-valued states are folded (``X``/``Z`` -> 0) on the
    way in, accepting the documented accuracy loss.
"""

from __future__ import annotations

from repro.rtl.ir import (
    ArrayRead,
    Binop,
    Concat,
    Const,
    Expr,
    Mux,
    Signal,
    Slice,
    Unop,
)

__all__ = ["Backend", "IntBackend", "ScBackend", "BACKENDS"]

_CMP_PY = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_ARITH_PY = {"add": "+", "sub": "-", "mul": "*"}
_BIT_PY = {"and": "&", "or": "|", "xor": "^"}


class Backend:
    """Shared interface: emit expression source and value conversions."""

    name = "abstract"
    preamble: "list[str]" = []

    def __init__(self, signal_ref) -> None:
        """``signal_ref(sig)`` returns the Python lvalue for a signal."""
        self.signal_ref = signal_ref

    # Subclasses implement:
    #   emit(expr) -> source computing the expression value
    #   as_bool(src, expr) -> source for a Python truthy test of a 1-bit value
    #   from_int(src, width) / to_int(src, width) -> conversions
    #   init_value(width, value) -> initialiser source


class IntBackend(Backend):
    """Plain masked integers (HDTLib word level)."""

    name = "hdtlib"
    preamble = ["from repro.hdtlib import ops as _ops"]

    def init_value(self, width: int, value: int) -> str:
        return str(value & ((1 << width) - 1))

    def from_int(self, src: str, width: int) -> str:
        return f"({src}) & {hex((1 << width) - 1)}"

    def to_int(self, src: str, width: int) -> str:
        return src

    def as_bool(self, expr: Expr) -> str:
        return self.emit(expr)

    def emit(self, expr: Expr) -> str:
        mask = (1 << expr.width) - 1
        if isinstance(expr, Signal):
            return self.signal_ref(expr)
        if isinstance(expr, Const):
            return str(expr.value)
        if isinstance(expr, Slice):
            base = self.emit(expr.a)
            if expr.lo == 0 and expr.hi == expr.a.width - 1:
                return base
            return f"(({base} >> {expr.lo}) & {hex(mask)})"
        if isinstance(expr, Concat):
            parts = []
            shift = expr.width
            for part in expr.parts:
                shift -= part.width
                src = self.emit(part)
                parts.append(f"({src} << {shift})" if shift else f"({src})")
            return "(" + " | ".join(parts) + ")"
        if isinstance(expr, Unop):
            a = self.emit(expr.a)
            if expr.op in ("not", "bool_not"):
                return f"({a} ^ {hex((1 << expr.a.width) - 1)})"
            if expr.op == "neg":
                return f"((-({a})) & {hex(mask)})"
            if expr.op == "red_and":
                return f"(1 if {a} == {hex((1 << expr.a.width) - 1)} else 0)"
            if expr.op == "red_or":
                return f"(1 if {a} else 0)"
            if expr.op == "red_xor":
                return f"(bin({a}).count('1') & 1)"
            raise AssertionError(expr.op)
        if isinstance(expr, Binop):
            a, b = self.emit(expr.a), self.emit(expr.b)
            op = expr.op
            if op in _BIT_PY:
                return f"({a} {_BIT_PY[op]} {b})"
            if op in _ARITH_PY:
                return f"(({a} {_ARITH_PY[op]} {b}) & {hex(mask)})"
            if op in _CMP_PY:
                return f"(1 if {a} {_CMP_PY[op]} {b} else 0)"
            if op in ("lt_s", "le_s", "gt_s", "ge_s"):
                return f"_ops.{op}({a}, {b}, {expr.a.width})"
            if op == "shl":
                return f"_ops.shl({a}, {b}, {expr.width})"
            if op == "shr":
                return f"({a} >> {b})"
            if op == "sar":
                return f"_ops.sar({a}, {b}, {expr.width})"
            raise AssertionError(op)
        if isinstance(expr, Mux):
            sel = self.emit(expr.sel)
            return f"({self.emit(expr.a)} if {sel} else {self.emit(expr.b)})"
        if isinstance(expr, ArrayRead):
            idx = self.emit(expr.index)
            arr = self.signal_ref(expr.array)
            if (1 << expr.index.width) <= expr.array.depth:
                return f"{arr}[{idx}]"
            return f"({arr}[_i] if (_i := {idx}) < {expr.array.depth} else 0)"
        raise TypeError(f"cannot emit {expr!r}")


class ScBackend(Backend):
    """SystemC-style logic vectors (a fresh object per operation)."""

    name = "sctypes"
    preamble = ["from repro.sctypes import ScLogicVector as _LV"]

    def init_value(self, width: int, value: int) -> str:
        return f"_LV.from_int({width}, {value})"

    def from_int(self, src: str, width: int) -> str:
        return f"_LV.from_int({width}, {src})"

    def to_int(self, src: str, width: int) -> str:
        return f"({src}).to_int_or(0)"

    def as_bool(self, expr: Expr) -> str:
        return f"({self.emit(expr)}).to_int_or(0)"

    def emit(self, expr: Expr) -> str:
        if isinstance(expr, Signal):
            return self.signal_ref(expr)
        if isinstance(expr, Const):
            return f"_LV.from_int({expr.width}, {expr.value})"
        if isinstance(expr, Slice):
            return f"({self.emit(expr.a)}).slice({expr.hi}, {expr.lo})"
        if isinstance(expr, Concat):
            head = self.emit(expr.parts[0])
            rest = ", ".join(self.emit(p) for p in expr.parts[1:])
            return f"({head}).concat({rest})"
        if isinstance(expr, Unop):
            a = self.emit(expr.a)
            if expr.op in ("not", "bool_not"):
                return f"(~({a}))"
            if expr.op == "neg":
                return f"({a}).neg()"
            if expr.op.startswith("red_"):
                return f"({a}).reduce_{expr.op[4:]}()"
            raise AssertionError(expr.op)
        if isinstance(expr, Binop):
            a, b = self.emit(expr.a), self.emit(expr.b)
            op = expr.op
            if op in _BIT_PY:
                return f"(({a}) {_BIT_PY[op]} ({b}))"
            if op in _ARITH_PY:
                return f"(({a}) {_ARITH_PY[op]} ({b}))"
            if op in _CMP_PY:
                return f"({a}).{op}({b})"
            if op in ("lt_s", "le_s", "gt_s", "ge_s"):
                return f"({a}).{op[:2]}({b}, signed=True)"
            if op == "shl":
                return f"({a}).shl(({b}).to_int_or(0))"
            if op == "shr":
                return f"({a}).shr(({b}).to_int_or(0))"
            if op == "sar":
                return f"({a}).sar(({b}).to_int_or(0))"
            raise AssertionError(op)
        if isinstance(expr, Mux):
            sel = f"({self.emit(expr.sel)}).to_int_or(0)"
            return f"(({self.emit(expr.a)}) if {sel} else ({self.emit(expr.b)}))"
        if isinstance(expr, ArrayRead):
            idx = f"({self.emit(expr.index)}).to_int_or(0)"
            arr = self.signal_ref(expr.array)
            if (1 << expr.index.width) <= expr.array.depth:
                return f"{arr}[{idx}]"
            return (
                f"({arr}[_i] if (_i := {idx}) < {expr.array.depth} "
                f"else _LV.from_int({expr.width}, 0))"
            )
        raise TypeError(f"cannot emit {expr!r}")


BACKENDS = {"sctypes": ScBackend, "hdtlib": IntBackend}
