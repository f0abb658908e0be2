"""Ergonomic helpers for constructing IR expressions.

These are thin constructors that keep IP descriptions close to how the
equivalent VHDL reads: ``mux``, ``cat``, ``resize``, reductions, and
small adapters between ints and constants.
"""

from __future__ import annotations

from .ir import (
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

__all__ = [
    "const",
    "mux",
    "cat",
    "resize",
    "zero_extend",
    "sign_extend",
    "truncate",
    "red_and",
    "red_or",
    "red_xor",
    "array_read",
    "sar",
    "b_not",
]


def const(value: int, width: int) -> Const:
    """A literal of explicit width."""
    return Const(value, width)


def mux(sel: Expr, if_true: "Expr | int", if_false: "Expr | int") -> Mux:
    """``sel ? if_true : if_false``; ints adapt to the other arm's width."""
    if isinstance(if_true, int) and isinstance(if_false, int):
        raise TypeError("at least one mux arm must be an expression")
    if isinstance(if_true, int):
        if_true = Const(if_true, if_false.width)
    if isinstance(if_false, int):
        if_false = Const(if_false, if_true.width)
    return Mux(sel, if_true, if_false)


def cat(*parts: Expr) -> Expr:
    """Concatenate, most significant part first."""
    if len(parts) == 1:
        return parts[0]
    return Concat(*parts)


def zero_extend(expr: Expr, width: int) -> Expr:
    if width < expr.width:
        raise ValueError("zero_extend target narrower than operand")
    if width == expr.width:
        return expr
    return Concat(Const(0, width - expr.width), expr)


def sign_extend(expr: Expr, width: int) -> Expr:
    if width < expr.width:
        raise ValueError("sign_extend target narrower than operand")
    if width == expr.width:
        return expr
    extra = width - expr.width
    sign = expr[expr.width - 1]
    fill = mux(sign, Const((1 << extra) - 1, extra), Const(0, extra))
    return Concat(fill, expr)


def truncate(expr: Expr, width: int) -> Expr:
    if width > expr.width:
        raise ValueError("truncate target wider than operand")
    if width == expr.width:
        return expr
    return Slice(expr, width - 1, 0)


def resize(expr: Expr, width: int, signed: bool = False) -> Expr:
    """Resize to ``width``: truncate or zero-/sign-extend as needed."""
    if width == expr.width:
        return expr
    if width < expr.width:
        return truncate(expr, width)
    return sign_extend(expr, width) if signed else zero_extend(expr, width)


def red_and(expr: Expr) -> Unop:
    return Unop("red_and", expr)


def red_or(expr: Expr) -> Unop:
    return Unop("red_or", expr)


def red_xor(expr: Expr) -> Unop:
    return Unop("red_xor", expr)


def b_not(expr: Expr) -> Unop:
    """1-bit boolean negation."""
    return Unop("bool_not", expr)


def array_read(array, index: Expr) -> ArrayRead:
    return ArrayRead(array, index)


def sar(a: Expr, amount: "Expr | int") -> Binop:
    """Arithmetic shift right."""
    if isinstance(amount, int):
        bits = max(1, (a.width - 1).bit_length() + 1)
        amount = Const(amount, bits)
    return Binop("sar", a, amount)
