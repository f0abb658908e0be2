"""Word-level primitives on plain integers.

These free functions are the hot layer of HDTLib: every operation is a
handful of native integer instructions.  The optimised TLM code
generator inlines most operations as integer expressions and emits
calls to the shifts and signed compares below, which is where the
Table 4 speedup over the SystemC-style types comes from.

All functions take and return unsigned integers already confined to
``width`` bits; ``mask`` is the only helper that needs the width
explicitly at runtime.
"""

from __future__ import annotations

__all__ = [
    "mask", "to_signed", "add",
    "shl", "sar",
    "lt_s", "le_s", "gt_s", "ge_s",
]


def mask(width: int) -> int:
    """All-ones mask for ``width`` bits."""
    return (1 << width) - 1


def to_signed(a: int, width: int) -> int:
    """Interpret ``a`` as a two's-complement ``width``-bit value."""
    return a - (1 << width) if a >> (width - 1) else a


def add(a: int, b: int, width: int) -> int:
    return (a + b) & mask(width)


def shl(a: int, n: int, width: int) -> int:
    if n >= width:
        return 0
    return (a << n) & mask(width)


def sar(a: int, n: int, width: int) -> int:
    if n >= width:
        n = width - 1
    if a >> (width - 1):
        m = mask(width)
        return ((a >> n) | (m >> (width - n) << (width - n))) & m
    return a >> n


def lt_s(a: int, b: int, width: int) -> int:
    return 1 if to_signed(a, width) < to_signed(b, width) else 0


def le_s(a: int, b: int, width: int) -> int:
    return 1 if to_signed(a, width) <= to_signed(b, width) else 0


def gt_s(a: int, b: int, width: int) -> int:
    return 1 if to_signed(a, width) > to_signed(b, width) else 0


def ge_s(a: int, b: int, width: int) -> int:
    return 1 if to_signed(a, width) >= to_signed(b, width) else 0
