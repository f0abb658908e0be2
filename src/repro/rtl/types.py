"""Four-valued logic scalars and vectors for RTL simulation.

The RTL substrate models HDL ``std_logic``-style values with the four
states that matter for gate-level semantics:

* ``0`` / ``1`` -- strong driven values,
* ``X``        -- unknown (conflict, uninitialised, contaminated),
* ``Z``        -- high impedance (undriven).

Vectors are stored as *two integer planes* (the classic two-bit
encoding used by HDL simulators):

===== ======= =======
state  value    unk
===== ======= =======
``0``    0        0
``1``    1        0
``X``    0        1
``Z``    1        1
===== ======= =======

All bitwise operations are implemented as word-parallel boolean
equations on the planes (the "Karnaugh map" formulation the paper's
HDTLib uses) rather than per-bit table lookups, which keeps even the
accurate four-valued layer tractable in pure Python.

Arithmetic and comparisons follow conservative HDL semantics: any
unknown bit in an operand contaminates the whole result (all-``X``).
"""

from __future__ import annotations

__all__ = [
    "Logic",
    "L0",
    "L1",
    "LX",
    "LZ",
    "LV",
    "ONEBIT",
    "resolve",
]


class Logic:
    """A single four-valued logic state.

    Instances are interned: exactly four objects exist (:data:`L0`,
    :data:`L1`, :data:`LX`, :data:`LZ`).  Equality is identity.
    """

    __slots__ = ("value", "unk", "char")
    _interned: dict[tuple[int, int], "Logic"] = {}

    def __new__(cls, value: int, unk: int, char: str) -> "Logic":
        key = (value, unk)
        if key in cls._interned:
            return cls._interned[key]
        obj = super().__new__(cls)
        object.__setattr__(obj, "value", value)
        object.__setattr__(obj, "unk", unk)
        object.__setattr__(obj, "char", char)
        cls._interned[key] = obj
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Logic values are immutable")

    @property
    def is_known(self) -> bool:
        """True for ``0``/``1``, False for ``X``/``Z``."""
        return not self.unk

    def __repr__(self) -> str:
        return f"Logic('{self.char}')"

    def __str__(self) -> str:
        return self.char

    @staticmethod
    def from_char(char: str) -> "Logic":
        """Parse a single character (``0 1 x X z Z``)."""
        try:
            return _CHAR_TO_LOGIC[char.upper()]
        except KeyError:
            raise ValueError(f"not a logic character: {char!r}") from None


L0 = Logic(0, 0, "0")
L1 = Logic(1, 0, "1")
LX = Logic(0, 1, "X")
LZ = Logic(1, 1, "Z")

_CHAR_TO_LOGIC = {"0": L0, "1": L1, "X": LX, "Z": LZ}


def resolve(a: Logic, b: Logic) -> Logic:
    """Resolution function for two drivers of the same net.

    Mirrors the ``std_logic`` resolution table restricted to four
    states: ``Z`` yields to anything, equal strong values agree, and
    conflicting strong values (or any ``X``) resolve to ``X``.
    """
    if a is LZ:
        return b
    if b is LZ:
        return a
    if a is b and a.is_known:
        return a
    return LX


def _mask(width: int) -> int:
    return (1 << width) - 1


class LV:
    """An immutable four-valued logic vector of fixed width.

    The two planes are plain Python integers, so vectors of any width
    are supported and word-parallel plane equations give bitwise
    operations in O(width / machine-word).

    Bit 0 is the least significant bit.  ``X``/``Z`` handling:

    * bitwise ops propagate unknowns per bit with dominance rules
      (``0 & X == 0``, ``1 | X == 1``, otherwise ``X``);
    * arithmetic, shifts by unknown amounts and comparisons return
      all-``X`` / ``X`` when any participating bit is unknown;
    * ``Z`` behaves as ``X`` inside every operator (only
      :func:`resolve` distinguishes them).
    """

    __slots__ = ("width", "value", "unk")

    def __init__(self, width: int, value: int = 0, unk: int = 0) -> None:
        if width <= 0:
            raise ValueError(f"LV width must be positive, got {width}")
        m = _mask(width)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "value", value & m)
        object.__setattr__(self, "unk", unk & m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LV values are immutable")

    # An immutable value is its own copy (the default slot-by-slot copy
    # would trip the ``__setattr__`` guard above).
    def __copy__(self) -> "LV":
        return self

    def __deepcopy__(self, memo) -> "LV":
        return self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_int(width: int, value: int) -> "LV":
        """Build a fully-defined vector from a Python int (two's complement
        wrap for negatives)."""
        if width == 1:
            return ONEBIT[(value & 1) << 1]
        return LV(width, value & _mask(width), 0)

    @staticmethod
    def from_str(text: str) -> "LV":
        """Parse a vector literal such as ``"01XZ10"`` (MSB first)."""
        if not text:
            raise ValueError("empty vector literal")
        value = 0
        unk = 0
        for char in text:
            logic = Logic.from_char(char)
            value = (value << 1) | logic.value
            unk = (unk << 1) | logic.unk
        return LV(len(text), value, unk)

    @staticmethod
    def all_x(width: int) -> "LV":
        """A vector with every bit unknown."""
        if width == 1:
            return ONEBIT[1]  # X
        m = _mask(width)
        return LV(width, 0, m)

    @staticmethod
    def zeros(width: int) -> "LV":
        return LV(width, 0, 0)

    @staticmethod
    def ones(width: int) -> "LV":
        return LV(width, _mask(width), 0)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def is_fully_defined(self) -> bool:
        """True when no bit is ``X`` or ``Z``."""
        return self.unk == 0

    def to_int(self) -> int:
        """Unsigned integer value; raises ``ValueError`` on unknown bits."""
        if self.unk:
            raise ValueError(f"vector has unknown bits: {self}")
        return self.value

    def to_int_signed(self) -> int:
        """Two's-complement signed value; raises on unknown bits."""
        raw = self.to_int()
        sign_bit = 1 << (self.width - 1)
        return raw - (1 << self.width) if raw & sign_bit else raw

    def to_int_or(self, default: int = 0) -> int:
        """Unsigned integer value with unknown bits folded to ``default``'s
        bits (the hdtlib X/Z -> 0 abstraction when ``default`` is 0)."""
        if not self.unk:
            return self.value
        return (self.value & ~self.unk) | (default & self.unk)

    def bit(self, index: int) -> Logic:
        """The :class:`Logic` state of a single bit position."""
        if not 0 <= index < self.width:
            raise IndexError(f"bit {index} out of range for width {self.width}")
        v = (self.value >> index) & 1
        u = (self.unk >> index) & 1
        return Logic._interned[(v, u)]

    def __len__(self) -> int:
        return self.width

    def __str__(self) -> str:
        chars = [self.bit(i).char for i in reversed(range(self.width))]
        return "".join(chars)

    def __repr__(self) -> str:
        return f"LV({self.width}, '{self}')"

    def __eq__(self, other: object) -> bool:
        """Structural equality (same width, same per-bit states).

        Note this is *Python* equality used by containers and tests;
        HDL-semantics comparison (returning ``X`` when unknown) is
        :meth:`eq`.
        """
        if isinstance(other, LV):
            return (
                self.width == other.width
                and self.value == other.value
                and self.unk == other.unk
            )
        if isinstance(other, int):
            return self.unk == 0 and self.value == other & _mask(self.width)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        # Identity fast path: interned 1-bit values make the kernel's
        # hot "did this signal change" checks an ``is`` comparison.
        if self is other:
            return False
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self.width, self.value, self.unk))

    # ------------------------------------------------------------------
    # Plane helpers
    # ------------------------------------------------------------------

    def _planes(self) -> tuple[int, int, int]:
        """Return ``(is_one, is_zero, is_unknown)`` planes with ``Z``
        folded into unknown."""
        m = _mask(self.width)
        unk = self.unk
        one = self.value & ~unk & m
        zero = ~self.value & ~unk & m
        return one, zero, unk

    def _require_same_width(self, other: "LV") -> None:
        if self.width != other.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width}"
            )

    # ------------------------------------------------------------------
    # Bitwise operations (word-parallel plane equations)
    # ------------------------------------------------------------------

    def __and__(self, other: "LV") -> "LV":
        self._require_same_width(other)
        a1, a0, _ = self._planes()
        b1, b0, _ = other._planes()
        m = _mask(self.width)
        res1 = a1 & b1
        res0 = (a0 | b0) & m
        res_unk = ~(res1 | res0) & m
        return LV(self.width, res1, res_unk)

    def __or__(self, other: "LV") -> "LV":
        self._require_same_width(other)
        a1, a0, _ = self._planes()
        b1, b0, _ = other._planes()
        m = _mask(self.width)
        res1 = (a1 | b1) & m
        res0 = a0 & b0
        res_unk = ~(res1 | res0) & m
        return LV(self.width, res1, res_unk)

    def __xor__(self, other: "LV") -> "LV":
        self._require_same_width(other)
        a1, a0, au = self._planes()
        b1, b0, bu = other._planes()
        m = _mask(self.width)
        res_unk = (au | bu) & m
        res1 = ((a1 & b0) | (a0 & b1)) & ~res_unk & m
        return LV(self.width, res1, res_unk)

    def __invert__(self) -> "LV":
        one, zero, unk = self._planes()
        return LV(self.width, zero, unk)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def reduce_and(self) -> "LV":
        """AND of all bits (1-bit result, ``X`` if undetermined)."""
        one, zero, unk = self._planes()
        m = _mask(self.width)
        if zero:  # any hard 0 dominates
            return ONEBIT[0]
        if one == m:
            return ONEBIT[2]
        return ONEBIT[1]

    def reduce_or(self) -> "LV":
        """OR of all bits (1-bit result, ``X`` if undetermined)."""
        one, zero, unk = self._planes()
        m = _mask(self.width)
        if one:  # any hard 1 dominates
            return ONEBIT[2]
        if zero == m:
            return ONEBIT[0]
        return ONEBIT[1]

    def reduce_xor(self) -> "LV":
        """XOR of all bits (1-bit result, ``X`` if any bit unknown)."""
        if self.unk:
            return ONEBIT[1]
        return ONEBIT[(bin(self.value).count("1") & 1) << 1]

    # ------------------------------------------------------------------
    # Arithmetic (contaminating semantics)
    # ------------------------------------------------------------------

    def _arith(self, other: "LV", op) -> "LV":
        self._require_same_width(other)
        if self.unk or other.unk:
            return LV.all_x(self.width)
        return LV(self.width, op(self.value, other.value) & _mask(self.width), 0)

    def __add__(self, other: "LV") -> "LV":
        return self._arith(other, lambda a, b: a + b)

    def __sub__(self, other: "LV") -> "LV":
        return self._arith(other, lambda a, b: a - b)

    def __mul__(self, other: "LV") -> "LV":
        return self._arith(other, lambda a, b: a * b)

    def neg(self) -> "LV":
        """Two's complement negation."""
        if self.unk:
            return LV.all_x(self.width)
        return LV(self.width, (-self.value) & _mask(self.width), 0)

    # ------------------------------------------------------------------
    # Shifts
    # ------------------------------------------------------------------

    def shl(self, amount: "LV | int") -> "LV":
        """Logical shift left; unknown shift amount contaminates."""
        n = self._shift_amount(amount)
        if n is None or self.unk:
            return LV.all_x(self.width) if n is None else LV(
                self.width, self.value << n, self.unk << n
            )
        return LV(self.width, self.value << n, self.unk << n)

    def shr(self, amount: "LV | int") -> "LV":
        """Logical shift right."""
        n = self._shift_amount(amount)
        if n is None:
            return LV.all_x(self.width)
        return LV(self.width, self.value >> n, self.unk >> n)

    def sar(self, amount: "LV | int") -> "LV":
        """Arithmetic (sign-extending) shift right."""
        n = self._shift_amount(amount)
        if n is None:
            return LV.all_x(self.width)
        if n >= self.width:
            n = self.width - 1
        sign_v = (self.value >> (self.width - 1)) & 1
        sign_u = (self.unk >> (self.width - 1)) & 1
        m = _mask(self.width)
        fill = (m >> (self.width - n) << (self.width - n)) if n else 0
        value = (self.value >> n) | (fill if sign_v else 0)
        unk = (self.unk >> n) | (fill if sign_u else 0)
        return LV(self.width, value, unk)

    def _shift_amount(self, amount: "LV | int") -> int | None:
        if isinstance(amount, LV):
            if amount.unk:
                return None
            amount = amount.value
        if amount < 0:
            raise ValueError("negative shift amount")
        return min(amount, self.width + 1)

    # ------------------------------------------------------------------
    # Comparisons (HDL semantics: 1-bit result, X when unknown)
    # ------------------------------------------------------------------

    def _compare(self, other: "LV", op, signed: bool = False) -> "LV":
        self._require_same_width(other)
        if self.unk or other.unk:
            return ONEBIT[1]
        if signed:
            a, b = self.to_int_signed(), other.to_int_signed()
        else:
            a, b = self.value, other.value
        return ONEBIT[2 if op(a, b) else 0]

    def eq(self, other: "LV") -> "LV":
        return self._compare(other, lambda a, b: a == b)

    def ne(self, other: "LV") -> "LV":
        return self._compare(other, lambda a, b: a != b)

    def lt(self, other: "LV", signed: bool = False) -> "LV":
        return self._compare(other, lambda a, b: a < b, signed)

    def le(self, other: "LV", signed: bool = False) -> "LV":
        return self._compare(other, lambda a, b: a <= b, signed)

    def gt(self, other: "LV", signed: bool = False) -> "LV":
        return self._compare(other, lambda a, b: a > b, signed)

    def ge(self, other: "LV", signed: bool = False) -> "LV":
        return self._compare(other, lambda a, b: a >= b, signed)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def slice(self, hi: int, lo: int) -> "LV":
        """Bits ``hi`` down to ``lo`` inclusive (HDL ``sig[hi:lo]``)."""
        if not (0 <= lo <= hi < self.width):
            raise IndexError(
                f"slice [{hi}:{lo}] out of range for width {self.width}"
            )
        w = hi - lo + 1
        return LV(w, self.value >> lo, self.unk >> lo)

    def concat(self, *others: "LV") -> "LV":
        """Concatenate with ``self`` as the most significant part."""
        width = self.width
        value = self.value
        unk = self.unk
        for other in others:
            width += other.width
            value = (value << other.width) | other.value
            unk = (unk << other.width) | other.unk
        return LV(width, value, unk)

    def resize(self, width: int, signed: bool = False) -> "LV":
        """Zero- or sign-extend / truncate to ``width`` bits."""
        if width == self.width:
            return self
        if width < self.width:
            return LV(width, self.value, self.unk)
        extra = width - self.width
        if not signed:
            return LV(width, self.value, self.unk)
        sign_v = (self.value >> (self.width - 1)) & 1
        sign_u = (self.unk >> (self.width - 1)) & 1
        fill = _mask(extra) << self.width
        value = self.value | (fill if sign_v else 0)
        unk = self.unk | (fill if sign_u else 0)
        return LV(width, value, unk)

    def replaced_slice(self, hi: int, lo: int, part: "LV") -> "LV":
        """A copy with bits ``hi..lo`` replaced by ``part``."""
        if part.width != hi - lo + 1:
            raise ValueError("slice replacement width mismatch")
        if not (0 <= lo <= hi < self.width):
            raise IndexError(
                f"slice [{hi}:{lo}] out of range for width {self.width}"
            )
        hole = _mask(hi - lo + 1) << lo
        value = (self.value & ~hole) | (part.value << lo)
        unk = (self.unk & ~hole) | (part.unk << lo)
        return LV(self.width, value, unk)


def lv_raw(
    width: int,
    value: int,
    unk: int,
    _new=object.__new__,
    _set=object.__setattr__,
) -> "LV":
    """Construct an ``LV`` from already-masked planes, bypassing the
    re-masking and width validation of ``__init__``.  Internal fast
    path for the process compiler's commit sites, which maintain the
    plane invariants themselves."""
    lv = _new(LV)
    _set(lv, "width", width)
    _set(lv, "value", value)
    _set(lv, "unk", unk)
    return lv


#: Interned 1-bit vectors, indexed by ``(value << 1) | unk``:
#: ``0 -> '0'``, ``1 -> 'X'``, ``2 -> '1'``, ``3 -> 'Z'``.  One-bit
#: values (clock phases, enables, flags, comparison results) dominate
#: the kernel's allocation profile, and ``LV`` equality is structural,
#: so sharing the four instances is safe and turns most hot-path
#: ``!=`` checks into identity checks that fail fast.
ONEBIT: "tuple[LV, LV, LV, LV]" = (
    LV(1, 0, 0),
    LV(1, 0, 1),
    LV(1, 1, 0),
    LV(1, 1, 1),
)
