"""Tests for the two data-type libraries (sctypes and hdtlib) and the
cross-library equivalence properties that justify the data-type
abstraction step (paper Section 5.3)."""

import pytest
from hypothesis import given, strategies as st

from repro.hdtlib import ops
from repro.rtl.types import LV
from repro.sctypes import ScLogicVector


# ----------------------------------------------------------------------
# sctypes
# ----------------------------------------------------------------------

class TestScLogicVector:
    def test_roundtrip_str(self):
        assert str(ScLogicVector.from_str("10XZ")) == "10XZ"

    def test_from_to_lv(self):
        lv = LV.from_str("1X0Z")
        assert ScLogicVector.from_lv(lv).to_lv() == lv

    def test_and_matches_lv(self):
        a, b = "110X", "1010"
        got = ScLogicVector.from_str(a) & ScLogicVector.from_str(b)
        assert str(got) == str(LV.from_str(a) & LV.from_str(b))

    def test_arith_contaminates(self):
        a = ScLogicVector.from_str("1X")
        b = ScLogicVector.from_int(2, 1)
        assert str(a + b) == "XX"

    def test_shifts(self):
        v = ScLogicVector.from_int(8, 0b1001)
        assert (v.shl(2)).to_int() == 0b100100
        assert (v.shr(3)).to_int() == 0b1
        s = ScLogicVector.from_int(4, 0b1000)
        assert s.sar(2).to_int() == 0b1110

    def test_compare(self):
        a = ScLogicVector.from_int(4, 0xF)
        b = ScLogicVector.from_int(4, 1)
        assert a.gt(b) == 1
        assert a.lt(b, signed=True) == 1

    def test_slice_concat(self):
        v = ScLogicVector.from_int(8, 0xA5)
        assert v.slice(7, 4).to_int() == 0xA
        assert v.slice(7, 4).concat(v.slice(3, 0)).to_int() == 0xA5

    def test_reductions(self):
        assert ScLogicVector.from_int(3, 0b111).reduce_and() == 1
        assert ScLogicVector.from_int(3, 0b000).reduce_or() == 0
        assert ScLogicVector.from_int(3, 0b101).reduce_xor() == 0

    def test_resize(self):
        v = ScLogicVector.from_int(4, 0b1000)
        assert v.resize(8, signed=True).to_int() == 0xF8
        assert v.resize(8).to_int() == 0x08
        assert v.resize(2).to_int() == 0b00

    def test_to_int_or(self):
        assert ScLogicVector.from_str("1X").to_int_or(0) == 0b10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScLogicVector([])


# ----------------------------------------------------------------------
# hdtlib
# ----------------------------------------------------------------------

class TestOps:
    def test_mask(self):
        assert ops.mask(8) == 0xFF

    def test_arith(self):
        assert ops.add(250, 10, 8) == 4

    def test_signed(self):
        assert ops.to_signed(0xFF, 8) == -1
        assert ops.lt_s(0xFF, 1, 8) == 1
        assert ops.ge_s(1, 0xFF, 8) == 1

    def test_shifts(self):
        assert ops.shl(1, 10, 8) == 0
        assert ops.sar(0x80, 4, 8) == 0xF8
        assert ops.sar(0x80, 100, 8) == 0xFF


# ----------------------------------------------------------------------
# Cross-library equivalence properties
# ----------------------------------------------------------------------

logic_text = st.text(alphabet="01XZ", min_size=1, max_size=24)


@given(logic_text, logic_text)
def test_prop_sctypes_matches_lv_bitwise(a, b):
    """ScLogicVector (table-driven) == LV (plane-driven) on all ops."""
    if len(a) != len(b):
        b = (b * len(a))[: len(a)]
    la, lb = LV.from_str(a), LV.from_str(b)
    sa, sb = ScLogicVector.from_str(a), ScLogicVector.from_str(b)
    assert str(sa & sb) == str(la & lb)
    assert str(sa | sb) == str(la | lb)
    assert str(sa ^ sb) == str(la ^ lb)
    assert str(~sa) == str(~la)


@given(logic_text)
def test_prop_xz_fold_is_stable(text):
    """Folding X/Z->0 (the hdtlib abstraction) keeps exactly the
    defined one bits, and LV and ScLogicVector agree on it."""
    lv = LV.from_str(text)
    as_int = lv.value & ~lv.unk
    assert as_int == lv.to_int_or(0)
    assert ScLogicVector.from_lv(lv).to_int_or(0) == as_int


@given(st.integers(1, 48), st.data())
def test_prop_defined_vectors_agree_everywhere(width, data):
    """On fully-defined data, LV, ScLogicVector and raw ops all compute
    identical arithmetic."""
    a = data.draw(st.integers(0, (1 << width) - 1))
    b = data.draw(st.integers(0, (1 << width) - 1))
    expected = (a + b) & ((1 << width) - 1)
    assert (LV.from_int(width, a) + LV.from_int(width, b)).to_int() == expected
    assert (
        ScLogicVector.from_int(width, a) + ScLogicVector.from_int(width, b)
    ).to_int() == expected
    assert ops.add(a, b, width) == expected


# The hdtlib calls generated models make (``IntBackend``) against LV.

@given(st.integers(1, 48), st.data())
def test_prop_shift_agreement(width, data):
    value = data.draw(st.integers(0, (1 << width) - 1))
    n = data.draw(st.integers(0, width + 4))
    lv = LV.from_int(width, value)
    assert ops.shl(value, n, width) == lv.shl(n).to_int()
    assert ops.sar(value, n, width) == lv.sar(n).to_int()


@given(st.integers(1, 48), st.data())
def test_prop_signed_compare_agreement(width, data):
    a = data.draw(st.integers(0, (1 << width) - 1))
    b = data.draw(st.integers(0, (1 << width) - 1))
    la, lb = LV.from_int(width, a), LV.from_int(width, b)
    assert ops.lt_s(a, b, width) == la.lt(lb, signed=True).to_int()
    assert ops.le_s(a, b, width) == la.le(lb, signed=True).to_int()
    assert ops.gt_s(a, b, width) == la.gt(lb, signed=True).to_int()
    assert ops.ge_s(a, b, width) == la.ge(lb, signed=True).to_int()
