"""Unit and property tests for four-valued logic scalars and vectors."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.rtl.types import L0, L1, LX, LZ, LV, Logic, resolve


# ----------------------------------------------------------------------
# Logic scalars
# ----------------------------------------------------------------------

class TestLogic:
    def test_interning(self):
        assert Logic(0, 0, "0") is L0
        assert Logic(1, 0, "1") is L1
        assert Logic(0, 1, "X") is LX
        assert Logic(1, 1, "Z") is LZ

    def test_from_char(self):
        assert Logic.from_char("0") is L0
        assert Logic.from_char("1") is L1
        assert Logic.from_char("x") is LX
        assert Logic.from_char("Z") is LZ

    def test_from_char_rejects_garbage(self):
        with pytest.raises(ValueError):
            Logic.from_char("q")

    def test_is_known(self):
        assert L0.is_known and L1.is_known
        assert not LX.is_known and not LZ.is_known

    def test_immutable(self):
        with pytest.raises(AttributeError):
            L0.value = 1

    def test_str(self):
        assert str(L0) == "0"
        assert str(LZ) == "Z"


class TestResolve:
    def test_z_yields(self):
        assert resolve(LZ, L1) is L1
        assert resolve(L0, LZ) is L0
        assert resolve(LZ, LZ) is LZ

    def test_agreement(self):
        assert resolve(L0, L0) is L0
        assert resolve(L1, L1) is L1

    def test_conflict_is_x(self):
        assert resolve(L0, L1) is LX
        assert resolve(L1, L0) is LX

    def test_x_dominates(self):
        assert resolve(LX, L1) is LX
        assert resolve(L0, LX) is LX

    def test_commutative(self):
        for a in (L0, L1, LX, LZ):
            for b in (L0, L1, LX, LZ):
                assert resolve(a, b) is resolve(b, a)


# ----------------------------------------------------------------------
# Vector construction
# ----------------------------------------------------------------------

class TestLVConstruction:
    def test_from_int(self):
        v = LV.from_int(8, 0xA5)
        assert v.to_int() == 0xA5
        assert v.is_fully_defined

    def test_from_int_wraps_negative(self):
        assert LV.from_int(8, -1).to_int() == 0xFF

    def test_from_int_masks(self):
        assert LV.from_int(4, 0x1F).to_int() == 0xF

    def test_from_str(self):
        v = LV.from_str("10XZ")
        assert v.width == 4
        assert str(v) == "10XZ"

    def test_from_str_empty_rejected(self):
        with pytest.raises(ValueError):
            LV.from_str("")

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            LV(0)

    def test_all_x(self):
        v = LV.all_x(4)
        assert str(v) == "XXXX"
        assert not v.is_fully_defined

    def test_zeros_ones(self):
        assert LV.zeros(4).to_int() == 0
        assert LV.ones(4).to_int() == 0xF

    def test_immutable(self):
        v = LV.from_int(4, 3)
        with pytest.raises(AttributeError):
            v.value = 5

    def test_to_int_raises_on_unknown(self):
        with pytest.raises(ValueError):
            LV.from_str("1X").to_int()

    def test_to_int_or_folds_unknowns(self):
        assert LV.from_str("1X0Z").to_int_or(0) == 0b1000
        assert LV.from_str("1X0Z").to_int_or(0b1111) == 0b1101

    def test_to_int_signed(self):
        assert LV.from_int(4, 0b1111).to_int_signed() == -1
        assert LV.from_int(4, 0b0111).to_int_signed() == 7

    def test_bit(self):
        v = LV.from_str("1X0Z")
        assert v.bit(0) is LZ
        assert v.bit(1) is L0
        assert v.bit(2) is LX
        assert v.bit(3) is L1

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            LV.from_int(4, 0).bit(4)

    def test_eq_with_int(self):
        assert LV.from_int(8, 5) == 5
        assert LV.from_str("0X") != 1

    def test_hashable(self):
        assert len({LV.from_int(4, 1), LV.from_int(4, 1)}) == 1

    def test_copies_are_the_value_itself(self):
        v = LV.from_str("1X0Z")
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        assert copy.deepcopy({"prev": [v]})["prev"][0] is v


# ----------------------------------------------------------------------
# Bitwise plane equations
# ----------------------------------------------------------------------

class TestBitwise:
    def test_and_known(self):
        a, b = LV.from_int(4, 0b1100), LV.from_int(4, 0b1010)
        assert (a & b).to_int() == 0b1000

    def test_and_zero_dominates_x(self):
        assert str(LV.from_str("0X") & LV.from_str("XX")) == "0X"

    def test_or_one_dominates_x(self):
        assert str(LV.from_str("1X") | LV.from_str("XX")) == "1X"

    def test_xor_contaminates_per_bit(self):
        assert str(LV.from_str("1X10") ^ LV.from_str("1111")) == "0X01"

    def test_z_behaves_as_x_in_ops(self):
        assert str(LV.from_str("Z") & LV.from_str("1")) == "X"
        assert str(LV.from_str("Z") & LV.from_str("0")) == "0"

    def test_invert(self):
        assert str(~LV.from_str("10XZ")) == "01XX"

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LV.from_int(4, 0) & LV.from_int(5, 0)


class TestReductions:
    def test_reduce_and(self):
        assert LV.from_int(3, 0b111).reduce_and() == 1
        assert LV.from_int(3, 0b101).reduce_and() == 0
        assert str(LV.from_str("1X1").reduce_and()) == "X"
        assert LV.from_str("0X1").reduce_and() == 0  # hard zero dominates

    def test_reduce_or(self):
        assert LV.from_int(3, 0).reduce_or() == 0
        assert LV.from_int(3, 0b010).reduce_or() == 1
        assert str(LV.from_str("0X0").reduce_or()) == "X"
        assert LV.from_str("1X0").reduce_or() == 1  # hard one dominates

    def test_reduce_xor(self):
        assert LV.from_int(4, 0b1011).reduce_xor() == 1
        assert LV.from_int(4, 0b1001).reduce_xor() == 0
        assert str(LV.from_str("1X").reduce_xor()) == "X"


class TestArithmetic:
    def test_add(self):
        assert (LV.from_int(8, 200) + LV.from_int(8, 100)).to_int() == 44

    def test_sub_wraps(self):
        assert (LV.from_int(8, 5) - LV.from_int(8, 10)).to_int() == 251

    def test_mul_masks(self):
        assert (LV.from_int(4, 9) * LV.from_int(4, 9)).to_int() == 81 & 0xF

    def test_unknown_contaminates(self):
        assert str(LV.from_str("1X") + LV.from_int(2, 1)) == "XX"

    def test_neg(self):
        assert LV.from_int(4, 3).neg().to_int() == 13
        assert str(LV.from_str("0X0Z").neg()) == "XXXX"


class TestShifts:
    def test_shl(self):
        assert LV.from_int(8, 0b11).shl(2).to_int() == 0b1100

    def test_shl_overflow_drops(self):
        assert LV.from_int(4, 0b1001).shl(1).to_int() == 0b0010

    def test_shr(self):
        assert LV.from_int(8, 0b1100).shr(2).to_int() == 0b11

    def test_sar_negative(self):
        assert LV.from_int(4, 0b1000).sar(1).to_int() == 0b1100
        assert LV.from_int(4, 0b1000).sar(5).to_int() == 0b1111

    def test_sar_positive(self):
        assert LV.from_int(4, 0b0100).sar(2).to_int() == 0b0001

    def test_shift_by_lv(self):
        assert LV.from_int(8, 1).shl(LV.from_int(3, 3)).to_int() == 8

    def test_unknown_amount_contaminates(self):
        assert str(LV.from_int(2, 1).shl(LV.from_str("X"))) == "XX"

    def test_huge_shift_clears(self):
        assert LV.from_int(8, 0xFF).shr(100).to_int() == 0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            LV.from_int(4, 1).shl(-1)

    def test_shift_preserves_x_positions(self):
        assert str(LV.from_str("0X01").shl(1)) == "X010"


class TestComparisons:
    def test_eq_ne(self):
        a = LV.from_int(4, 5)
        assert a.eq(LV.from_int(4, 5)) == 1
        assert a.ne(LV.from_int(4, 5)) == 0
        assert a.eq(LV.from_int(4, 6)) == 0

    def test_unsigned_ordering(self):
        a, b = LV.from_int(4, 0xF), LV.from_int(4, 1)
        assert a.gt(b) == 1
        assert a.lt(b) == 0

    def test_signed_ordering(self):
        a, b = LV.from_int(4, 0xF), LV.from_int(4, 1)  # -1 vs 1
        assert a.lt(b, signed=True) == 1
        assert a.ge(b, signed=True) == 0

    def test_unknown_compare_is_x(self):
        assert str(LV.from_str("1X").eq(LV.from_int(2, 2))) == "X"


class TestStructure:
    def test_slice(self):
        v = LV.from_int(8, 0b10110100)
        assert v.slice(5, 2).to_int() == 0b1101

    def test_slice_bounds(self):
        with pytest.raises(IndexError):
            LV.from_int(4, 0).slice(4, 0)

    def test_concat(self):
        v = LV.from_int(4, 0xA).concat(LV.from_int(4, 0x5))
        assert v.width == 8
        assert v.to_int() == 0xA5

    def test_concat_preserves_unknowns(self):
        assert str(LV.from_str("1X").concat(LV.from_str("Z0"))) == "1XZ0"

    def test_resize_zero_extend(self):
        assert LV.from_int(4, 0xF).resize(8).to_int() == 0x0F

    def test_resize_sign_extend(self):
        assert LV.from_int(4, 0x8).resize(8, signed=True).to_int() == 0xF8
        assert LV.from_int(4, 0x7).resize(8, signed=True).to_int() == 0x07

    def test_resize_truncate(self):
        assert LV.from_int(8, 0xAB).resize(4).to_int() == 0xB

    def test_replaced_slice(self):
        v = LV.from_int(8, 0).replaced_slice(5, 2, LV.from_int(4, 0xF))
        assert v.to_int() == 0b00111100

    def test_replaced_slice_width_check(self):
        with pytest.raises(ValueError):
            LV.from_int(8, 0).replaced_slice(5, 2, LV.from_int(3, 0))


# ----------------------------------------------------------------------
# Property-based tests: fully-defined LV ops must match Python ints
# ----------------------------------------------------------------------

widths = st.integers(min_value=1, max_value=64)


@st.composite
def lv_pair(draw):
    w = draw(widths)
    a = draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    return w, a, b


@given(lv_pair())
def test_prop_add_matches_int(pair):
    w, a, b = pair
    assert (LV.from_int(w, a) + LV.from_int(w, b)).to_int() == (a + b) % (1 << w)


@given(lv_pair())
def test_prop_sub_matches_int(pair):
    w, a, b = pair
    assert (LV.from_int(w, a) - LV.from_int(w, b)).to_int() == (a - b) % (1 << w)


@given(lv_pair())
def test_prop_mul_matches_int(pair):
    w, a, b = pair
    assert (LV.from_int(w, a) * LV.from_int(w, b)).to_int() == (a * b) % (1 << w)


@given(lv_pair())
def test_prop_bitwise_matches_int(pair):
    w, a, b = pair
    va, vb = LV.from_int(w, a), LV.from_int(w, b)
    assert (va & vb).to_int() == a & b
    assert (va | vb).to_int() == a | b
    assert (va ^ vb).to_int() == a ^ b
    assert (~va).to_int() == a ^ ((1 << w) - 1)


@given(lv_pair())
def test_prop_compare_matches_int(pair):
    w, a, b = pair
    va, vb = LV.from_int(w, a), LV.from_int(w, b)
    assert va.lt(vb).to_int() == int(a < b)
    assert va.le(vb).to_int() == int(a <= b)
    assert va.eq(vb).to_int() == int(a == b)


@given(lv_pair(), st.integers(min_value=0, max_value=70))
def test_prop_shifts_match_int(pair, n):
    w, a, _ = pair
    mask = (1 << w) - 1
    assert LV.from_int(w, a).shl(n).to_int() == (a << n) & mask
    assert LV.from_int(w, a).shr(n).to_int() == a >> n


@given(st.text(alphabet="01XZ", min_size=1, max_size=32))
def test_prop_str_roundtrip(text):
    assert str(LV.from_str(text)) == text


@given(st.text(alphabet="01XZ", min_size=1, max_size=32))
def test_prop_double_invert_maps_z_to_x(text):
    v = LV.from_str(text)
    expected = text.replace("Z", "X")
    assert str(~~v) == expected


@given(st.text(alphabet="01XZ", min_size=1, max_size=16),
       st.text(alphabet="01XZ", min_size=1, max_size=16))
def test_prop_concat_width(a, b):
    va, vb = LV.from_str(a), LV.from_str(b)
    assert va.concat(vb).width == va.width + vb.width
    assert str(va.concat(vb)) == (a + b).replace("z", "Z")


@given(lv_pair())
def test_prop_and_intersection_bound(pair):
    """a & b has no one-bit outside a's or b's one-bits (4-value safe)."""
    w, a, b = pair
    va, vb = LV.from_int(w, a), LV.from_int(w, b)
    result = va & vb
    assert result.value & ~(a & b) == 0
