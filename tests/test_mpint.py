import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecpf.errors import ParseError, RangeError
from ecpf.mpint import DEFAULT_CAPACITY, MpInt, capacity_for_bits

NIST_PRIME_HEX = "fffffffffffffffffffffffffffffffeffffffffffffffff"


def test_from_hex_examples():
    assert MpInt.from_hex("ff").value == 255
    assert MpInt.from_hex("0").value == 0
    assert MpInt.from_hex(NIST_PRIME_HEX).value == 2**192 - 2**64 - 1


def test_from_hex_case_insensitive():
    assert MpInt.from_hex("AbCdEf").value == 0xABCDEF


def test_from_hex_rejects_bad_input():
    with pytest.raises(ParseError):
        MpInt.from_hex("")
    with pytest.raises(ParseError):
        MpInt.from_hex("zz")
    with pytest.raises(ParseError):
        MpInt.from_hex("0x1f")
    with pytest.raises(ParseError):
        MpInt.from_hex("12 34")


def test_from_hex_overflow():
    # 16**112 == 2**448 needs 449 bits
    with pytest.raises(RangeError):
        MpInt.from_hex("1" + "0" * 112, DEFAULT_CAPACITY)
    # but 2**448 - 1 just fits
    assert MpInt.from_hex("f" * 112, DEFAULT_CAPACITY).bit_length() == 448


def test_constructor_range_checks():
    with pytest.raises(RangeError):
        MpInt(-1)
    with pytest.raises(RangeError):
        MpInt(256, 8)
    with pytest.raises(RangeError):
        MpInt(0, 0)
    assert MpInt(255, 8).value == 255


def test_to_hex_examples():
    assert MpInt(255).to_hex(4) == "00ff"
    assert MpInt(0).to_hex(2) == "00"
    assert MpInt(2**64).to_hex(17) == "10000000000000000"


def test_to_hex_width_too_small():
    with pytest.raises(RangeError):
        MpInt(255).to_hex(1)
    with pytest.raises(RangeError):
        MpInt(0).to_hex(0)
    assert MpInt(255).to_hex(2) == "ff"
    assert MpInt(0).to_hex(1) == "0"


def test_compare_examples():
    assert MpInt(5).compare(MpInt(7)) == -1
    assert MpInt(7).compare(MpInt(7)) == 0
    assert MpInt(2**64).compare(MpInt(2**64 - 1)) == 1
    assert MpInt(5) < MpInt(7) <= MpInt(7) < MpInt(2**64)


def test_bit_length_examples():
    assert MpInt(0).bit_length() == 0
    assert MpInt(1).bit_length() == 1
    assert MpInt(256).bit_length() == 9
    assert bool(MpInt(0)) is False
    assert bool(MpInt(7)) is True


def test_capacity_for_bits():
    assert capacity_for_bits(192) == DEFAULT_CAPACITY


def test_equality_ignores_capacity():
    assert MpInt(7, 8) == MpInt(7, 448)
    assert hash(MpInt(7, 8)) == hash(MpInt(7, 448))
    assert MpInt(7) != MpInt(8)


values = st.integers(min_value=0, max_value=2**DEFAULT_CAPACITY - 1)


@given(values, st.integers(min_value=0, max_value=16))
def test_hex_roundtrip(value, extra_width):
    x = MpInt(value)
    width = max(1, -(-value.bit_length() // 4)) + extra_width
    assert MpInt.from_hex(x.to_hex(width)) == x


@given(values, values)
def test_compare_agrees_with_int_ordering(a, b):
    xa, xb = MpInt(a), MpInt(b)
    assert xa.compare(xb) == (a > b) - (a < b)
    assert (xa >= xb) == (a >= b)
    assert (xa < xb) == (a < b)
    assert (xa <= xb) == (a <= b)
    assert (xa > xb) == (a > b)
    assert (xa == xb) == (a == b)
