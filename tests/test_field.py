import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecpf.errors import ContextError, NoInverseError, RangeError
from ecpf.field import P192, FieldElement, Modulus
from ecpf.mpint import MpInt
from helpers import fermat_inverse

F17 = Modulus.from_int(17)
FP192 = Modulus.from_int(P192)


def test_modulus_requires_at_least_two():
    with pytest.raises(RangeError):
        Modulus.from_int(1)
    with pytest.raises(RangeError):
        Modulus.from_int(0)


def test_modulus_caches_bits():
    assert F17.bits == 5
    assert FP192.bits == 192
    assert F17.hex_width == 2
    assert FP192.hex_width == 48


def test_hex_pads_to_the_field_width():
    assert F17.hex(MpInt(3)) == "03"
    assert FP192.hex(MpInt(1)) == "0" * 47 + "1"


def test_hex_never_cuts_short():
    f11 = Modulus.from_int(11)
    assert f11.hex_width == 1
    assert f11.hex(MpInt(16)) == "10"


def test_element_must_be_canonical():
    with pytest.raises(RangeError):
        FieldElement(MpInt(17), F17)
    with pytest.raises(RangeError):
        FieldElement(MpInt(100), F17)
    assert FieldElement(MpInt(16), F17).value.value == 16


def test_add_examples():
    assert (F17.element(9) + F17.element(12)).value.value == 4
    x = F17.element(13)
    assert x + F17.element(0) == x
    assert (x + F17.element(4)).is_zero


def test_sub_examples():
    assert (F17.element(3) - F17.element(5)).value.value == 15
    x = F17.element(11)
    assert (x - x).is_zero
    assert x - F17.element(0) == x


def test_mul_examples():
    assert (F17.element(9) * F17.element(9)).value.value == 13
    x = F17.element(7)
    assert x * F17.element(1) == x
    assert (x * F17.element(0)).is_zero


def test_neg_examples():
    assert (-F17.element(1)).value.value == 16
    assert (-F17.element(0)).value.value == 0
    x = F17.element(5)
    assert -(-x) == x


def test_inverse_examples():
    assert F17.element(2).inverse().value.value == 9
    assert F17.element(1).inverse().value.value == 1
    with pytest.raises(NoInverseError):
        F17.element(0).inverse()


def test_inverse_with_shared_factor():
    fifteen = Modulus.from_int(15)
    with pytest.raises(NoInverseError):
        fifteen.element(5).inverse()
    assert fifteen.element(7).inverse().value.value == 13


def test_mixed_moduli_rejected():
    other = Modulus.from_int(19)
    with pytest.raises(ContextError):
        F17.element(3) + other.element(3)
    with pytest.raises(ContextError):
        F17.element(3) - other.element(3)
    with pytest.raises(ContextError):
        F17.element(3) * other.element(3)


def test_equality_requires_same_modulus():
    other = Modulus.from_int(19)
    assert F17.element(3) != other.element(3)
    assert F17.element(3) == Modulus.from_int(17).element(3)


f17_elements = st.integers(min_value=0, max_value=16)


@given(f17_elements, f17_elements, f17_elements)
def test_axioms_small_field(a, b, c):
    ea, eb, ec = F17.element(a), F17.element(b), F17.element(c)
    assert ea + eb == eb + ea
    assert ea * eb == eb * ea
    assert (ea + eb) + ec == ea + (eb + ec)
    assert (ea * eb) * ec == ea * (eb * ec)
    assert ea * (eb + ec) == ea * eb + ea * ec
    assert ea + F17.element(0) == ea
    assert ea * F17.element(1) == ea
    assert (ea + (-ea)).is_zero


@given(f17_elements, f17_elements)
def test_outputs_canonical_small_field(a, b):
    ea, eb = F17.element(a), F17.element(b)
    for result in (ea + eb, ea - eb, ea * eb, -ea):
        assert 0 <= result.value.value < 17


def test_axioms_p192_random_sample():
    rng = random.Random(1234)
    for _ in range(500):
        ea = FP192.element(rng.randrange(P192))
        eb = FP192.element(rng.randrange(P192))
        ec = FP192.element(rng.randrange(P192))
        assert ea + eb == eb + ea
        assert ea * eb == eb * ea
        assert (ea + eb) + ec == ea + (eb + ec)
        assert (ea * eb) * ec == ea * (eb * ec)
        assert ea * (eb + ec) == ea * eb + ea * ec
        for result in (ea + eb, ea - eb, ea * eb, -ea):
            assert 0 <= result.value.value < P192


def test_inverse_matches_fermat_oracle():
    rng = random.Random(99)
    for modulus, p in ((F17, 17), (FP192, P192)):
        for _ in range(200):
            value = rng.randrange(1, p)
            element = modulus.element(value)
            assert element.inverse().value.value == fermat_inverse(value, p)
            assert (element * element.inverse()).value.value == 1

