"""The value-type contract: copies, keyword construction and reprs.

These hold for the six exported value types whatever builds them: pickle,
``copy`` and ``deepcopy`` give equal values and keep a curve's derived
``_law`` and ``_validated``; the constructors take their fields by keyword;
and each repr is pinned byte for byte.
"""

import copy
import pickle

import pytest

from ecpf.cli import bundled_curve
from ecpf.curve import INFINITY, AffinePoint, CurveParams
from ecpf.field import FieldElement, Modulus
from ecpf.keygen import KeyPair, generate_keypair
from ecpf.mpint import MpInt

COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _values(curve):
    return [curve.n, curve.modulus, curve.a, curve.g, INFINITY, curve,
            generate_keypair(curve, seed=1)]


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", ["smoke17", "p192"])
def test_copies_are_equal_and_keep_the_derived_fields(name, how):
    curve = bundled_curve(name)
    unvalidated = CurveParams("copy", curve.modulus, curve.a, curve.b, curve.g, curve.n, curve.h)
    for value in _values(curve) + [unvalidated]:
        twin = COPIES[how](value)
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    for original in (curve, unvalidated):
        twin = COPIES[how](original)
        assert twin._law == original._law and twin._validated is original._validated
    assert curve._validated and not unvalidated._validated
    assert COPIES[how](curve.n).capacity == curve.n.capacity
    # the copied curve runs the same padded ladder
    assert generate_keypair(COPIES[how](curve), seed=5) == generate_keypair(curve, seed=5)


def test_constructors_take_their_fields_by_keyword(smoke17):
    m = Modulus(p=MpInt(value=17, capacity=74))
    assert m == smoke17.modulus and m.capacity == 74 and m.hex_width == 2
    x, y = (FieldElement(value=MpInt(v, 74), modulus=m) for v in (5, 1))
    g = AffinePoint(x=x, y=y)
    assert g == smoke17.g
    n, h = MpInt(value=19, capacity=74), MpInt(value=1, capacity=74)
    curve = CurveParams(name="smoke17", modulus=m, a=smoke17.a, b=smoke17.b, g=g, n=n, h=h)
    assert curve == smoke17 and not curve._validated
    pair = generate_keypair(smoke17, seed=1)
    assert KeyPair(d=pair.d, q=pair.q, curve_name="smoke17") == pair
    assert AffinePoint() == INFINITY


def test_reprs_are_pinned(smoke17, p192):
    assert repr(smoke17.n) == "MpInt(0x13, capacity=74)"
    assert repr(smoke17.modulus) == "Modulus(p=MpInt(0x11, capacity=74), bits=5)"
    assert repr(smoke17.a) == "FieldElement(2 mod 17)"
    assert repr(smoke17.g) == "AffinePoint(5, 1)"
    assert repr(INFINITY) == "AffinePoint(infinity)"
    assert repr(smoke17) == (
        "CurveParams(name='smoke17', modulus=Modulus(p=MpInt(0x11, capacity=74), bits=5), "
        "a=FieldElement(2 mod 17), b=FieldElement(2 mod 17), g=AffinePoint(5, 1), "
        "n=MpInt(0x13, capacity=74), h=MpInt(0x1, capacity=74))"
    )
    assert repr(generate_keypair(smoke17, seed=1)) == (
        "KeyPair(d=MpInt(0x2, capacity=74), q=AffinePoint(6, 3), curve_name='smoke17')"
    )
    assert repr(MpInt(5)) == "MpInt(0x5, capacity=448)"
    assert repr(p192.modulus) == (
        "Modulus(p=MpInt(0xfffffffffffffffffffffffffffffffeffffffffffffffff, capacity=448), "
        "bits=192)"
    )
    assert repr(generate_keypair(p192, seed=1)) == (
        "KeyPair(d=MpInt(0x2, capacity=448), q=AffinePoint("
        "5369744403678710563432458361254544170966096384586764429448, "
        "5429234379789071039750654906915254128254326554272718558123), curve_name='p192')"
    )

