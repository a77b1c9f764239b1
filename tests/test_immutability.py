import pytest

import ecpf
from ecpf.cli import bundled_curve
from ecpf.curve import AffinePoint, CurveParams
from ecpf.field import FieldElement, Modulus
from ecpf.keygen import KeyPair, generate_keypair
from ecpf.mpint import MpInt

VALUE_TYPES = (AffinePoint, CurveParams, FieldElement, KeyPair, Modulus, MpInt)


def _instances():
    curve = bundled_curve("smoke17")
    return {
        MpInt: MpInt(1, 8),
        FieldElement: curve.a,
        Modulus: curve.modulus,
        AffinePoint: curve.g,
        CurveParams: curve,
        KeyPair: generate_keypair(curve, seed=1),
    }


def test_every_export_resolves():
    assert [name for name in ecpf.__all__ if not hasattr(ecpf, name)] == []


def test_the_value_types_are_every_exported_class():
    # a new exported class must join VALUE_TYPES, and so the test below
    exports = (getattr(ecpf, name) for name in ecpf.__all__)
    classes = [obj for obj in exports if isinstance(obj, type)]
    assert sorted(c.__name__ for c in classes if not issubclass(c, BaseException)) == [
        cls.__name__ for cls in VALUE_TYPES
    ]


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_every_field_of_every_value_type_is_frozen(cls):
    value = _instances()[cls]
    assert type(value) is cls
    assert not hasattr(value, "__dict__")
    assert cls.__slots__
    for name in cls.__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1
