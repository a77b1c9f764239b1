import dataclasses

import pytest

from ecpf.cli import bundled_curve
from ecpf.curve import AffinePoint, CurveParams
from ecpf.field import FieldElement, Modulus
from ecpf.keygen import KeyPair, generate_keypair
from ecpf.mpint import MpInt


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


@pytest.mark.parametrize("cls", list(_instances()), ids=lambda cls: cls.__name__)
def test_every_field_of_every_value_type_is_frozen(cls):
    value = _instances()[cls]
    assert type(value) is cls
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
