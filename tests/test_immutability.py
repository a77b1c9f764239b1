import dataclasses

import pytest

import ecpf
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


def _exported_dataclasses():
    exports = (getattr(ecpf, name, None) for name in ecpf.__all__)
    return [obj for obj in exports if isinstance(obj, type) and dataclasses.is_dataclass(obj)]


def test_every_export_resolves():
    assert [name for name in ecpf.__all__ if not hasattr(ecpf, name)] == []


@pytest.mark.parametrize("cls", _exported_dataclasses(), ids=lambda cls: cls.__name__)
def test_every_field_of_every_value_type_is_frozen(cls):
    value = _instances().get(cls)
    assert type(value) is cls, f"no instance of the exported dataclass {cls.__name__}"
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
