"""Elliptic-curve key generation over prime fields GF(p).

Layers, bottom up: fixed-capacity integers (``mpint``), GF(p) arithmetic
(``field``), Jacobian and x-only group laws (``curve``), a Montgomery
ladder on the x-only law with a Jacobian double-and-add oracle
(``scalar_mul``), curve loading and domain validation (``domain``), keypair
generation on the ladder (``keygen``) and a batch CLI (``cli``).  Every
value is immutable after construction and safe to share across threads.
"""

from .curve import (
    INFINITY,
    AffinePoint,
    CurveParams,
    format_point,
    negate,
    on_curve,
    parse_point,
    point_add,
    point_double,
)
from .field import FieldElement, Modulus, P192
from .keygen import KeyPair, generate_keypair, random_scalar, validate_public_key
from .mpint import DEFAULT_CAPACITY, LIMB_BITS, MpInt, capacity_for_bits
from .scalar_mul import OpCounter, double_and_add, ladder

__version__ = "0.1.0"

__all__ = [
    "AffinePoint",
    "CurveParams",
    "DEFAULT_CAPACITY",
    "FieldElement",
    "INFINITY",
    "KeyPair",
    "LIMB_BITS",
    "Modulus",
    "MpInt",
    "OpCounter",
    "P192",
    "capacity_for_bits",
    "double_and_add",
    "format_point",
    "generate_keypair",
    "ladder",
    "negate",
    "on_curve",
    "parse_point",
    "point_add",
    "point_double",
    "random_scalar",
    "validate_public_key",
    "__version__",
]
