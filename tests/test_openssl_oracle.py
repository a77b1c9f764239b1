"""OpenSSL's P-192, through ``cryptography``, as an oracle with its own code.

``perfbench/reference.py`` and ``tests/helpers.py`` are affine laws written
in this repository, with P-192's constants typed here; OpenSSL brings its
own arithmetic, constants and point decoding.  The library never imports it.
"""

import random

import pytest

ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")

from ecpf.curve import parse_point  # noqa: E402
from ecpf.errors import Error  # noqa: E402
from ecpf.field import P192  # noqa: E402
from ecpf.keygen import generate_keypair, validate_public_key  # noqa: E402
from ecpf.scalar_mul import ladder  # noqa: E402
from helpers import N192, as_xy, scalar  # noqa: E402

#: Key generation runs the ladder on d + n from here up, on d + 2n below.
PAD_SWITCH = 0x662107C9EB94364E4B2DD7CF


def openssl_public(d):
    numbers = ec.derive_private_key(d, ec.SECP192R1()).public_key().public_numbers()
    return numbers.x, numbers.y


def test_keygen_matches_openssl(p192):
    assert p192.n.value == N192 and PAD_SWITCH == 2**192 - N192
    rng = random.Random(192)
    scalars = [1, 2, 3, N192 - 2, N192 - 1, PAD_SWITCH - 1, PAD_SWITCH, PAD_SWITCH + 1]
    scalars += [1 << k for k in range(N192.bit_length())]
    scalars += [rng.randrange(1, N192) for _ in range(200)]
    for d in scalars:
        pair = generate_keypair(p192, seed=d - 1)
        assert pair.d.value == d
        assert as_xy(pair.q) == openssl_public(d), hex(d)


def test_ecdh_through_the_ladder_matches_openssl(p192):
    rng = random.Random(2002)
    for _ in range(20):
        d1, d2 = rng.randrange(1, N192), rng.randrange(1, N192)
        key1, key2 = (ec.derive_private_key(d, ec.SECP192R1()) for d in (d1, d2))
        shared = key1.exchange(ec.ECDH(), key2.public_key())
        numbers = key2.public_key().public_numbers()
        q2 = parse_point(f"{numbers.x:x},{numbers.y:x}", p192)
        x, _ = as_xy(ladder(scalar(p192, d1), q2, p192))
        assert x.to_bytes(24, "big") == shared


def test_both_reject_what_is_not_a_public_key(p192):
    gx, gy = as_xy(p192.g)
    b = p192.b.value.value
    # The first t whose x = p + t still fits in 24 bytes and lies on the curve.
    for t in range(1, 100):
        rhs = (t**3 - 3 * t + b) % P192
        y = pow(rhs, (P192 + 1) // 4, P192)  # p = 3 mod 4
        if y * y % P192 == rhs:
            break

    def encoded(x, y):
        return b"\x04" + x.to_bytes(24, "big") + y.to_bytes(24, "big")

    def ecpf_accepts(text):
        try:
            return validate_public_key(parse_point(text, p192), p192)
        except Error:
            return False

    def openssl_accepts(data):
        # SEC 1 decoding: EllipticCurvePublicNumbers(...).public_key() takes
        # an x >= p and reduces it, so it cannot stand in for parse_point.
        try:
            ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP192R1(), data)
        except ValueError:
            return False
        return True

    for x0, y0 in ((gx, gy), (t, y)):
        assert ecpf_accepts(f"{x0:x},{y0:x}") and openssl_accepts(encoded(x0, y0))
    invalid = [
        (f"{gx:x},{gy + 1:x}", encoded(gx, gy + 1)),  # off the curve
        (f"{P192 + t:x},{y:x}", encoded(P192 + t, y)),  # x >= p
        ("infinity", b"\x00"),
    ]
    for text, data in invalid:
        assert not ecpf_accepts(text), text
        assert not openssl_accepts(data), text
