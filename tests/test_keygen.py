import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ecpf.domain
import ecpf.keygen
from ecpf.curve import INFINITY, CurveParams, negate
from ecpf.domain import load_curve_file, parse_curve_file
from ecpf.errors import RandomnessError, RangeError, ValidationError
from ecpf.field import P192
from ecpf.keygen import generate_keypair, random_scalar, validate_public_key
from ecpf.mpint import MpInt
from ecpf.scalar_mul import ladder
from helpers import (
    SWEEP_CURVES,
    TINY5,
    as_xy,
    enumerate_points,
    mk_point,
    oracle_mul_binary,
    oracle_mul_repeated,
    scalar,
)


def test_random_scalar_deterministic_examples(smoke17):
    n = smoke17.n
    assert random_scalar(n, seed=0).value == 1
    assert random_scalar(n, seed=37).value == 2
    assert random_scalar(n, seed=18).value == 1
    assert random_scalar(n, seed=MpInt(9)).value == 10
    # n = 2 is the smallest order: [1, n-1] holds only 1
    assert random_scalar(MpInt(2), seed=5).value == 1


def test_random_scalar_rejects_tiny_order():
    with pytest.raises(RangeError):
        random_scalar(MpInt(1))
    with pytest.raises(RangeError):
        random_scalar(MpInt(0))


def test_random_scalar_uniform_mode_range(smoke17, p192):
    for curve in (smoke17, p192):
        for _ in range(50):
            d = random_scalar(curve.n)
            assert 1 <= d.value <= curve.n.value - 1
    assert random_scalar(MpInt(2)).value == 1


def test_rejection_sampling_iteration_bound(smoke17, p192):
    for curve in (smoke17, p192):
        worst = 0
        for _ in range(200):
            draws = 0
            rng = random.Random()

            def counting(bits):
                nonlocal draws
                draws += 1
                return rng.getrandbits(bits)

            random_scalar(curve.n, randbits=counting)
            worst = max(worst, draws)
        assert worst <= 64


def test_rejection_sampling_skips_out_of_range_draws(smoke17):
    feed = iter([0, smoke17.n.value, smoke17.n.value + 3, 7])
    d = random_scalar(smoke17.n, randbits=lambda bits: next(feed))
    assert d.value == 7
    # 1 is the lowest acceptable draw
    assert random_scalar(smoke17.n, randbits=lambda bits: 1).value == 1


def test_entropy_failure_maps_to_randomness_error(smoke17):
    def broken(bits):
        raise OSError("no entropy")

    with pytest.raises(RandomnessError):
        random_scalar(smoke17.n, randbits=broken)


def test_default_source_is_the_os(p192):
    # The generator behind secrets.randbits, never the seeded module-level one.
    assert isinstance(ecpf.keygen.secrets.randbits.__self__, random.SystemRandom)
    assert generate_keypair(p192).d != generate_keypair(p192).d


def test_cli_import_loads_no_openssl():
    # Only modules new since start-up count, so a site that loads one cannot decide.
    env = {**os.environ, "PYTHONPATH": str(Path(ecpf.keygen.__file__).parents[1])}
    heavy = "{'secrets', 'hmac', 'hashlib', '_hashlib'}"
    code = (
        "import sys; before = set(sys.modules); import ecpf.cli; "
        f"print(sorted({heavy} & (set(sys.modules) - before)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


def test_hopeless_source_eventually_gives_up(smoke17):
    with pytest.raises(RandomnessError):
        random_scalar(smoke17.n, randbits=lambda bits: 0)


def test_generate_keypair_examples(smoke17):
    pair = generate_keypair(smoke17, seed=9)
    assert pair.d.value == 10
    assert as_xy(pair.q) == (7, 11)
    assert pair.curve_name == "smoke17"

    pair = generate_keypair(smoke17, seed=0)
    assert pair.d.value == 1
    assert pair.q == smoke17.g

    pair = generate_keypair(smoke17, seed=17)
    assert pair.d.value == 18
    assert pair.q == negate(smoke17.g)


def test_seeds_walk_the_multiples_table(smoke17):
    for seed in range(18):
        pair = generate_keypair(smoke17, seed=seed)
        assert pair.d.value == seed + 1
        assert as_xy(pair.q) == oracle_mul_repeated(seed + 1, (5, 1), 17, 2)
        assert validate_public_key(pair.q, smoke17)


def test_generate_keypair_rejects_the_identity():
    # G = (5, 1) has order 19; a wrong n = 38 lets seed 18 draw d = 19, so d*G = O.
    wrong_n = CurveParams.from_ints("x", 17, 2, 2, 5, 1, 38, 1)
    with pytest.raises(ValidationError):
        generate_keypair(wrong_n, seed=18)
    assert generate_keypair(wrong_n, seed=17).d.value == 18


def test_serialization_format(smoke17, t11):
    pair = generate_keypair(smoke17, seed=9)
    assert pair.serialize() == "private=0a\npublic=07,0b"
    # d = 16 on t11 takes two hex digits; the field's width is one
    assert generate_keypair(t11, seed=15).serialize() == "private=10\npublic=0,9"


def test_serialization_reproducible(smoke17, p192):
    for curve, seed in ((smoke17, 5), (p192, 123456)):
        first = generate_keypair(curve, seed=seed).serialize()
        second = generate_keypair(curve, seed=seed).serialize()
        assert first == second


def test_p192_serialization_width(p192):
    pair = generate_keypair(p192, seed=1)
    private_line, public_line = pair.serialize().splitlines()
    assert private_line == f"private={'0' * 47}2"
    x_hex, y_hex = public_line.removeprefix("public=").split(",")
    assert len(x_hex) == 48 and len(y_hex) == 48


def test_random_keypairs_validate(smoke17, p192):
    for curve in (smoke17, p192):
        for _ in range(5):
            pair = generate_keypair(curve)
            assert 1 <= pair.d.value <= curve.n.value - 1
            assert validate_public_key(pair.q, curve)


def test_validate_public_key_examples(smoke17):
    assert validate_public_key(mk_point(smoke17, (7, 11)), smoke17)
    assert not validate_public_key(INFINITY, smoke17)
    assert not validate_public_key(mk_point(smoke17, (5, 2)), smoke17)


def test_validate_public_key_rejects_wrong_subgroup():
    # y^2 = x^3 + 4x over GF(5) has 8 points; (0,0) generates the order-2
    # subgroup while (2,1) has order 4, so it must fail the order check.
    tiny = CurveParams.from_ints(*TINY5)
    outside = mk_point(tiny, (2, 1))
    assert not validate_public_key(outside, tiny)
    two_torsion = mk_point(tiny, (4, 0))
    assert validate_public_key(two_torsion, tiny)


def test_sparse_sample_scalar_is_a_valid_key(p192):
    k = (1 << 159) + (1 << 100) + (1 << 50) + (1 << 10) + 0b1101011
    assert k < p192.n.value
    pair = generate_keypair(p192, seed=k - 1)  # (k-1) mod (n-1) + 1 == k
    assert pair.d.value == k
    assert validate_public_key(pair.q, p192)


@pytest.mark.parametrize(
    "text, order", SWEEP_CURVES, ids=[text.split("\n")[0][5:] for text, _ in SWEEP_CURVES]
)
def test_validate_public_key_agrees_with_the_order_ladder(text, order):
    curve = parse_curve_file(text)
    p, a, b = curve._law[:3]
    points = enumerate_points(p, a, b)
    assert len(points) == order == curve.h.value * curve.n.value
    valid = 0
    for xy in points:
        q = mk_point(curve, xy)
        expected = not q.is_infinity and ladder(curve.n, q, curve).is_infinity
        assert validate_public_key(q, curve) == expected
        valid += expected
    # the points of order n: all finite ones when h = 1
    assert valid == curve.n.value - 1


def _fresh(name):
    """A bundled curve read anew, not the process's cached copy."""
    path = os.path.join(os.path.dirname(ecpf.domain.__file__), "curves", f"{name}.curve")
    return load_curve_file(path)


@pytest.mark.parametrize(
    "text, order", SWEEP_CURVES, ids=[text.split("\n")[0][5:] for text, _ in SWEEP_CURVES]
)
def test_keygen_equals_the_ladder_for_every_scalar(text, order):
    # key generation's d*G for every d in [1, n-1], on curves with h = 1, 2 and 3
    curve = parse_curve_file(text)
    p, a = curve._law[:2]
    g_xy = as_xy(curve.g)
    for d in range(1, curve.n.value):
        q = generate_keypair(curve, seed=d - 1).q
        assert q == ladder(scalar(curve, d), curve.g, curve), d
        assert as_xy(q) == oracle_mul_repeated(d, g_xy, p, a), d


def test_keygen_equals_the_ladder_and_the_oracle_p192(p192):
    # key generation's d*G against the ladder and the oracle at the same d
    n = p192.n.value
    rng = random.Random(18)
    scalars = [1, 2, 3, n - 2, n - 1]
    scalars += [1 << k for k in range(n.bit_length())]
    # long runs of zero bits, low, high and in the middle
    scalars += [(1 << 191) | 1, (1 << 150) | (1 << 3), 0xFFFF << 170, (1 << 64) - 1]
    scalars += [rng.randrange(1, n) for _ in range(20)]
    g_xy = as_xy(p192.g)
    for d in scalars:
        pair = generate_keypair(p192, seed=d - 1)
        assert pair.d.value == d
        assert pair.q == ladder(scalar(p192, d), p192.g, p192), d
        assert as_xy(pair.q) == oracle_mul_binary(d, g_xy, P192, P192 - 3), d


def _scalars(calls):
    """The scalar k of each recorded ladder(k, point, curve) call."""
    return [args[0].value for args in calls]


def test_keygen_keeps_the_ladder_on_unvalidated_curves(count_calls, smoke17, p192):
    calls = count_calls(ladder)
    # the same parameters, built outside the validator: from ints, or from P-192's values
    rebuilt = CurveParams.from_ints("smoke17", 17, 2, 2, 5, 1, 19, 1)
    assert rebuilt == smoke17
    copy = CurveParams("copy", p192.modulus, p192.a, p192.b, p192.g, p192.n, p192.h)
    for curve in (rebuilt, copy):
        calls.clear()
        pair = generate_keypair(curve, seed=9)
        assert _scalars(calls) == [pair.d.value] == [10]
        assert pair.q == ladder(pair.d, curve.g, curve)
    # the validated original pads d to L + 1 bits with n*G = O
    n = p192.n.value
    for seed, k in ((9, 10 + 2 * n), (n - 2, 2 * n - 1), (2**191, 2**191 + 1 + n)):
        calls.clear()
        pair = generate_keypair(p192, seed=seed)
        assert _scalars(calls) == [k] and k.bit_length() == n.bit_length() + 1
        assert pair.q == ladder(pair.d, p192.g, p192)


def test_keygen_padding_matches_the_two_case_rule(count_calls, p192):
    # k = 2**L + (d - 2**L) mod n is the d + n or d + 2n with L + 1 bits:
    # on P-192 at the switch d = 2**L - n and on either side, and every d
    # of the sweep curves.
    curves = [parse_curve_file(text) for text, _ in SWEEP_CURVES]
    calls = count_calls(ladder)
    switch = (1 << p192.n.bit_length()) - p192.n.value
    cases = [(p192, switch - 1), (p192, switch), (p192, switch + 1)]
    cases += [(curve, d) for curve in curves for d in range(1, curve.n.value)]
    for curve, d in cases:
        n, bits = curve.n.value, curve.n.bit_length()
        calls.clear()
        generate_keypair(curve, seed=d - 1)
        old = d + n if d + n >= 1 << bits else d + 2 * n
        (k,) = _scalars(calls)
        assert k == old and k.bit_length() == bits + 1, (curve.name, d)


def test_keygen_leaves_repr_eq_and_hash_unchanged():
    curve, twin = _fresh("p192"), _fresh("p192")
    before = (repr(curve), hash(curve))
    generate_keypair(curve, seed=1)
    assert (repr(curve), hash(curve)) == before
    assert curve == twin and hash(curve) == hash(twin)
