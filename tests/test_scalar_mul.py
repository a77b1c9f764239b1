import random

import pytest

import ecpf.curve
from ecpf.curve import INFINITY, CurveParams, negate, point_add, point_double
from ecpf.curve import _xadd, _xdbl
from ecpf.errors import DomainError
from ecpf.field import P192, inverse_mod
from ecpf.scalar_mul import OpCounter, double_and_add, ladder
from helpers import (
    as_xy,
    enumerate_points,
    mk_point,
    oracle_mul_binary,
    oracle_mul_repeated,
    scalar,
)


def test_ladder_examples(smoke17):
    g = mk_point(smoke17, (5, 1))
    assert as_xy(ladder(scalar(smoke17, 9), g, smoke17)) == (7, 6)
    assert ladder(scalar(smoke17, 1), g, smoke17) == g
    assert ladder(scalar(smoke17, 19), g, smoke17).is_infinity


def test_double_and_add_examples(smoke17):
    g = mk_point(smoke17, (5, 1))
    assert as_xy(double_and_add(scalar(smoke17, 9), g, smoke17)) == (7, 6)
    assert double_and_add(scalar(smoke17, 0), g, smoke17).is_infinity
    assert double_and_add(scalar(smoke17, 2), g, smoke17) == point_double(g, smoke17)


def test_degenerate_inputs(smoke17):
    g = mk_point(smoke17, (5, 1))
    for mul in (ladder, double_and_add):
        assert mul(scalar(smoke17, 0), g, smoke17).is_infinity
        assert mul(scalar(smoke17, 1), g, smoke17) == g
        assert mul(scalar(smoke17, 7), INFINITY, smoke17).is_infinity
        assert mul(scalar(smoke17, 0), INFINITY, smoke17).is_infinity


def test_off_curve_point_rejected(smoke17):
    bad = mk_point(smoke17, (5, 2))
    with pytest.raises(DomainError):
        ladder(scalar(smoke17, 3), bad, smoke17)
    with pytest.raises(DomainError):
        double_and_add(scalar(smoke17, 3), bad, smoke17)


def test_exhaustive_equivalence_small_curve(smoke17):
    points = enumerate_points(17, 2, 2)
    for xy in points:
        point = mk_point(smoke17, xy)
        for k in range(0, 39):
            expected = oracle_mul_repeated(k, xy, 17, 2)
            via_ladder = ladder(scalar(smoke17, k), point, smoke17)
            via_daa = double_and_add(scalar(smoke17, k), point, smoke17)
            assert as_xy(via_ladder) == expected, (k, xy)
            assert as_xy(via_daa) == expected, (k, xy)


@pytest.mark.parametrize(
    "p, a, b, size, order_two",
    [(5, 4, 0, 8, 3), (11, 1, 0, 12, 1)],
)
def test_exhaustive_equivalence_even_order_curves(p, a, b, size, order_two):
    # A P with y = 0 runs the same ladder: its registers alternate between
    # P and O, and the y recovery's exit returns P or O.
    points = enumerate_points(p, a, b)
    assert len(points) == size
    assert sum(1 for xy in points if xy is not None and xy[1] == 0) == order_two
    curve = CurveParams.from_ints(f"even{p}", p, a, b, 0, 0, 2, size // 2)
    for xy in points:
        point = mk_point(curve, xy)
        for k in range(3 * size):
            via_ladder = ladder(scalar(curve, k), point, curve)
            assert as_xy(via_ladder) == oracle_mul_repeated(k, xy, p, a), (k, xy)
            assert via_ladder == double_and_add(scalar(curve, k), point, curve), (k, xy)


def test_ladder_edge_scalars_p192_other_point(p192):
    n = p192.n.value
    q_xy = oracle_mul_binary(7, as_xy(p192.g), P192, P192 - 3)
    q = mk_point(p192, q_xy)
    # 0xAA...A and 0x55...5 swap the ladder's register roles at every bit.
    alternating = (int("aa" * 24, 16), int("55" * 24, 16))
    for k in (0, 1, 2, n - 1, n, n + 1, 2 * n - 1, 2**191, 2**192 - 1, *alternating):
        via_ladder = ladder(scalar(p192, k), q, p192)
        assert via_ladder == double_and_add(scalar(p192, k), q, p192), k
        assert as_xy(via_ladder) == oracle_mul_binary(k, q_xy, P192, P192 - 3), k


def test_ladder_inverts_once_p192(p192, count_calls):
    calls = count_calls(inverse_mod)
    assert ecpf.curve.inverse_mod is not inverse_mod
    k = scalar(p192, random.Random(5).getrandbits(192) | 1 << 191)
    q = ladder(scalar(p192, 7), p192.g, p192)
    for mul in (ladder, double_and_add):
        calls.clear()
        assert not mul(k, p192.g, p192).is_infinity
        assert len(calls) == 1, mul
        calls.clear()
        assert mul(p192.n, p192.g, p192).is_infinity
        assert calls == [], mul
    for op in (lambda: point_add(p192.g, q, p192), lambda: point_double(q, p192)):
        calls.clear()
        assert not op().is_infinity
        assert len(calls) == 1


def test_random_equivalence_p192_against_oracle(p192):
    rng = random.Random(42)
    for _ in range(25):
        k = rng.getrandbits(192)
        expected = oracle_mul_binary(k, as_xy(p192.g), P192, P192 - 3)
        assert as_xy(ladder(scalar(p192, k), p192.g, p192)) == expected
        assert as_xy(double_and_add(scalar(p192, k), p192.g, p192)) == expected


def test_scalars_beyond_order_not_reduced(smoke17):
    g = mk_point(smoke17, (5, 1))
    assert ladder(scalar(smoke17, 19), g, smoke17).is_infinity
    assert ladder(scalar(smoke17, 20), g, smoke17) == g
    assert ladder(scalar(smoke17, 18), g, smoke17) == negate(g)
    assert as_xy(ladder(scalar(smoke17, 57), g, smoke17)) is None  # 3n


def test_ladder_operation_count_is_uniform(smoke17):
    g = mk_point(smoke17, (5, 1))
    for k in range(2, 512):
        counter = OpCounter()
        ladder(scalar(smoke17, k), g, smoke17, counter=counter)
        expected = k.bit_length() - 1
        assert counter.adds == expected, k
        assert counter.doubles == expected, k


def test_ladder_counter_untouched_for_degenerate_scalars(smoke17):
    g = mk_point(smoke17, (5, 1))
    for k in (0, 1):
        counter = OpCounter()
        ladder(scalar(smoke17, k), g, smoke17, counter=counter)
        assert counter.adds == 0 and counter.doubles == 0


def test_ladder_formula_calls_are_uniform(smoke17, count_calls):
    # Counts the formula itself, which OpCounter's per-iteration count cannot
    # see: the setup doubling, then one addition and one doubling per bit.
    adds, dbls = count_calls(_xadd), count_calls(_xdbl)
    # Every k >= 1 and every P run the same steps, a P of order 2 included.
    tiny = CurveParams.from_ints("tiny5", 5, 4, 0, 0, 0, 2, 4)  # G has order 2
    for curve, point in ((smoke17, mk_point(smoke17, (5, 1))), (tiny, tiny.g)):
        for k in range(1 << 10):
            adds.clear()
            dbls.clear()
            ladder(scalar(curve, k), point, curve)
            steps = 2 * (k.bit_length() - 1) + 1 if k else 0
            assert len(adds) + len(dbls) == steps, k


def test_linearity_small_curve(smoke17):
    g = mk_point(smoke17, (5, 1))
    rng = random.Random(7)
    for _ in range(1000):
        k1 = rng.randrange(0, 200)
        k2 = rng.randrange(0, 200)
        combined = ladder(scalar(smoke17, k1 + k2), g, smoke17)
        split = point_add(
            ladder(scalar(smoke17, k1), g, smoke17),
            ladder(scalar(smoke17, k2), g, smoke17),
            smoke17,
        )
        assert combined == split, (k1, k2)


def test_linearity_p192(p192):
    rng = random.Random(8)
    for _ in range(1000):
        k1 = rng.getrandbits(192)
        k2 = rng.getrandbits(192)
        combined = ladder(scalar(p192, k1 + k2), p192.g, p192)
        split = point_add(
            ladder(scalar(p192, k1), p192.g, p192),
            ladder(scalar(p192, k2), p192.g, p192),
            p192,
        )
        assert combined == split, (k1, k2)


def test_periodicity_small_curve(smoke17):
    g = mk_point(smoke17, (5, 1))
    rng = random.Random(9)
    for _ in range(200):
        k = rng.randrange(0, 1000)
        assert ladder(scalar(smoke17, k + 19), g, smoke17) == ladder(
            scalar(smoke17, k), g, smoke17
        )
