import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecpf.curve import (
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
from ecpf.curve import _add_jac, _double_jac, _from_jac, _xadd, _xdbl
from ecpf.errors import ContextError, DomainError, NoInverseError, ParseError
from ecpf.errors import ValidationError
from ecpf.field import P192, Modulus
from ecpf.mpint import MpInt
from ecpf.scalar_mul import double_and_add, ladder
from helpers import (
    N192,
    TINY5,
    as_xy,
    enumerate_points,
    mk_point,
    oracle_add,
    oracle_mul_binary,
    scalar,
    small_curves,
)


SWEEP_PRIMES = (3, 5, 7, 11, 13)


@pytest.fixture(scope="module")
def smoke17_points(smoke17):
    return [mk_point(smoke17, xy) for xy in enumerate_points(17, 2, 2)]


def lift_x(xy, lam, p):
    """The x-only representative (lam*x : lam); O is (lam : 0)."""
    return (lam, 0) if xy is None else (xy[0] * lam % p, lam)


def project_x(xz, p):
    """x of (X:Z), None for O; (0 : 0) is no point."""
    x, z = xz
    if z % p == 0:
        return None if x % p else "not a point"
    return x * pow(z, -1, p) % p


def x_of(xy):
    return None if xy is None else xy[0]


def lift_jacobian(xy, lam, p):
    """(lam**2 * x : lam**3 * y : lam); O is (lam**2 : lam**3 : 0)."""
    x, y, z = (1, 1, 0) if xy is None else (*xy, 1)
    return x * lam * lam % p, y * lam**3 % p, z * lam


def project_jacobian(xyz, p):
    """Affine form of (X/Z**2, Y/Z**3); Z = 0 is O when Y**2 = X**3 != 0."""
    x, y, z = xyz
    if z % p == 0:
        return None if x % p and (y * y - x**3) % p == 0 else "not a point"
    zi = pow(z, -1, p)
    return x * zi * zi % p, y * zi**3 % p


def test_on_curve_examples(smoke17):
    assert on_curve(mk_point(smoke17, (5, 1)), smoke17)
    assert on_curve(INFINITY, smoke17)
    assert not on_curve(mk_point(smoke17, (5, 2)), smoke17)


def test_membership_matches_enumeration(smoke17):
    expected = set(enumerate_points(17, 2, 2)[1:])
    for x in range(17):
        for y in range(17):
            point = mk_point(smoke17, (x, y))
            assert on_curve(point, smoke17) == ((x, y) in expected)


def test_negate_examples(smoke17):
    assert as_xy(negate(mk_point(smoke17, (5, 1)))) == (5, 16)
    assert negate(INFINITY).is_infinity


def test_negate_is_involution(smoke17, smoke17_points):
    for point in smoke17_points:
        assert negate(negate(point)) == point


def test_point_add_examples(smoke17):
    p = mk_point(smoke17, (5, 1))
    q = mk_point(smoke17, (6, 3))
    assert as_xy(point_add(p, q, smoke17)) == (10, 6)
    assert point_add(p, INFINITY, smoke17) == p
    assert point_add(INFINITY, p, smoke17) == p
    assert point_add(p, mk_point(smoke17, (5, 16)), smoke17).is_infinity


def test_point_double_examples(smoke17):
    assert as_xy(point_double(mk_point(smoke17, (5, 1)), smoke17)) == (6, 3)
    assert point_double(INFINITY, smoke17).is_infinity


def test_double_with_zero_ordinate():
    # (0,0) sits on y^2 = x^3 + 4x over GF(5); its tangent is vertical
    tiny = CurveParams.from_ints(*TINY5)
    assert point_double(tiny.g, tiny).is_infinity
    assert point_add(tiny.g, tiny.g, tiny).is_infinity


def test_exit_rejects_a_z_that_is_no_unit():
    # Only an unvalidated curve can have a composite p.  On y^2 = x^3 + x + 1 mod
    # 25, (0,1) + (5,9) ends with Z = 5: Z**3 is 0 mod 25, yet Z is not, so no O.
    c25 = CurveParams.from_ints("c25", 25, 1, 1, 0, 1, 7, 1)
    with pytest.raises(NoInverseError):
        point_add(mk_point(c25, (0, 1)), mk_point(c25, (5, 9)), c25)


def test_closure_and_oracle_agreement(smoke17, smoke17_points):
    for p in smoke17_points:
        for q in smoke17_points:
            total = point_add(p, q, smoke17)
            assert on_curve(total, smoke17)
            assert as_xy(total) == oracle_add(as_xy(p), as_xy(q), 17, 2)


def test_validate_flag_rejects_off_curve(smoke17):
    bad = mk_point(smoke17, (5, 2))
    good = mk_point(smoke17, (5, 1))
    with pytest.raises(DomainError):
        point_add(bad, good, smoke17)
    with pytest.raises(DomainError):
        point_add(good, bad, smoke17)
    with pytest.raises(DomainError):
        point_double(bad, smoke17)
    point_add(good, good, smoke17)


def test_affine_point_needs_both_coordinates(smoke17):
    x = smoke17.modulus.element(5)
    with pytest.raises(ValidationError):
        AffinePoint(x, None)
    with pytest.raises(ValidationError):
        AffinePoint(None, x)


def test_affine_point_context_consistency():
    with pytest.raises(ContextError):
        AffinePoint(Modulus.from_int(17).element(5), Modulus.from_int(19).element(1))


def test_point_from_another_modulus_is_rejected(smoke17):
    # (5, 1) lies on smoke17, but these coordinates live in GF(19)
    m19 = Modulus.from_int(19)
    foreign = AffinePoint(m19.element(5), m19.element(1))
    good = mk_point(smoke17, (5, 1))
    k = MpInt(3, smoke17.modulus.capacity)
    calls = [
        lambda: on_curve(foreign, smoke17),
        lambda: point_add(foreign, good, smoke17),
        lambda: point_add(good, foreign, smoke17),
        lambda: point_double(foreign, smoke17),
        lambda: ladder(k, foreign, smoke17),
        lambda: double_and_add(k, foreign, smoke17),
    ]
    for call in calls:
        with pytest.raises(ContextError):
            call()


def test_point_over_an_equal_but_separate_modulus_is_accepted(smoke17):
    # An equal Modulus is the same field: the field check compares by value.
    m17 = Modulus.from_int(17)
    assert m17 == smoke17.modulus and m17 is not smoke17.modulus
    twin = AffinePoint(m17.element(5), m17.element(1))
    good = mk_point(smoke17, (5, 1))
    other = mk_point(smoke17, (6, 3))
    k = MpInt(9, smoke17.modulus.capacity)
    assert on_curve(twin, smoke17)
    assert point_add(twin, other, smoke17) == point_add(good, other, smoke17)
    assert point_add(other, twin, smoke17) == point_add(other, good, smoke17)
    assert point_add(twin, twin, smoke17) == point_double(good, smoke17)
    assert ladder(k, twin, smoke17) == ladder(k, good, smoke17)
    assert double_and_add(k, twin, smoke17) == double_and_add(k, good, smoke17)
    assert AffinePoint(m17.element(5), smoke17.modulus.element(1)) == good


def test_curve_params_validation():
    with pytest.raises(ValidationError, match="singular"):
        CurveParams.from_ints("bad", 17, 0, 0, 5, 1, 19, 1)
    with pytest.raises(ValidationError, match="G not on curve"):
        CurveParams.from_ints("bad", 17, 2, 2, 5, 2, 19, 1)
    with pytest.raises(ValidationError, match="n"):
        CurveParams.from_ints("bad", 17, 2, 2, 5, 1, 1, 1)
    # 4a^3 + 27b^2 = b^2 = 1 (mod 2), yet every curve over GF(2) is singular
    with pytest.raises(ValidationError, match="curve is singular"):
        CurveParams.from_ints("gf2", 2, 1, 1, 0, 1, 5, 1)


def test_curve_params_rejects_infinite_base():
    m = Modulus.from_int(17)
    with pytest.raises(ValidationError, match="finite"):
        CurveParams(
            name="bad",
            modulus=m,
            a=m.element(2),
            b=m.element(2),
            g=INFINITY,
            n=MpInt(19, m.capacity),
            h=MpInt(1, m.capacity),
        )


def test_curve_params_rejects_foreign_coefficients():
    m = Modulus.from_int(17)
    other = Modulus.from_int(19)
    with pytest.raises(ContextError):
        CurveParams(
            name="bad",
            modulus=m,
            a=other.element(2),
            b=m.element(2),
            g=AffinePoint(m.element(5), m.element(1)),
            n=MpInt(19, m.capacity),
            h=MpInt(1, m.capacity),
        )


def test_format_point(smoke17, p192):
    assert format_point(INFINITY, smoke17) == "infinity"
    assert format_point(mk_point(smoke17, (5, 1)), smoke17) == "05,01"
    assert format_point(p192.g, p192) == (
        "188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012,"
        "07192b95ffc8da78631011ed6b24cdd573f977a11e794811"
    )


def test_parse_format_roundtrip(smoke17, smoke17_points):
    for point in smoke17_points:
        assert parse_point(format_point(point, smoke17), smoke17) == point


def test_parse_point_errors(smoke17):
    with pytest.raises(ParseError):
        parse_point("05", smoke17)
    with pytest.raises(ParseError):
        parse_point("05,01,02", smoke17)
    with pytest.raises(ParseError):
        parse_point("zz,01", smoke17)
    with pytest.raises(ValidationError):
        parse_point("12,01", smoke17)  # 0x12 = 18 >= 17
    with pytest.raises(DomainError, match="point not on curve"):
        parse_point("05,02", smoke17)
    with pytest.raises(ParseError, match="'x,y', 'gen' or 'infinity'"):
        parse_point("GEN", smoke17)
    assert parse_point("gen", smoke17) == smoke17.g


def test_ladder_sweep_every_small_curve():
    """Every point of every nonsingular small curve, for every k < 3*#E."""
    checks = x_zero = y_zero = even = 0
    for p, a, b, points in small_curves(SWEEP_PRIMES):
        if len(points) == 1:
            continue  # O alone: no finite G to build the curve on
        curve = CurveParams.from_ints("sweep", p, a, b, *points[1], 2, 1)
        even += len(points) % 2 == 0
        for xy in points[1:]:
            x_zero += xy[0] == 0
            y_zero += xy[1] == 0
        for xy in points:
            point, acc = mk_point(curve, xy), None
            for k in range(3 * len(points)):
                got = ladder(scalar(curve, k), point, curve)
                assert as_xy(got) == acc, (p, a, b, xy, k)
                acc = oracle_add(acc, xy, p, a)
                checks += 1
    assert (checks, x_zero, y_zero, even) == (160611, 334, 302, 212)


def test_public_law_sweep_every_small_curve():
    """double_and_add for every k <= #E + 1, point_add on every ordered pair and
    point_double on every point, over every curve with a finite point and p < 12."""
    curves = checks = pairs = doublings = 0
    for p, a, b, points in small_curves(SWEEP_PRIMES):
        if p >= 12 or len(points) == 1:
            continue  # p = 13 is the ladder sweep's alone; O alone has no G
        curves += 1
        curve = CurveParams.from_ints("sweep", p, a, b, *points[1], 2, 1)
        lifted = [mk_point(curve, xy) for xy in points]
        for xy, point in zip(points, lifted):
            acc = None
            for k in range(len(points) + 2):
                got = double_and_add(scalar(curve, k), point, curve)
                assert as_xy(got) == acc, (p, a, b, xy, k)
                acc = oracle_add(acc, xy, p, a)
                checks += 1
            assert as_xy(point_double(point, curve)) == oracle_add(xy, xy, p, a), (p, a, b, xy)
            doublings += 1
            for xy2, point2 in zip(points, lifted):
                got = point_add(point, point2, curve)
                assert as_xy(got) == oracle_add(xy, xy2, p, a), (p, a, b, xy, xy2)
                pairs += 1
    assert (curves, checks, pairs, doublings) == (177, 24543, 20945, 1799)


def test_jacobian_law_sweep():
    rng = random.Random(2007)
    for p, a, b, points in small_curves(SWEEP_PRIMES):
        for P in points:
            jac = lift_jacobian(P, rng.randrange(1, p), p)
            doubled = project_jacobian(_double_jac(jac, p, a), p)
            assert doubled == oracle_add(P, P, p, a), (p, a, b, P)
            for Q in points:
                got = project_jacobian(_add_jac(jac, Q, p, a), p)
                assert got == oracle_add(P, Q, p, a), (p, a, b, P, Q)


@settings(deadline=None, max_examples=50)
@given(
    a=st.integers(0, N192 - 1),
    d=st.integers(1, N192 - 1),
    lam0=st.integers(1, P192 - 1),
    lam1=st.integers(1, P192 - 1),
)
@example(a=0, d=N192 // 3, lam0=1, lam1=P192 - 1)  # R0 = O
@example(a=N192 // 3, d=N192 - N192 // 3, lam0=2, lam1=3)  # R1 = O
@example(a=N192 // 3, d=N192 - 2 * (N192 // 3), lam0=5, lam1=7)  # R1 = -R0
@example(a=N192 // 5, d=1, lam0=P192 - 1, lam1=3)  # difference G
def test_x_only_law_on_p192_multiples(p192, a, d, lam0, lam1):
    """Exact on random representatives of R0 = a*G and R1 = (a + d)*G, d*G != O."""
    assert p192.n.value == N192
    g, A, b4 = as_xy(p192.g), P192 - 3, 4 * p192.b.value.value % P192
    r0, r1, diff = (oracle_mul_binary(k, g, P192, A) for k in (a, (a + d) % N192, d))
    R0, R1 = lift_x(r0, lam0, P192), lift_x(r1, lam1, P192)
    got = _xadd(R0, R1, diff[0], P192, A, b4)
    assert project_x(got, P192) == x_of(oracle_add(r0, r1, P192, A))
    assert got == _xadd(R1, R0, diff[0], P192, A, b4)
    for r, R in ((r0, R0), (r1, R1)):
        assert project_x(_xdbl(R, P192, A, b4), P192) == x_of(oracle_add(r, r, P192, A))


def test_ladder_exit_when_the_next_multiple_is_o(p192):
    """(k+1)*P = O leaves R1 = O, which the y recovery cannot use: k*P is -P."""
    n, g = p192.n.value, as_xy(p192.g)
    for xy in (g, oracle_mul_binary(7, g, P192, P192 - 3)):
        point = mk_point(p192, xy)
        for k in (n - 1, 2 * n - 1, 3 * n - 1):
            got = ladder(scalar(p192, k), point, p192)
            assert got == negate(point), k
            assert as_xy(got) == oracle_mul_binary(k, xy, P192, P192 - 3), k


@settings(deadline=None, max_examples=50)
@given(
    a=st.integers(0, N192 - 1),
    b=st.integers(0, N192 - 1),
    lam=st.integers(1, P192 - 1),
)
@example(a=N192 // 3, b=N192 // 3, lam=P192 - 1)
@example(a=N192 // 3, b=N192 - N192 // 3, lam=2)
@example(a=0, b=N192 // 5, lam=5)
@example(a=N192 // 7, b=0, lam=3)
def test_jacobian_law_on_p192_multiples(p192, a, b, lam):
    """The Jacobian law and its exit on random representatives of multiples of G."""
    g = as_xy(p192.g)
    aG, bG = (oracle_mul_binary(k, g, P192, P192 - 3) for k in (a, b))
    P = lift_jacobian(aG, lam, P192)
    assert _from_jac(P, p192) == mk_point(p192, aG)
    assert _from_jac((P[0], P[1], 0), p192) is INFINITY
    got = _add_jac(P, bG, P192, P192 - 3)
    assert project_jacobian(got, P192) == oracle_add(aG, bG, P192, P192 - 3)
    doubled = _double_jac(P, P192, P192 - 3)
    assert project_jacobian(doubled, P192) == oracle_add(aG, aG, P192, P192 - 3)
