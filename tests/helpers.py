"""Independent oracles for the test suite.

Everything here works on plain Python integers and never calls the library
under test, so disagreements localize bugs on the library side.
"""

from ecpf.curve import INFINITY, AffinePoint
from ecpf.mpint import MpInt

# y^2 = x^3 + 2x + 4 over GF(11): 17 points, so n = 0x11 has more hex
# digits than p = 0xb, and keys d >= 16 print wider than the field.
T11_TEXT = "name=t11\np=0b\na=2\nb=4\ngx=0\ngy=2\nn=11\nh=1\n"


def oracle_add(P, Q, p, a):
    """Textbook affine chord-and-tangent addition; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        s = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s - x1 - x2) % p
    y3 = (s * (x1 - x3) - y1) % p
    return (x3, y3)


def oracle_mul_repeated(k, P, p, a):
    """k*P by definition: add P to itself k times.  Small k only."""
    acc = None
    for _ in range(k):
        acc = oracle_add(acc, P, p, a)
    return acc


def oracle_mul_binary(k, P, p, a):
    """k*P by high-to-low binary accumulation, for scalars too big to repeat."""
    acc = None
    for i in range(k.bit_length() - 1, -1, -1):
        acc = oracle_add(acc, acc, p, a)
        if (k >> i) & 1:
            acc = oracle_add(acc, P, p, a)
    return acc


def enumerate_points(p, a, b):
    """All solutions of y**2 = x**3 + a*x + b over GF(p), plus None for O."""
    points = [None]
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                points.append((x, y))
    return points


def fermat_inverse(value, p):
    """Inverse as value**(p-2) by explicit square-and-multiply."""
    result, base = 1, value % p
    exponent = p - 2
    while exponent:
        if exponent & 1:
            result = result * base % p
        base = base * base % p
        exponent >>= 1
    return result


def mk_point(curve, xy):
    """Lift an oracle point (int pair or None) into the library's type."""
    if xy is None:
        return INFINITY
    m = curve.modulus
    return AffinePoint(m.element(xy[0]), m.element(xy[1]))


def as_xy(point):
    """Project a library point down to an oracle point."""
    if point.is_infinity:
        return None
    return (point.x.value.value, point.y.value.value)


def scalar(curve, k):
    return MpInt(k, curve.modulus.capacity)
