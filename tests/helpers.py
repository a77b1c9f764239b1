"""Independent oracles for the test suite.

Everything here works on plain Python integers and never calls the library
under test, so disagreements localize bugs on the library side.
"""

from math import isqrt

from ecpf.curve import INFINITY, AffinePoint
from ecpf.mpint import MpInt

# y^2 = x^3 + 2x + 4 over GF(11): 17 points, so n = 0x11 has more hex
# digits than p = 0xb, and keys d >= 16 print wider than the field.
T11_TEXT = "name=t11\np=0b\na=2\nb=4\ngx=0\ngy=2\nn=11\nh=1\n"

# The bundled smoke17 as a plain curve file: y^2 = x^3 + 2x + 2 over GF(17),
# 19 points.
SMOKE17_TEXT = "name=smoke17\np=11\na=02\nb=02\ngx=05\ngy=01\nn=13\nh=01\n"

# ``CurveParams.from_ints`` arguments of y^2 = x^3 + 4x over GF(5): 8 points,
# G = (0, 0) of order 2, so n = 2 and h = 4.
TINY5 = ("tiny5", 5, 4, 0, 0, 0, 2, 4)

# Curve files that pass the validator, with their point counts #E = h*n:
# four of prime order (h = 1), three with h = 2 and one with h = 3.
SWEEP_CURVES = [
    (SMOKE17_TEXT, 19),
    ("name=e23\np=17\na=01\nb=04\ngx=00\ngy=02\nn=1d\nh=01\n", 29),
    ("name=e31\np=1f\na=00\nb=03\ngx=01\ngy=02\nn=2b\nh=01\n", 43),
    ("name=e53\np=35\na=01\nb=08\ngx=01\ngy=0d\nn=3d\nh=01\n", 61),
    ("name=h2\np=2f\na=01\nb=0b\ngx=07\ngy=13\nn=1d\nh=02\n", 58),
    ("name=h2b\np=35\na=05\nb=01\ngx=2e\ngy=2b\nn=1f\nh=02\n", 62),
    ("name=h3\np=97\na=01\nb=13\ngx=14\ngy=91\nn=35\nh=03\n", 159),
    # at the edges of the order checks: n*n = 1681 just above 16p = 1616, and
    # h*n = p + 1 - 20 with 2*sqrt(p) about 20.1
    ("name=e101\np=65\na=02\nb=00\ngx=46\ngy=59\nn=29\nh=02\n", 82),
]

# The CLI's options, command by command: [(flag, metavar, required)].
XY = "X,Y|gen|infinity"
COMMAND_OPTIONS = {
    "keygen": [("--seed", "HEX", False)],
    "mul": [("--scalar", "HEX", True), ("--point", XY, True)],
    "add": [("--p1", XY, True), ("--p2", XY, True)],
    "double": [("--point", XY, True)],
    "negate": [("--point", XY, True)],
    "check": [("--point", XY, False)],
    "curve-info": [],
}

#: The order of the P-192 base point.
N192 = 0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831


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


def oracle_cli_stdout(curve_text, command, options, private=None):
    """The stdout of an ``ecpf`` command that succeeded, from ints only.

    ``curve_text`` is the key=value file of the curve it ran on, and
    ``options`` maps each option given (``"--seed"``, ``"--point"``, ...) to
    its text.  An unseeded keygen draws its own d: pass the one it printed
    as ``private``, and the answer checks that its public key is d*G.
    """
    curve = {}
    for line in curve_text.splitlines():
        key, _, value = line.strip().partition("=")
        if key and not key.startswith("#"):
            curve[key.strip()] = value.strip()
    ints = {key: int(curve[key], 16) for key in ("p", "a", "b", "gx", "gy", "n", "h")}
    p, a, n, g = ints["p"], ints["a"], ints["n"], (ints["gx"], ints["gy"])
    width = len(f"{p:x}")

    def point(text):
        if text in ("gen", "infinity"):
            return g if text == "gen" else None
        return tuple(int(part, 16) for part in text.split(","))

    def out(xy):
        return "infinity" if xy is None else f"{xy[0]:0{width}x},{xy[1]:0{width}x}"

    if command == "curve-info":
        return f"name={curve['name']}\n" + "".join(f"{k}={v:0{width}x}\n" for k, v in ints.items())
    if command == "check":
        return "ok\n"
    if command == "keygen":
        seed = options.get("--seed")
        d = private if seed is None else int(seed, 16) % (n - 1) + 1
        assert 1 <= d < n, d
        return f"private={d:0{width}x}\npublic={out(oracle_mul_binary(d, g, p, a))}\n"
    if command == "negate":
        xy = point(options["--point"])
        return out(xy and (xy[0], -xy[1] % p)) + "\n"
    if command == "double":
        xy = point(options["--point"])
        return out(oracle_add(xy, xy, p, a)) + "\n"
    if command == "add":
        return out(oracle_add(point(options["--p1"]), point(options["--p2"]), p, a)) + "\n"
    assert command == "mul", command
    k = int(options["--scalar"], 16)
    return out(oracle_mul_binary(k, point(options["--point"]), p, a)) + "\n"


def enumerate_points(p, a, b):
    """All solutions of y**2 = x**3 + a*x + b over GF(p), plus None for O."""
    points = [None]
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                points.append((x, y))
    return points


def is_prime(m):
    """Primality by trial division."""
    return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))


def point_order(P, p, a):
    """The order of the finite point P, by repeated ``oracle_add``."""
    k, acc = 1, P
    while acc is not None:
        acc, k = oracle_add(acc, P, p, a), k + 1
    return k


def small_curves(primes):
    """(p, a, b, points) for every nonsingular curve over GF(p), p in ``primes``."""
    for p in primes:
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p:
                    yield p, a, b, enumerate_points(p, a, b)


def small_curve_files(max_p):
    """(curve-file text, valid) over every nonsingular curve with prime 3 <= p < max_p.

    G is each of the curve's first two finite points; n is each of ord G,
    #E, ord G + 2 and 2*ord G; h is each of floor(#E/n), floor(#E/n) + 1 and
    1 that is at least 1.  A text is valid when p and n are prime by trial
    division, ord G = n, #E = h*n with #E counted, n != p and n*n > 16p.
    """
    for p, a, b, points in small_curves(filter(is_prime, range(3, max_p))):
        count = len(points)  # #E, with O
        for g in points[1:3]:
            order = point_order(g, p, a)
            for n in {order, count, order + 2, 2 * order}:
                for h in {count // n, count // n + 1, 1} - {0}:
                    exact = order == n and count == h * n  # p is prime already
                    valid = exact and is_prime(n) and n != p and n * n > 16 * p
                    text = f"name=c\np={p:x}\na={a:x}\nb={b:x}\ngx={g[0]:x}\ngy={g[1]:x}\n"
                    yield f"{text}n={n:x}\nh={h:x}\n", valid


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
