"""Group law on short-Weierstrass curves y**2 = x**3 + a*x + b over GF(p).

The point at infinity is a first-class value, so addition and doubling are
total: every exceptional coordinate collision (equal points, inverse points,
identity operands, vertical tangents) is dispatched rather than treated as a
failure.

The law is written twice on plain-int residues, in two coordinate systems.
Jacobian, on (X:Y:Z) = (X/Z**2, Y/Z**3) with O as Z = 0: ``_double_jac`` and
``_add_jac``, a mixed addition of an affine point that dispatches O, equal points
and inverse points; ``point_add``, ``point_double`` and ``double_and_add`` run it.
x-only, on (X:Z) = X/Z with O as (X:0): ``_xdbl``, ``_xadd`` of two points whose
difference has a known x, and ``_xrecover``, the Jacobian R0 from the ladder's two
registers; the ladder runs it.  ``AffinePoint`` with ``FieldElement`` coordinates
and ``MpInt`` values stay the public types.  A point comes in one way, ``_enter``,
which rejects a point off the curve, and goes out one way, ``_from_jac``, whose Z
``_to_affine`` inverts, the law's one inversion (none for O; ``NoInverseError``
for a Z that is no unit, which only a composite p allows).
"""

from __future__ import annotations

from .errors import ContextError, DomainError, ParseError, ValidationError
from .field import FieldElement, Modulus, inverse_mod
from .mpint import Frozen, MpInt


class AffinePoint(Frozen):
    """Either the point at infinity (no coordinates) or a finite pair (x, y)."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: FieldElement | None = None, y: FieldElement | None = None):
        if (x is None) != (y is None):
            raise ValidationError("a finite point needs both coordinates")
        if x is not None:
            x._require_same(y)
        self._bind(x, y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "AffinePoint(infinity)"
        return f"AffinePoint({self.x.value.value}, {self.y.value.value})"


#: The group identity.
INFINITY = AffinePoint()


class CurveParams(Frozen):
    """A validated short-Weierstrass curve with base point and group order.

    ``_law`` is (p, a, b, 4*b mod p) as ints for the int law, a nearest 0 (-3 on
    P-192).  ``_validated`` is True once ``domain.parse_curve_file`` proved #E = h*n,
    never from the constructor or ``from_ints``.  Equality and the repr see neither.
    """

    __slots__ = ("name", "modulus", "a", "b", "g", "n", "h", "_law", "_validated")
    _fields = __slots__[:7]

    def __init__(self, name: str, modulus: Modulus, a: FieldElement, b: FieldElement,
                 g: AffinePoint, n: MpInt, h: MpInt):
        if a.modulus != modulus or b.modulus != modulus:
            raise ContextError("curve coefficients from a different modulus")
        p, av, bv = modulus.p.value, a.value.value, b.value.value
        law = (p, av - p if 2 * av > p else av, bv, 4 * bv % p)
        self._bind(name, modulus, a, b, g, n, h, law, False)
        # In characteristic 2, 4a**3 + 27b**2 is b**2, yet every curve is singular.
        if p == 2 or (4 * av * av * av + 27 * bv * bv) % p == 0:
            raise ValidationError("curve is singular")
        if self.n.value < 2:
            raise ValidationError("base point order n must be at least 2")
        if self.g.is_infinity:
            raise ValidationError("G must be a finite point")
        if not on_curve(self.g, self):
            raise ValidationError("G not on curve")

    @classmethod
    def from_ints(cls, name, p, a, b, gx, gy, n, h) -> "CurveParams":
        """Build and validate a curve from plain integer parameters."""
        m = Modulus.from_int(p)
        a, b, g = m.element(a), m.element(b), AffinePoint(m.element(gx), m.element(gy))
        return cls(name, m, a, b, g, MpInt(n, m.capacity), MpInt(h, m.capacity))


def on_curve(point: AffinePoint, curve: CurveParams) -> bool:
    """Membership by substitution into the curve equation; O always belongs."""
    try:
        _enter(point, curve)
    except DomainError:
        return False
    return True


def negate(point: AffinePoint) -> AffinePoint:
    """The additive inverse: O maps to O, (x, y) to (x, -y)."""
    return point if point.is_infinity else AffinePoint(point.x, -point.y)


def point_add(p1: AffinePoint, p2: AffinePoint, curve: CurveParams) -> AffinePoint:
    """Total addition of two points on the curve; the law is :func:`_add_jac`."""
    p, a, _, _ = curve._law
    return _from_jac(_add_jac(_lift(_enter(p1, curve)), _enter(p2, curve), p, a), curve)


def point_double(point: AffinePoint, curve: CurveParams) -> AffinePoint:
    """Total doubling, P + P; :func:`_add_jac` sends it to :func:`_double_jac`."""
    return point_add(point, point, curve)


def _enter(point: AffinePoint, curve: CurveParams) -> tuple[int, int] | None:
    """The one way into the int law: a point's (x, y) residues, or None for O.

    Raises ``ContextError`` for another modulus context, ``DomainError`` off the curve.
    """
    if point.is_infinity:
        return None
    point.x._require_same(curve.a)
    p, a, b, _ = curve._law
    x, y = point.x.value.value, point.y.value.value
    if (y * y - (x * x + a) * x - b) % p:
        raise DomainError("point not on curve")
    return x, y


def _lift(xy: tuple[int, int] | None) -> tuple[int, int, int]:
    """The Jacobian triple (x : y : 1) of an affine point, (1 : 1 : 0) for O."""
    return (1, 1, 0) if xy is None else (*xy, 1)


def _double_jac(p1, p: int, a: int):
    """Jacobian doubling: 5M + 4S + 1m_a, or 5M + 3S when a = -3.

    M = 3(X1 - Z1**2)(X1 + Z1**2) + (a + 3)Z1**4, whose last term a = -3 drops, so
    the cost depends on the curve only.  Z3 = 2*Y1*Z1 is 0 (O) for O and for y = 0.
    """
    x1, y1, z1 = p1
    yy = y1 * y1 % p
    s = 4 * x1 * yy % p
    zz = z1 * z1 % p
    m = 3 * (x1 - zz) * (x1 + zz)
    if a != -3:
        m += (a + 3) * (zz * zz % p)
    m %= p
    x3 = (m * m - 2 * s) % p
    return x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y1 * z1 % p


def _add_jac(p1, xy, p: int, a: int):
    """Mixed addition of Jacobian p1 and affine xy (None for O); 8M + 3S.

    Guide to Elliptic Curve Cryptography, Hankerson, Menezes, Vanstone,
    Alg. 3.22.  O on either side is the identity; with H = x2*Z1**2 - X1
    and r = y2*Z1**3 - Y1, H = 0 means equal x: equal points (r = 0) go to
    :func:`_double_jac`, inverse points sum to O.
    """
    if xy is None:
        return p1
    x1, y1, z1 = p1
    if z1 == 0:
        return _lift(xy)
    x2, y2 = xy
    zz = z1 * z1 % p
    h = (x2 * zz - x1) % p
    r = (y2 * zz * z1 - y1) % p
    if h == 0:
        return _double_jac(p1, p, a) if r == 0 else (1, 1, 0)
    hh = h * h % p
    hhh = hh * h % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p


def _from_jac(xyz: tuple[int, int, int], curve: CurveParams) -> AffinePoint:
    """The one way out: Jacobian (X:Y:Z) to affine by :func:`_to_affine`, Z = 0 to O."""
    if xyz[2] == 0:
        return INFINITY
    x, y = _to_affine([xyz], curve._law[0])[0]
    return AffinePoint(curve.modulus.element(x), curve.modulus.element(y))


def _to_affine(points, p: int) -> list:
    """Jacobian to affine (x, y), None for O, by Montgomery's trick (HMV Alg. 2.26)."""
    heads = [1]
    for _, _, z in points:
        heads.append(heads[-1] * (z or 1) % p)
    inv, out = inverse_mod(heads.pop(), p), []
    for (x, y, z), head in zip(reversed(points), reversed(heads)):
        zi, inv = inv * head % p, inv * (z or 1) % p
        zz = zi * zi % p
        out.append((x * zz % p, y * zz * zi % p) if z else None)
    return out[::-1]


def _xdbl(r, p: int, a: int, b4: int):
    """x-only doubling, b4 = 4*b mod p; 4M + 3S + 1m_a + 1m_b.

    Brier, Joye, "Weierstrass elliptic curves and side-channel attacks"
    (PKC 2002).  Z' is 0, which is O, for O and for a point with y = 0;
    X' is then X**4 or (3x**2 + a)**2 * Z**4, never 0 on a nonsingular curve.
    """
    x, z = r
    xx, zz, xz = x * x % p, z * z % p, x * z % p
    azz, bzz = a * zz % p, b4 * zz % p
    return ((xx - azz) ** 2 - 2 * bzz * xz) % p, (4 * xz * (xx + azz) + bzz * zz) % p


def _xadd(r0, r1, xd: int, p: int, a: int, b4: int):
    """x(R0 + R1) from R0, R1 and xd = x(R1 - R0); 6M + 1S + 1m_a + 1m_b + 1m_xd.

    Brier-Joye's additive form, x(R0 + R1) + xd = (2(x0 + x1)(x0*x1 + a) +
    4b) / (x0 - x1)**2, projectively.  Exact whenever R1 - R0 is not O: an
    O operand gives the other one, and R1 = -R0 gives (X:0) with X != 0.
    """
    x0, z0 = r0
    x1, z1 = r1
    u, v, zz = x0 * z1 % p, x1 * z0 % p, z0 * z1 % p
    w = (u - v) ** 2 % p
    return (2 * (u + v) * (x0 * x1 + a * zz) + b4 * zz * zz - xd * w) % p, w


def _xrecover(xy, r0, r1, p: int, a: int, b: int):
    """Jacobian (X:Y:Z) of R0 from P = xy and the x-only R0, R1 = R0 + P; 15M + 1S.

    Okeya, Sakurai (CHES 2001).  Z = 2*y*Z0**2*Z1 is 0, so O, if R0 = O or y = 0.
    """
    (x, y), (x0, z0), (x1, z1) = xy, r0, r1
    if z1 == 0:  # R0 + P = O, so R0 = -P
        return x, -y % p, 1
    t, u = 2 * y * z0 * z1 % p, x * z0
    y0 = (2 * b * z0 * z0 + (a * z0 + x * x0) * (u + x0)) * z1 - x1 * (u - x0) ** 2
    z = t * z0 % p
    return x0 * t * z % p, y0 * z * z % p, z


def format_point(point: AffinePoint, curve: CurveParams) -> str:
    """Serialize as "x,y" in ``Modulus.hex`` (field width), or "infinity"."""
    if point.is_infinity:
        return "infinity"
    m = curve.modulus
    return f"{m.hex(point.x.value)},{m.hex(point.y.value)}"


def parse_point(text: str, curve: CurveParams) -> AffinePoint:
    """Inverse of :func:`format_point`, and "gen" for G: only points on the curve.

    Coordinates must be canonical residues; a point off the curve raises
    ``DomainError``.
    """
    if text == "infinity":
        return INFINITY
    if text == "gen":
        return curve.g
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"point must be 'x,y', 'gen' or 'infinity', got {text!r}")
    m = curve.modulus
    coords = []
    for part in parts:
        value = MpInt.from_hex(part, m.capacity)
        if value >= m.p:
            raise ValidationError(f"coordinate {part} is not a canonical residue")
        coords.append(FieldElement(value, m))
    point = AffinePoint(*coords)
    _enter(point, curve)
    return point
