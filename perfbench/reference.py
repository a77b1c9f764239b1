"""Plain-integer reference for every output the benchmark checks.

Nothing here imports ``ecpf``.  The curve constants are the published ones
(NIST P-192 from FIPS 186-4 D.1.2.1, and the 19-point desk-check curve
y^2 = x^3 + 2x + 2 over GF(17)), and the group law is textbook affine
chord-and-tangent on Python ints with ``None`` as the point at infinity, so
a disagreement with the library points at the library.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Curve:
    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int
    h: int

    @property
    def g(self) -> tuple[int, int]:
        return (self.gx, self.gy)

    @property
    def width(self) -> int:
        """Hex digits of one serialized field element."""
        return -(-self.p.bit_length() // 4)


_P = 2**192 - 2**64 - 1
P192 = Curve(
    name="p192",
    p=_P,
    a=_P - 3,
    b=0x64210519E59C80E70FA7E9AB72243049FEB8DEECC146B9B1,
    gx=0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012,
    gy=0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
    h=1,
)
SMOKE17 = Curve(name="smoke17", p=17, a=2, b=2, gx=5, gy=1, n=19, h=1)


def on_curve(P, c: Curve) -> bool:
    if P is None:
        return True
    x, y = P
    return (y * y - (x * x * x + c.a * x + c.b)) % c.p == 0


def add(P, Q, c: Curve):
    """Affine chord-and-tangent addition; total over every input pair."""
    if P is None:
        return Q
    if Q is None:
        return P
    p = c.p
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        s = (3 * x1 * x1 + c.a) * pow(2 * y1, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s - x1 - x2) % p
    return (x3, (s * (x1 - x3) - y1) % p)


def neg(P, c: Curve):
    return None if P is None else (P[0], -P[1] % c.p)


class Multiples:
    """k*P for any k below 2**bits, as a sum of precomputed 2**i * P.

    Building the table costs ``bits`` doublings once; each product then
    costs one addition per set bit of k, which keeps checking cheaper than
    the work it checks.  Scalars are not reduced modulo n.
    """

    def __init__(self, P, c: Curve, bits: int = 193):
        self.curve = c
        self.table = []
        for _ in range(bits):
            self.table.append(P)
            P = add(P, P, c)

    def mul(self, k: int):
        if k >> len(self.table):
            raise ValueError("scalar wider than the table")
        acc = None
        i = 0
        while k:
            if k & 1:
                acc = add(acc, self.table[i], self.curve)
            k >>= 1
            i += 1
        return acc


def format_point(P, c: Curve) -> str:
    if P is None:
        return "infinity"
    return f"{P[0]:0{c.width}x},{P[1]:0{c.width}x}"


def keypair_lines(d: int, Q, c: Curve) -> str:
    return f"private={d:0{c.width}x}\npublic={format_point(Q, c)}\n"


def seeded_private(seed_hex: str, c: Curve) -> int:
    """The CLI's documented test mapping d = (seed mod (n-1)) + 1."""
    return int(seed_hex, 16) % (c.n - 1) + 1


def sampled_private(getrandbits, c: Curve) -> int:
    """Rejection sampling of d in [1, n-1], drawing bit_length(n) bits a time."""
    bits = c.n.bit_length()
    while True:
        d = getrandbits(bits)
        if 0 < d < c.n:
            return d


def curve_info(c: Curve) -> str:
    w = c.width

    def wide(v: int) -> str:
        return f"{v:0{max(w, -(-v.bit_length() // 4))}x}"

    return (
        f"name={c.name}\np={c.p:0{w}x}\na={c.a:0{w}x}\nb={c.b:0{w}x}\n"
        f"gx={c.gx:0{w}x}\ngy={c.gy:0{w}x}\nn={wide(c.n)}\nh={wide(c.h)}\n"
    )


def curve_file_text(c: Curve, *, drop: str | None = None, n: int | None = None) -> str:
    """A key=value curve file; ``drop`` omits one key, ``n`` overrides the order."""
    fields = {
        "name": c.name,
        "p": f"{c.p:x}",
        "a": f"{c.a:x}",
        "b": f"{c.b:x}",
        "gx": f"{c.gx:x}",
        "gy": f"{c.gy:x}",
        "n": f"{c.n if n is None else n:x}",
        "h": f"{c.h:x}",
    }
    lines = [f"# {c.name}, written by the benchmark"]
    lines += [f"{k}={v}" for k, v in fields.items() if k != drop]
    return "\n".join(lines) + "\n"
