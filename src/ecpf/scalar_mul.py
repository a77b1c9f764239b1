"""Scalar point multiplication k*P.

The primary path is the Montgomery ladder: a register pair with constant
difference P, one addition and one doubling per scalar bit whatever the bit.
A signed-window double-and-add walk is kept as an independent oracle.  Scalars
are plain unsigned integers, never reduced modulo the group order: k at or
beyond it is computed faithfully, the total law absorbing the collisions with O.

Both walks take an ``MpInt`` and an ``AffinePoint``, come in through the curve
module's checked ``_enter`` and leave through its ``_from_jac``.  The ladder runs
the x-only law and recovers a Jacobian R0 from its registers, the oracle the
Jacobian law with case dispatch, so each checks the other's formulas.  Both
invert once at exit, not at all for O; the oracle once more, for its table.
"""

from .curve import INFINITY, AffinePoint, CurveParams, _add_jac, _double_jac
from .curve import _enter, _from_jac, _lift, _to_affine, _xadd, _xdbl, _xrecover
from .mpint import MpInt


def ladder(k: MpInt, point: AffinePoint, curve: CurveParams) -> AffinePoint:
    """Montgomery-ladder scalar multiplication.

    Registers R0, R1 start as (P, 2P).  Each scalar bit b, from the second-highest
    down to bit 0, is one step with no branch on b: R[1-b] = R0 + R1, then
    R[b] = 2*R[b] (Joye-Yen, CHES 2002).  The pair's difference stays P, so both
    run the x-only law on (X:Z), and R0 is the result, its y recovered by
    ``_xrecover``.  k = 0 and P = O yield O; every other k and P, k = 1 and a P
    of order 2 included, run these same steps.
    """
    xy = _enter(point, curve)
    kv = k.value
    if kv == 0 or xy is None:
        return INFINITY
    p, a, b, b4 = curve._law
    x = xy[0]
    regs = [(x, 1), _xdbl((x, 1), p, a, b4)]
    for i in range(kv.bit_length() - 2, -1, -1):
        bit = (kv >> i) & 1
        regs[1 - bit] = _xadd(regs[0], regs[1], x, p, a, b4)
        regs[bit] = _xdbl(regs[bit], p, a, b4)
    return _from_jac(_xrecover(xy, *regs, p, a, b), curve)


def double_and_add(k: MpInt, point: AffinePoint, curve: CurveParams) -> AffinePoint:
    """Verification oracle: per digit d of k's width-4 NAF, double, then add dP.

    Each d is 0 or odd in (-8, 8), and of any 4 in a row at most one is not 0.  dP
    comes from a table of P, 3P, 5P, 7P and their negatives, made affine with one
    simultaneous inversion; an entry that is O is None, which ``_add_jac`` passes
    by, so k >= n, points of small order and P = O need no case of their own.
    """
    kv = k.value
    p, a, _, _ = curve._law
    base = _enter(point, curve)
    digits = []
    while kv:
        digits.append(((kv + 8) & 15) - 8 if kv & 1 else 0)
        kv = (kv - digits[-1]) >> 1
    multiples = [_lift(base)]
    for _ in range(6):  # 2P, ..., 7P
        multiples.append(_add_jac(multiples[-1], base, p, a))
    odd = [base, *_to_affine(multiples[2::2], p)]
    table = odd + [xy and (xy[0], -xy[1] % p) for xy in reversed(odd)]  # dP at d >> 1
    acc = _lift(None)
    for d in reversed(digits):
        acc = _double_jac(acc, p, a)
        if d:
            acc = _add_jac(acc, table[d >> 1], p, a)
    return _from_jac(acc, curve)
