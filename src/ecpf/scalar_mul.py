"""Scalar point multiplication k*P.

The primary path is the Montgomery ladder: a register pair with constant
difference P, performing exactly one addition and one doubling per scalar
bit regardless of the bit's value.  A naive double-and-add walk is kept as
an independent oracle for cross-verification.  Scalars are plain unsigned
integers; they are never silently reduced modulo the group order, so k at
or beyond the order is computed faithfully (the total group law absorbs
the intermediate collisions with infinity that this produces).

Both walks take an ``MpInt`` scalar and an ``AffinePoint`` and return an
``AffinePoint``, entering through the curve module's checked ``_enter``.
Both invert at most once, at exit; not at all when the result is O.  The
ladder runs the x-only law and recovers y from its two registers, the
oracle the Jacobian law with case dispatch: each checks the other's formulas.
"""

from __future__ import annotations

from .curve import INFINITY, AffinePoint, CurveParams, _add_jac, _double_jac
from .curve import _enter, _from_jac, _from_xyz, _lift, _xadd, _xdbl, _xrecover
from .mpint import MpInt


def ladder(k: MpInt, point: AffinePoint, curve: CurveParams) -> AffinePoint:
    """Montgomery-ladder scalar multiplication.

    Registers R0, R1 start as (P, 2P).  Each scalar bit b, from the
    second-highest down to bit 0, is one step with no branch on b:
    R[1-b] = R0 + R1, then R[b] = 2*R[b] (Joye-Yen, CHES 2002).  The pair's
    difference stays P throughout, so both run the x-only law on (X:Z),
    and R0 is the result, its y recovered by ``_xrecover`` and inverted at
    most once.  k = 0 and P = O yield O; every other k and P, k = 1 and a P of
    order 2 included, run these same steps.
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
    return _from_xyz(_xrecover(xy, *regs, p, a, b), curve)


def double_and_add(k: MpInt, point: AffinePoint, curve: CurveParams) -> AffinePoint:
    """Verification oracle: double each step, add where the bit is set."""
    kv = k.value
    p, a, _, _ = curve._law
    base = _enter(point, curve)
    acc = _lift(None)
    for i in range(kv.bit_length() - 1, -1, -1):
        acc = _double_jac(acc, p, a)
        if (kv >> i) & 1:
            acc = _add_jac(acc, base, p, a)
    return _from_jac(acc, curve)
