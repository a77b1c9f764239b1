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
Both invert once, at exit: the ladder runs the complete projective law,
the oracle the Jacobian law with case dispatch, so the two check different
formulas against each other.  ``fixed_base`` computes d*G on a validated
curve from a per-curve table of 2^i*G: one complete addition per bit of n,
whatever d is, and one inversion; key generation runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import INFINITY, AffinePoint, CurveParams, _add_jac, _add_xyz
from .curve import _double_jac, _enter, _from_jac, _from_xyz, _lift
from .errors import RangeError, ValidationError
from .mpint import MpInt


@dataclass
class OpCounter:
    """Counts the ladder's loop-body operations (the setup doubling excluded)."""

    adds: int = 0
    doubles: int = 0


def ladder(
    k: MpInt,
    point: AffinePoint,
    curve: CurveParams,
    *,
    counter: OpCounter | None = None,
) -> AffinePoint:
    """Montgomery-ladder scalar multiplication.

    Registers R0, R1 start as (P, 2P).  Each scalar bit b, from the
    second-highest down to bit 0, is one step with no branch on b:
    R[1-b] = R0 + R1, then R[b] = 2*R[b] (Joye-Yen, CHES 2002).  The pair's
    difference stays P throughout, and R0 is the result.  Both operations
    run the complete projective law, which is symmetric in its operands;
    the only inversion is the one at exit.

    k = 0 yields O, k = 1 yields P, and P = O yields O.
    """
    xy = _enter(point, curve)
    kv = k.value
    if kv == 0 or xy is None:
        return INFINITY
    # The complete law fails when the registers' difference P has order 2.
    if kv == 1 or xy[1] == 0:
        return point if kv & 1 else INFINITY
    p, a, _, b3 = curve._law
    base = (*xy, 1)
    regs = [base, _add_xyz(base, base, p, a, b3)]
    for i in range(kv.bit_length() - 2, -1, -1):
        bit = (kv >> i) & 1
        regs[1 - bit] = _add_xyz(regs[0], regs[1], p, a, b3)
        regs[bit] = _add_xyz(regs[bit], regs[bit], p, a, b3)
        if counter is not None:
            counter.adds += 1
            counter.doubles += 1
    return _from_xyz(regs[0], curve)


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


def fixed_base(d: MpInt, curve: CurveParams) -> AffinePoint:
    """d*G on a validated curve, for 0 <= d < 2^L with L = n.bit_length().

    Walks the table T[i] = 2^i*G, i < L, built with L - 1 doublings on the
    first call for a curve and kept in ``curve._table``: every T[i] is added
    to R[bit i of d], so R1 = d*G after exactly L complete additions, with
    no branch on a bit, and one inversion at exit.  Every operand is a
    multiple of G, whose order n is an odd prime on a validated curve, so no
    difference has order 2 and the complete law is exact throughout.
    """
    p, a, _, b3 = curve._law
    table = curve._table
    if table is None:
        if not curve._validated:
            raise ValidationError("fixed_base needs a curve from parse_curve_file")
        table = [(*_enter(curve.g, curve), 1)]
        for _ in range(curve.n.bit_length() - 1):
            table.append(_add_xyz(table[-1], table[-1], p, a, b3))
        object.__setattr__(curve, "_table", tuple(table))
    dv = d.value
    if dv >> len(table):
        raise RangeError(f"scalar wider than the {len(table)}-bit table")
    regs = [(0, 1, 0), (0, 1, 0)]
    for i, row in enumerate(table):
        bit = (dv >> i) & 1
        regs[bit] = _add_xyz(regs[bit], row, p, a, b3)
    return _from_xyz(regs[1], curve)
