"""Scalar point multiplication k*P.

The primary path is the Montgomery ladder: a register pair with constant
difference P, performing exactly one addition and one doubling per scalar
bit regardless of the bit's value.  A naive double-and-add walk is kept as
an independent oracle for cross-verification.  Scalars are plain unsigned
integers; they are never silently reduced modulo the group order, so k at
or beyond the order is computed faithfully (the total group law absorbs
the intermediate collisions with infinity that this produces).

Both walks take an ``MpInt`` scalar and an ``AffinePoint`` and return an
``AffinePoint``, entering through the curve module's checked ``_enter``; in
between, their loops run on plain-int residues of its int-level group law.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import INFINITY, AffinePoint, CurveParams, _add_xy, _double_xy
from .curve import _enter, _from_xy, _law_constants
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

    Registers start as (P, 2P).  Scanning bits from the second-highest down
    to bit 0: a set bit folds the sum into the low register and doubles the
    high one, a clear bit does the mirror image.  The pair's difference
    stays P throughout, and the low register is the result.

    k = 0 yields O, k = 1 yields P, and P = O yields O.
    """
    low = _enter(point, curve)
    length = k.bit_length()
    if length == 0 or low is None:
        return INFINITY
    if length == 1:
        return point
    kv = k.value
    p, a = _law_constants(curve)
    high = _double_xy(low, p, a)
    for i in range(length - 2, -1, -1):
        if (kv >> i) & 1:
            low = _add_xy(low, high, p, a)
            high = _double_xy(high, p, a)
        else:
            high = _add_xy(high, low, p, a)
            low = _double_xy(low, p, a)
        if counter is not None:
            counter.adds += 1
            counter.doubles += 1
    return _from_xy(low, curve)


def double_and_add(k: MpInt, point: AffinePoint, curve: CurveParams) -> AffinePoint:
    """Verification oracle: double each step, add where the bit is set."""
    kv = k.value
    p, a = _law_constants(curve)
    base = _enter(point, curve)
    acc = None
    for i in range(kv.bit_length() - 1, -1, -1):
        acc = _double_xy(acc, p, a)
        if (kv >> i) & 1:
            acc = _add_xy(acc, base, p, a)
    return _from_xy(acc, curve)
