"""The int laws as written: a symbolic proof over Q(a, b), and exact counts.

Both run the library's own formula functions, unchanged, on values of
another type: ``sympy`` expressions under a modulus that drops every
``% p``, and an ``int`` subclass that tallies what is done to it.
"""

import inspect
import random
import re
import textwrap
from collections import Counter

import pytest

import ecpf.curve
from ecpf.curve import _add_jac, _double_jac, _xadd, _xdbl, _xrecover
from ecpf.field import P192


class _Vanish:
    """A modulus whose ``x % p`` is x, so the laws run unreduced."""

    def __rmod__(self, left):
        return left


def _claims(sp, rng):
    """name -> (law, residuals, a): residuals(law) lists what must reduce to 0.

    P = (x1, y1) and Q = (x2, y2) are generic points of y**2 = x**3 + a*x + b,
    entered on random projective representatives; each residual is a law's
    output less the affine chord-and-tangent result.  a is the symbol a, or
    the integer -3 for the doubling's specialisation to curves such as P-192.
    """
    a, b, x1, y1, x2, y2 = sp.symbols("a b x1 y1 x2 y2")
    p, lam, mu = _Vanish(), rng.randrange(2, 1 << 16), rng.randrange(2, 1 << 16)

    def chord(u, v):
        s = (v[1] - u[1]) / (v[0] - u[0])
        x3 = s * s - u[0] - v[0]
        return x3, s * (u[0] - x3) - u[1]

    s = (3 * x1 * x1 + a) / (2 * y1)
    dbl = (s * s - 2 * x1, s * (3 * x1 - s * s) - y1)
    add = chord((x1, y1), (x2, y2))
    jac = (lam**2 * x1, lam**3 * y1, lam)

    def xdbl(law):
        x, z = law((lam * x1, lam), p, a, 4 * b)
        return [x - dbl[0] * z]

    def xadd(law):
        xd = chord((x1, -y1), (x2, y2))[0]  # x(Q - P)
        x, z = law((lam * x1, lam), (mu * x2, mu), xd, p, a, 4 * b)
        return [x - add[0] * z]

    def xrecover(law):  # R0 = Q, R1 = Q + P
        x, y, z = law((x1, y1), (lam * x2, lam), (mu * add[0], mu), p, a, b)
        return [x - x2 * z, y - y2 * z]

    def jacobian(*args, at=a):  # no args: the doubling; (x2, y2): the addition of Q
        def residuals(law):
            x, y, z = law(jac, *args, p, at)
            want = add if args else dbl
            return [(x - want[0] * z**2).subs(a, at), (y - want[1] * z**3).subs(a, at)]

        return residuals

    minus3 = sp.Integer(-3)
    return {
        "_xdbl": (_xdbl, xdbl, a),
        "_xadd": (_xadd, xadd, a),
        "_xrecover": (_xrecover, xrecover, a),
        "_double_jac": (_double_jac, jacobian(), a),
        "_double_jac, a = -3": (_double_jac, jacobian(at=minus3), minus3),
        "_add_jac": (_add_jac, jacobian((x2, y2)), a),
    }


def _proved(sp, residuals, a):
    """True iff every residual's numerator is 0 modulo both equations of the curve of a."""
    b, x1, y1, x2, y2 = sp.symbols("b x1 y1 x2 y2")
    for residual in residuals:
        num = sp.numer(sp.together(residual))
        for x, y in ((x1, y1), (x2, y2)):
            num = sp.rem(sp.expand(num), y**2 - x**3 - a * x - b, y)
        if sp.expand(num) != 0:
            return False
    return True


def _mutant_xdbl():
    """``_xdbl`` rebuilt from its own source with 2*bzz*xz made 3*bzz*xz."""
    source = textwrap.dedent(inspect.getsource(_xdbl))
    assert source.count("2 * bzz * xz") == 1
    namespace = dict(vars(ecpf.curve))
    exec(source.replace("2 * bzz * xz", "3 * bzz * xz"), namespace)
    return namespace["_xdbl"]


def test_laws_are_proved_for_every_odd_p():
    """An identity over Z[a, b, x, y] holds mod every odd p, denominators nonzero.

    The exceptional cases (O, R1 = -R0, R1 = O, y = 0, the dispatch of
    ``_add_jac``) are the sweep's and the Hypothesis tests' to check.
    """
    sp = pytest.importorskip("sympy")
    claims = _claims(sp, random.Random(9))
    for name, (law, residuals, a) in claims.items():
        assert _proved(sp, residuals(law), a), name
    _, xdbl, a = claims["_xdbl"]
    assert not _proved(sp, xdbl(_mutant_xdbl()), a)


class _Tally(int):
    """An int that counts the products and reductions made from it.

    A product of two tallied ints is "mul", or "sqr" when both are the same
    object or it is ``** 2``; one with a plain int, a constant written in the
    formula, is "const".  Every ``%`` is a "mod".
    """

    counts = Counter()

    def __add__(self, other):
        return _Tally(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _Tally(int(self) - int(other))

    def __rsub__(self, other):
        return _Tally(int(other) - int(self))

    def __neg__(self):
        return _Tally(-int(self))

    def __mul__(self, other):
        kind = "const" if type(other) is int else "sqr" if other is self else "mul"
        _Tally.counts[kind] += 1
        return _Tally(int(self) * int(other))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        assert exponent == 2
        _Tally.counts["sqr"] += 1
        return _Tally(int(self) ** 2)

    def __mod__(self, modulus):
        _Tally.counts["mod"] += 1
        return _Tally(int(self) % int(modulus))


#: (mul, sqr, const, mod) per call, on the generic path of each law, and of the
#: doubling also on a = -3, P-192's a as ``CurveParams._law`` holds it.
COUNTS = {
    "_xadd": (9, 1, 1, 5),
    "_xdbl": (6, 3, 2, 7),
    "_xrecover": (12, 1, 2, 4),
    "_double_jac": (6, 4, 5, 8),
    "_double_jac, a = -3": (5, 3, 5, 7),
    "_add_jac": (8, 3, 1, 9),
}


def _tallied(value):
    if isinstance(value, tuple):
        return tuple(map(_tallied, value))
    return _Tally(value)


def test_laws_count_their_operations_exactly():
    rng = random.Random(11)
    r = lambda: rng.randrange(1, P192)  # noqa: E731
    p, a = P192, P192 - 3  # a general a: P-192's as a residue, not as -3
    calls = {
        "_xadd": (_xadd, ((r(), r()), (r(), r()), r(), p, a, r())),
        "_xdbl": (_xdbl, ((r(), r()), p, a, r())),
        "_xrecover": (_xrecover, ((r(), r()), (r(), r()), (r(), r()), p, a, r())),
        "_double_jac": (_double_jac, ((r(), r(), r()), p, a)),
        "_double_jac, a = -3": (_double_jac, ((r(), r(), r()), p, -3)),
        "_add_jac": (_add_jac, ((r(), r(), r()), (r(), r()), p, a)),
    }
    assert calls.keys() == COUNTS.keys()
    for name, (law, args) in calls.items():
        _Tally.counts.clear()
        assert law(*_tallied(args)) == law(*args), name
        tally = _Tally.counts
        got = tally["mul"], tally["sqr"], tally["const"], tally["mod"]
        assert got == COUNTS[name], name
        # Each docstring states a cost per row of its law, such as 4M + 3S + 1m_a +
        # 1m_b, naming every product: M and each m_* count as products, S as squares.
        # A row named after its law reads the first, the a = -3 row the second.
        doc = inspect.getdoc(law).splitlines()[0]
        costs = re.findall(r"\d+(?:M|S|m_\w+)(?: \+ \d+(?:M|S|m_\w+))*", doc)
        assert len(costs) == sum(row[0] is law for row in calls.values()), name
        stated = Counter()
        for n, unit in re.findall(r"\b(\d+)(M|S|m_\w+)\b", costs[name != law.__name__]):
            stated["sqr" if unit == "S" else "mul"] += int(n)
        assert (stated["mul"], stated["sqr"]) == (tally["mul"], tally["sqr"]), name
