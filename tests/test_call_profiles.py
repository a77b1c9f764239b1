"""Every pinned call count, in one table of complete int-law call profiles.

Each row names its inputs, the action run on each and the profile expected
of it: how many times each function of PROFILED ran, counted at every ecpf
module that binds it, so a call made through any import shows.  A profile
lists the functions that ran at all; a row with many inputs gives it as a
rule of the input.  The actions call this module's own imports, which are
not wrapped, so a row's top-level call is not counted; its calls are.
"""

import os
import random

import pytest

import ecpf.domain
from ecpf.curve import CurveParams, _add_jac, _double_jac, _enter, _xadd, _xdbl, _xrecover
from ecpf.curve import point_add, point_double
from ecpf.domain import _is_probable_prime, bundled_curve, load_curve_file, parse_curve_file
from ecpf.field import inverse_mod
from ecpf.keygen import generate_keypair, validate_public_key
from ecpf.scalar_mul import double_and_add, ladder
from helpers import TINY5, scalar

PROFILED = (_xadd, _xdbl, _xrecover, _add_jac, _double_jac, _enter, inverse_mod, ladder,
            _is_probable_prime)
CURVES = os.path.join(os.path.dirname(ecpf.domain.__file__), "curves")


@pytest.fixture
def profile(count_calls):
    calls = {fn.__name__: count_calls(fn) for fn in PROFILED}

    def run(action):
        for recorded in calls.values():
            recorded.clear()
        action()
        return {name: len(recorded) for name, recorded in calls.items() if recorded}

    return run


def fresh(name):
    """A bundled curve read anew, not the process's cached copy."""
    return load_curve_file(os.path.join(CURVES, f"{name}.curve"))


def p192():
    return bundled_curve("p192")


def keypair(curve, seed):
    # the padded scalar has L + 1 bits: L steps after the setup doubling
    bits = curve.n.bit_length()
    return {"ladder": 1, "_enter": 1, "_xadd": bits, "_xdbl": bits + 1, "_xrecover": 1,
            "inverse_mod": 1}


def inverts(k, curve):
    # every point of these rows has order n: k*P is O, and needs no inversion, when n | k
    return {"inverse_mod": 1} if k.value % curve.n.value else {}


def ladder_steps(k, point, curve):
    # k = 0 returns at once; the setup doubling, then one addition and one doubling per bit
    bits = k.value.bit_length()
    if bits == 0:
        return {"_enter": 1}
    steps = {"_enter": 1, "_xadd": bits - 1, "_xdbl": bits, "_xrecover": 1}
    return {name: count for name, count in steps.items() if count} | inverts(k, curve)


def naf4(k):
    """k's width-4 NAF, lowest digit first: each is 0 or odd in (-8, 8)."""
    digits = []
    while k:
        digit = k % 16 if k % 2 else 0
        digit -= 16 if digit > 8 else 0
        digits.append(digit)
        k = (k - digit) // 2
    return digits


def double_and_add_steps(k, point, curve):
    # one doubling per NAF digit, then P + P, a doubling, in the table of 2P to 7P;
    # one addition per nonzero digit and six for the table; the table's inversion,
    # then the exit's
    digits = naf4(k.value)
    assert sum(d << i for i, d in enumerate(digits)) == k.value
    nonzero = len(digits) - digits.count(0)
    return {"_enter": 1, "_double_jac": len(digits) + 1, "_add_jac": nonzero + 6,
            "inverse_mod": 1 + len(inverts(k, curve))}


def order_check(q, curve):
    # the on-curve check, then the n*Q ladder
    return ladder_steps(curve.n, q, curve) | {"_enter": 2, "ladder": 1}


def make_key(curve, seed):
    generate_keypair(curve, seed=seed)


def check_key(q, curve):
    assert validate_public_key(q, curve)


def load_again(curve):
    assert bundled_curve(curve.name) is curve


def keys(load, name, seeds):
    def cases():
        curve = load(name)
        return [(curve, seed) for seed in seeds(curve.n.value)]

    return cases


def p192_seeds(n):
    rng = random.Random(19)
    return [0, 1, 2, 12345, 2**191, n - 2] + [rng.getrandbits(192) for _ in range(20)]


def every_seed(n):
    return range(1 << 10)


def every_k(curve):
    return [(scalar(curve, k), curve.g, curve) for k in range(1 << 10)]


def seven_g(curve):
    return ladder(scalar(curve, 7), curve.g, curve)


def varbase():
    """A 192-bit k on G and on 7*G."""
    curve = p192()
    k = scalar(curve, random.Random(5).getrandbits(192) | 1 << 191)
    return [(k, curve.g, curve), (k, seven_g(curve), curve)]


def validated():
    smoke17, curve = bundled_curve("smoke17"), p192()
    return [(smoke17.g, smoke17), (curve.g, curve)]


def p192_key():
    curve = p192()
    return [(generate_keypair(curve, seed=12345).q, curve)]


def unvalidated():
    # the parameters of smoke17 and P-192, built outside the validator: from ints,
    # or from the validated curve's values
    c = p192()
    curves = (CurveParams.from_ints("smoke17", 17, 2, 2, 5, 1, 19, 1),
              CurveParams("copy", c.modulus, c.a, c.b, c.g, c.n, c.h))
    return [(curve.g, curve) for curve in curves]


def read_p192():
    with open(os.path.join(CURVES, "p192.curve"), encoding="ascii") as handle:
        return [(handle.read(),)]


ROWS = {
    "keypair-p192": (keys(bundled_curve, "p192", p192_seeds), make_key, keypair),
    "keypair-p192-fresh": (keys(fresh, "p192", p192_seeds), make_key, keypair),
    "keypair-smoke17": (keys(bundled_curve, "smoke17", every_seed), make_key, keypair),
    "keypair-smoke17-fresh": (keys(fresh, "smoke17", every_seed), make_key, keypair),
    # validated, h = 1: the on-curve check is the whole test
    "check-key-validated": (validated, check_key, {"_enter": 1}),
    "check-key-p192": (p192_key, check_key, {"_enter": 1}),
    "check-key-unvalidated": (unvalidated, check_key, order_check),
    "ladder-smoke17-every-k": (lambda: every_k(bundled_curve("smoke17")), ladder, ladder_steps),
    # y^2 = x^3 + 4x over GF(5), whose G = (0, 0) has order 2
    "ladder-order-2-every-k": (
        lambda: every_k(CurveParams.from_ints(*TINY5)),
        ladder,
        ladder_steps,
    ),
    "ladder-p192": (varbase, ladder, ladder_steps),
    "double-and-add-p192": (varbase, double_and_add, double_and_add_steps),
    # n has 193 NAF digits, 21 of them nonzero; n*G is O, so only the table inverts
    "double-and-add-n-p192": (
        lambda: [(p192().n, p192().g, p192())],
        double_and_add,
        {"_enter": 1, "_double_jac": 194, "_add_jac": 27, "inverse_mod": 1},
    ),
    "point-add-p192": (
        lambda: [(p192().g, seven_g(p192()), p192())],
        point_add,
        {"_enter": 2, "_add_jac": 1, "inverse_mod": 1},
    ),
    # point_add(P, P), which sends equal points to the doubling
    "point-double-p192": (
        lambda: [(seven_g(p192()), p192())],
        point_double,
        {"_enter": 2, "_add_jac": 1, "_double_jac": 1, "inverse_mod": 1},
    ),
    # G's on-curve check and the n*G ladder, whose O result needs no inversion
    "parse-curve-file-p192": (
        read_p192,
        parse_curve_file,
        {"_enter": 2, "_is_probable_prime": 2, "ladder": 1, "_xadd": 191, "_xdbl": 192,
         "_xrecover": 1},
    ),
    "bundled-curve-cached": (lambda: [(p192(),)], load_again, {}),
}


@pytest.mark.parametrize("cases, action, expected", ROWS.values(), ids=ROWS)
def test_call_profile(profile, cases, action, expected):
    for case in cases():
        want = expected(*case) if callable(expected) else expected
        assert profile(lambda: action(*case)) == want, case
