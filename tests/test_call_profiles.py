"""Complete int-law call profiles: one keypair, one key check, one curve load.

Each function is counted at every ecpf module that binds it, so a call made
through any import shows; a profile lists the functions that ran at all.
"""

import os

import pytest

import ecpf.domain
from ecpf.curve import _add_jac, _double_jac, _enter, _xadd, _xdbl, _xrecover
from ecpf.domain import _is_probable_prime, parse_curve_file
from ecpf.field import inverse_mod
from ecpf.keygen import generate_keypair, validate_public_key
from ecpf.scalar_mul import ladder

PROFILED = (
    _xadd,
    _xdbl,
    _xrecover,
    _add_jac,
    _double_jac,
    _enter,
    inverse_mod,
    ladder,
    _is_probable_prime,
)


@pytest.fixture
def profile(count_calls):
    calls = {fn.__name__: count_calls(fn) for fn in PROFILED}

    def run(action):
        for recorded in calls.values():
            recorded.clear()
        action()
        return {name: len(recorded) for name, recorded in calls.items() if recorded}

    return run


def test_keypair_profile_p192(profile, p192):
    # L = 192: the padded scalar has 193 bits, so 192 steps after the setup doubling
    expected = {
        "ladder": 1,
        "_enter": 1,
        "_xadd": 192,
        "_xdbl": 193,
        "_xrecover": 1,
        "inverse_mod": 1,
    }
    for seed in (0, 12345, 2**191, p192.n.value - 2):
        assert profile(lambda: generate_keypair(p192, seed=seed)) == expected, seed


def test_public_key_check_profile_p192(profile, p192):
    # validated, h = 1: the on-curve check is the whole test
    q = generate_keypair(p192, seed=12345).q
    assert profile(lambda: validate_public_key(q, p192)) == {"_enter": 1}


def test_curve_load_profile_p192(profile):
    path = os.path.join(os.path.dirname(ecpf.domain.__file__), "curves", "p192.curve")
    with open(path, encoding="ascii") as handle:
        text = handle.read()
    # G's on-curve check and the n*G ladder, whose O result needs no inversion
    assert profile(lambda: parse_curve_file(text)) == {
        "_enter": 2,
        "_is_probable_prime": 2,
        "ladder": 1,
        "_xadd": 191,
        "_xdbl": 192,
        "_xrecover": 1,
    }
