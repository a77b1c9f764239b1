"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report alongside pytest's own verdicts.  Every tolerance and runtime bound
is pinned in the test that enforces it.
"""

import random
import time

from ecpf.cli import run
from ecpf.curve import INFINITY, _xadd, _xdbl, negate, on_curve, point_add, point_double
from ecpf.field import P192
from ecpf.keygen import generate_keypair
from ecpf.scalar_mul import double_and_add, ladder
from helpers import (
    as_xy,
    enumerate_points,
    fermat_inverse,
    mk_point,
    oracle_add,
    scalar,
)

# 160-bit sample scalar with sparse set bits; its multiple of the P-192 base
# point was derived with an independent integer-only oracle and frozen here.
SPARSE_SCALAR = (
    (1 << 159) + (1 << 100) + (1 << 50) + (1 << 10)
    + (1 << 6) + (1 << 5) + (1 << 3) + (1 << 1) + 1
)
SPARSE_SCALAR_POINT = (
    0x7534FB292140ABAB97BF5FE2AF87BDCFF62FEB182F10F3CD,
    0x92AD7A4B50D99EEFD1B2ACDA368BD85695F7627533E60C9B,
)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {num} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} {label} failed{suffix}"


def test_criterion_1_small_curve_ground_truth(smoke17):
    start = time.perf_counter()
    enumerated = enumerate_points(17, 2, 2)
    count_ok = len(enumerated) == 19

    # cyclic table from the independent oracle, by repeated addition
    oracle_table = []
    acc = None
    for _ in range(19):
        acc = oracle_add(acc, (5, 1), 17, 2)
        oracle_table.append(acc)

    g = mk_point(smoke17, (5, 1))
    matches = 0
    lib_acc = INFINITY
    for k in range(19):
        lib_acc = point_add(lib_acc, g, smoke17)
        if as_xy(lib_acc) == oracle_table[k]:
            matches += 1
    elapsed = time.perf_counter() - start
    ok = count_ok and matches == 19 and lib_acc.is_infinity and elapsed < 1.0
    _report(1, "small-curve ground truth", ok,
            f"{len(enumerated)} points, {matches}/19 matches, {elapsed:.3f}s")


def test_criterion_2_group_axioms_exhaustive(smoke17):
    start = time.perf_counter()
    points = [mk_point(smoke17, xy) for xy in enumerate_points(17, 2, 2)]
    violations = 0
    sums = {}
    for p in points:
        if not point_add(p, INFINITY, smoke17) == p:
            violations += 1
        if not point_add(p, negate(p), smoke17).is_infinity:
            violations += 1
        if point_add(p, p, smoke17) != point_double(p, smoke17):
            violations += 1
        for q in points:
            total = point_add(p, q, smoke17)
            sums[(p, q)] = total
            if not on_curve(total, smoke17):
                violations += 1
    for (p, q), pq in sums.items():
        if pq != sums[(q, p)]:
            violations += 1
    for p in points:
        for q in points:
            pq = sums[(p, q)]
            for r in points:
                if point_add(pq, r, smoke17) != point_add(p, sums[(q, r)], smoke17):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _report(2, "exhaustive group axioms", ok,
            f"{violations} violations over 19^3 triples, {elapsed:.2f}s")


def test_criterion_3_ladder_oracle_equivalence(smoke17, p192):
    start = time.perf_counter()
    mismatches = 0
    for xy in enumerate_points(17, 2, 2):
        point = mk_point(smoke17, xy)
        for k in range(0, 39):
            if ladder(scalar(smoke17, k), point, smoke17) != double_and_add(
                scalar(smoke17, k), point, smoke17
            ):
                mismatches += 1
    rng = random.Random(20260810)
    for _ in range(1000):
        k = scalar(p192, rng.getrandbits(192))
        if ladder(k, p192.g, p192) != double_and_add(k, p192.g, p192):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _report(3, "ladder equals double-and-add", ok,
            f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_p192_self_consistency(p192):
    assert p192.modulus.p.value == 2**192 - 2**64 - 1 == P192
    start = time.perf_counter()
    base_ok = on_curve(p192.g, p192)
    order_ok = ladder(p192.n, p192.g, p192).is_infinity
    n_minus_1 = scalar(p192, p192.n.value - 1)
    negate_ok = ladder(n_minus_1, p192.g, p192) == negate(p192.g)
    elapsed = time.perf_counter() - start
    ok = base_ok and order_ok and negate_ok and elapsed < 1.0
    _report(4, "P-192 self-consistency", ok, f"{elapsed:.3f}s")


def test_criterion_5_field_suite(smoke17, p192):
    start = time.perf_counter()
    violations = 0
    for curve in (smoke17, p192):
        m = curve.modulus
        p = m.p.value
        rng = random.Random(p)
        zero, one = m.element(0), m.element(1)
        for _ in range(10_000):
            a = m.element(rng.randrange(p))
            b = m.element(rng.randrange(p))
            c = m.element(rng.randrange(p))
            if a + b != b + a or a * b != b * a:
                violations += 1
            if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
                violations += 1
            if a * (b + c) != a * b + a * c:
                violations += 1
            if a + zero != a or a * one != a:
                violations += 1
            for result in (a + b, a - b, a * b, -a):
                if not 0 <= result.value.value < p:
                    violations += 1
        for _ in range(1_000):
            value = rng.randrange(1, p)
            if m.element(value).inverse().value.value != fermat_inverse(value, p):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _report(5, "field axioms and dual-path inversion", ok,
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_6_sample_scalar_vector(p192):
    k = scalar(p192, SPARSE_SCALAR)
    via_ladder = ladder(k, p192.g, p192)
    via_oracle = double_and_add(k, p192.g, p192)
    ok = via_ladder == via_oracle and as_xy(via_ladder) == SPARSE_SCALAR_POINT
    _report(6, "sparse 160-bit scalar vector", ok)


def test_criterion_7_ladder_uniformity(smoke17, count_calls):
    g = mk_point(smoke17, (5, 1))
    adds, doubles = count_calls(_xadd), count_calls(_xdbl)
    exceptions = 0
    for k in range(2, 1 << 10):
        adds.clear()
        doubles.clear()
        ladder(scalar(smoke17, k), g, smoke17)
        # one addition and one doubling per bit after the top, and the setup doubling
        bits = k.bit_length()
        if len(adds) != bits - 1 or len(doubles) != bits:
            exceptions += 1
    ok = exceptions == 0
    _report(7, "ladder operation-count uniformity", ok,
            f"{exceptions} exceptions in [2, 2^10)")


def test_criterion_8_cli_determinism(capsys, smoke17, p192):
    outputs = []
    for _ in range(2):
        code = run(["keygen", "--curve", "smoke17", "--seed", "09"])
        outputs.append((code, capsys.readouterr().out))
    keygen_ok = (
        outputs[0] == outputs[1] == (0, "private=0a\npublic=07,0b\n")
    )
    infinity_ok = True
    for name, curve in (("smoke17", smoke17), ("p192", p192)):
        n_hex = curve.n.to_hex(curve.modulus.hex_width)
        code = run(["mul", "--curve", name, "--scalar", n_hex, "--point", "gen"])
        out = capsys.readouterr().out
        if code != 0 or out != "infinity\n":
            infinity_ok = False
    ok = keygen_ok and infinity_ok
    with capsys.disabled():
        _report(8, "CLI determinism and order multiples", ok)


def test_criterion_9_performance(p192):
    rng = random.Random(1)
    best = min(
        _timed_ladder(p192, rng.getrandbits(192)) for _ in range(3)
    )
    start = time.perf_counter()
    for _ in range(1000):
        generate_keypair(p192)
    keygen_elapsed = time.perf_counter() - start
    ok = best < 0.050 and keygen_elapsed < 60.0
    _report(9, "performance sanity", ok,
            f"ladder {best * 1e3:.1f}ms, 1000 keypairs {keygen_elapsed:.1f}s")


def _timed_ladder(curve, k):
    start = time.perf_counter()
    ladder(scalar(curve, k), curve.g, curve)
    return time.perf_counter() - start
