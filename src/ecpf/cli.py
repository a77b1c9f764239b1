"""Command-line surface: keygen, mul, add, double, negate, check, curve-info.

This module reads argv, dispatches to the library and writes the output:
results to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 validation or domain error, 3 randomness failure.
"""

from __future__ import annotations

import argparse
import sys

from .curve import AffinePoint, CurveParams, format_point, negate, parse_point
from .curve import _enter, point_add, point_double
from .domain import BUNDLED_CURVES, bundled_curve, format_curve_file, load_curve_file

# parse_curve_file is not called here: tests and the ("ecpf.cli", ...)
# wrappers of perfbench/tracing.py reach the loaders through this module.
from .domain import parse_curve_file
from .errors import Error, RandomnessError, UsageError
from .keygen import generate_keypair
from .mpint import MpInt
from .scalar_mul import ladder


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_curve_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--curve", choices=BUNDLED_CURVES, help="bundled curve name")
    group.add_argument("--curve-file", metavar="PATH", help="key=value curve file")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecpf", description="Elliptic-curve keys over GF(p)")
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate a keypair")
    _add_curve_arguments(keygen)
    keygen.add_argument("--seed", metavar="HEX", help="deterministic test seed")

    mul = sub.add_parser("mul", help="scalar point multiplication")
    _add_curve_arguments(mul)
    mul.add_argument("--scalar", metavar="HEX", required=True)
    mul.add_argument("--point", metavar="X,Y|gen|infinity", required=True)

    add = sub.add_parser("add", help="add two points")
    _add_curve_arguments(add)
    add.add_argument("--p1", metavar="X,Y|gen|infinity", required=True)
    add.add_argument("--p2", metavar="X,Y|gen|infinity", required=True)

    double = sub.add_parser("double", help="double a point")
    _add_curve_arguments(double)
    double.add_argument("--point", metavar="X,Y|gen|infinity", required=True)

    neg = sub.add_parser("negate", help="negate a point")
    _add_curve_arguments(neg)
    neg.add_argument("--point", metavar="X,Y|gen|infinity", required=True)

    check = sub.add_parser("check", help="validate the curve or a point on it")
    _add_curve_arguments(check)
    check.add_argument("--point", metavar="X,Y|gen|infinity")

    info = sub.add_parser("curve-info", help="print curve parameters")
    _add_curve_arguments(info)

    return parser


def _resolve_curve(args) -> CurveParams:
    if args.curve is not None:
        return bundled_curve(args.curve)
    return load_curve_file(args.curve_file)


def _point_argument(text: str, curve: CurveParams) -> AffinePoint:
    if text == "gen":
        return curve.g
    return parse_point(text, curve)


def _dispatch(args) -> list[str]:
    curve = _resolve_curve(args)
    command = args.command

    if command == "keygen":
        seed = None
        if args.seed is not None:
            seed = MpInt.from_hex(args.seed, curve.modulus.capacity)
        pair = generate_keypair(curve, seed=seed)
        return pair.serialize().splitlines()

    if command == "mul":
        k = MpInt.from_hex(args.scalar, curve.modulus.capacity)
        point = _point_argument(args.point, curve)
        return [format_point(ladder(k, point, curve), curve)]

    if command == "add":
        p1 = _point_argument(args.p1, curve)
        p2 = _point_argument(args.p2, curve)
        return [format_point(point_add(p1, p2, curve), curve)]

    if command == "double":
        point = _point_argument(args.point, curve)
        return [format_point(point_double(point, curve), curve)]

    if command == "negate":
        point = _point_argument(args.point, curve)
        _enter(point, curve)
        return [format_point(negate(point), curve)]

    if command == "check":
        if args.point is not None:
            _enter(_point_argument(args.point, curve), curve)
        return ["ok"]

    return format_curve_file(curve).splitlines()


def run(argv: list[str]) -> int:
    """Execute one command; returns the process exit code."""
    try:
        lines = _dispatch(_build_parser().parse_args(argv))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Error as exc:
        # One line, even when the message quotes an argument with a newline.
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        if isinstance(exc, UsageError):
            return 1
        return 3 if isinstance(exc, RandomnessError) else 2
    for line in lines:
        print(line)
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
