"""Command-line surface: keygen, mul, add, double, negate, check, curve-info.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 validation or domain error, 3 randomness failure.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .curve import AffinePoint, CurveParams, format_point, negate, parse_point
from .curve import _enter, point_add, point_double
from .errors import (
    Error,
    FormatError,
    ParseError,
    RandomnessError,
    UsageError,
    ValidationError,
)
from .field import FieldElement, Modulus
from .keygen import generate_keypair
from .mpint import MpInt
from .scalar_mul import ladder

BUNDLED_CURVES = ("p192", "smoke17")

_REQUIRED_KEYS = ("name", "p", "a", "b", "gx", "gy", "n", "h")

# Fixed Miller-Rabin bases: deterministic below 3.3e24, strong evidence above.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def parse_curve_file(text: str) -> CurveParams:
    """Parse and validate the key=value curve description format.

    Required keys, each exactly once: name, p, a, b, gx, gy, n, h.  Numeric
    values are unprefixed hex; lines starting with '#' and blank lines are
    ignored; keys are case-sensitive and order-free.

    This is the one place where curve-domain validity is decided, for
    bundled curves and curve files alike: beyond the structural checks of
    ``CurveParams``, p and n must be probable primes and n*G must be O.
    Together these make d*G finite for every d in [1, n-1].
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"line {lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        if key not in _REQUIRED_KEYS:
            raise FormatError(f"line {lineno}: unknown key {key}")
        if key in entries:
            raise FormatError(f"duplicate key {key}")
        entries[key] = (value, lineno)
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise FormatError(f"missing key {key}")

    name = entries["name"][0]
    if not name:
        raise FormatError("empty curve name")

    def numeric(key: str, capacity: int) -> MpInt:
        value, lineno = entries[key]
        try:
            return MpInt.from_hex(value, capacity)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {key}: {exc}") from None

    # p sizes its own capacity; everything else lives in p's context.
    p_text = entries["p"][0]
    modulus = Modulus(numeric("p", max(4 * len(p_text), 8)))

    def residue(key: str) -> FieldElement:
        value = numeric(key, modulus.capacity)
        if value >= modulus.p:
            raise ValidationError(f"{key} is not a canonical residue")
        return FieldElement(value, modulus)

    params = CurveParams(
        name=name,
        modulus=modulus,
        a=residue("a"),
        b=residue("b"),
        g=AffinePoint(residue("gx"), residue("gy")),
        n=numeric("n", modulus.capacity),
        h=numeric("h", modulus.capacity),
    )
    if not _is_probable_prime(modulus.p.value):
        raise ValidationError("p is not prime")
    if not _is_probable_prime(params.n.value):
        raise ValidationError("n is not prime")
    if not ladder(params.n, params.g, params).is_infinity:
        raise ValidationError("n*G is not the identity")
    return params


def load_curve_file(path: str) -> CurveParams:
    try:
        with open(path, encoding="ascii") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise FormatError("curve file is not ASCII text") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot read curve file: {exc}") from None
    return parse_curve_file(text)


def bundled_curve(name: str) -> CurveParams:
    """Load a shipped curve through :func:`parse_curve_file`."""
    if name not in BUNDLED_CURVES:
        raise ValidationError(f"no bundled curve named {name!r}")
    text = resources.files("ecpf").joinpath(f"curves/{name}.curve").read_text("ascii")
    return parse_curve_file(text)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def _checked_point(text: str, curve: CurveParams) -> AffinePoint:
    point = _point_argument(text, curve)
    _enter(point, curve)
    return point


def _curve_info_lines(curve: CurveParams) -> list[str]:
    width = curve.modulus.hex_width

    def hexed(x: MpInt) -> str:
        return x.to_hex(max(width, -(-x.bit_length() // 4)))

    return [
        f"name={curve.name}",
        f"p={curve.modulus.p.to_hex(width)}",
        f"a={curve.a.value.to_hex(width)}",
        f"b={curve.b.value.to_hex(width)}",
        f"gx={curve.g.x.value.to_hex(width)}",
        f"gy={curve.g.y.value.to_hex(width)}",
        f"n={hexed(curve.n)}",
        f"h={hexed(curve.h)}",
    ]


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
        point = _checked_point(args.point, curve)
        return [format_point(negate(point), curve)]

    if command == "check":
        if args.point is not None:
            _checked_point(args.point, curve)
        return ["ok"]

    return _curve_info_lines(curve)


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
