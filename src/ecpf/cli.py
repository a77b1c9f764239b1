"""Command-line surface: keygen, mul, add, double, negate, check, curve-info.

This module reads argv, dispatches to the library and writes the output:
results to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage
error or a failed write, 2 validation or domain error, 3 randomness failure.
``_COMMANDS`` is the one place where commands and their options are declared:
the parser and the conversion of each option's text both read it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .curve import format_point, negate, parse_point, point_add, point_double
from .domain import BUNDLED_CURVES, bundled_curve, format_curve_file, load_curve_file

# parse_curve_file is not called here: tests and the ("ecpf.cli", ...)
# wrappers of perfbench/tracing.py reach the loaders through this module.
from .domain import parse_curve_file
from .errors import Error, RandomnessError, UsageError
from .keygen import generate_keypair
from .mpint import MpInt
from .scalar_mul import ladder

_XY = "X,Y|gen|infinity"  # a point: hex coordinates, the generator or O

# command: (help, options); each option is (flag, metavar, required, help).
_COMMANDS = {
    "keygen": (
        "generate a keypair",
        [("--seed", "HEX", False, "deterministic test seed")],
    ),
    "mul": (
        "scalar point multiplication",
        [("--scalar", "HEX", True, None), ("--point", _XY, True, None)],
    ),
    "add": ("add two points", [("--p1", _XY, True, None), ("--p2", _XY, True, None)]),
    "double": ("double a point", [("--point", _XY, True, None)]),
    "negate": ("negate a point", [("--point", _XY, True, None)]),
    "check": ("validate the curve or a point on it", [("--point", _XY, False, None)]),
    "curve-info": ("print curve parameters", []),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):  # argparse's own swallows a failed write
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecpf", description="Elliptic-curve keys over GF(p)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, options) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_line)
        group = cmd.add_mutually_exclusive_group(required=True)
        group.add_argument("--curve", choices=BUNDLED_CURVES, help="bundled curve name")
        group.add_argument("--curve-file", metavar="PATH", help="key=value curve file")
        for flag, metavar, required, help_text in options:
            cmd.add_argument(flag, metavar=metavar, required=required, help=help_text)
    return parser


def _dispatch(args) -> list[str]:
    if args.curve is not None:
        curve = bundled_curve(args.curve)
    else:
        curve = load_curve_file(args.curve_file)
    # After the curve, in table order: the first bad value is the one reported,
    # prefixed with its flag.
    values = []
    for flag, metavar, _, _ in _COMMANDS[args.command][1]:
        text = getattr(args, flag[2:])
        try:
            if text is None:
                values.append(None)
            elif metavar == "HEX":
                values.append(MpInt.from_hex(text, curve.modulus.capacity))
            else:
                values.append(parse_point(text, curve))
        except Error as exc:
            raise type(exc)(f"{flag}: {exc}") from None
    command = args.command
    if command == "keygen":
        return generate_keypair(curve, seed=values[0]).serialize().splitlines()
    if command == "curve-info":
        return format_curve_file(curve).splitlines()
    if command == "check":  # the curve was checked on load, a point on parsing
        return ["ok"]
    if command == "negate":
        return [format_point(negate(*values), curve)]
    law = {"mul": ladder, "add": point_add, "double": point_double}[command]
    return [format_point(law(*values, curve), curve)]


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
    try:
        code = run(sys.argv[1:])
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:  # stdout is full, or its reader has gone
        # Python's SIGPIPE recipe: fd 1 on devnull, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write output:", exc.strerror, file=sys.stderr)
        code = 1
    raise SystemExit(code)
