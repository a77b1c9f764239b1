"""Command-line surface: keygen, mul, add, double, negate, check, curve-info.

This module reads argv, dispatches to the library and writes the output:
results to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage
error or a failed write, 2 validation or domain error, 3 randomness failure.
``_COMMANDS`` declares every command and option: ``_parse`` reads it directly.
"""

import gc
import os
import sys

from .curve import format_point, negate, parse_point, point_add, point_double
from .domain import BUNDLED_CURVES, bundled_curve, format_curve_file, load_curve_file

# parse_curve_file is not called here: its one reader is the ("ecpf.cli", ...)
# wrapper of perfbench/tracing.py, which times curve loading through this name.
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

_CURVE = [  # one of the two selects the curve of every command; rows as in _COMMANDS
    ("--curve", "{" + ",".join(BUNDLED_CURVES) + "}", False, "bundled curve name"),
    ("--curve-file", "PATH", False, "key=value curve file"),
]


def _parse(argv: list[str]) -> tuple[str | None, dict[str, str]]:
    """The command and its options, ``{flag: text}``, or ``{"--help": ""}``."""
    command, flags, values = (argv or [""])[0], argv[1::2], argv[2::2]  # flag, value, ...
    if {"-h", "--help"} & {command, *flags}:
        return (command if command in _COMMANDS else None), {"--help": ""}
    if command not in _COMMANDS:
        raise UsageError(f"expected a command: {', '.join(_COMMANDS)}")
    table = _CURVE + _COMMANDS[command][1]
    for flag in flags:
        if flag not in [row[0] for row in table]:
            raise UsageError(f"unrecognized arguments: {flag}")
    if len(flags) > len(values):
        raise UsageError(f"argument {flags[-1]}: expected one argument")
    options = dict(zip(flags, values))
    if missing := [flag for flag, _, required, _ in table if required and flag not in options]:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if ("--curve" in options) == ("--curve-file" in options):
        raise UsageError("expected exactly one of the arguments --curve --curve-file")
    if options.get("--curve", BUNDLED_CURVES[0]) not in BUNDLED_CURVES:
        raise UsageError(f"argument --curve: invalid choice: {options['--curve']!r}")
    return command, options


def _dispatch(command: str | None, options: dict[str, str]) -> list[str]:
    if "--help" in options:  # the commands, or the options of this one
        rows = [(name, text) for name, (text, _) in _COMMANDS.items()]
        if command:
            rows = [(f"{f} {m}", text) for f, m, _, text in _CURVE + _COMMANDS[command][1]]
        usage = f"usage: ecpf {command or 'COMMAND'} (--curve NAME | --curve-file PATH) ..."
        return [usage, *(f"  {left:<26}{text or ''}".rstrip() for left, text in rows)]
    name = options.get("--curve")
    curve = bundled_curve(name) if name else load_curve_file(options["--curve-file"])
    # After the curve, in table order: the first bad value is the one reported,
    # prefixed with its flag.
    values = []
    for flag, metavar, _, _ in _COMMANDS[command][1]:
        text = options.get(flag)
        try:
            if text is None:
                values.append(None)
            elif metavar == "HEX":
                values.append(MpInt.from_hex(text, curve.modulus.capacity))
            else:
                values.append(parse_point(text, curve))
        except Error as exc:
            raise type(exc)(f"{flag}: {exc}") from None
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
        lines = _dispatch(*_parse(argv))
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
    """The process entry point: it freezes the heap; in-process callers use ``run``."""
    gc.freeze()  # one command, then exit: nothing made at import ever needs collecting
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
