import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecpf
import ecpf.cli
import ecpf.domain
from ecpf.cli import run
from ecpf.curve import parse_point
from ecpf.domain import bundled_curve, format_curve_file, load_curve_file, parse_curve_file
from ecpf.errors import FormatError, ParseError, RangeError, UsageError, ValidationError
from helpers import T11_TEXT

SMOKE17_TEXT = """\
# comment line
name=smoke17
p=11
a=02
b=02
gx=05
gy=01

n=13
h=01
"""


def _smoke17(old, new):
    return SMOKE17_TEXT.replace(old, new)


def _n(value):
    """smoke17's file with n = ``value``: G still has order 19."""
    return _smoke17("n=13", f"n={value}")


def _g01(p, n="13"):
    """A curve file with G = (0, 1), which lies on y^2 = x^3 + x + 1 for any p."""
    return f"name=c\np={p}\na=01\nb=01\ngx=00\ngy=01\nn={n}\nh=01\n"


def _table_test(check, rows):
    """A test that calls ``check`` on each row: a list of rows is one test,
    and a dict of rows gives each row a test id."""
    if isinstance(rows, dict):

        @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
        def test(capsys, tmp_path, row):
            check(capsys, tmp_path, *row)

    else:

        def test(capsys, tmp_path):
            for row in rows:
                check(capsys, tmp_path, *row)

    return test


# Curve files that no command accepts: (content, exception, message) rows,
# under the name of the test that checks them.  Bytes are written as they are.
REJECTED = {
    "test_parse_curve_file_missing_key": [(_smoke17("gy=01\n", ""), FormatError, "missing key gy")],
    "test_parse_curve_file_duplicate_key": [(SMOKE17_TEXT + "b=03\n", FormatError, "duplicate key b")],
    "test_parse_curve_file_unknown_key": [
        (SMOKE17_TEXT + "q=03\n", FormatError, "line 11: unknown key q")
    ],
    "test_parse_curve_file_not_key_value": [
        ("# header\nname=x\njunk\n", FormatError, "line 3: expected key=value")
    ],
    "test_parse_curve_file_empty_name": [
        (_smoke17("name=smoke17", "name="), FormatError, "empty curve name")
    ],
    # Bad hex, and hex past the capacity of p's context.
    "test_parse_curve_file_bad_hex_reports_line": [
        (_n("1g"), ParseError, "line 9: n: invalid hex character 'g'"),
        (_n("f" * 40), RangeError, "line 9: n: value of 160 bits exceeds capacity 74"),
    ],
    # Values are checked in key order, each parsed and range-checked in turn.
    "test_curve_file_reports_its_first_bad_value": {
        "residue-before-hex": (
            _smoke17("a=02\nb=02", "a=99\nb=zz"), ValidationError, "a is not a canonical residue"
        ),
        "capacity-before-hex": (
            _smoke17("n=13\nh=01", "n=" + "f" * 40 + "\nh=zz"),
            RangeError, "line 9: n: value of 160 bits exceeds capacity 74",
        ),
    },
    "test_parse_curve_file_non_canonical_coefficient": [
        (_smoke17("a=02", "a=11"), ValidationError, "a is not a canonical residue")
    ],
    "test_parse_curve_file_off_curve_base_point": [
        (_smoke17("gy=01", "gy=02"), ValidationError, "G not on curve")
    ],
    "test_bad_curve_file_exits_2": [(_smoke17("gx=05", "gx=06"), ValidationError, "G not on curve")],
    "test_oversized_curve_file_exits_2": [
        # a valid curve padded with comment lines past the 65536-byte bound
        (SMOKE17_TEXT + "# padding\n" * 7000, FormatError, "curve file is larger than 65536 bytes"),
        # the bound counts bytes: 75000 with CRLF line ends, 50000 characters without
        (
            (SMOKE17_TEXT + "#\n" * 25000).replace("\n", "\r\n").encode(),
            FormatError, "curve file is larger than 65536 bytes",
        ),
    ],
    # The 1024-bit bound comes before primality: a 1024-bit p fails as composite.
    "test_curve_file_with_p_over_1024_bits_exits_2": [
        (_g01(f"{3 << 1100:x}"), ValidationError, "p is larger than 1024 bits"),
        (_g01(f"{2**1024 - 1:x}"), ValidationError, "p is not prime"),
    ],
    "test_curve_file_over_gf2_exits_2": [
        (_g01("02", n="05"), ValidationError, "curve is singular"),
        # an even composite p still fails as composite
        (_g01("04", n="05"), ValidationError, "p is not prime"),
    ],
    "test_curve_file_with_composite_field_exits_2": [
        # Z/9 is not a field; p is checked before n, so with n = 8 too it fails on p
        (_g01("09"), ValidationError, "p is not prime"),
        (_g01("09", n="08"), ValidationError, "p is not prime"),
        # 0xbfa17dc7 = 3215031751 = 151*751*28351, a strong pseudoprime to bases 2, 3, 5 and 7
        (_g01("bfa17dc7"), ValidationError, "p is not prime"),
        # 0x437ae92817f9fc85b7e5 = 399165290221*798330580441 (psi_12), a strong
        # pseudoprime to every base up to 37: of the 13 bases, only 41 rejects it
        (_g01("437ae92817f9fc85b7e5"), ValidationError, "p is not prime"),
    ],
    # y^2 = x^3 + 4x over GF(5) with the full 8-point group as "order"
    "test_check_curve_mode_rejects_composite_order": [
        ("name=tiny\np=05\na=04\nb=00\ngx=02\ngy=01\nn=08\nh=01\n", ValidationError, "n is not prime")
    ],
    "test_curve_file_with_composite_order_exits_2": [
        # 0x26 = 38 = 2*19: G has order 19, so n*G = O yet n is not prime
        (_n("26"), ValidationError, "n is not prime"),
        # 0x6e3 = 1763 = 41*43 has no factor up to 37: a Miller-Rabin witness rejects it
        (_n("6e3"), ValidationError, "n is not prime"),
        # 0x351591274f9af9fb passes every base up to 31, and bases 37 and 41 both
        # reject it: no row shows that base 37 is needed
        (_n("351591274f9af9fb"), ValidationError, "n is not prime"),
    ],
    # Strong Lucas pseudoprimes, which base 2 rejects, and strong pseudoprimes
    # to base 2, which a strong Lucas test rejects: a Baillie-PSW test must too.
    "test_curve_file_with_a_pseudoprime_order_exits_2": {
        str(n): (_n(f"{n:x}"), ValidationError, "n is not prime")
        for n in (5459, 5777, 10877, 8321, 42799, 49141)
    },
    # 0x11 = 17 is prime, but G has order 19
    "test_curve_file_with_wrong_prime_order_exits_2": [
        (_n("11"), ValidationError, "n*G is not the identity")
    ],
    "test_curve_file_failing_an_order_check_exits_2": {
        # smoke17's group has 19 points: neither 0*19 nor 2*19 is in [10, 26]
        "h0": (_smoke17("h=01", "h=00"), ValidationError, "h*n is outside the Hasse interval"),
        "h2": (_smoke17("h=01", "h=02"), ValidationError, "h*n is outside the Hasse interval"),
        # y^2 = x^3 + x + 3 over GF(17) has 17 points: an anomalous curve
        "anomalous": (
            "name=anom\np=11\na=01\nb=03\ngx=02\ngy=08\nn=11\nh=01\n", ValidationError, "n equals p"
        ),
        # y^2 = x^3 + 1 over GF(17): (0, 1) has order 3 in a group of 18
        "small-n": (
            "name=small\np=11\na=00\nb=01\ngx=00\ngy=01\nn=03\nh=06\n",
            ValidationError, "n is not larger than 4*sqrt(p)",
        ),
        # e101 (82 points, n = 41) with h = 3: h*n = p + 1 + 21, 2*sqrt(p) < 21
        "hasse-edge": (
            "name=e101\np=65\na=02\nb=00\ngx=46\ngy=59\nn=29\nh=03\n",
            ValidationError, "h*n is outside the Hasse interval",
        ),
        # y^2 = x^3 + 1 over GF(101) has 102 points: n = 17 with 16 + p < n*n <= 16p
        "sqrt-edge": (
            "name=e101s\np=65\na=00\nb=01\ngx=4b\ngy=0a\nn=11\nh=06\n",
            ValidationError, "n is not larger than 4*sqrt(p)",
        ),
    },
}


def _rejects(capsys, tmp_path, content, error, message):
    """``load_curve_file`` raises exactly ``error(message)``, and each command
    exits 2 with that message as its one error line."""
    path = tmp_path / "bad.curve"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(error) as raised:
        load_curve_file(str(path))
    assert type(raised.value) is error and str(raised.value) == message
    for command in (["curve-info"], ["check"], ["keygen", "--seed", "12"]):
        assert run([*command, "--curve-file", str(path)]) == 2
        _one_error(capsys, message)


globals().update((name, _table_test(_rejects, rows)) for name, rows in REJECTED.items())


def _call(argv, code, out, err="", curve="smoke17"):
    """A ``CALLS`` row: ``argv``, split on spaces, on the bundled ``curve``."""
    command, *options = argv.split(" ")
    return [command, "--curve", curve, *options], code, out, err


def _error(argv, code, message, curve="smoke17"):
    return _call(argv, code, "", f"error: {message}\n", curve)


G192 = "188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012"
NEG_G192_Y = "f8e6d46a003725879cefee1294db32298c06885ee186b7ee"
TWO_G192 = (
    "dafebf5828783f2ad35534631588a3f629a70fb16982a888,"
    "dd6bda0d993da0fa46b27bbc141b868f59331afa5c7e93ab"
)
POINT_FORM = "point must be 'x,y', 'gen' or 'infinity', got"
NO_COMMAND = "expected a command: keygen, mul, add, double, negate, check, curve-info"
ONE_CURVE = "expected exactly one of the arguments --curve --curve-file"

# Calls and their results: (argv, exit code, stdout, stderr) rows, under the
# name of the test that checks them.
CALLS = {
    "test_keygen_seeded": [_call("keygen --seed 09", 0, "private=0a\npublic=07,0b\n")],
    # two runs, one answer
    "test_keygen_deterministic_across_runs": [
        _call("keygen --seed 05", 0, "private=06\npublic=10,0d\n")
    ] * 2,
    "test_mul_order_times_generator": [_call("mul --scalar 13 --point gen", 0, "infinity\n")],
    "test_mul_examples": [_call("mul --scalar 09 --point 05,01", 0, "07,06\n")],
    "test_add_command": [_call("add --p1 05,01 --p2 06,03", 0, "0a,06\n")],
    "test_add_inverse_pair": [_call("add --p1 05,01 --p2 05,10", 0, "infinity\n")],
    "test_double_command": [_call("double --point 05,01", 0, "06,03\n")],
    "test_negate_command": [
        _call("negate --point 05,01", 0, "05,10\n"),
        _call("negate --point infinity", 0, "infinity\n"),
    ],
    "test_check_point_on_curve": [_call("check --point gen", 0, "ok\n")],
    "test_check_curve_mode": [_call("check", 0, "ok\n"), _call("check", 0, "ok\n", curve="p192")],
    # P-192 results, checked with every other row on the installed package too.
    "test_p192_cli_results": {
        # Key generation runs the ladder on d + 2n, L + 1 bits for d = 2.
        "keygen": _call("keygen --seed 1", 0, f"private={2:048x}\npublic={TWO_G192}\n", curve="p192"),
        # Doubling and addition leave through the same Jacobian exit: 2G, and G + (-G) = O.
        "double": _call("double --point gen", 0, f"{TWO_G192}\n", curve="p192"),
        "add": _call(f"add --p1 gen --p2 {G192},{NEG_G192_Y}", 0, "infinity\n", curve="p192"),
        # (n - 1)*G = -G ends the ladder with (k + 1)*P = O, its one exit branch.
        "mul": _call(
            "mul --scalar ffffffffffffffffffffffff99def836146bc9b1b4d22830 --point gen",
            0, f"{G192},{NEG_G192_Y}\n", curve="p192",
        ),
    },
    "test_usage_errors_exit_1": [
        ([], 1, "", f"error: {NO_COMMAND}\n"),
        (["frobnicate"], 1, "", f"error: {NO_COMMAND}\n"),
        (["keygen"], 1, "", f"error: {ONE_CURVE}\n"),  # no curve selected
        _error("keygen", 1, "argument --curve: invalid choice: 'p256'", curve="p256"),
        _error("mul --point gen", 1, "the following arguments are required: --scalar"),
        _error("keygen --curve-file x.curve", 1, ONE_CURVE),  # exclusive
    ],
    # Each flag is spelled out and followed by its value: no abbreviation, no
    # --flag=value, and the token after a flag is its value, whatever it is.
    "test_flag_forms": {
        "prefix": _error("mul --sca 05 --point gen", 1, "unrecognized arguments: --sca"),
        "file-prefix": _error("keygen --curve-f x.curve", 1, "unrecognized arguments: --curve-f"),
        "equals": _error("keygen --seed=05", 1, "unrecognized arguments: --seed=05"),
        "no-value": _error("keygen --seed", 1, "argument --seed: expected one argument"),
        "flag-as-value": _error("keygen --seed --help", 2, "--seed: invalid hex character '-'"),
    },
    "test_error_quoting_a_newline_stays_one_line": [
        _error("curve-info a\nb", 1, "unrecognized arguments: a b")
    ],
    "test_load_curve_file_nul_in_path_exits_1": [(
        ["curve-info", "--curve-file", "bad\0.curve"],
        1, "", "error: cannot read curve file: embedded null byte\n",
    )],
    # An option's bad value: one error line, which names the option.
    "test_value_errors_exit_2": [
        _error("mul --scalar zz --point gen", 2, "--scalar: invalid hex character 'z'"),
        _error("mul --scalar 02 --point 05", 2, f"--point: {POINT_FORM} '05'"),
        _error("keygen --seed xyz", 2, "--seed: invalid hex character 'x'"),
    ],
    "test_check_point_off_curve": [_error("check --point 06,01", 2, "--point: point not on curve")],
    # Each id gives the row's index and the option that its error names.
    "test_value_error_names_its_option": {
        f"options{i}-{message.partition(':')[0]}": _error(argv, 2, message)
        for i, (argv, message) in enumerate([
            ("mul --scalar 1g --point gen", "--scalar: invalid hex character 'g'"),
            ("mul --scalar 02 --point 05,1g", "--point: invalid hex character 'g'"),
            ("mul --scalar 02 --point 05,02", "--point: point not on curve"),
            ("add --p1 05,02 --p2 gen", "--p1: point not on curve"),
            ("add --p1 gen --p2 05,02", "--p2: point not on curve"),
            ("check --point 05,02", "--point: point not on curve"),
            ("add --p1 GEN --p2 gen", f"--p1: {POINT_FORM} 'GEN'"),
            # the first bad value in table order, off-curve or malformed
            ("add --p2 zz --p1 05,02", "--p1: point not on curve"),
        ])
    },
}


def _answers(capsys, _tmp_path, argv, code, out, err):
    """``run(argv)`` exits ``code`` with exactly ``out`` and ``err``."""
    assert run(argv) == code
    result = capsys.readouterr()
    assert result.out == out
    assert result.err == err


globals().update((name, _table_test(_answers, rows)) for name, rows in CALLS.items())


def test_parse_curve_file_happy_path():
    params = parse_curve_file(SMOKE17_TEXT)
    assert params.name == "smoke17"
    assert params.modulus.p.value == 17
    assert params.n.value == 19
    assert params.h.value == 1
    assert params.a.value.value == 2


def test_load_curve_file(tmp_path):
    path = tmp_path / "c.curve"
    path.write_text(SMOKE17_TEXT)
    assert load_curve_file(str(path)).n.value == 19
    with pytest.raises(UsageError):
        load_curve_file(str(tmp_path / "absent.curve"))


def test_bundled_curve_unknown_name():
    with pytest.raises(ValidationError):
        bundled_curve("p256")


def test_broken_packaged_curve_file_is_one_error(capsys, monkeypatch, tmp_path):
    # Shipped curves go through load_curve_file: a package whose curves/ is
    # missing or damaged gives one error line, like a bad curve file.
    monkeypatch.setattr(ecpf.domain, "__file__", str(tmp_path / "domain.py"))
    # uncached, so that no other test sees the broken curve
    monkeypatch.setattr(ecpf.cli, "bundled_curve", bundled_curve.__wrapped__)
    missing = tmp_path / "curves" / "smoke17.curve"
    assert run(["curve-info", "--curve", "smoke17"]) == 2
    error = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{missing}'"
    _one_error(capsys, f"cannot read curve file: {error}")
    missing.parent.mkdir()
    missing.write_bytes(SMOKE17_TEXT.replace("smoke17", "sm\xf6ke17").encode("latin-1"))
    assert run(["curve-info", "--curve", "smoke17"]) == 2
    _one_error(capsys, "curve file is not ASCII text")


def test_keygen_wider_than_the_field(capsys, tmp_path):
    # On t11, d = 16 needs two hex digits in a one-digit field.
    path = tmp_path / "t11.curve"
    path.write_text(T11_TEXT)
    for seed in ("0f", "1f"):
        assert run(["keygen", "--curve-file", str(path), "--seed", seed]) == 0
        out = capsys.readouterr()
        assert out.out == "private=10\npublic=0,9\n"
        assert out.err == ""
    for seed in range(0x40):
        assert run(["keygen", "--curve-file", str(path), "--seed", f"{seed:x}"]) == 0
        private = capsys.readouterr().out.splitlines()[0].removeprefix("private=")
        assert int(private, 16) == seed % 16 + 1


def test_keygen_random_mode_parses_back(capsys, smoke17):
    assert run(["keygen", "--curve", "smoke17"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("private=") and out[1].startswith("public=")
    parse_point(out[1].removeprefix("public="), smoke17)


def test_curve_info_round_trips(capsys, tmp_path, smoke17, p192, t11):
    path = tmp_path / "t11.curve"
    path.write_text(T11_TEXT)
    for source, curve in (
        (["--curve", "smoke17"], smoke17),
        (["--curve", "p192"], p192),
        (["--curve-file", str(path)], t11),  # n has more hex digits than p
    ):
        assert run(["curve-info", *source]) == 0
        text = capsys.readouterr().out
        assert text == format_curve_file(curve)
        assert parse_curve_file(text) == curve


def test_curve_info_p192(capsys):
    assert run(["curve-info", "--curve", "p192"]) == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["p"] == "fffffffffffffffffffffffffffffffeffffffffffffffff"
    assert lines["n"] == "ffffffffffffffffffffffff99def836146bc9b1b4d22831"
    assert lines["h"] == "0" * 47 + "1"  # fixed field width


def test_entropy_failure_exits_3(capsys, monkeypatch):
    def broken(bits):
        raise OSError("no entropy")

    monkeypatch.setattr("ecpf.keygen.secrets.randbits", broken)
    assert run(["keygen", "--curve", "smoke17"]) == 3
    assert "entropy" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "keygen" in capsys.readouterr().out


XY = "X,Y|gen|infinity"
COMMAND_OPTIONS = {  # command: [(flag, metavar, required)]
    "keygen": [("--seed", "HEX", False)],
    "mul": [("--scalar", "HEX", True), ("--point", XY, True)],
    "add": [("--p1", XY, True), ("--p2", XY, True)],
    "double": [("--point", XY, True)],
    "negate": [("--point", XY, True)],
    "check": [("--point", XY, False)],
    "curve-info": [],
}


KEYGEN_HELP = """\
usage: ecpf keygen (--curve NAME | --curve-file PATH) ...
  --curve {p192,smoke17}    bundled curve name
  --curve-file PATH         key=value curve file
  --seed HEX                deterministic test seed
"""


def test_command_help_and_required_options(capsys):
    # keygen's help is pinned byte for byte, every command's by its rows.
    good = {"HEX": "02", XY: "gen"}
    for command, options in COMMAND_OPTIONS.items():
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--curve {p192,smoke17}" in out and "--curve-file PATH" in out
        for flag, metavar, _ in options:
            assert f"{flag} {metavar}" in out
        for flag, _, required in options:
            if not required:
                continue
            argv = [command, "--curve", "smoke17"]
            for other, metavar, _ in options:
                if other != flag:
                    argv += [other, good[metavar]]
            assert run(argv) == 1
            error = f"error: the following arguments are required: {flag}\n"
            assert capsys.readouterr().err == error
    assert run(["keygen", "--help"]) == 0
    assert capsys.readouterr().out == KEYGEN_HELP


def test_module_entry_point():
    # The child imports the same ecpf as this process, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(ecpf.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "ecpf", "keygen", "--curve", "smoke17", "--seed", "09"],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == b"private=0a\npublic=07,0b\n"


def _run_module_into(stdout, unbuffered, args=("curve-info", "--curve", "p192")):
    """``python -m ecpf ARGS`` with its stdout on ``stdout``."""
    env = {**os.environ, "PYTHONPATH": str(Path(ecpf.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # print() itself fails, not the flush after it
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "ecpf", *args]
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_write_to_a_full_device_exits_1(unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        result = _run_module_into(full, unbuffered)
    assert result.returncode == 1
    error = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert result.stderr == error.encode()


@pytest.mark.parametrize("args", [["--help"], ["keygen", "--help"]], ids=" ".join)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_to_a_full_device_exits_1(unbuffered, args):
    # Help is written by run's output loop, so its failed write reaches main
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        result = _run_module_into(full, unbuffered, args)
    assert result.returncode == 1
    error = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert result.stderr == error.encode()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_write_to_a_closed_pipe_exits_1(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_module_into(write_end, unbuffered)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    error = f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"
    assert result.stderr == error.encode()


def _readme_examples():
    """(argv, exit code, stdout) of each README command-line example with a result.

    A result is the command's trailing comment or the comment lines right
    under it: "-> OUT", "exit N: why", or output lines as printed; text
    after two spaces is a note.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    examples, results = [], None
    for line in block.split("```", 1)[0].splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        if command:
            results = []
            examples.append((command.split()[1:], results))
        elif not line.strip():
            results = None  # a comment after a blank line introduces the next command
        if comment and results is not None:
            results.append(comment.split("  ")[0])
    for argv, results in examples:
        if results and results[0].startswith("exit "):
            yield argv, int(results[0].split()[1].rstrip(":")), ""
        elif results:
            yield argv, 0, "".join(r.removeprefix("-> ") + "\n" for r in results)


def test_readme_command_line_examples(capsys):
    examples = list(_readme_examples())
    assert len(examples) >= 7
    for argv, code, out in examples:
        assert run(argv) == code, argv
        assert capsys.readouterr().out == out, argv


def _one_error(capsys, message):
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_bundled_curves_pass_the_order_checks():
    for name in ("smoke17", "p192"):
        assert bundled_curve(name)._validated
