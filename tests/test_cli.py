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


def test_parse_curve_file_happy_path():
    params = parse_curve_file(SMOKE17_TEXT)
    assert params.name == "smoke17"
    assert params.modulus.p.value == 17
    assert params.n.value == 19
    assert params.h.value == 1
    assert params.a.value.value == 2


def test_parse_curve_file_missing_key():
    text = "\n".join(
        line for line in SMOKE17_TEXT.splitlines() if not line.startswith("gy=")
    )
    with pytest.raises(FormatError, match="missing key gy"):
        parse_curve_file(text)


def test_parse_curve_file_duplicate_key():
    with pytest.raises(FormatError, match="duplicate key b"):
        parse_curve_file(SMOKE17_TEXT + "b=03\n")


def test_parse_curve_file_unknown_key():
    with pytest.raises(FormatError, match="unknown key q"):
        parse_curve_file(SMOKE17_TEXT + "q=03\n")


def test_parse_curve_file_not_key_value():
    with pytest.raises(FormatError, match="line 3"):
        parse_curve_file("# header\nname=x\njunk\n")


def test_parse_curve_file_bad_hex_reports_line():
    # Bad hex, and hex past the capacity of p's context.
    for value, error in (("1g", ParseError), ("f" * 40, RangeError)):
        text = SMOKE17_TEXT.replace("n=13", f"n={value}")
        with pytest.raises(error, match=r"line 9: n"):
            parse_curve_file(text)


def test_parse_curve_file_off_curve_base_point():
    text = SMOKE17_TEXT.replace("gy=01", "gy=02")
    with pytest.raises(ValidationError, match="G not on curve"):
        parse_curve_file(text)


def test_parse_curve_file_non_canonical_coefficient():
    text = SMOKE17_TEXT.replace("a=02", "a=11")
    with pytest.raises(ValidationError, match="canonical"):
        parse_curve_file(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("a=02\nb=02", "a=99\nb=zz", "a is not a canonical residue"),
        ("n=13\nh=01", "n=" + "f" * 40 + "\nh=zz", "line 9: n: value of 160 bits exceeds capacity 74"),
    ],
    ids=["residue-before-hex", "capacity-before-hex"],
)
def test_curve_file_reports_its_first_bad_value(capsys, tmp_path, old, new, message):
    # Values are checked in key order, each parsed and range-checked in turn.
    path = tmp_path / "bad.curve"
    path.write_text(SMOKE17_TEXT.replace(old, new))
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, message)


def test_parse_curve_file_empty_name():
    text = SMOKE17_TEXT.replace("name=smoke17", "name=")
    with pytest.raises(FormatError, match="empty curve name"):
        parse_curve_file(text)


def test_load_curve_file(tmp_path):
    path = tmp_path / "c.curve"
    path.write_text(SMOKE17_TEXT)
    assert load_curve_file(str(path)).n.value == 19
    with pytest.raises(UsageError):
        load_curve_file(str(tmp_path / "absent.curve"))


def test_load_curve_file_nul_in_path_exits_1(capsys):
    assert run(["curve-info", "--curve-file", "bad\0.curve"]) == 1
    _one_error(capsys, "cannot read curve file: embedded null byte")


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


def test_keygen_seeded(capsys):
    assert run(["keygen", "--curve", "smoke17", "--seed", "09"]) == 0
    out = capsys.readouterr()
    assert out.out == "private=0a\npublic=07,0b\n"
    assert out.err == ""


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


def test_keygen_deterministic_across_runs(capsys):
    run(["keygen", "--curve", "smoke17", "--seed", "05"])
    first = capsys.readouterr().out
    run(["keygen", "--curve", "smoke17", "--seed", "05"])
    assert capsys.readouterr().out == first


def test_keygen_random_mode_parses_back(capsys, smoke17):
    assert run(["keygen", "--curve", "smoke17"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("private=") and out[1].startswith("public=")
    parse_point(out[1].removeprefix("public="), smoke17)


def test_mul_order_times_generator(capsys):
    assert run(["mul", "--curve", "smoke17", "--scalar", "13", "--point", "gen"]) == 0
    assert capsys.readouterr().out == "infinity\n"


def test_mul_examples(capsys, smoke17):
    assert run(["mul", "--curve", "smoke17", "--scalar", "09", "--point", "05,01"]) == 0
    out = capsys.readouterr().out
    assert out == "07,06\n"
    assert parse_point(out.strip(), smoke17) is not None


def test_add_command(capsys):
    assert run(["add", "--curve", "smoke17", "--p1", "05,01", "--p2", "06,03"]) == 0
    assert capsys.readouterr().out == "0a,06\n"


def test_add_inverse_pair(capsys):
    assert run(["add", "--curve", "smoke17", "--p1", "05,01", "--p2", "05,10"]) == 0
    assert capsys.readouterr().out == "infinity\n"


def test_double_command(capsys):
    assert run(["double", "--curve", "smoke17", "--point", "05,01"]) == 0
    assert capsys.readouterr().out == "06,03\n"


def test_negate_command(capsys):
    assert run(["negate", "--curve", "smoke17", "--point", "05,01"]) == 0
    assert capsys.readouterr().out == "05,10\n"
    assert run(["negate", "--curve", "smoke17", "--point", "infinity"]) == 0
    assert capsys.readouterr().out == "infinity\n"


def test_check_point_off_curve(capsys):
    assert run(["check", "--curve", "smoke17", "--point", "05,02"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "point not on curve" in out.err


def test_check_point_on_curve(capsys):
    assert run(["check", "--curve", "smoke17", "--point", "gen"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_curve_mode(capsys):
    assert run(["check", "--curve", "smoke17"]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert run(["check", "--curve", "p192"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_curve_mode_rejects_composite_order(capsys, tmp_path):
    # y^2 = x^3 + 4x over GF(5) with the full 8-point group as "order"
    path = tmp_path / "tiny.curve"
    path.write_text("name=tiny\np=05\na=04\nb=00\ngx=02\ngy=01\nn=08\nh=01\n")
    assert run(["check", "--curve-file", str(path)]) == 2
    assert "n is not prime" in capsys.readouterr().err


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


G192 = "188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012"
NEG_G192_Y = "f8e6d46a003725879cefee1294db32298c06885ee186b7ee"
TWO_G192 = (
    "dafebf5828783f2ad35534631588a3f629a70fb16982a888,"
    "dd6bda0d993da0fa46b27bbc141b868f59331afa5c7e93ab"
)


@pytest.mark.parametrize(
    "argv, out",
    [
        # Key generation runs the ladder on d + 2n, L + 1 bits for d = 2.
        (["keygen", "--curve", "p192", "--seed", "1"],
         f"private={2:048x}\npublic={TWO_G192}\n"),
        (["double", "--curve", "p192", "--point", "gen"], f"{TWO_G192}\n"),
        (["add", "--curve", "p192", "--p1", "gen", "--p2", f"{G192},{NEG_G192_Y}"],
         "infinity\n"),
        # (n - 1)*G = -G ends the ladder with (k + 1)*P = O, its one exit branch.
        (["mul", "--curve", "p192", "--scalar",
          "ffffffffffffffffffffffff99def836146bc9b1b4d22830", "--point", "gen"],
         f"{G192},{NEG_G192_Y}\n"),
    ],
    ids=["keygen", "double", "add", "mul"],
)
def test_p192_cli_results(capsys, argv, out):
    # The same four results that CI byte-compares on the installed package.
    assert run(argv) == 0
    result = capsys.readouterr()
    assert result.out == out
    assert result.err == ""


def test_usage_errors_exit_1(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["keygen"]) == 1  # no curve selected
    assert run(["keygen", "--curve", "p256"]) == 1  # not a bundled name
    assert run(["mul", "--curve", "smoke17", "--point", "gen"]) == 1  # no scalar
    assert (
        run(["keygen", "--curve", "smoke17", "--curve-file", "x.curve"]) == 1
    )  # exclusive
    capsys.readouterr()


def test_value_errors_exit_2(capsys):
    assert run(["mul", "--curve", "smoke17", "--scalar", "zz", "--point", "gen"]) == 2
    assert run(["mul", "--curve", "smoke17", "--scalar", "02", "--point", "05"]) == 2
    assert run(["mul", "--curve", "smoke17", "--scalar", "02", "--point", "05,02"]) == 2
    assert run(["add", "--curve", "smoke17", "--p1", "05,02", "--p2", "gen"]) == 2
    assert run(["keygen", "--curve", "smoke17", "--seed", "xyz"]) == 2
    capsys.readouterr()


_VALUE_ERRORS = {  # an option's bad value: the error it reads after the flag
    "1g": "invalid hex character 'g'",
    "05,1g": "invalid hex character 'g'",
    "05,02": "point not on curve",
    "GEN": "point must be 'x,y', 'gen' or 'infinity', got 'GEN'",
}


@pytest.mark.parametrize(
    "options, flag",
    [
        (["mul", "--scalar", "1g", "--point", "gen"], "--scalar"),
        (["mul", "--scalar", "02", "--point", "05,1g"], "--point"),
        (["mul", "--scalar", "02", "--point", "05,02"], "--point"),
        (["add", "--p1", "05,02", "--p2", "gen"], "--p1"),
        (["add", "--p1", "gen", "--p2", "05,02"], "--p2"),
        (["check", "--point", "05,02"], "--point"),
        (["add", "--p1", "GEN", "--p2", "gen"], "--p1"),
        # the first bad value in table order, off-curve or malformed
        (["add", "--p2", "zz", "--p1", "05,02"], "--p1"),
    ],
)
def test_value_error_names_its_option(capsys, options, flag):
    command, *rest = options
    assert run([command, "--curve", "smoke17", *rest]) == 2
    _one_error(capsys, f"{flag}: {_VALUE_ERRORS[rest[rest.index(flag) + 1]]}")


def test_bad_curve_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.curve"
    path.write_text(SMOKE17_TEXT.replace("gy=01", "gy=02"))
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    assert "G not on curve" in capsys.readouterr().err


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


def test_command_help_and_required_options(capsys):
    # Substrings, not golden text: argparse wraps help differently by version.
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
    assert "deterministic test seed" in capsys.readouterr().out


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
    # argparse's own print_help swallows the OSError of an unbuffered write
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


def test_curve_file_with_composite_order_exits_2(capsys, tmp_path):
    # 0x26 = 38 = 2*19: G has order 19, so n*G = O yet n is not prime
    path = tmp_path / "bad.curve"
    path.write_text(SMOKE17_TEXT.replace("n=13", "n=26"))
    assert run(["keygen", "--curve-file", str(path), "--seed", "12"]) == 2
    _one_error(capsys, "n is not prime")
    # Composites without a factor up to 37, so a Miller-Rabin witness rejects
    # them: 0x6e3 = 1763 = 41*43, and 0x351591274f9af9fb passes every base
    # up to 31 (only base 37 rejects it).
    for n in ("6e3", "351591274f9af9fb"):
        path.write_text(SMOKE17_TEXT.replace("n=13", f"n={n}"))
        assert run(["keygen", "--curve-file", str(path), "--seed", "12"]) == 2
        _one_error(capsys, "n is not prime")


def test_curve_file_with_wrong_prime_order_exits_2(capsys, tmp_path):
    # 0x11 = 17 is prime, but G has order 19
    path = tmp_path / "bad.curve"
    path.write_text(SMOKE17_TEXT.replace("n=13", "n=11"))
    assert run(["keygen", "--curve-file", str(path), "--seed", "12"]) == 2
    _one_error(capsys, "n*G is not the identity")
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "n*G is not the identity")


def test_curve_file_with_composite_field_exits_2(capsys, tmp_path):
    # G = (0, 1) lies on y^2 = x^3 + x + 1 over Z/9, which is not a field
    path = tmp_path / "bad.curve"
    path.write_text("name=z9\np=09\na=01\nb=01\ngx=00\ngy=01\nn=13\nh=01\n")
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "p is not prime")
    # 0xbfa17dc7 = 3215031751 = 151*751*28351, a strong pseudoprime to
    # bases 2, 3, 5 and 7
    path.write_text("name=spsp\np=bfa17dc7\na=01\nb=01\ngx=00\ngy=01\nn=13\nh=01\n")
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "p is not prime")
    # 0x437ae92817f9fc85b7e5 = 399165290221*798330580441 (psi_12), a strong
    # pseudoprime to every base up to 37
    path.write_text(
        "name=psi12\np=437ae92817f9fc85b7e5\na=01\nb=01\ngx=00\ngy=01\nn=13\nh=01\n"
    )
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "p is not prime")


def test_curve_file_over_gf2_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.curve"
    path.write_text("name=gf2\np=02\na=01\nb=01\ngx=00\ngy=01\nn=05\nh=01\n")
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "curve is singular")
    # an even composite p still fails as composite
    path.write_text("name=z4\np=04\na=01\nb=01\ngx=00\ngy=01\nn=05\nh=01\n")
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "p is not prime")


def test_curve_file_with_p_over_1024_bits_exits_2(capsys, tmp_path):
    # G = (0, 1) lies on y^2 = x^3 + x + 1 for any p; the bound comes first
    template = "name=big\np={:x}\na=01\nb=01\ngx=00\ngy=01\nn=13\nh=01\n"
    path = tmp_path / "big.curve"
    path.write_text(template.format(3 << 1100))
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "p is larger than 1024 bits")
    # a 1024-bit p is within the bound and still fails as composite
    path.write_text(template.format(2**1024 - 1))
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "p is not prime")


def test_oversized_curve_file_exits_2(capsys, tmp_path):
    # a valid curve padded with comment lines past the 65536-byte bound
    path = tmp_path / "big.curve"
    path.write_text(SMOKE17_TEXT + "# padding\n" * 7000)
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "curve file is larger than 65536 bytes")
    # the bound counts bytes: 75000 with CRLF line ends, 50000 characters without
    path.write_bytes((SMOKE17_TEXT + "#\n" * 25000).replace("\n", "\r\n").encode())
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, "curve file is larger than 65536 bytes")


def test_error_quoting_a_newline_stays_one_line(capsys):
    assert run(["curve-info", "--curve", "smoke17", "a\nb"]) == 1
    _one_error(capsys, "unrecognized arguments: a b")


@pytest.mark.parametrize(
    "text, message",
    [
        # smoke17's group has 19 points: neither 0*19 nor 2*19 is in [10, 26]
        (SMOKE17_TEXT.replace("h=01", "h=00"), "h*n is outside the Hasse interval"),
        (SMOKE17_TEXT.replace("h=01", "h=02"), "h*n is outside the Hasse interval"),
        # y^2 = x^3 + x + 3 over GF(17) has 17 points: an anomalous curve
        ("name=anom\np=11\na=01\nb=03\ngx=02\ngy=08\nn=11\nh=01\n", "n equals p"),
        # y^2 = x^3 + 1 over GF(17): (0, 1) has order 3 in a group of 18
        (
            "name=small\np=11\na=00\nb=01\ngx=00\ngy=01\nn=03\nh=06\n",
            "n is not larger than 4*sqrt(p)",
        ),
        # e101 (82 points, n = 41) with h = 3: h*n = p + 1 + 21, 2*sqrt(p) < 21
        (
            "name=e101\np=65\na=02\nb=00\ngx=46\ngy=59\nn=29\nh=03\n",
            "h*n is outside the Hasse interval",
        ),
        # y^2 = x^3 + 1 over GF(101) has 102 points: n = 17 with 16 + p < n*n <= 16p
        (
            "name=e101s\np=65\na=00\nb=01\ngx=4b\ngy=0a\nn=11\nh=06\n",
            "n is not larger than 4*sqrt(p)",
        ),
    ],
    ids=["h0", "h2", "anomalous", "small-n", "hasse-edge", "sqrt-edge"],
)
def test_curve_file_failing_an_order_check_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.curve"
    path.write_text(text)
    assert run(["curve-info", "--curve-file", str(path)]) == 2
    _one_error(capsys, message)


def test_bundled_curves_pass_the_order_checks():
    for name in ("smoke17", "p192"):
        assert bundled_curve(name)._validated
