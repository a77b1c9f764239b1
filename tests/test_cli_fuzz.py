"""Property: no CLI input, however malformed, escapes ``run`` as an exception,
and every answer is right.

Curve-file text and argv are drawn around smoke17-sized values, and ``run``
is called in-process.  Every call must end with exit code 0-3 and a stderr
that is empty on success and exactly one ``error:`` line otherwise.  On
success, stdout must equal the answer that ``helpers.oracle_cli_stdout``
works out with ints from the same curve file and options.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecpf.cli import run
from helpers import COMMAND_OPTIONS, SMOKE17_TEXT, XY, oracle_cli_stdout

SMOKE17 = dict(line.split("=") for line in SMOKE17_TEXT.splitlines())

CURVE_FILE = "<curve-file>"

# True about one time in four.
rarely = st.tuples(st.booleans(), st.booleans()).map(all)


def mostly(good, bad):
    """``good`` about three times in four, ``bad`` otherwise."""
    return rarely.flatmap(lambda rare: bad if rare else good)


small_hex = st.integers(0, 0x3F).map("{:02x}".format)
junk = st.text(st.characters(max_codepoint=0x7F), max_size=4) | st.text(max_size=4)
values = mostly(small_hex, junk)
points = mostly(
    st.sampled_from(["gen", "infinity"]) | st.tuples(small_hex, small_hex).map(",".join),
    junk,
)

STRATEGIES = {"HEX": values, XY: points}
OPTIONS = {
    command: tuple((flag, STRATEGIES[metavar]) for flag, metavar, _ in options)
    for command, options in COMMAND_OPTIONS.items()
}


@st.composite
def curve_texts(draw):
    """smoke17's file, mostly with one value changed and now and then two;
    now and then a line is dropped, a key repeated or a junk line added;
    lines shuffled."""
    entries = dict(SMOKE17)
    keys = st.sampled_from(sorted(SMOKE17))
    changed = set() if draw(rarely) else {draw(keys)}
    if draw(rarely):
        changed.add(draw(keys))
    for key in changed:
        entries[key] = draw(values)
    lines = [f"{key}={value}" for key, value in entries.items()]
    if draw(rarely):
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    if draw(rarely):
        lines.append(f"{draw(st.sampled_from(sorted(SMOKE17)))}={draw(values)}")
    if draw(rarely):
        lines.append(draw(junk))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def argvs(draw):
    """A command with a curve selection and options, each sometimes broken.

    The command name itself is always valid: the parser rejects a bad one
    before it reads an option, and a stray token is inserted now and then.
    """
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    argv += draw(
        mostly(
            st.sampled_from([["--curve-file", CURVE_FILE]] * 2 + [["--curve", "smoke17"]]),
            st.tuples(st.sampled_from(["--curve", "--curve-file"]), junk).map(list),
        )
    )
    for flag, strategy in OPTIONS[command]:
        if not draw(rarely):
            argv += [flag, draw(strategy)]
    if draw(rarely):
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@pytest.fixture(scope="module")
def curve_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.curve"


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=curve_texts(), argv=argvs())
def test_cli_never_escapes(curve_path, text, argv):
    curve_path.write_text(text, encoding="utf-8")
    args = [str(curve_path) if arg == CURVE_FILE else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(args)
    assert code in (0, 1, 2, 3)
    stderr = err.getvalue()
    if code != 0:
        assert stderr.startswith("error: ")
        assert stderr.endswith("\n") and stderr.count("\n") == 1
        return
    assert stderr == ""
    if any(arg in ("-h", "--help") for arg in argv):
        return  # a stray token asked for help, and got usage
    command = next(arg for arg in argv if arg in OPTIONS)
    options = {arg: argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg.startswith("--")}
    stdout, private = out.getvalue(), None
    if command == "keygen" and "--seed" not in options:  # d was drawn: check its key
        private = int(stdout.partition("\n")[0].removeprefix("private="), 16)
    curve = text if CURVE_FILE in argv else SMOKE17_TEXT
    assert stdout == oracle_cli_stdout(curve, command, options, private)
