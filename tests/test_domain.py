import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecpf
from ecpf.domain import _is_probable_prime, bundled_curve, parse_curve_file
from ecpf.errors import ValidationError
from ecpf.scalar_mul import ladder


def test_library_import_leaves_cli_unloaded():
    # The child imports the same ecpf as this process, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(ecpf.__file__).parents[1])}
    code = "import sys, ecpf, ecpf.domain; print({'ecpf.cli', 'argparse'} & set(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"set()\n"


def test_cli_import_leaves_the_resource_machinery_unloaded():
    # -S: without site, nothing but ecpf can import these into the child.
    # Bundled curves are read with open(), so a CLI call needs none of them.
    env = {**os.environ, "PYTHONPATH": str(Path(ecpf.__file__).parents[1])}
    heavy = "{'importlib.resources', 'pathlib', 'zipfile', 'tempfile'}"
    code = f"import sys, ecpf.cli; print(sorted({heavy} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


def test_bundled_curve_is_validated_once(count_calls):
    calls = count_calls(ladder)
    first = bundled_curve("p192")
    calls.clear()
    assert bundled_curve("p192") is first
    assert calls == []
    # the wrapper sees the n*G check of every load that is not cached
    parse_curve_file("name=s\np=11\na=02\nb=02\ngx=05\ngy=01\nn=13\nh=01\n")
    assert len(calls) == 1


def test_unknown_bundled_curve_is_rejected():
    with pytest.raises(ValidationError, match="no bundled curve named 'nope'"):
        bundled_curve("nope")


def test_smallest_primes_are_prime():
    assert [m for m in range(12) if _is_probable_prime(m)] == [2, 3, 5, 7, 11]
