import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecpf
from ecpf.domain import _is_probable_prime, bundled_curve
from ecpf.errors import ValidationError


def test_library_import_leaves_cli_unloaded():
    # The child imports the same ecpf as this process, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(ecpf.__file__).parents[1])}
    code = "import sys, ecpf, ecpf.domain; print({'ecpf.cli', 'argparse'} & set(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"set()\n"


def _loaded_by_cli_import(modules):
    """Which of ``modules`` ``python -S -c "import ecpf.cli"`` loads, sorted.

    Without site, nothing but ecpf can import them into the child.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(ecpf.__file__).parents[1])}
    code = f"import sys, ecpf.cli; print(*sorted({set(modules)!r} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.decode().split()


def test_cli_import_leaves_the_resource_machinery_unloaded():
    # Bundled curves are read with open(), so a CLI call needs none of them.
    heavy = ["importlib.resources", "pathlib", "zipfile", "tempfile"]
    assert _loaded_by_cli_import(heavy) == []


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # The value types are plain slots classes: no class build runs dataclasses,
    # and with it inspect and the source tools it pulls in.
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    assert _loaded_by_cli_import(heavy) == []


def test_cli_import_leaves_string_unloaded():
    # from_hex checks digits against its own set: importing string compiles the
    # regex of string.Template.
    assert _loaded_by_cli_import(["string"]) == []


def test_unknown_bundled_curve_is_rejected():
    with pytest.raises(ValidationError, match="no bundled curve named 'nope'"):
        bundled_curve("nope")


def test_smallest_primes_are_prime():
    assert [m for m in range(12) if _is_probable_prime(m)] == [2, 3, 5, 7, 11]
