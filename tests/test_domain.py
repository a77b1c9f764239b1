import subprocess
import sys

import pytest

from ecpf.domain import _is_probable_prime, bundled_curve, parse_curve_file
from ecpf.errors import Error, ValidationError
from helpers import small_curve_files


def test_library_import_leaves_cli_unloaded(child_env):
    code = "import sys, ecpf, ecpf.domain; print({'ecpf.cli', 'argparse'} & set(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"set()\n"


def _loaded_by_cli_import(env, modules):
    """Which of ``modules`` ``python -S -c "import ecpf.cli"`` loads in ``env``, sorted.

    Without site, nothing but ecpf can import them into the child.
    """
    code = f"import sys, ecpf.cli; print(*sorted({set(modules)!r} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.decode().split()


# Modules that ``import ecpf.cli`` must not load: (reason, modules) rows.
CLI_IMPORT_UNLOADED = {
    # Bundled curves are read with open(), so a CLI call needs none of them.
    "the_resource_machinery": ("importlib.resources", "pathlib", "zipfile", "tempfile"),
    # The value types are plain slots classes: no class build runs dataclasses,
    # and with it inspect and the source tools it pulls in.
    "dataclasses_and_inspect": ("dataclasses", "inspect", "ast", "dis", "tokenize"),
    # from_hex checks digits against its own set: importing string compiles the
    # regex of string.Template.
    "string": ("string",),
    # The CLI parses argv against its own table: no argparse, and none of the
    # modules that argparse imports.
    "argparse": ("argparse", "gettext", "re", "enum"),
    # Annotations evaluate at import on the 3.10 floor, so PEP 563 does no work.
    "pep563": ("__future__",),
    # Unseeded keys come from random.SystemRandom: importing secrets would load OpenSSL.
    "openssl": ("secrets", "hmac", "hashlib", "_hashlib"),
}


@pytest.mark.parametrize("modules", CLI_IMPORT_UNLOADED.values(), ids=list(CLI_IMPORT_UNLOADED))
def test_cli_import_leaves_unloaded(child_env, modules):
    assert _loaded_by_cli_import(child_env, modules) == []


def test_validator_accepts_exactly_the_valid_small_curves():
    # Every nonsingular curve over a prime 3 <= p < 32, with G, n and h around
    # the true orders: the validator, which reasons through the Hasse interval
    # and n > 4*sqrt(p), accepts a text exactly when the helpers, which count
    # points and add G to itself, find it valid.
    texts = accepted = 0
    for text, valid in small_curve_files(32):
        try:
            parse_curve_file(text)
        except Error:
            assert not valid, text
        else:
            assert valid, text
            accepted += 1
        texts += 1
    assert (texts, accepted) == (41653, 474)


def test_unknown_bundled_curve_is_rejected():
    with pytest.raises(ValidationError, match="no bundled curve named 'nope'"):
        bundled_curve("nope")


def test_smallest_primes_are_prime():
    assert [m for m in range(12) if _is_probable_prime(m)] == [2, 3, 5, 7, 11]
