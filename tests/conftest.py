import os
import sys
from pathlib import Path

import pytest

import ecpf
from ecpf.domain import bundled_curve, parse_curve_file
from helpers import T11_TEXT


@pytest.fixture(scope="session")
def smoke17():
    return bundled_curve("smoke17")


@pytest.fixture(scope="session")
def p192():
    return bundled_curve("p192")


@pytest.fixture(scope="session")
def t11():
    return parse_curve_file(T11_TEXT)


@pytest.fixture
def child_env():
    """The environment of a child Python that imports the same ecpf as this
    process, installed or not."""
    return {**os.environ, "PYTHONPATH": str(Path(ecpf.__file__).parents[1])}


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) wraps fn at every ecpf module that binds it; returns its calls.

    Each call appends its positional arguments to the returned list, so a
    call made through any module's import is seen, the defining module's
    own calls included.  The wrappers are removed when the test ends.
    """

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        bound = [
            (module, name)
            for modname, module in list(sys.modules.items())
            if modname.split(".")[0] == "ecpf"
            for name, value in list(vars(module).items())
            if value is fn
        ]
        assert (sys.modules[fn.__module__], fn.__name__) in bound, fn
        for module, name in bound:
            monkeypatch.setattr(module, name, counted)
        return calls

    return install
