import pytest

from ecpf.cli import bundled_curve, parse_curve_file
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
