"""Shared field fixtures, built once per session, and the counting helpers."""

import pytest

from dworkcount.characters import round_to_int
from dworkcount.cli import run_count
from dworkcount.field import FqField


def rounded(total: complex, tol: float = 1e-3) -> int:
    """A route total as the integer count the command line reports."""
    value, _ = round_to_int(total, tol)
    return value


def count(field: FqField, degree: int, lam, method: str) -> int:
    """One route's count of one fibre, through the command line's run_count."""
    return run_count(field, degree, lam, [method], 1e-3).counts[method]


@pytest.fixture(scope="session")
def f5():
    return FqField(5)


@pytest.fixture(scope="session")
def f7():
    return FqField(7)


@pytest.fixture(scope="session")
def f11():
    return FqField(11)


@pytest.fixture(scope="session")
def f13():
    return FqField(13)


@pytest.fixture(scope="session")
def f17():
    return FqField(17)


@pytest.fixture(scope="session")
def f19():
    return FqField(19)


@pytest.fixture(scope="session")
def f25():
    return FqField(5, 2)


@pytest.fixture(scope="session")
def f31():
    return FqField(31)


@pytest.fixture(scope="session")
def f7_alt():
    return FqField(7, alt_generator=True)


@pytest.fixture(scope="session")
def f13_alt():
    return FqField(13, alt_generator=True)
