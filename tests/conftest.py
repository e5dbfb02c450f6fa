from __future__ import annotations

import sys

import pytest

from weightmagic import load_catalog, run_all


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def verification(catalog):
    return run_all(catalog)


@pytest.fixture(scope="session")
def criteria(verification):
    return verification[0]


@pytest.fixture(scope="session")
def reports(verification):
    return verification[1]


@pytest.fixture
def digit_limit():
    """Limits int() to 1,000 decimal digits for one test, whatever
    PYTHONINTMAXSTRDIGITS says, and restores the old limit after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts decimal digits of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    yield
    sys.set_int_max_str_digits(old)
