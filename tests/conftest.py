from __future__ import annotations

import pytest

from weightmagic import load_catalog, run_all


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def criteria(catalog):
    results, _ = run_all(catalog)
    return results
