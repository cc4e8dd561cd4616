"""Session-wide fixtures shared across test modules."""

import os
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def generated_docs():
    """Every generated file under docs/, rebuilt once per test session.

    The map ``python -m repro docs`` writes (docs-relative path ->
    content); the freshness tests of every catalog compare the committed
    files against it instead of each re-parsing ``src/repro``.
    """
    from repro.__main__ import generated_docs as build

    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        return build()
    finally:
        os.chdir(cwd)
