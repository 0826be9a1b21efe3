"""Suite-wide fixtures and the ``--backend`` re-run option.

``pytest --backend processes`` (or ``threads``/``serial``, optionally
``kind:N``) exports ``REPRO_BACKEND`` before collection, so every tiled
engine built by any existing test resolves to that execution backend —
the whole suite doubles as a backend-conformance suite without
duplicating a single test. Untiled refactorers and reconstructors are
serial and do not consult it. Tests that pin their own ``backend=`` (the
differential suite in ``test_backends.py``) are unaffected: an explicit
argument outranks the environment override.
"""

from __future__ import annotations

import os

import pytest

from repro.core.backends import BACKEND_ENV, parse_backend_spec


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--backend",
        action="store",
        default=None,
        metavar="KIND[:N]",
        help=(
            "run the suite with REPRO_BACKEND set to this execution "
            "backend (serial, threads, processes; optional :N worker "
            "count), e.g. --backend processes:2"
        ),
    )


def pytest_configure(config: pytest.Config) -> None:
    spec = config.getoption("--backend")
    if spec is None:
        return
    parse_backend_spec(spec)  # fail fast on junk before collection
    os.environ[BACKEND_ENV] = spec


@pytest.fixture
def backend_option(request: pytest.FixtureRequest) -> str | None:
    """The ``--backend`` value (None when the suite runs natively)."""
    return request.config.getoption("--backend")
