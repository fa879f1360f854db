"""pytest integration: ``--simsan`` (SimSanitizer).

Loaded through the repository root ``conftest.py`` (``pytest_plugins``).

``pytest --simsan`` arms the SimSanitizer: every engine event fired by
any test re-verifies the sanitizer's invariants; a test that
*intentionally* breaks them mid-simulation can opt out with
``@pytest.mark.no_simsan`` (justify in a comment).  ``REPRO_SIMSAN=1``
arms the sanitizer too, so CI can turn it on without changing the
pytest command line.
"""

from __future__ import annotations

from typing import Any, Generator

import pytest

from repro.analysis import simsan


def pytest_addoption(parser: Any) -> None:
    group = parser.getgroup("simsan")
    group.addoption(
        "--simsan",
        action="store_true",
        default=False,
        help="arm the SimSanitizer runtime invariant checker for the whole run",
    )


def pytest_configure(config: Any) -> None:
    config.addinivalue_line(
        "markers",
        "no_simsan: disarm the SimSanitizer for a test that intentionally "
        "violates simulation invariants",
    )
    if config.getoption("--simsan") or simsan.enabled_by_env():
        config._simsan_armed = True
        simsan.arm()
    else:
        config._simsan_armed = False


def pytest_unconfigure(config: Any) -> None:
    if getattr(config, "_simsan_armed", False):
        simsan.disarm()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: Any) -> Generator[None, None, None]:
    armed = getattr(item.config, "_simsan_armed", False)
    if armed and item.get_closest_marker("no_simsan") is not None:
        simsan.disarm()
        try:
            yield
        finally:
            simsan.arm()
    else:
        yield
