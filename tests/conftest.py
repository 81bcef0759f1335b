"""Shared fixtures.

The lifetime LUT and characterization framework are expensive to build
(butterfly-curve bisection), so they are session-scoped; everything else
is cheap and constructed per test.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

# The reprolint tool package lives beside the library in tools/ (it is
# installed from there by `pip install -e .`); make it importable when
# the suite runs from an uninstalled checkout with only PYTHONPATH=src.
_TOOLS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)

from repro.aging.cell import CharacterizationFramework
from repro.aging.lut import LifetimeLUT
from repro.cache.geometry import CacheGeometry
from repro.trace.trace import Trace


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line("markers", "slow: end-to-end CLI table runs (tens of seconds)")


@pytest.fixture(scope="session")
def framework() -> CharacterizationFramework:
    """Calibrated 45nm-like characterization framework."""
    return CharacterizationFramework()


@pytest.fixture(scope="session")
def lut(framework: CharacterizationFramework) -> LifetimeLUT:
    """Small but sufficient lifetime LUT sharing the session framework."""
    return LifetimeLUT(framework, p0_points=3, psleep_points=21)


@pytest.fixture()
def geometry_16k() -> CacheGeometry:
    """The paper's reference geometry: 16kB, 16-byte lines."""
    return CacheGeometry(16 * 1024, 16)


@pytest.fixture()
def geometry_small() -> CacheGeometry:
    """A tiny geometry for exhaustive checks: 1kB, 16-byte lines."""
    return CacheGeometry(1024, 16)


def make_random_trace(
    seed: int,
    length: int = 2000,
    max_gap: int = 50,
    address_space_lines: int = 4096,
    line_size: int = 16,
    name: str = "random",
) -> Trace:
    """Deterministic random trace used by several engine tests."""
    rng = np.random.default_rng(seed)
    cycles = np.cumsum(rng.integers(1, max_gap, size=length)).astype(np.int64)
    addresses = (rng.integers(0, address_space_lines, size=length) * line_size).astype(
        np.int64
    )
    return Trace(cycles, addresses, name=name)


@pytest.fixture()
def random_trace() -> Trace:
    """A medium random trace."""
    return make_random_trace(seed=42)
