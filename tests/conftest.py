import time
from types import SimpleNamespace

import numpy as np
import pytest

import arrowtime as at
from arrowtime.checks import run_checks


def arctan_trace(t):
    """Closed-form forward trace of the exponential reference profile."""
    return 0.5 - np.arctan(t) / np.pi


@pytest.fixture(scope="session")
def profile_grid():
    return at.default_profile_grid(4096)


@pytest.fixture(scope="session")
def oracle_state(profile_grid):
    return at.exponential_profile(profile_grid)


@pytest.fixture(scope="session")
def oracle_state_small():
    return at.exponential_profile(at.default_profile_grid(1024))


@pytest.fixture(scope="session")
def packet_params():
    return at.GaussianPacketParams(6.4, 3.0)


@pytest.fixture(scope="session")
def packet_state(packet_params):
    return at.gaussian_channel_state(packet_params, n=2048)


@pytest.fixture(scope="session")
def packet_state_fine(packet_params):
    return at.gaussian_channel_state(packet_params, n=4096)


@pytest.fixture(scope="session")
def registry():
    """The invariant suite of `arrowtime check`, run once per session."""
    start = time.perf_counter()
    results = run_checks()
    return SimpleNamespace(
        results={r.name: r for r in results}, seconds=time.perf_counter() - start
    )
