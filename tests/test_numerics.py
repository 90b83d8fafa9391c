"""The numpy-only helpers against the mpmath and scipy routines they replace."""

import mpmath as mp
import numpy as np
import pytest
import scipy.fft
import scipy.integrate
import scipy.interpolate
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowtime import hardy, numerics


def _sample_points():
    """Log-spaced over [1e-10, 1e7], dense around the series cut and the old
    1e-4 switch of the cell average, both signs."""
    cut = numerics._SI_CUT
    x = np.concatenate([
        np.geomspace(1e-10, 1e7, 1201),
        cut * (1.0 + np.linspace(-1e-3, 1e-3, 41)),
        np.nextafter(cut, [0.0, np.inf]),
        np.geomspace(3e-5, 3e-4, 61),
    ])
    return np.concatenate([x, -x])


def _relative_error(got, ref):
    return np.max(np.abs(got - ref) / np.abs(ref))


def test_sine_integral_matches_mpmath():
    x = _sample_points()
    x = x[np.abs(x) >= numerics._SI_CUT]  # below the cut gamma_cell needs no Si
    with mp.workdps(40):
        ref = np.array([float(mp.si(v)) for v in x])
    assert _relative_error(numerics._si_asymptotic(x), ref) <= 1e-15


def test_gamma_cell_matches_mpmath():
    x = _sample_points()
    with mp.workdps(60):  # 1 - cos x cancels 20 digits at x = 1e-10
        ref = np.array([float(2 * mp.si(v) - 2 * (1 - mp.cos(v)) / v) for v in x])
    assert _relative_error(numerics.gamma_cell(x), ref) <= 1e-15
    assert numerics.gamma_cell(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def _nodes(kind, n, scale):
    if kind == "momentum":
        return np.linspace(-scale, scale, n)
    if kind == "tau":
        return np.linspace(-scale, scale, 2 * (n // 2) + 1)
    if kind == "log-of-log-grid":
        return np.log(np.geomspace(1e-6 * scale, scale, n))
    return np.log(np.linspace(1e-3 * scale, scale, n))  # log of a linear grid


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["momentum", "tau", "log-of-log-grid", "log-of-linear-grid"]),
    n=st.integers(4, 600),
    scale=st.floats(0.5, 700.0),
    seed=st.integers(0, 2**32 - 1),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_spline_matches_scipy(kind, n, scale, seed, ends):
    x = _nodes(kind, n, scale)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    ours, ref = numerics.CubicSpline(x, y), scipy.interpolate.CubicSpline(x, y)

    span = x[-1] - x[0]
    xq = np.linspace(x[0] - 0.01 * span, x[-1] + 0.01 * span, 997)
    norm = np.max(np.abs(ref(xq)))
    assert np.max(np.abs(ours(xq) - ref(xq))) <= 1e-13 * norm

    a, b = x[0] - 0.01 * span + np.array(ends) * 1.02 * span
    assert abs(ours.integrate(a, b) - ref.integrate(a, b)) <= 1e-13 * norm * span


@pytest.mark.parametrize("real", [True, False])
def test_next_fast_len_matches_scipy(real):
    ours = [numerics.next_fast_len(n, real) for n in range(1, 2**18 + 1)]
    ref = [scipy.fft.next_fast_len(n, real) for n in range(1, 2**18 + 1)]
    assert ours == ref


def test_cumulative_simpson_matches_scipy_on_oracle_lattice(packet_state):
    density = hardy._OracleDensity(packet_state)
    taus, dens = density.taus, density.density
    ref = scipy.integrate.cumulative_simpson(dens, x=taus, initial=0.0)
    got = numerics.cumulative_simpson(dens, (taus[-1] - taus[0]) / (taus.size - 1))
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 64, 65])
def test_cumulative_simpson_every_interval_parity(n):
    y = np.random.default_rng(n).standard_normal(n)
    ref = scipy.integrate.cumulative_simpson(y, dx=0.3, initial=0.0)
    assert np.max(np.abs(numerics.cumulative_simpson(y, 0.3) - ref)) <= 1e-15 * np.sum(np.abs(y))
