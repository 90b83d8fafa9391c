import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arrowtime as at
from arrowtime import hardy
from conftest import arctan_trace


def _direct_transform(state, taus):
    """sum_i w_i psi_j(E_i) e^{i E_i tau} / 2pi, one exponential per (node, tau)."""
    z = state.grid.weights * state.amplitudes
    return z @ np.exp(1j * np.outer(state.grid.nodes, taus)) / (2.0 * np.pi)


def _gap_to_direct(state, taus):
    """Normwise relative gap of the factored transform to the direct sum."""
    direct = _direct_transform(state, taus)
    return np.linalg.norm(hardy._half_line_transform(state, taus) - direct) / np.linalg.norm(direct)


@pytest.mark.parametrize("times", [np.nan, [0.0, np.inf], [-np.inf]])
def test_oracle_rejects_non_finite_times(oracle_state_small, times):
    with pytest.raises(ValueError, match="finite"):
        at.mf_expectation_oracle(oracle_state_small, times)


@pytest.mark.parametrize("tau", [np.nan, -np.inf, np.inf])
def test_transform_rejects_non_finite_delay(oracle_state_small, tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        at.forward_component(oracle_state_small, tau)
    with pytest.raises(ValueError, match="tau"):
        at.tail_density(oracle_state_small, tau)


def test_forward_component_vanishes_at_positive_delay(oracle_state):
    assert np.all(at.forward_component(oracle_state, 0.5) == 0.0)


def test_forward_component_threshold_value(oracle_state):
    got = at.forward_component(oracle_state, 0.0)[0]
    assert abs(got - np.sqrt(2.0) / (2.0 * np.pi)) < 1e-6


def test_forward_component_unit_delay_modulus(oracle_state):
    got = abs(at.forward_component(oracle_state, -1.0)[0])
    assert abs(got - 1.0 / (2.0 * np.pi)) < 1e-6


def test_tail_density_values(oracle_state):
    assert abs(at.tail_density(oracle_state, 0.0) - 1.0 / np.pi) < 1e-5
    assert abs(at.tail_density(oracle_state, -1.0) - 0.5 / np.pi) < 1e-5
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    assert at.tail_density(zero, -1.0) == 0.0
    with pytest.raises(ValueError):
        at.tail_density(oracle_state, 0.5)


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0])
def test_oracle_matches_closed_form(oracle_state, t):
    assert abs(at.mf_expectation_oracle(oracle_state, t) - arctan_trace(t)) < 1e-5


def test_oracle_far_future_tail(oracle_state):
    got = at.mf_expectation_oracle(oracle_state, 100.0)
    assert got < 4e-3
    assert abs(got - arctan_trace(100.0)) < 1e-4


def test_oracle_zero_state(oracle_state):
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    assert at.mf_expectation_oracle(zero, 0.3) == 0.0


def test_oracle_monotone_by_construction(oracle_state):
    times = np.linspace(-3.0, 3.0, 25)
    vals = at.mf_expectation_oracle(oracle_state, times)
    assert np.all(np.diff(vals) < 0.0)
    assert min(vals) >= 0.0


def test_oracle_agrees_with_kernel_on_random_states(profile_grid):
    times = np.linspace(-3.0, 3.0, 11)
    for seed in (1, 2, 3):
        state = at.random_smooth_state(profile_grid, seed=seed)
        direct = at.mf_expectation(state, times)
        worst = np.max(np.abs(at.mf_expectation_oracle(state, times) - direct))
        assert worst < 5e-4


@pytest.mark.parametrize("which", ["profile", "packet", "random"])
def test_oracle_array_call_equals_scalar_calls(oracle_state, packet_state, profile_grid, which):
    state = {
        "profile": oracle_state,
        "packet": packet_state,
        "random": at.random_smooth_state(profile_grid, seed=11),
    }[which]
    times = np.concatenate([np.linspace(-200.0, 200.0, 4001), [-100.0, 100.0]])
    density = hardy._OracleDensity(state)
    assert times.min() <= -density.t0 and times.max() >= density.t0  # both tails reached
    values = at.mf_expectation_oracle(state, times)
    assert np.array_equal(values, density.expectation(times))
    assert np.array_equal(values, [density.expectation(float(t)) for t in times])
    scalar = at.mf_expectation_oracle(state, 100.0)
    assert type(scalar) is float and scalar == values[-1]


def test_oracle_keeps_no_reference_to_the_state():
    state = at.exponential_profile(at.default_profile_grid(512))
    ref = weakref.ref(state)
    at.mf_expectation_oracle(state, 0.0)
    del state
    gc.collect()
    assert ref() is None


def test_oracle_reports_uncertifiable_tail():
    grid = at.default_profile_grid(512)
    rng = np.random.default_rng(0)
    amps = rng.normal(size=(1, grid.n)) + 1j * rng.normal(size=(1, grid.n))
    state = at.ChannelState(grid, ("+",), amps)
    state = state.with_amplitudes(amps / np.sqrt(state.norm_squared()))
    with pytest.raises(RuntimeError, match="alias horizon"):
        at.mf_expectation_oracle(state, 0.0)


def test_sample_forward_component(oracle_state):
    taus = np.linspace(-3.0, 0.0, 31)
    got = np.array([at.forward_component(oracle_state, float(tau))[0] for tau in taus])
    expected = np.sqrt(2.0) / (2.0 * np.pi * (1.0 - 1j * taus))
    assert np.max(np.abs(got - expected)) < 1e-6


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 400),
    channels=st.sampled_from([1, 2]),
    spacing=st.sampled_from(["linear", "logarithmic"]),
    log_e_max=st.floats(-2.0, 2.0),
    log_span=st.floats(0.01, 12.0),
    count=st.one_of(st.sampled_from([1, 2, 3, 7, 61, 1009, 2003]), st.integers(1, 2500)),
    ends=st.tuples(
        st.floats(-hardy.HORIZON_MAX, hardy.HORIZON_MAX),
        st.floats(-hardy.HORIZON_MAX, hardy.HORIZON_MAX),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(400, 2, "linear", 2.0, 1.0, 2003, (-hardy.HORIZON_MAX, hardy.HORIZON_MAX), 0)
def test_factored_transform_matches_direct_sum(
    n, channels, spacing, log_e_max, log_span, count, ends, seed
):
    # e_max <= 100: both sums round their phases by about eps |E tau|, so the
    # gap between them grows with e_max * |tau| (see the README)
    grid = at.make_energy_grid(10.0 ** (log_e_max - log_span), 10.0**log_e_max, n, spacing)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(channels, n)) + 1j * rng.normal(size=(channels, n))
    state = at.ChannelState(grid, ("+", "-")[:channels], amps)
    taus = np.linspace(min(ends), max(ends), count)
    assert _gap_to_direct(state, taus) <= 1e-12


def test_factored_transform_on_oracle_lattice(packet_params):
    state = at.gaussian_channel_state(packet_params)
    assert _gap_to_direct(state, hardy._OracleDensity(state).taus) <= 1e-12
