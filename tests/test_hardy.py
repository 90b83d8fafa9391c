import numpy as np
import pytest

import arrowtime as at
from conftest import arctan_trace


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
    vals = [at.mf_expectation_oracle(oracle_state, float(t)) for t in times]
    assert np.all(np.diff(vals) < 0.0)
    assert min(vals) >= 0.0


def test_oracle_agrees_with_kernel_on_random_states(profile_grid):
    times = np.linspace(-3.0, 3.0, 11)
    for seed in (1, 2, 3):
        state = at.random_smooth_state(profile_grid, seed=seed)
        direct = at.expectation_trace(state, times, "forward")
        worst = max(
            abs(at.mf_expectation_oracle(state, float(t)) - d) for t, d in zip(times, direct)
        )
        assert worst < 5e-4


def test_backward_oracle_complements(oracle_state):
    for t in (-1.0, 0.4):
        total = at.mf_expectation_oracle(oracle_state, t) + at.mb_expectation_oracle(
            oracle_state, t
        )
        assert abs(total - oracle_state.norm_squared()) < 1e-14


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
