import numpy as np
import pytest

import arrowtime as at


def test_gaussian_momentum_peak_value():
    params = at.GaussianPacketParams(6.4, 3.0)
    mom = at.gaussian_momentum_state(params)
    peak = np.max(np.abs(mom.values))
    # the sampled maximum sits within half a grid step of p0
    assert abs(peak - (np.pi * 9.0) ** (-0.25)) < 1e-6
    idx = np.argmax(np.abs(mom.values))
    assert abs(mom.nodes[idx] - 6.4) < mom.nodes[1] - mom.nodes[0]


def test_gaussian_momentum_normalized():
    mom = at.gaussian_momentum_state(at.GaussianPacketParams(6.4, 3.0))
    assert abs(mom.norm_squared() - 1.0) < 1e-10


def test_gaussian_momentum_width_ratio():
    params = at.GaussianPacketParams(6.4, 3.0)
    mom = at.gaussian_momentum_state(params, n=12801)
    val = lambda p: np.interp(p, mom.nodes, mom.values.real)
    ratio = val(params.p0 + params.xi0) / val(params.p0)
    assert abs(ratio - np.exp(-0.5)) < 1e-6


def test_gaussian_momentum_coverage_guard():
    with pytest.raises(ValueError):
        at.gaussian_momentum_state(at.GaussianPacketParams(6.4, 3.0), p_max=20.0)


@pytest.mark.parametrize("name", ["p0", "xi0", "mu"])
def test_packet_params_reject_non_finite_values(name):
    values = {"p0": 6.4, "xi0": 3.0, "mu": 1.0, name: np.nan}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        at.GaussianPacketParams(**values)


def test_position_density_origin_value():
    params = at.GaussianPacketParams(2.7, 3.0)
    assert abs(at.gaussian_position_density(params, 0.0, 0.0) - 3.0 / np.sqrt(np.pi)) < 1e-12


@pytest.mark.parametrize("t", [-0.6, 0.0, 0.3, 2.5])
def test_position_density_normalized_all_times(t):
    params = at.GaussianPacketParams(6.4, 3.0)
    sig = np.sqrt((1.0 + params.xi0**4 * t**2) / (2.0 * params.xi0**2))
    xc = params.p0 * t
    x = np.linspace(xc - 16 * sig, xc + 16 * sig, 4001)
    total = np.trapezoid(at.gaussian_position_density(params, x, t), x)
    assert abs(total - 1.0) < 1e-8


def test_position_density_peak_drifts_ballistically():
    params = at.GaussianPacketParams(6.4, 3.0)
    t = 0.4
    x = np.linspace(0.0, 6.0, 60001)
    dens = at.gaussian_position_density(params, x, t)
    assert abs(x[np.argmax(dens)] - params.p0 * t / params.mu) < 2e-4


def test_exponential_profile_normalized(oracle_state):
    assert abs(oracle_state.norm_squared() - 1.0) < 1e-8


def test_exponential_profile_threshold_value(oracle_state):
    first = oracle_state.channel("+")[0]
    assert abs(first - np.sqrt(2.0)) < 1e-8 * np.sqrt(2.0)


def test_exponential_profile_decay_ratio(oracle_state):
    nodes = oracle_state.grid.nodes
    k = int(np.argmin(np.abs(nodes - 1.0)))
    assert abs(nodes[k] - 1.0) < 0.01
    ratio = oracle_state.channel("+")[k] / oracle_state.channel("+")[0]
    assert abs(ratio - np.exp(-(nodes[k] - nodes[0]))) < 1e-12
    assert abs(ratio - np.exp(-1.0)) < 1e-2


def test_exponential_profile_requires_coverage():
    with pytest.raises(ValueError):
        at.exponential_profile(at.make_energy_grid(1.0, 42.0, 512))
    with pytest.raises(ValueError):
        at.exponential_profile(at.make_energy_grid(1e-12, 10.0, 512))


def test_evolve_identity_and_group(oracle_state):
    assert np.array_equal(at.evolve(oracle_state, 0.0).amplitudes, oracle_state.amplitudes)
    a = at.evolve(at.evolve(oracle_state, 0.3), 0.7)
    b = at.evolve(oracle_state, 1.0)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_evolve_preserves_norm(packet_state):
    evolved = at.evolve(packet_state, 1.7)
    assert abs(evolved.norm_squared() - packet_state.norm_squared()) < 1e-14



def test_random_smooth_state_seeded_and_normalized(profile_grid):
    a = at.random_smooth_state(profile_grid, seed=42)
    b = at.random_smooth_state(profile_grid, seed=42)
    c = at.random_smooth_state(profile_grid, seed=43)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert abs(a.norm_squared() - 1.0) < 1e-12
