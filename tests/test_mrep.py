import numpy as np
import pytest

import arrowtime as at


def closed_form_density(m):
    return 1.0 / (np.pi * np.sqrt(m * (1.0 - m)))


def test_eigenfunction_reference_values():
    assert abs(at.eigenfunction(0.5, 1.0) - 1.0 / np.pi) < 1e-14
    assert abs(at.eigenfunction(0.5, 4.0) - 1.0 / (2.0 * np.pi)) < 1e-14
    assert abs(abs(at.eigenfunction(0.2, 1.0)) - 1.0 / (2.0 * np.pi * 0.4)) < 1e-14


def test_eigenfunction_rejects_boundary_eigenvalues():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            at.eigenfunction(bad, 1.0)
    with pytest.raises(ValueError):
        at.eigenfunction(0.5, np.array([1.0, -2.0]))


def test_m_grid_structure(profile_grid):
    mgrid = at.make_m_grid(profile_grid)
    d = np.diff(mgrid.nu_nodes)
    assert np.all(d < 0.0)
    assert np.all(np.diff(mgrid.m_nodes) >= 0.0)
    # Nyquist band of the log grid
    assert abs(np.max(np.abs(mgrid.nu_nodes)) - np.pi / profile_grid.log_step) < 2 * mgrid.nu_step
    interior = np.abs(2.0 * np.pi * mgrid.nu_nodes) < 36.0
    assert np.all(mgrid.m_nodes[interior] > 0.0)
    assert np.all(mgrid.m_nodes[interior] < 1.0)


@pytest.mark.parametrize("size", [None, 131072, 15])
def test_m_grid_derived_from_step_and_length(profile_grid, packet_state, size):
    # the lattice arithmetic make_m_grid used when it stored the arrays
    for grid in (profile_grid, packet_state.grid):
        mgrid = at.make_m_grid(grid, size) if size != 15 else at.MGrid(grid.log_step, 15)
        length, du = mgrid.fft_length, grid.log_step
        k = np.arange(length)
        k = np.where(k < length - length // 2, k, k - length)
        k = np.sort(k)[::-1]
        nu = 2.0 * np.pi * k / (length * du)
        with np.errstate(over="ignore"):
            m = 1.0 / (1.0 + np.exp(2.0 * np.pi * nu))
        assert np.array_equal(mgrid.k_bins, k)
        assert np.array_equal(mgrid.nu_nodes, nu)
        assert np.array_equal(mgrid.m_nodes, m)
        assert mgrid == at.MGrid(grid.log_step, length)


@pytest.mark.parametrize("log_step, length", [(0.0, 64), (-0.1, 64), (0.1, 1)])
def test_m_grid_rejects_degenerate_lattice(log_step, length):
    with pytest.raises(ValueError):
        at.MGrid(log_step, length)


def test_oracle_state_m_density_closed_form(oracle_state):
    dist = at.to_m_representation(oracle_state)
    m = dist.mgrid.m_nodes
    sel = (m >= 0.05) & (m <= 0.95)
    summed, (dens,) = dist.density_m()
    assert np.array_equal(summed, dens)  # one channel: the sum is that channel
    assert np.max(np.abs(dens[sel] - closed_form_density(m[sel]))) < 1e-4
    mid = np.argmin(np.abs(m - 0.5))
    assert abs(dens[mid] - 2.0 / np.pi) < 1e-4


def test_m_transform_parseval(oracle_state, packet_state):
    for state in (oracle_state, packet_state):
        dist = at.to_m_representation(state)
        assert abs(dist.norm_squared() - state.norm_squared()) < 1e-6


def test_m_transform_zero_state(oracle_state):
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    dist = at.to_m_representation(zero)
    assert np.all(dist.values == 0.0)


def test_m_transform_requires_logarithmic_grid():
    grid = at.make_energy_grid(0.1, 40.0, 512, "linear")
    state = at.ChannelState(grid, ("+",), np.exp(-grid.nodes).astype(complex))
    with pytest.raises(ValueError):
        at.to_m_representation(state)


def test_round_trip_exponential(oracle_state):
    dist = at.to_m_representation(oracle_state)
    back = at.from_m_representation(dist, oracle_state.grid)
    assert np.max(np.abs(back.amplitudes - oracle_state.amplitudes)) < 1e-6



def test_round_trip_zero(oracle_state):
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    back = at.from_m_representation(at.to_m_representation(zero), zero.grid)
    assert np.all(back.amplitudes == 0.0)


def test_weak_orthonormality(profile_grid):
    a = at.random_smooth_state(profile_grid, seed=7)
    b = at.random_smooth_state(profile_grid, seed=8)
    mgrid = at.make_m_grid(profile_grid)
    lhs = at.to_m_representation(a, mgrid).inner(at.to_m_representation(b, mgrid))
    rhs = at.inner_product(a, b)
    assert abs(lhs - rhs) < 1e-6
    other = at.to_m_representation(b, at.make_m_grid(profile_grid, 2 * mgrid.fft_length))
    with pytest.raises(ValueError):
        at.to_m_representation(a, mgrid).inner(other)


def test_first_moment_symmetric_oracle(oracle_state):
    assert abs(at.mf_expectation_via_m(oracle_state, 0.0) - 0.5) < 1e-4


def test_via_m_zero_state(oracle_state):
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    assert at.mf_expectation_via_m(zero, 0.4) == 0.0


def test_via_m_matches_kernel_for_packet(packet_state):
    t = 0.3
    assert abs(at.mf_expectation_via_m(packet_state, t) - at.mf_expectation(packet_state, t)) < 1e-3


def test_eigen_residual_contract_and_refinement():
    res = {}
    for n in (1024, 2048):
        grid = at.default_spectral_grid(n)
        kern = at.build_kernel(grid, "forward")
        res[n] = [at.eigen_residual(m, grid, kern) for m in (0.1, 0.5, 0.9)]
    assert max(res[1024]) < 1e-2
    for coarse, fine in zip(res[1024], res[2048]):
        assert fine < coarse


def test_m_amplitude_floor_is_per_channel(packet_state):
    dist = at.to_m_representation(packet_state)
    scaled = at.MDistribution(dist.mgrid, dist.channels, dist.values * [[1.0], [1e-20]])
    ref, got = dist.amplitudes_m(), scaled.amplitudes_m()
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1] == 0.0, ref[1] == 0.0)
    # compared on the band frames.csv emits: beyond it the log-space cosh
    # conversion rounds by eps |ln psi|, and the far tail saturates at its cap
    m = dist.mgrid.m_nodes
    band = (m >= 1e-9) & (m <= 1.0 - 1e-9)
    want = 1e-20 * ref[1][band]
    assert np.max(np.abs(got[1][band] - want) / np.abs(want)) <= 1e-14


def test_projection_idempotent(packet_state):
    dist = at.to_m_representation(packet_state)
    once = dist.project((0.4, 0.6))
    twice = once.project((0.4, 0.6))
    assert np.array_equal(once.values, twice.values)


def test_projection_rejects_bad_interval(packet_state):
    dist = at.to_m_representation(packet_state)
    with pytest.raises(ValueError):
        dist.project((0.0, 0.5))
    with pytest.raises(ValueError):
        dist.project((0.6, 0.4))



def test_backward_running_rejects_empty_projection(oracle_state):
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    with pytest.raises(ValueError):
        at.backward_running_probability(zero, (0.4, 0.6), (0.7, 0.9), 0.05)


def test_backward_running_rejects_overlapping_intervals(packet_state):
    with pytest.raises(ValueError):
        at.backward_running_probability(packet_state, (0.4, 0.75), (0.7, 0.9), 0.05)
    with pytest.raises(ValueError):
        at.backward_running_probability(packet_state, (0.4, 0.6), (0.7, 0.9), -0.05)
