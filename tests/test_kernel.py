import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arrowtime as at
from arrowtime.kernel import (
    _NEAR_MAX,
    _cauchy_dense,
    _forward_values,
    _near_width,
    cauchy_apply,
)


def test_backward_kernel_is_conjugate(profile_grid):
    fwd = at.build_kernel(profile_grid, "forward")
    bwd = at.build_kernel(profile_grid, "backward")
    rng = np.random.default_rng(3)
    v = rng.normal(size=profile_grid.n) + 1j * rng.normal(size=profile_grid.n)
    assert np.max(np.abs(fwd.apply(v) - np.conj(bwd.apply(np.conj(v))))) < 1e-13


def test_forward_plus_backward_acts_as_identity(profile_grid):
    fwd = at.build_kernel(profile_grid, "forward")
    bwd = at.build_kernel(profile_grid, "backward")
    rng = np.random.default_rng(4)
    v = rng.normal(size=profile_grid.n) + 1j * rng.normal(size=profile_grid.n)
    resid = fwd.apply(v) + bwd.apply(v) - v
    assert np.max(np.abs(resid)) < 1e-13 * np.max(np.abs(v))


def test_pv_matrix_antisymmetric_with_zero_diagonal():
    # the principal-value matrix w_i w_j / (E_i - E_j), read off the dense
    # reference form of the skip-diagonal Cauchy sum applied to the identity
    grid = at.make_energy_grid(0.5, 20.0, 128, "logarithmic")
    w = grid.weights
    mat = np.outer(w, w) * _cauchy_dense(grid.nodes, np.eye(grid.n)).real
    assert np.max(np.abs(mat + mat.T)) == 0.0
    assert np.all(np.diag(mat) == 0.0)


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 1500),
    columns=st.integers(1, 201),
    spacing=st.sampled_from(["linear", "logarithmic"]),
    log_e_min=st.floats(-10.0, 3.0),
    log_span=st.floats(0.01, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1500, columns=3, spacing="logarithmic", log_e_min=3.0, log_span=0.01, seed=1)
def test_fft_cauchy_matches_dense(n, columns, spacing, log_e_min, log_span, seed):
    # the FFT form at every size; grids too irregular for its node model
    # are left to the dense form
    grid = at.make_energy_grid(10.0**log_e_min, 10.0 ** (log_e_min + log_span), n, spacing)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(columns, n)) + 1j * rng.normal(size=(columns, n))
    dense = _cauchy_dense(grid.nodes, z)
    assert _relative_gap(cauchy_apply(grid, z), dense) <= 1e-12


@pytest.mark.parametrize(
    "grid",
    [
        at.default_profile_grid(),
        at.default_packet_grid(at.GaussianPacketParams(6.4, 3.0)),
        at.default_spectral_grid(8192),
    ],
    ids=["profile", "packet", "spectral"],
)
def test_fft_cauchy_matches_dense_on_default_grids(grid):
    # scaling the kernel by (E_i E_j)^-1/2 instead of 1/E_j fails this on
    # the wide spectral grid
    assert _near_width(grid.coordinate) <= _NEAR_MAX  # the FFT form applies
    rng = np.random.default_rng(8)
    vectors = np.vstack(
        [
            rng.normal(size=(3, grid.n)) + 1j * rng.normal(size=(3, grid.n)),
            at.eigenfunction(0.3, grid.nodes),
        ]
    )
    for z in (vectors, grid.weights * vectors):
        fast = cauchy_apply(grid, z)
        assert _relative_gap(fast, _cauchy_dense(grid.nodes, z)) <= 1e-12
        assert np.array_equal(cauchy_apply(grid, np.conj(z)), np.conj(fast))


def test_fft_trace_matches_dense_trace(packet_state_fine, oracle_state):
    times = np.linspace(-0.5, 0.5, 21)
    for state in (packet_state_fine, oracle_state):
        fast, _ = _forward_values(state, times)
        dense, _ = _forward_values(state, times, lambda grid, z: _cauchy_dense(grid.nodes, z))
        assert np.max(np.abs(fast - dense)) <= 1e-13


def test_kernel_reproduces_eigenfunction_action():
    grid = at.default_spectral_grid(4096)
    kern = at.build_kernel(grid, "forward")
    g = at.eigenfunction(0.5, grid.nodes)
    r = kern.apply(g) - 0.5 * g
    sl = slice(grid.n // 4, 3 * grid.n // 4)
    rel = np.sqrt(
        np.sum(grid.weights[sl] * np.abs(r[sl]) ** 2)
        / np.sum(grid.weights[sl] * np.abs(g[sl]) ** 2)
    )
    assert rel < 1e-3


@pytest.mark.parametrize("t,expected", [(1.0, 0.25), (-1.0, 0.75), (0.0, 0.5)])
def test_mf_matches_closed_form(oracle_state, t, expected):
    assert abs(at.mf_expectation(oracle_state, t) - expected) < 2e-4


def test_mf_zero_state(oracle_state):
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    assert at.mf_expectation(zero, 0.3) == 0.0


def test_mf_packet_at_time_zero_is_half(packet_state_fine):
    # real amplitudes at t = 0: conjugation swaps the two arrow operators while
    # fixing the state, forcing <M_F(0)> = <M_B(0)> = norm^2 / 2
    got = at.mf_expectation(packet_state_fine, 0.0)
    assert abs(got - 0.5) < 1e-3
    assert abs(got - 0.5 * packet_state_fine.norm_squared()) < 1e-12


def test_mb_vanishes_in_far_past(oracle_state):
    assert oracle_state.norm_squared() - at.mf_expectation(oracle_state, -100.0) < 5e-3


@pytest.mark.parametrize("which", ["profile", "packet"])
def test_array_call_equals_scalar_calls(oracle_state, packet_state, which):
    state = {"profile": oracle_state, "packet": packet_state}[which]
    times = np.array([[-0.3, 0.0], [0.05, 0.3]])
    values = at.mf_expectation(state, times)
    assert values.shape == times.shape
    scalars = np.vectorize(lambda t: at.mf_expectation(state, t))(times)
    if which == "profile":
        assert np.array_equal(values, scalars)
    assert np.max(np.abs(values - scalars)) <= 1e-15
    via_m = at.mf_expectation_via_m(state, times)
    assert via_m.shape == times.shape
    assert np.array_equal(via_m, np.vectorize(lambda t: at.mf_expectation_via_m(state, t))(times))
    for route in (at.mf_expectation, at.mf_expectation_via_m):
        assert type(route(state, np.float64(0.3))) is float
        assert type(route(state, np.array(0.3))) is float


def test_lyapunov_trace_closed_form(oracle_state):
    trace = at.lyapunov_trace(oracle_state, np.array([-1.0, 0.0, 1.0]))
    assert np.max(np.abs(trace.mf_values - [0.75, 0.5, 0.25])) < 2e-4
    assert np.max(np.abs(trace.mb_values - [0.25, 0.5, 0.75])) < 2e-4


def test_lyapunov_trace_empty_times(oracle_state):
    trace = at.lyapunov_trace(oracle_state, [])
    assert trace.times.size == 0
    assert trace.mf_values.size == 0


NON_FINITE_ROUTES = {
    "mf_expectation_array": lambda s: at.mf_expectation(s, [0.0, np.inf]),
    "lyapunov_trace": lambda s: at.lyapunov_trace(s, [0.0, np.inf]),
    "lyapunov_trace_nan": lambda s: at.lyapunov_trace(s, [0.0, np.nan, 1.0]),
    "mf_expectation": lambda s: at.mf_expectation(s, np.nan),
    "antisymmetry_defect": lambda s: at.antisymmetry_defect(s, [0.0, np.nan]),
}


@pytest.mark.parametrize("route", NON_FINITE_ROUTES)
def test_non_finite_times_are_rejected(oracle_state_small, route):
    with pytest.raises(ValueError, match="finite|strictly increasing"):
        NON_FINITE_ROUTES[route](oracle_state_small)


def test_lyapunov_trace_requires_increasing_times(oracle_state):
    with pytest.raises(ValueError):
        at.lyapunov_trace(oracle_state, [0.0, 0.0, 1.0])


def test_packet_trace_strictly_decreasing(packet_state_fine):
    times = np.linspace(-0.5, 0.5, 201)
    trace = at.lyapunov_trace(packet_state_fine, times)
    steps = np.diff(trace.mf_values)
    assert np.all(steps < 0.0)
    assert trace.mf_values[0] > 0.98
    assert trace.mf_values[-1] < 0.02


def test_monotonicity_error_carries_diagnostics():
    err = at.MonotonicityError([(3, 0.1, 0.2, 1.5e-6)])
    assert "1.5" in str(err)
    assert err.violations[0][0] == 3


def test_trace_validation_rejects_inconsistent_data():
    times = np.array([0.0, 1.0])
    for mf in ([1.2, 0.5], [0.5, -0.2], [np.nan, 0.5]):
        with pytest.raises(ValueError):
            at.LyapunovTrace(times, np.array(mf), 1.0)
    with pytest.raises(ValueError):
        at.LyapunovTrace(np.array([0.0, np.nan]), np.array([0.6, 0.5]), 1.0)


def test_trace_backward_values_complement_forward_bitwise(oracle_state):
    trace = at.lyapunov_trace(oracle_state, np.linspace(-1.0, 1.0, 7))
    assert np.array_equal(trace.mb_values, oracle_state.norm_squared() - trace.mf_values)


def test_antisymmetry_defect_machine_zero(profile_grid, oracle_state):
    for k in range(5):
        state = at.random_smooth_state(profile_grid, seed=100 + k)
        assert at.antisymmetry_defect(state, (-2.0, 0.0, 1.3)) < 1e-12
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    assert at.antisymmetry_defect(zero, 0.7) == 0.0
    assert at.antisymmetry_defect(oracle_state, 0.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 600),
    spacing=st.sampled_from(["linear", "logarithmic"]),
    log_e_min=st.floats(-10.0, 3.0),
    log_span=st.floats(0.01, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_operator_antisymmetric(n, spacing, log_e_min, log_span, seed):
    grid = at.make_energy_grid(10.0**log_e_min, 10.0 ** (log_e_min + log_span), n, spacing)
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    assert at.pairing_defect(grid, a, b) < 1e-12


def test_expectation_bounds_on_random_states(profile_grid):
    times = np.linspace(-5.0, 5.0, 41)
    for k in range(5):
        state = at.random_smooth_state(profile_grid, seed=500 + k)
        vals = at.mf_expectation(state, times)
        assert vals.min() >= -1e-8
        assert vals.max() <= 1.0 + 1e-8


def test_derivative_matches_tail_density(oracle_state):
    t, h = 0.7, 1e-3
    num = (at.mf_expectation(oracle_state, t + h) - at.mf_expectation(oracle_state, t - h)) / (
        2.0 * h
    )
    rate = -at.tail_density(at.evolve(oracle_state, t), 0.0)
    assert abs(num - rate) < 1e-3 + h**2


def test_mpc_zero_state(oracle_state):
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    d_expect, _ = at.mpc_commutator_defect(zero)
    assert d_expect == 0.0
