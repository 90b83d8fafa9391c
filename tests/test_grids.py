import numpy as np
import pytest
from scipy.special import erfc

import arrowtime as at
from arrowtime.grids import UncoveredGridError


def test_log_grid_spacing_matches_definition():
    grid = at.make_energy_grid(1e-6, 1e3, 4096, "logarithmic")
    du = np.diff(np.log(grid.nodes))
    assert np.allclose(du, np.log(1e9) / 4095, rtol=1e-12)


def test_two_node_linear_grid_is_plain_trapezoid():
    grid = at.make_energy_grid(1.0, 2.0, 2, "linear")
    assert np.array_equal(grid.nodes, [1.0, 2.0])
    assert np.array_equal(grid.weights, [0.5, 0.5])


def test_log_grid_integrates_unit_exponential():
    grid = at.make_energy_grid(1e-9, 40.0, 4096, "logarithmic")
    total = np.sum(grid.weights * 2.0 * np.exp(-2.0 * grid.nodes))
    assert abs(total - 1.0) < 1e-8
    # with the lower cutoff at 1e-8 the missing left tail alone is 2e-8
    coarse = at.make_energy_grid(1e-8, 40.0, 4096, "logarithmic")
    total8 = np.sum(coarse.weights * 2.0 * np.exp(-2.0 * coarse.nodes))
    assert abs(total8 - 1.0) < 5e-8



def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        at.make_energy_grid(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        at.make_energy_grid(2.0, 1.0, 64)
    with pytest.raises(ValueError):
        at.make_energy_grid(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        at.make_energy_grid(1.0, 2.0, 64, "cubic")


def test_grid_invariant_validation():
    nodes = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        at.EnergyGrid(nodes, np.array([1.0, -1.0, 1.0]), "linear", 1.0, 3.0)
    with pytest.raises(ValueError):
        at.EnergyGrid(np.array([1.0, 3.0, 2.0]), np.ones(3), "linear", 1.0, 3.0)
    with pytest.raises(ValueError):
        at.EnergyGrid(np.array([1.0, 2.0, 4.1]), np.ones(3), "logarithmic", 1.0, 4.1)
    with pytest.raises(ValueError, match="not uniform"):
        at.EnergyGrid(np.array([1.0, 2.0, 3.1]), np.ones(3), "linear", 1.0, 3.1)


def _grid3(nodes=(1.0, 2.0, 3.0), weights=(1.0, 1.0, 1.0), e_max=3.0):
    return at.EnergyGrid(np.array(nodes), np.array(weights), "linear", 1.0, e_max)


@pytest.mark.parametrize(
    "field, build",
    [
        ("e_max", lambda: at.make_energy_grid(1.0, np.inf, 8, "logarithmic")),
        ("e_max", lambda: at.make_energy_grid(1.0, np.inf, 8, "linear")),
        ("e_min", lambda: at.make_energy_grid(np.nan, 2.0, 8)),
        ("nodes", lambda: _grid3(nodes=(1.0, np.nan, 3.0))),
        ("weights", lambda: _grid3(weights=(1.0, np.nan, 1.0))),
        ("e_max", lambda: _grid3(e_max=np.inf)),
        ("mu", lambda: at.ChannelState(_grid3(), ("+",), np.ones(3), mu=np.nan)),
        ("mu", lambda: at.ChannelState(_grid3(), ("+",), np.ones(3), mu=np.inf)),
        ("values", lambda: at.MomentumState(np.arange(-1.0, 2.0), np.ones(3), [1.0, np.nan, 1.0])),
        ("mu", lambda: at.MomentumState(np.arange(-1.0, 2.0), np.ones(3), np.ones(3), np.nan)),
    ],
    ids=[
        "make_energy_grid-log",
        "make_energy_grid-linear",
        "make_energy_grid-e_min",
        "EnergyGrid-nodes",
        "EnergyGrid-weights",
        "EnergyGrid-e_max",
        "ChannelState-nan",
        "ChannelState-inf",
        "MomentumState-values",
        "MomentumState-mu",
    ],
)
def test_non_finite_fields_are_rejected(field, build):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build()


def test_inner_product_normalization_and_zero(oracle_state):
    assert abs(at.inner_product(oracle_state, oracle_state) - 1.0) < 1e-10
    zero = oracle_state.with_amplitudes(np.zeros_like(oracle_state.amplitudes))
    assert at.inner_product(oracle_state, zero) == 0.0


def test_inner_product_orthogonal_channel_supports(profile_grid):
    rng = np.random.default_rng(5)
    a = np.zeros((2, profile_grid.n), dtype=complex)
    b = np.zeros_like(a)
    a[0] = rng.normal(size=profile_grid.n)
    b[1] = rng.normal(size=profile_grid.n)
    sa = at.ChannelState(profile_grid, ("+", "-"), a)
    sb = at.ChannelState(profile_grid, ("+", "-"), b)
    assert at.inner_product(sa, sb) == 0.0


def test_inner_product_sesquilinear(profile_grid):
    rng = np.random.default_rng(11)

    def mk():
        return at.ChannelState(
            profile_grid,
            ("+", "-"),
            rng.normal(size=(2, profile_grid.n)) + 1j * rng.normal(size=(2, profile_grid.n)),
        )

    a, b, c = mk(), mk(), mk()
    z = 0.37 - 1.21j
    lhs = at.inner_product(a, b.with_amplitudes(z * b.amplitudes + c.amplitudes))
    rhs = z * at.inner_product(a, b) + at.inner_product(a, c)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
    assert abs(at.inner_product(a, b) - np.conj(at.inner_product(b, a))) < 1e-12 * max(
        1.0, abs(lhs)
    )


def test_inner_product_mismatch_errors(oracle_state, packet_state):
    with pytest.raises(ValueError):
        at.inner_product(oracle_state, packet_state)
    relabeled = at.ChannelState(
        packet_state.grid, ("L", "R"), packet_state.amplitudes, packet_state.mu
    )
    with pytest.raises(ValueError):
        at.inner_product(packet_state, relabeled)


def test_momentum_to_energy_unitary_for_covered_packet():
    params = at.GaussianPacketParams(8.0, 1.0)
    mom = at.gaussian_momentum_state(params)
    grid = at.default_packet_grid(params, 2048)
    state = at.momentum_to_energy(mom, grid)
    assert abs(state.norm_squared() - 1.0) < 1e-8


def test_momentum_to_energy_positive_support_leaves_minus_empty():
    params = at.GaussianPacketParams(8.0, 1.0)
    mom = at.gaussian_momentum_state(params)
    values = np.where(mom.nodes > 0.0, mom.values, 0.0)
    clipped = at.MomentumState(mom.nodes, mom.weights, values, mom.mu)
    state = at.momentum_to_energy(clipped, at.default_packet_grid(params, 2048))
    assert np.max(np.abs(state.channel("-"))) < 1e-13


def test_minus_channel_mass_is_the_negative_momentum_tail(packet_state, packet_params):
    # integral of |psi~|^2 over p < 0 for the width convention
    # psi~ ~ exp(-(p-p0)^2/(2 xi0^2)) is erfc(p0/xi0)/2
    expected = 0.5 * erfc(packet_params.p0 / packet_params.xi0)
    mass = np.sum(packet_state.grid.weights * np.abs(packet_state.channel("-")) ** 2)
    assert abs(mass - expected) < 0.02 * expected



def test_momentum_to_energy_rejects_uncovered_grid():
    params = at.GaussianPacketParams(8.0, 1.0)
    mom = at.gaussian_momentum_state(params)
    wide = at.make_energy_grid(1e-6, 2.0 * mom.p_max**2, 512, "logarithmic")
    with pytest.raises(UncoveredGridError):
        at.momentum_to_energy(mom, wide)


def test_momentum_roundtrip_reproduces_analytic_packet():
    params = at.GaussianPacketParams(6.4, 3.0)
    mom = at.gaussian_momentum_state(params)
    grid = at.default_packet_grid(params, 2048)
    induced = at.energy_to_momentum(at.momentum_to_energy(mom, grid))
    analytic = (np.pi * params.xi0**2) ** (-0.25) * np.exp(
        -((induced.nodes - params.p0) ** 2) / (2.0 * params.xi0**2)
    )
    assert np.max(np.abs(induced.values - analytic)) < 1e-10


def test_momentum_to_energy_coarse_grid_raises():
    params = at.GaussianPacketParams(6.4, 3.0)
    mom = at.gaussian_momentum_state(params)
    coarse = at.make_energy_grid(1e-6 * params.e_char, 2.0 * params.e_char, 64, "logarithmic")
    with pytest.raises(ValueError, match="coarse"):
        at.momentum_to_energy(mom, coarse)
