import numpy as np
import pytest

import arrowtime as at


def uniform_level_grid(n=9):
    nodes = np.linspace(1.0, 2.0, n)
    step = nodes[1] - nodes[0]
    return at.EnergyGrid(nodes, np.full(n, step), "linear", 1.0, 2.0), step


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build",
    [
        lambda: at.galapon_T([0.0, np.nan]),
        lambda: at.DiscreteOperator([0.0, 1.0], [[0.0, np.nan], [np.nan, 0.0]]),
        lambda: at.lyapunov_violation_witness(at.galapon_T([0.0, 1.0]), [1.0, 0.0], [0.0, np.nan]),
        lambda: at.galapon_T([0.0, np.inf]),
        lambda: at.lyapunov_violation_witness(at.galapon_T([0.0, 1.0]), [np.nan, 1.0], [0.0, 1.0]),
    ],
)
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValueError, match="finite|Hermitian|normalized"):
        build()


def test_discretized_operator_diagonal_and_offdiagonal():
    grid, step = uniform_level_grid()
    op = at.discretize_symmetric(grid)
    assert np.all(np.diag(op.matrix) == 0.0)
    expected = 1j * step / (np.pi * (grid.nodes[0] - grid.nodes[1]))
    assert abs(op.matrix[0, 1] - expected) < 1e-15


def test_discretized_operator_hermitian():
    grid, _ = uniform_level_grid()
    op = at.discretize_symmetric(grid)
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-14


def test_discretize_symmetric_handles_nonuniform_weights(profile_grid):
    small = at.make_energy_grid(1e-3, 10.0, 32, "logarithmic")
    op = at.discretize_symmetric(small)  # Hermiticity validated in the constructor
    assert np.all(np.diag(op.matrix) == 0.0)


def test_galapon_two_level_entries():
    op = at.galapon_T([0.0, 1.0])
    assert op.matrix[0, 0] == 0.0 and op.matrix[1, 1] == 0.0
    assert op.matrix[0, 1] == -1j
    assert op.matrix[1, 0] == 1j


def test_galapon_rejects_repeated_levels():
    with pytest.raises(ValueError):
        at.galapon_T([0.0, 1.0, 1.0])


def test_two_level_witness_is_minus_sine():
    op = at.galapon_T([0.0, 1.0])
    state = np.array([1.0, 1.0]) / np.sqrt(2.0)
    times = np.linspace(0.0, 2.0 * np.pi, 129)
    wt = at.lyapunov_violation_witness(op, state, times)
    assert np.max(np.abs(wt.values + np.sin(times))) < 1e-12
    assert wt.non_monotone
    assert wt.values[0] == 0.0



def test_witness_constant_for_eigenstate():
    op = at.galapon_T([0.0, 1.0])
    wt = at.lyapunov_violation_witness(op, np.array([1.0, 0.0]), np.linspace(0.0, 5.0, 33))
    assert np.max(np.abs(wt.values - wt.values[0])) < 1e-14
    assert not wt.non_monotone


def test_witness_trace_real_for_random_hermitian():
    rng = np.random.default_rng(12)
    n = 6
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = 0.5 * (raw + raw.conj().T)
    op = at.DiscreteOperator(np.arange(n, dtype=float), herm)
    state = rng.normal(size=n) + 1j * rng.normal(size=n)
    state /= np.linalg.norm(state)
    wt = at.lyapunov_violation_witness(op, state, np.linspace(0.0, 3.0, 17))
    assert np.all(np.isreal(wt.values))


def test_discrete_operator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        at.DiscreteOperator(np.array([0.0, 1.0]), np.array([[0.0, 1.0], [0.5, 0.0]], complex))
