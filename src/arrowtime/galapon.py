"""Discrete-spectrum time operator and its comparison with the arrow kernel.

Discretizing twice the forward arrow operator minus the identity leaves a
purely off-diagonal Hermitian matrix with Cauchy structure i/(E_n - E_m):
the canonical discrete time operator.  It satisfies canonical commutation
with the Hamiltonian but its expectation value oscillates, so it is not a
Lyapunov operator; lyapunov_violation_witness exhibits that directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import EnergyGrid
from .kernel import cauchy_matrix

HERMITICITY_TOL = 1e-12

__all__ = [
    "DiscreteOperator",
    "WitnessTrace",
    "discretize_symmetric",
    "galapon_T",
    "level_correspondence",
    "lyapunov_violation_witness",
]


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Hermitian matrix attached to a set of distinct energy levels."""

    energies: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        mat = np.asarray(self.matrix, dtype=complex)
        e.setflags(write=False)
        mat.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (e.size, e.size):
            raise ValueError("matrix must be square over the energy levels")
        if not np.all(np.isfinite(e)):
            raise ValueError("energy levels must be finite")
        if np.unique(e).size != e.size:
            raise ValueError("energy levels must be distinct")
        defect = np.max(np.abs(mat - mat.conj().T))
        if not defect <= HERMITICITY_TOL * max(1.0, float(np.max(np.abs(mat)))):
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")

    @property
    def n(self) -> int:
        return self.energies.size


def discretize_symmetric(grid: EnergyGrid) -> DiscreteOperator:
    """Matrix of twice-the-forward-operator minus identity on the grid.

    The Plemelj halves cancel on the diagonal, leaving exactly zero there;
    off the diagonal the entry is (i/pi) sqrt(w_n w_m)/(E_n - E_m) in
    symmetrized (weight-absorbed) coordinates, Hermitian for any weights.
    """
    sw = np.sqrt(grid.weights)
    mat = (1j / np.pi) * (sw[:, None] * cauchy_matrix(grid.nodes, grid.nodes) * sw[None, :])
    return DiscreteOperator(grid.nodes, mat)


def galapon_T(energies) -> DiscreteOperator:
    """Canonical discrete time operator: zero diagonal, i/(E_n - E_m) off it."""
    e = np.asarray(energies, dtype=float)
    return DiscreteOperator(e, 1j * cauchy_matrix(e, e))


def level_correspondence(nodes) -> tuple[float, float]:
    """(h/pi, deviation) of discretize_symmetric on the uniform-weight linear
    grid over equally spaced `nodes` (step h) from h/pi times galapon_T(nodes);
    the arrow kernel is that multiple, so the deviation sits at roundoff."""
    nodes = np.asarray(nodes, dtype=float)
    step = nodes[1] - nodes[0]
    grid = EnergyGrid(nodes, np.full(nodes.size, step), "linear", nodes[0], nodes[-1])
    factor = float(step / np.pi)
    dev = np.max(np.abs(discretize_symmetric(grid).matrix - factor * galapon_T(nodes).matrix))
    return factor, float(dev)


@dataclass(frozen=True, eq=False)
class WitnessTrace:
    """Expectation values of a discrete operator along unitary evolution."""

    times: np.ndarray
    values: np.ndarray
    non_monotone: bool

    def __post_init__(self):
        for name in ("times", "values"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def lyapunov_violation_witness(op: DiscreteOperator, state, times) -> WitnessTrace:
    """<T(t)> under e^{-iHt} with H diagonal in the level basis.

    Flags non-monotonicity when the sampled trace has a strict interior
    extremum.  For two levels split by Delta and an equal superposition the
    trace is -sin(Delta t)/Delta.
    """
    c = np.asarray(state, dtype=complex)
    if c.shape != (op.n,):
        raise ValueError("state must be a coefficient vector over the levels")
    norm2 = float(np.sum(np.abs(c) ** 2))
    if abs(norm2 - 1.0) > 1e-10:
        raise ValueError("state must be normalized in the level basis")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    phases = np.exp(-1j * np.outer(op.energies, times))
    evolved = c[:, None] * phases
    applied = op.matrix @ evolved
    vals = np.sum(np.conj(evolved) * applied, axis=0)
    if times.size and np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, np.max(np.abs(vals))):
        raise RuntimeError("witness trace acquired an imaginary part")
    real = vals.real
    steps = np.diff(real)
    non_monotone = bool(np.any(steps[:-1] * steps[1:] < 0.0)) if real.size >= 3 else False
    return WitnessTrace(times, real, non_monotone)
