"""Spectral grids on the half-line, multi-channel states, and the momentum map.

Everything downstream works in the energy representation: complex channel
amplitudes psi_j(E) sampled on a shared quadrature grid over (0, inf).
Logarithmic grids are the default because the operator eigenfunctions
oscillate uniformly in ln E.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .numerics import CubicSpline

SpacingKind = Literal["linear", "logarithmic"]

UNIFORMITY_TOL = 1e-12
NORM_CONSERVATION_TOL = 1e-8

__all__ = [
    "EnergyGrid",
    "UnderresolvedGridError",
    "UncoveredGridError",
    "ChannelState",
    "MomentumState",
    "make_energy_grid",
    "inner_product",
    "momentum_to_energy",
    "energy_to_momentum",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


class UnderresolvedGridError(ValueError):
    """An energy grid too coarse to carry a state's norm."""


class UncoveredGridError(ValueError):
    """An energy grid reaching past the momentum grid a state is sampled on."""


@dataclass(frozen=True, eq=False)
class EnergyGrid:
    """Quadrature nodes/weights for integrals over the energy half-line.

    Weights implement the composite trapezoid rule in the grid coordinate
    (E itself for linear spacing, u = ln E for logarithmic spacing).
    """

    nodes: np.ndarray
    weights: np.ndarray
    spacing_kind: SpacingKind
    e_min: float
    e_max: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=float)))
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if self.nodes[0] <= 0.0:
            raise ValueError("energy nodes must be strictly positive")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("energy nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if not (0.0 < self.e_min < self.e_max):
            raise ValueError("need 0 < e_min < e_max")
        if self.spacing_kind not in ("linear", "logarithmic"):
            raise ValueError(f"unknown spacing_kind: {self.spacing_kind!r}")
        # the Cauchy sum's FFT form needs steps uniform in the grid coordinate;
        # the tolerance is the precision the stored nodes carry, eps * E_max
        # on linear grids and eps * |ln E| on logarithmic ones
        coord = self.coordinate
        step = np.diff(coord)
        scale = self.nodes[-1] if self.spacing_kind == "linear" else max(1.0, np.max(np.abs(coord)))
        if np.max(np.abs(step - step[0])) > UNIFORMITY_TOL * scale:
            raise ValueError(f"{self.spacing_kind} grid is not uniform in its coordinate")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def coordinate(self) -> np.ndarray:
        """The coordinate the nodes are uniform in: E, or u = ln E."""
        return np.log(self.nodes) if self.spacing_kind == "logarithmic" else self.nodes

    @property
    def log_step(self) -> float:
        """Spacing in u = ln E; only meaningful for logarithmic grids."""
        if self.spacing_kind != "logarithmic":
            raise ValueError("log_step is defined only for logarithmic grids")
        return float(np.log(self.nodes[1]) - np.log(self.nodes[0]))

    def same_as(self, other: "EnergyGrid") -> bool:
        return (
            self.spacing_kind == other.spacing_kind
            and self.nodes.shape == other.nodes.shape
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


def make_energy_grid(
    e_min: float,
    e_max: float,
    n: int,
    spacing_kind: SpacingKind = "logarithmic",
) -> EnergyGrid:
    """Build a trapezoid quadrature grid on [e_min, e_max].

    e_min must be strictly positive: amplitudes behaving like E^(-1/2+i.nu)
    are singular at E = 0, so the origin is always excluded.
    """
    if not (0.0 < e_min < e_max):
        raise ValueError("need 0 < e_min < e_max")
    if n < 2:
        raise ValueError("n too small: the trapezoid rule needs at least two nodes")
    if spacing_kind == "linear":
        nodes = np.linspace(e_min, e_max, n)
        step = nodes[1] - nodes[0]
        weights = np.full(n, step)
    elif spacing_kind == "logarithmic":
        u = np.linspace(np.log(e_min), np.log(e_max), n)
        nodes = np.exp(u)
        weights = nodes * (u[1] - u[0])
    else:
        raise ValueError(f"unknown spacing_kind: {spacing_kind!r}")
    weights = weights.copy()
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return EnergyGrid(nodes, weights, spacing_kind, float(e_min), float(e_max))


@dataclass(frozen=True, eq=False)
class ChannelState:
    """Complex amplitudes psi_j(E_i), one row per degeneracy channel.

    The channel label set is fixed at construction; all channels share one
    grid. States are immutable: derived states are new objects.
    """

    grid: EnergyGrid
    channels: tuple[str, ...]
    amplitudes: np.ndarray
    mu: float = 1.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim == 1:
            amps = amps[None, :]
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("channel labels must be unique")
        if self.amplitudes.shape != (len(self.channels), self.grid.n):
            raise ValueError("amplitude array must be (n_channels, n_nodes)")
        if self.mu <= 0.0:
            raise ValueError("mass must be positive")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes must be finite")

    def norm_squared(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.amplitudes) ** 2))

    def channel(self, label: str) -> np.ndarray:
        return self.amplitudes[self.channels.index(label)]

    def with_amplitudes(self, amplitudes: np.ndarray) -> "ChannelState":
        return ChannelState(self.grid, self.channels, amplitudes, self.mu)

    def restrict_channel(self, label: str) -> "ChannelState":
        """Zero every channel except `label`."""
        amps = np.zeros_like(self.amplitudes)
        i = self.channels.index(label)
        amps[i] = self.amplitudes[i]
        return self.with_amplitudes(amps)


@dataclass(frozen=True, eq=False)
class MomentumState:
    """Complex samples psi~(p) on a symmetric momentum grid."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    mu: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=float)))
        object.__setattr__(self, "values", _frozen(np.asarray(self.values, dtype=complex)))
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("momentum nodes must be strictly increasing")
        if abs(self.nodes[0] + self.nodes[-1]) > 1e-9 * self.nodes[-1]:
            raise ValueError("momentum grid must be symmetric about p = 0")
        if self.values.shape != self.nodes.shape or self.weights.shape != self.nodes.shape:
            raise ValueError("nodes, weights, values must share one shape")
        if self.mu <= 0.0:
            raise ValueError("mass must be positive")

    @property
    def p_max(self) -> float:
        return float(self.nodes[-1])

    def norm_squared(self) -> float:
        return float(np.sum(self.weights * np.abs(self.values) ** 2))


def inner_product(a: ChannelState, b: ChannelState) -> complex:
    """Channel-summed quadrature inner product, conjugating the first argument."""
    if not a.grid.same_as(b.grid):
        raise ValueError("states live on different grids")
    if a.channels != b.channels:
        raise ValueError("states have different channel sets")
    return complex(np.sum(a.grid.weights * np.conj(a.amplitudes) * b.amplitudes))


def momentum_to_energy(state: MomentumState, grid: EnergyGrid) -> ChannelState:
    """Split psi~(p) into direction channels on the energy half-line.

    psi_pm(E) = (mu/p)^(1/2) psi~(+-p) with p = sqrt(2 mu E), which preserves
    the norm of the part of psi~ inside the momentum band covered by the
    grid.  A mismatch beyond NORM_CONSERVATION_TOL between the band norm and
    the mapped norm signals that the energy grid undersamples psi~.
    """
    mu = state.mu
    p = np.sqrt(2.0 * mu * grid.nodes)
    if p[-1] > state.p_max + 1e-12:
        raise UncoveredGridError("energy grid reaches beyond the momentum grid coverage")
    spline = CubicSpline(state.nodes, state.values)
    plus = np.sqrt(mu / p) * spline(p)
    minus = np.sqrt(mu / p) * spline(-p)
    out = ChannelState(grid, ("+", "-"), np.vstack([plus, minus]), mu)

    dens = CubicSpline(state.nodes, np.abs(state.values) ** 2)
    band = float(dens.integrate(p[0], p[-1]) + dens.integrate(-p[-1], -p[0]))
    if abs(out.norm_squared() - band) > NORM_CONSERVATION_TOL:
        raise UnderresolvedGridError(
            "momentum -> energy map lost norm beyond tolerance "
            f"({out.norm_squared() - band:+.3e}); the energy grid is too coarse"
        )
    return out


def energy_to_momentum(state: ChannelState) -> MomentumState:
    """Exact algebraic inverse of momentum_to_energy on the induced nodes +-p_i."""
    if state.channels != ("+", "-"):
        raise ValueError("expected direction channels ('+', '-')")
    mu = state.mu
    p = np.sqrt(2.0 * mu * state.grid.nodes)
    nodes = np.concatenate([-p[::-1], p])
    values = np.concatenate(
        [
            (np.sqrt(p / mu) * state.channel("-"))[::-1],
            np.sqrt(p / mu) * state.channel("+"),
        ]
    )
    d = np.diff(nodes)
    weights = np.zeros_like(nodes)
    weights[:-1] += 0.5 * d
    weights[1:] += 0.5 * d
    return MomentumState(nodes, weights, values, mu)
