"""Concrete states: the free Gaussian packet, the exponential reference profile,
unitary time evolution, and seeded random profiles for property suites."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ChannelState, EnergyGrid, MomentumState, make_energy_grid, momentum_to_energy

__all__ = [
    "GaussianPacketParams",
    "gaussian_momentum_state",
    "gaussian_channel_state",
    "gaussian_position_density",
    "default_packet_grid",
    "default_profile_grid",
    "exponential_profile",
    "evolve",
    "random_smooth_state",
]

PROFILE_ENERGY_RANGE = (1e-12, 42.0)
PROFILE_COVERAGE = (2e-8, 38.0)  # the least range a grid for the unit-rate profile spans


@dataclass(frozen=True)
class GaussianPacketParams:
    """Momentum-space center p0 and width xi0 of a free Gaussian packet (hbar = c = 1)."""

    p0: float
    xi0: float
    mu: float = 1.0

    def __post_init__(self):
        for name in ("p0", "xi0", "mu"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.xi0 <= 0.0:
            raise ValueError("xi0 must be positive")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")

    @property
    def e_char(self) -> float:
        return self.p0**2 / (2.0 * self.mu)

    @property
    def energy_range(self) -> tuple[float, float]:
        """Default grid range: 1e-6 E_char up to where the cut momentum mass < 1e-12."""
        return 1e-6 * self.e_char, (abs(self.p0) + 5.0 * self.xi0) ** 2 / (2.0 * self.mu)


def gaussian_momentum_state(
    params: GaussianPacketParams, p_max: float | None = None, n: int = 8193
) -> MomentumState:
    """psi~(p) = (pi xi0^2)^(-1/4) exp(-(p - p0)^2 / (2 xi0^2)) at t = 0.

    The grid must reach at least eight widths past the packet center.
    """
    if p_max is None:
        p_max = abs(params.p0) + 10.0 * params.xi0
    if p_max < abs(params.p0) + 8.0 * params.xi0:
        raise ValueError("momentum grid must cover p0 +- 8 xi0")
    nodes = np.linspace(-p_max, p_max, n)
    values = (np.pi * params.xi0**2) ** (-0.25) * np.exp(
        -((nodes - params.p0) ** 2) / (2.0 * params.xi0**2)
    )
    weights = np.full(n, nodes[1] - nodes[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return MomentumState(nodes, weights, values.astype(complex), params.mu)


def default_packet_grid(params: GaussianPacketParams, n: int = 4096) -> EnergyGrid:
    """Logarithmic grid over the packet's `energy_range`."""
    return make_energy_grid(*params.energy_range, n, "logarithmic")


def gaussian_channel_state(
    params: GaussianPacketParams, grid: EnergyGrid | None = None, n: int = 4096
) -> ChannelState:
    """Build the packet and map it onto direction channels in one step."""
    if grid is None:
        grid = default_packet_grid(params, n)
    return momentum_to_energy(gaussian_momentum_state(params), grid)


def gaussian_position_density(
    params: GaussianPacketParams, x: np.ndarray | float, t: float
) -> np.ndarray | float:
    """|psi(x, t)|^2 of the freely spreading packet, in closed form.

    The density is a normalized Gaussian drifting as x_c = p0 t / mu with
    variance (mu^2 + xi0^4 t^2) / (2 mu^2 xi0^2).
    """
    p0, xi0, mu = params.p0, params.xi0, params.mu
    x = np.asarray(x, dtype=float)
    denom = mu**2 + xi0**4 * t**2
    pref = mu * xi0 / (np.sqrt(np.pi) * np.sqrt(denom))
    expo = -(mu**2 * xi0**2 * x**2 + xi0**2 * t * p0 * (p0 * t - 2.0 * mu * x)) / denom
    out = pref * np.exp(expo)
    return out if out.ndim else float(out)


def default_profile_grid(n: int = 4096) -> EnergyGrid:
    """Grid for unit-decay-rate profiles: wide enough that the truncated tails
    of exp(-E) profiles sit below 1e-11 in squared norm."""
    return make_energy_grid(*PROFILE_ENERGY_RANGE, n, "logarithmic")


def exponential_profile(grid: EnergyGrid | None = None, n: int = 4096) -> ChannelState:
    """Single-channel reference state psi(E) = sqrt(2) exp(-E).

    Its expectation trace under the forward arrow operator is known in closed
    form, 1/2 - arctan(t)/pi, which makes it the cross-module golden state.
    """
    if grid is None:
        grid = default_profile_grid(n)
    lo, hi = PROFILE_COVERAGE
    if grid.e_min > lo or grid.e_max < hi:
        raise ValueError(f"grid must cover [{lo:g}, {hi:g}] for the unit-rate profile")
    psi = np.sqrt(2.0) * np.exp(-grid.nodes)
    return ChannelState(grid, ("+",), psi.astype(complex))


def evolve(state: ChannelState, t: float) -> ChannelState:
    """Free unitary evolution, exact in the energy representation."""
    phases = np.exp(-1j * state.grid.nodes * t)
    return state.with_amplitudes(state.amplitudes * phases)


def random_smooth_state(
    grid: EnergyGrid,
    seed: int,
    channels: tuple[str, ...] = ("+", "-"),
    mu: float = 1.0,
) -> ChannelState:
    """Normalized random mixture of decaying exponentials, one draw per channel.

    Coefficients are positive (up to one global phase per channel) and decay
    rates sit in [0.5, 2.5].  This class of states is smooth, carries a
    nonvanishing threshold amplitude psi(0), and keeps its spectral content
    well inside any grid covering [1e-8, 40]; the monotonicity suite relies
    on those properties.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in channels:
        rates = np.exp(rng.uniform(np.log(0.5), np.log(2.5), 3))
        coefs = rng.uniform(0.2, 1.0, 3)
        phase = np.exp(2j * np.pi * rng.uniform())
        rows.append(phase * (coefs[:, None] * np.exp(-np.outer(rates, grid.nodes))).sum(axis=0))
    amps = np.vstack(rows)
    norm2 = float(np.sum(grid.weights * np.abs(amps) ** 2))
    return ChannelState(grid, channels, amps / np.sqrt(norm2), mu)
