"""Half-line Fourier decomposition of a state and the independent trace oracle.

A state psi_j(E) on [0, inf) transforms to f_j(tau); the Paley-Wiener theorem
puts the support of f_j on tau <= 0.  The forward expectation value equals
the running tail integral of the nonnegative density 2 pi sum_j |f_j|^2,
which is monotone by construction and serves as the brute-force cross-check
for the singular-kernel route.

The displayed density uses per-channel moduli, sum_j |f_j|^2: the kernel is
diagonal in the channel label, so cross-channel interference cannot enter.
"""

from __future__ import annotations

import numpy as np

from .grids import ChannelState
from .numerics import CubicSpline, cumulative_simpson

__all__ = [
    "forward_component",
    "tail_density",
    "mf_expectation_oracle",
]

TAIL_POWERS = np.array([1.5, 2.0, 3.0, 4.0])
HORIZON_MAX = 32.0
HORIZON_MASS_TOL = 9e-14


def _half_line_transform(state: ChannelState, taus: np.ndarray) -> np.ndarray:
    """(1/2pi) integral e^{i E tau} psi_j(E) dE for each channel on the uniform
    lattice `taus`, no support cut, by the phase factorisation in the README."""
    e, z = state.grid.nodes, state.grid.weights * state.amplitudes
    width = int(np.ceil(np.sqrt(taus.size)))  # lattice index k = m * width + r
    table = np.exp(1j * np.outer(e, taus[:width] - taus[0]))
    rows = z[:, None, :] * np.exp(1j * np.outer(taus[::width], e))
    f = (rows.reshape(-1, e.size) @ table).reshape(z.shape[0], -1)
    return f[:, : taus.size] / (2.0 * np.pi)


def forward_component(state: ChannelState, tau: float) -> np.ndarray:
    """f_j(tau) = (1/2pi) Theta(-tau) integral_0^inf e^{i E tau} psi_j(E) dE."""
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    if tau > 0.0:
        return np.zeros(len(state.channels), dtype=complex)
    return _half_line_transform(state, np.array([tau]))[:, 0]


def tail_density(state: ChannelState, tau: float) -> float:
    """2 pi sum_j |f_j(tau)|^2, the nonnegative decrease density."""
    if tau > 0.0:
        raise ValueError("tail density is defined on tau <= 0")
    f = forward_component(state, tau)
    return float(2.0 * np.pi * np.sum(np.abs(f) ** 2))


class _OracleDensity:
    """|f|^2 density of one state with inverse-power tail continuations.

    The density is sampled on a symmetric window [-T0, T0] whose half-width
    T0 is the alias horizon of the grid: beyond it the oscillations
    e^{i E tau} of energies still carrying weight fall below the node
    spacing, and quadrature values turn into noise.  Outside the window the
    density is continued by an inverse-power fit matched on the outer half
    of the window (exact for the endpoint-driven power-law tails that
    half-line states produce).
    """

    def __init__(self, state: ChannelState):
        grid = state.grid
        e, w = grid.nodes, grid.weights
        spacing = np.diff(e)
        self.norm2 = state.norm_squared()

        # highest energy whose remaining spectral weight could turn into
        # visible quadrature noise once its phase is unresolved
        weighted = np.sum(w * e * np.abs(state.amplitudes) ** 2, axis=0)
        remaining = np.cumsum((weighted * np.diff(np.log(e), prepend=np.log(e[0])))[::-1])[::-1]
        idx = int(np.searchsorted(-remaining, -HORIZON_MASS_TOL))
        step_hi = spacing[min(idx, spacing.size - 1)]
        self.t0 = float(np.clip(np.pi / step_hi, 1.5, HORIZON_MAX))

        dtau = min(0.01, 1.0 / (4.0 * grid.e_max))
        half = max(int(np.ceil(self.t0 / dtau)), 512)
        taus = np.linspace(-self.t0, self.t0, 2 * half + 1)
        f = _half_line_transform(state, taus)
        dens = 2.0 * np.pi * np.sum(np.abs(f) ** 2, axis=0)
        self.taus = taus
        self.density = dens
        cum = cumulative_simpson(dens, self.t0 / half)
        self._cum = CubicSpline(taus, cum)
        self._tails = {side: self._fit_tail(side) for side in (-1, +1)}

    def _fit_tail(self, side: int) -> np.ndarray:
        outer = side * self.taus >= 0.5 * self.t0
        inner = (side * self.taus >= 0.25 * self.t0) & (side * self.taus < 0.5 * self.t0)
        mean_outer = float(np.mean(self.density[outer]))
        mean_inner = float(np.mean(self.density[inner]))
        # a certifiable tail must fall at least as fast as an inverse power
        # between the two outer half-octaves
        if mean_outer > max(0.6 * mean_inner, 1e-9 * self.norm2):
            raise RuntimeError(
                "tail density has not decayed by the alias horizon "
                f"(T0 = {self.t0:.2f}, density ~ {mean_outer:.3e}); "
                "the tail bound cannot be certified"
            )
        x = np.abs(self.taus[outer])
        a = x[:, None] ** (-TAIL_POWERS[None, :])
        coef, *_ = np.linalg.lstsq(a, self.density[outer], rcond=None)
        return coef

    def tail_integral(self, side: int, t_abs) -> np.ndarray:
        """Integral of the fitted density from |tau| = t_abs outward, per entry of t_abs."""
        t_abs = np.asarray(t_abs, dtype=float)[..., None]
        terms = self._tails[side] * t_abs ** (1.0 - TAIL_POWERS) / (TAIL_POWERS - 1.0)
        return np.sum(terms, axis=-1)

    def expectation(self, t):
        """Forward expectation at each entry of t; a float for a scalar t."""
        upper = -np.asarray(t, dtype=float)
        if not np.all(np.isfinite(upper)):
            raise ValueError("times must be finite")
        inside = np.clip(upper, -self.t0, self.t0)
        below = self.tail_integral(-1, np.maximum(-upper, self.t0))
        above = self.norm2 - self.tail_integral(+1, np.maximum(upper, self.t0))
        interior = self.tail_integral(-1, self.t0) + (self._cum(inside) - self._cum(-self.t0))
        out = np.where(upper <= -self.t0, below, np.where(upper >= self.t0, above, interior))
        return float(out) if out.ndim == 0 else out


def mf_expectation_oracle(state: ChannelState, times):
    """Forward expectation as the tail integral of the half-line density.

    Evaluates 2 pi sum_j of the |f_j|^2 mass at delays below -t for each
    entry of `times` (a float for a scalar), from one density build per
    call.  Values for shifted times use the transform of the evolved state,
    which is the same density translated in tau.  Monotone decrease and
    nonnegativity are structural here, independent of the singular-kernel route.
    """
    return _OracleDensity(state).expectation(times)
