"""Delta-potential scattering data and the wave-operator equivalence checks.

A contact potential V(x) = lambda delta(x) has closed-form reflection and
transmission amplitudes, so the isometry mapping free states to interacting
scattering states is explicit: a state keeps its expansion coefficients, only
the eigenfunctions underneath change.  Arrow-operator traces and eigenvalue
distributions are therefore identical for the free and interacting dynamics
by construction (equivalence_defect states the identity once); the
substantive numerical statement is the position-space one, that the two
evolutions share their asymptote in the far past.

Channel convention: '+' is incidence from the left (momentum +p), '-' from
the right (momentum -p); the potential is even, so both directions share one
reflection and one transmission amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ChannelState
from .numerics import CubicSpline, next_fast_len

__all__ = [
    "ScatteringModel",
    "delta_model",
    "fd_transmission_probability",
    "moller_map",
    "equivalence_defect",
    "asymptotic_overlap",
]


@dataclass(frozen=True)
class ScatteringModel:
    """Reflection/transmission data for V(x) = coupling * delta(x)."""

    coupling: float
    mu: float

    def transmission(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.coupling == 0.0:
            return np.ones(p.shape, dtype=complex)
        return p / (p + 1j * self.mu * self.coupling)

    def reflection(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.coupling == 0.0:
            return np.zeros(p.shape, dtype=complex)
        return -1j * self.mu * self.coupling / (p + 1j * self.mu * self.coupling)


def delta_model(coupling: float, mu: float = 1.0) -> ScatteringModel:
    """Scattering data for a repulsive (or absent) contact potential.

    coupling < 0 is rejected: the attractive well binds a state, leaving the
    purely continuous spectrum these maps assume.
    """
    if mu <= 0.0:
        raise ValueError("mass must be positive")
    if coupling < 0.0:
        raise ValueError("attractive coupling supports a bound state; use coupling >= 0")
    return ScatteringModel(float(coupling), float(mu))


def fd_transmission_probability(
    coupling: float, mu: float, p: float, dx: float = 2e-4, span: float = 8.0
) -> float:
    """Independent |tau|^2 via a finite-difference stationary scattering solve.

    Marches the three-point recurrence for the stationary equation from a
    transmitted plane wave on the right to the left edge, then splits the
    left solution into incident and reflected lattice plane waves.  The
    lattice dispersion is inverted exactly, so only the contact-potential
    representation limits dx accuracy.
    """
    if p <= 0.0:
        raise ValueError("momentum must be positive")
    energy = p**2 / (2.0 * mu)
    n = int(np.ceil(span / dx))
    x = (np.arange(2 * n + 1) - n) * dx
    # lattice momentum reproducing e^{i p_lat x} solutions of the recurrence
    p_lat = np.arccos(1.0 - mu * energy * dx**2) / dx
    u = np.empty(x.size, dtype=complex)
    u[-1] = np.exp(1j * p_lat * x[-1])
    u[-2] = np.exp(1j * p_lat * x[-2])
    v_row = np.where(np.abs(x) < 0.5 * dx, coupling / dx, 0.0)
    for j in range(x.size - 2, 0, -1):
        u[j - 1] = 2.0 * u[j] - u[j + 1] + 2.0 * mu * dx**2 * (v_row[j] - energy) * u[j]
    e_plus = np.exp(1j * p_lat * x[:2])
    e_minus = np.exp(-1j * p_lat * x[:2])
    det = e_plus[0] * e_minus[1] - e_plus[1] * e_minus[0]
    a = (u[0] * e_minus[1] - u[1] * e_minus[0]) / det
    return float(1.0 / np.abs(a) ** 2)


def moller_map(state: ChannelState, model: ScatteringModel) -> ChannelState:
    """Carry a free state to the interacting dynamics of `model`.

    The wave operator sends each free eigenfunction to the scattering
    eigenfunction of the same energy and incidence direction, so the mapped
    state has identical expansion coefficients; in the interacting eigenbasis
    the amplitude array is the same, bit for bit.  The returned object is a
    ChannelState whose rows are understood as coefficients over the
    interacting scattering eigenstates.
    """
    if abs(model.mu - state.mu) > 1e-12 * state.mu:
        raise ValueError("state and model masses differ")
    return ChannelState(state.grid, state.channels, state.amplitudes.copy(), state.mu)


def equivalence_defect(state: ChannelState, model: ScatteringModel) -> float:
    """Worst deviation of moller_map(state, model) from the wave-operator identity.

    The mapped state must sit on the same grid and channels with the same
    expansion coefficients; every arrow-operator trace and eigenvalue
    distribution of the interacting dynamics then equals the free one.
    Returns the largest amplitude difference, or inf if the grid or the
    channels differ.
    """
    mapped = moller_map(state, model)
    if not mapped.grid.same_as(state.grid) or mapped.channels != state.channels:
        return float("inf")
    return float(np.max(np.abs(mapped.amplitudes - state.amplitudes), initial=0.0))


_N_P = 65536  # points of the fine uniform momentum lattice
_WINDOW_SIGMAS = 12.0  # half-width of the spatial window, in spatial widths


def _fine_momentum_resample(state: ChannelState) -> tuple[np.ndarray, np.ndarray]:
    """psi~ on a fine symmetric uniform momentum lattice q_k = k dq."""
    grid = state.grid
    mu = state.mu
    p_hi = np.sqrt(2.0 * mu * grid.e_max)
    p_lo = np.sqrt(2.0 * mu * grid.e_min)
    half = _N_P // 2
    dq = p_hi / half
    q = dq * np.arange(-half, half + 1)
    fit = CubicSpline(np.log(grid.nodes), np.stack([state.channel("+"), state.channel("-")]))
    # the lattice is symmetric, so both channels are read at the same |q|
    mag = q[q > p_lo]
    plus, minus = np.sqrt(mag / mu) * fit(np.log(mag**2 / (2.0 * mu)))
    out = np.zeros(q.size, dtype=complex)
    out[q > p_lo] = plus
    out[q < -p_lo] = minus[::-1]
    return q, out


def asymptotic_overlap(state: ChannelState, models, times) -> np.ndarray:
    """|<psi_free(t) | psi_int(t)>|^2 from position-space reconstructions.

    Both wavefunctions are synthesized on a window around the drifted packet
    center: the free one from plane waves, the interacting one from the
    piecewise plane-wave scattering eigenfunctions with each model's
    reflection/transmission amplitudes.  The synthesis runs over a fine
    uniform momentum lattice so the x lattice can be generated by FFT with
    no quadrature aliasing.  The overlap is normalized by the window norms;
    it tends to one as t -> -infinity.  Shape (len(models),) + np.shape(times),
    from one momentum resample and one free wave per time.
    """
    ts = np.asarray(times, dtype=float)
    if np.any(ts >= 0.0):
        raise ValueError("the shared-asymptote check looks at t < 0")
    mu = state.mu
    q, amp = _fine_momentum_resample(state)
    dq = q[1] - q[0]
    dens = np.abs(amp) ** 2 * dq
    p_mean = float(np.sum(dens * q))
    p_var = float(np.sum(dens * (q - p_mean) ** 2))
    sigma_p = max(np.sqrt(p_var), 1e-12)
    scatter = [(model.transmission(np.abs(q)), model.reflection(np.abs(q))) for model in models]
    pos, neg = q > 0, q < 0
    overlaps = np.empty((len(scatter), ts.size))
    for k, t in enumerate(ts.flat):
        coef = amp * np.exp(-1j * q**2 * t / (2.0 * mu))
        x_center = p_mean * t / mu
        sigma_x = np.hypot(1.0 / (2.0 * sigma_p), sigma_p * t / mu)
        x_lo = x_center - _WINDOW_SIGMAS * sigma_x
        x_hi = x_center + _WINDOW_SIGMAS * sigma_x

        dx_target = min(np.pi / (2.0 * q[-1]), sigma_x / 64.0)
        length = next_fast_len(int(np.ceil(2.0 * np.pi / (dq * dx_target))))
        dx = 2.0 * np.pi / (dq * length)
        j_lo = int(np.floor(x_lo / dx))
        j_hi = int(np.ceil(x_hi / dx))
        if j_hi - j_lo + 1 >= length:
            raise ValueError("spatial window exceeds the synthesis period of the momentum lattice")
        x = dx * np.arange(j_lo, j_hi + 1)
        idx = np.arange(j_lo, j_hi + 1) % length
        bins = np.round(q / dq).astype(int) % length

        def synthesize(c: np.ndarray) -> np.ndarray:
            spec = np.zeros(length, dtype=complex)
            spec[bins] = c
            wave = np.fft.ifft(spec) * length * dq / np.sqrt(2.0 * np.pi)
            return wave[idx]

        flipped = coef[::-1]  # coefficient at -q on the symmetric lattice
        psi_free = synthesize(coef)
        wx = np.full(x.size, dx)
        wx[0] *= 0.5
        wx[-1] *= 0.5
        n_free = np.sum(wx * np.abs(psi_free) ** 2)
        for j, (tau, refl) in enumerate(scatter):
            left = coef.copy()
            left[neg] = coef[neg] * tau[neg] + flipped[neg] * refl[neg]
            right = coef.copy()
            right[pos] = coef[pos] * tau[pos] + flipped[pos] * refl[pos]
            psi_int = np.where(x < 0.0, synthesize(left), synthesize(right))
            cross = np.sum(wx * np.conj(psi_free) * psi_int)
            n_int = np.sum(wx * np.abs(psi_int) ** 2)
            overlaps[j, k] = float(np.abs(cross) ** 2 / (n_free * n_int))
    return overlaps.reshape(len(scatter), *ts.shape)
