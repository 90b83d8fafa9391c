"""Analytic eigenbasis of the forward arrow operator and the unitary map to it.

The eigenfunctions on the energy half-line are power laws,

    g_m(E) = E^(-i nu(m) - 1/2) / (2 pi sqrt(m (1 - m))),
    nu(m) = ln((1 - m)/m) / (2 pi),

so on a logarithmic grid the transform to the eigenvalue variable m in (0, 1)
is a Fourier transform in u = ln E of h(u) = e^(u/2) psi(e^u) at frequency
nu.  The m-lattice used here is the full DFT lattice of the zero-padded log
grid (uniform in nu out to the Nyquist frequency pi/du), which makes the
transform exactly unitary on samples and exactly invertible.

Numerical representation note: nodes with |2 pi nu| beyond ~log(1/eps) have
m values that round to 0.0 or 1.0 in double precision even though every
lattice frequency corresponds to an interior eigenvalue; all integrals are
therefore evaluated in the nu variable, where nothing degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import ChannelState, EnergyGrid, make_energy_grid
from .kernel import SingularKernel, build_kernel
from .numerics import next_fast_len
from .states import evolve

__all__ = [
    "MGrid",
    "MDistribution",
    "make_m_grid",
    "eigenfunction",
    "to_m_representation",
    "from_m_representation",
    "mf_expectation_via_m",
    "eigen_residual",
    "backward_running_probability",
    "default_spectral_grid",
]


def nu_of_m(m) -> np.ndarray | float:
    return np.log((1.0 - np.asarray(m)) / np.asarray(m)) / (2.0 * np.pi)


@dataclass(frozen=True)
class MGrid:
    """Uniform-in-nu eigenvalue lattice of the padded DFT off a log grid,
    derived from the grid's step du in u = ln E and the transform length:
    k_bins holds the DFT bins in descending order, nu_nodes = 2 pi k / (fft_length du)
    descend across the Nyquist band +-pi/du, and m_nodes ascend.
    """

    log_step: float
    fft_length: int
    k_bins: np.ndarray = field(init=False, repr=False, compare=False)
    nu_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    m_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        length = self.fft_length
        if not (self.log_step > 0.0 and length >= 2):
            raise ValueError("the lattice needs log_step > 0 and fft_length >= 2")
        k = np.arange(length - length // 2 - 1, -(length // 2) - 1, -1)
        nu = 2.0 * np.pi * k / (length * self.log_step)
        with np.errstate(over="ignore"):
            m = 1.0 / (1.0 + np.exp(2.0 * np.pi * nu))
        for name, a in (("k_bins", k), ("nu_nodes", nu), ("m_nodes", m)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def nu_step(self) -> float:
        return float(abs(self.nu_nodes[1] - self.nu_nodes[0]))


def make_m_grid(grid: EnergyGrid, size: int | None = None) -> MGrid:
    """Eigenvalue lattice for transforms off the given logarithmic grid.

    `size` requests the lattice resolution (transform length); it is rounded
    up to an FFT-friendly length of at least twice the grid size.
    """
    n = grid.n
    return MGrid(grid.log_step, next_fast_len(max(int(size) if size else 4 * n, 2 * n)))


@dataclass(frozen=True, eq=False)
class MDistribution:
    """Per-channel amplitudes over the eigenvalue lattice.

    values[j, k] holds a_j(nu_k), the amplitude density with respect to
    d nu: sum_k dnu |a|^2 is the squared norm.  The eigenvalue-measure
    amplitude psi_j(m) = a_j sqrt(2/pi) cosh(pi nu) is exposed through
    amplitudes_m(); it overflows double precision in the far tails where
    a_j has already underflowed, so bulk evaluation is masked.
    """

    mgrid: MGrid
    channels: tuple[str, ...]
    values: np.ndarray
    mu: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim == 1:
            vals = vals[None, :]
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "channels", tuple(self.channels))
        if vals.shape != (len(self.channels), self.mgrid.fft_length):
            raise ValueError("value array must be (n_channels, lattice size)")

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.mgrid.nu_step)

    def inner(self, other: "MDistribution") -> complex:
        if other.mgrid != self.mgrid:
            raise ValueError("distributions live on different lattices")
        return complex(np.sum(np.conj(self.values) * other.values) * self.mgrid.nu_step)

    def amplitudes_m(self) -> np.ndarray:
        """psi_j(m) on the lattice, one row per channel.

        Values whose nu-density sits at the transform's roundoff floor,
        relative to the largest of their own row, are reported as zero (the
        cosh conversion factor would amplify pure FFT noise there), and
        genuinely huge far-tail amplitudes saturate near the double-precision
        ceiling; integrals never use this form, they stay in the nu variable.
        """
        a = self.values
        mag = np.abs(a)
        out = np.zeros_like(a)
        ok = mag > 1e-14 * np.max(mag, axis=1, keepdims=True, initial=0.0)
        # log-space cosh: ln cosh x = |x| + ln(1 + e^(-2|x|)) - ln 2
        x = np.abs(np.pi * self.mgrid.nu_nodes)
        logcosh = x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)
        # cap low enough that squaring the amplitude stays finite
        logmag = np.log(mag[ok]) + logcosh[np.nonzero(ok)[1]] + 0.5 * np.log(2.0 / np.pi)
        out[ok] = np.exp(np.minimum(logmag, 350.0)) * (a[ok] / mag[ok])
        return out

    def density_m(self) -> tuple[np.ndarray, np.ndarray]:
        """(|sum_j psi_j(m)|^2, |psi_j(m)|^2 one row per channel) from one
        amplitudes_m() pass."""
        amps = self.amplitudes_m()
        rows = np.abs(amps) ** 2  # before the sum: this order kept cli_reference's peak RSS
        return np.abs(np.sum(amps, axis=0)) ** 2, rows

    def first_moment(self) -> float:
        """sum_j integral m |psi_j(m)|^2 dm, evaluated on the nu lattice."""
        dens = np.sum(np.abs(self.values) ** 2, axis=0) * self.mgrid.nu_step
        return float(np.sum(self.mgrid.m_nodes * dens))

    def interval_mass(self, interval: tuple[float, float]) -> float:
        return float(
            np.sum(np.abs(self.values[:, self._mask(interval)]) ** 2) * self.mgrid.nu_step
        )

    def project(self, interval: tuple[float, float]) -> "MDistribution":
        """Sharp spectral window: zero every amplitude outside the m interval."""
        mask = self._mask(interval)
        return MDistribution(self.mgrid, self.channels, np.where(mask, self.values, 0.0), self.mu)

    def _mask(self, interval: tuple[float, float]) -> np.ndarray:
        lo, hi = interval
        if not (0.0 < lo < hi < 1.0):
            raise ValueError("m interval must satisfy 0 < lo < hi < 1")
        nu = self.mgrid.nu_nodes
        return (nu >= nu_of_m(hi)) & (nu <= nu_of_m(lo))


def eigenfunction(m: float, energies) -> np.ndarray | complex:
    """Delta-normalized eigenfunction g_m(E) at eigenvalue m in (0, 1)."""
    if not (0.0 < m < 1.0):
        raise ValueError("eigenvalue must lie strictly inside (0, 1)")
    e = np.asarray(energies, dtype=float)
    if np.any(e <= 0.0):
        raise ValueError("energies must be positive")
    nu = nu_of_m(m)
    out = np.exp(-(0.5 + 1j * nu) * np.log(e)) / (2.0 * np.pi * np.sqrt(m * (1.0 - m)))
    return out if out.ndim else complex(out)


def _u_frame(grid: EnergyGrid, mgrid: MGrid):
    """What both transform directions need: the weights omega sqrt(E) taking
    psi to the trapezoid-weighted h(u), the DFT bin (-k) mod L of each
    lattice node, and the phases nu u0 that shift the DFT to start at u0."""
    if grid.spacing_kind != "logarithmic":
        raise ValueError("the eigenvalue transform requires a logarithmic grid")
    if abs(grid.log_step - mgrid.log_step) > 1e-12 * mgrid.log_step:
        raise ValueError("grid log-spacing does not match the eigenvalue lattice")
    omega = grid.weights / grid.nodes  # trapezoid weights in u
    bins = (-mgrid.k_bins) % mgrid.fft_length
    return omega * np.sqrt(grid.nodes), bins, mgrid.nu_nodes * float(np.log(grid.nodes[0]))


def to_m_representation(state: ChannelState, mgrid: MGrid | None = None) -> MDistribution:
    """Project each channel onto the eigenbasis (padded FFT in u = ln E)."""
    if mgrid is None:
        mgrid = make_m_grid(state.grid)
    weights, bins, nu_u0 = _u_frame(state.grid, mgrid)
    phase = np.exp(1j * nu_u0)
    # one channel at a time: the complex multiply on rows of a stacked array
    # rounds differently from a 1-D one, which would move emitted bytes
    rows = [
        phase * np.fft.fft(weights * row, n=mgrid.fft_length)[bins] / np.sqrt(2.0 * np.pi)
        for row in state.amplitudes
    ]
    return MDistribution(mgrid, state.channels, np.vstack(rows), state.mu)


def from_m_representation(dist: MDistribution, grid: EnergyGrid) -> ChannelState:
    """Left inverse of to_m_representation onto the given grid."""
    mgrid = dist.mgrid
    weights, bins, nu_u0 = _u_frame(grid, mgrid)
    if grid.n > mgrid.fft_length:
        raise ValueError("grid has more nodes than the transform length")
    rows = []
    for row in dist.values:
        spec = np.zeros(mgrid.fft_length, dtype=complex)
        spec[bins] = row * np.sqrt(2.0 * np.pi) * np.exp(-1j * nu_u0)
        rows.append(np.fft.ifft(spec)[: grid.n] / weights)
    return ChannelState(grid, dist.channels, np.vstack(rows), dist.mu)


def mf_expectation_via_m(state: ChannelState, times, mgrid: MGrid | None = None):
    """Spectral-theorem route: first moment of the evolved eigenvalue density
    at each entry of `times` (a float for a scalar, else an array of the same
    shape), every time on one lattice."""
    if mgrid is None:
        mgrid = make_m_grid(state.grid)
    vals = [to_m_representation(evolve(state, t), mgrid).first_moment() for t in np.ravel(times)]
    return vals[0] if np.ndim(times) == 0 else np.reshape(vals, np.shape(times))


def default_spectral_grid(n: int = 4096) -> EnergyGrid:
    """Wide logarithmic grid balancing kernel resolution against the slow
    E^(-1/2) falloff of the eigenfunctions at both ends."""
    return make_energy_grid(1e-10, 1e9, n, "logarithmic")


def eigen_residual(m: float, grid: EnergyGrid, kernel: SingularKernel | None = None) -> float:
    """Relative residual of the discrete kernel on a sampled eigenfunction.

    Restricted to the middle half of the grid in u = ln E, away from the
    end regions where the truncated tails of the non-normalizable
    eigenfunction dominate.
    """
    if kernel is None:
        kernel = build_kernel(grid, "forward")
    elif kernel.orientation != "forward":
        raise ValueError("residual is defined against the forward kernel")
    g = eigenfunction(m, grid.nodes)
    r = kernel.apply(g) - m * g
    n = grid.n
    sl = slice(n // 4, 3 * n // 4)
    w = grid.weights[sl]
    num = np.sqrt(np.sum(w * np.abs(r[sl]) ** 2))
    den = np.sqrt(np.sum(w * np.abs(g[sl]) ** 2))
    return float(num / den)


def backward_running_probability(
    state: ChannelState,
    low_interval: tuple[float, float],
    high_interval: tuple[float, float],
    t: float,
    mgrid: MGrid | None = None,
) -> float:
    """Probability that a state prepared in a low eigenvalue window is found in
    a disjoint higher window after evolving forward by t.

    Any strictly positive value exhibits the clock running backwards; a
    monotonically perfect clock would give exactly zero.
    """
    if not t > 0.0:
        raise ValueError("the probe evolves forward: t must be positive")
    if low_interval[1] > high_interval[0]:
        raise ValueError("intervals must be disjoint with low below high")
    dist = to_m_representation(state, mgrid)
    low = dist.project(low_interval)
    mass = low.norm_squared()
    if mass <= 0.0:
        raise ValueError("state has no weight in the low interval")
    prepared = from_m_representation(low, state.grid)
    moved = to_m_representation(evolve(prepared, t), dist.mgrid)
    return moved.interval_mass(high_interval) / mass
