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

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class MGrid:
    """Uniform-in-nu eigenvalue lattice tied to a log-grid spacing.

    nu_nodes descend (m_nodes ascend) and span the Nyquist band +-pi/du of
    the source grid; fft_length is the padded transform size and k_bins maps
    each node to its DFT bin.
    """

    nu_nodes: np.ndarray
    m_nodes: np.ndarray
    weights: np.ndarray
    log_step: float
    fft_length: int
    k_bins: np.ndarray

    def __post_init__(self):
        for name in ("nu_nodes", "m_nodes", "weights"):
            a = np.asarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        d = np.diff(self.nu_nodes)
        # uniformity to 1e-12 relative to the lattice scale (the nodes reach
        # the Nyquist frequency, so spacing differences inherit their roundoff)
        if np.max(np.abs(d - d[0])) > 1e-12 * max(1.0, float(np.max(np.abs(self.nu_nodes)))):
            raise ValueError("nu lattice must be uniform")
        if d[0] >= 0:
            raise ValueError("nu must descend so that m ascends")

    @property
    def size(self) -> int:
        return self.nu_nodes.size

    @property
    def nu_step(self) -> float:
        return float(abs(self.nu_nodes[1] - self.nu_nodes[0]))


def make_m_grid(grid: EnergyGrid, size: int | None = None) -> MGrid:
    """Eigenvalue lattice for transforms off the given logarithmic grid.

    `size` requests the lattice resolution (transform length); it is rounded
    up to an FFT-friendly length of at least twice the grid size.
    """
    du = grid.log_step
    n = grid.n
    length = next_fast_len(max(int(size) if size else 4 * n, 2 * n))
    k = np.arange(length)
    k = np.where(k < length - length // 2, k, k - length)  # fft bin ordering
    k = np.sort(k)[::-1]  # descending k -> descending nu -> ascending m
    nu = 2.0 * np.pi * k / (length * du)
    with np.errstate(over="ignore"):
        m = 1.0 / (1.0 + np.exp(2.0 * np.pi * nu))
        cosh2 = np.cosh(np.pi * nu) ** 2
    dnu = 2.0 * np.pi / (length * du)
    with np.errstate(over="ignore", divide="ignore"):
        weights = 2.0 * np.pi * dnu / (4.0 * cosh2)  # 2 pi m(1-m) dnu, stable form
    return MGrid(nu, m, weights, du, length, k.astype(int))


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
        if vals.shape != (len(self.channels), self.mgrid.size):
            raise ValueError("value array must be (n_channels, lattice size)")

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.mgrid.nu_step)

    def inner(self, other: "MDistribution") -> complex:
        if other.mgrid is not self.mgrid and not np.array_equal(
            other.mgrid.nu_nodes, self.mgrid.nu_nodes
        ):
            raise ValueError("distributions live on different lattices")
        return complex(np.sum(np.conj(self.values) * other.values) * self.mgrid.nu_step)

    def amplitudes_m(self, channel: str) -> np.ndarray:
        """psi_j(m) on the lattice.

        Values whose nu-density sits at the transform's roundoff floor are
        reported as zero (the cosh conversion factor would amplify pure FFT
        noise there), and genuinely huge far-tail amplitudes saturate near
        the double-precision ceiling; integrals never use this form, they
        stay in the nu variable.
        """
        a = self.values[self.channels.index(channel)]
        nu = self.mgrid.nu_nodes
        mag = np.abs(a)
        out = np.zeros_like(a)
        ok = mag > 1e-14 * float(np.max(mag, initial=0.0))
        if not np.any(ok):
            return out
        # log-space cosh: ln cosh x = |x| + ln(1 + e^(-2|x|)) - ln 2
        x = np.abs(np.pi * nu[ok])
        logcosh = x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)
        # cap low enough that squaring the amplitude stays finite
        logmag = np.minimum(np.log(mag[ok]) + logcosh + 0.5 * np.log(2.0 / np.pi), 350.0)
        out[ok] = np.exp(logmag) * (a[ok] / mag[ok])
        return out

    def density_m(self, channel: str | None = None) -> np.ndarray:
        """|psi(m)|^2 per channel, or of the channel-summed amplitude."""
        if channel is not None:
            return np.abs(self.amplitudes_m(channel)) ** 2
        total = np.zeros(self.mgrid.size, dtype=complex)
        for c in self.channels:
            total = total + self.amplitudes_m(c)
        return np.abs(total) ** 2

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


def _require_log_grid(grid: EnergyGrid, mgrid: MGrid):
    if grid.spacing_kind != "logarithmic":
        raise ValueError("the eigenvalue transform requires a logarithmic grid")
    if abs(grid.log_step - mgrid.log_step) > 1e-12 * mgrid.log_step:
        raise ValueError("grid log-spacing does not match the eigenvalue lattice")


def to_m_representation(state: ChannelState, mgrid: MGrid | None = None) -> MDistribution:
    """Project each channel onto the eigenbasis (padded FFT in u = ln E)."""
    if mgrid is None:
        mgrid = make_m_grid(state.grid)
    _require_log_grid(state.grid, mgrid)
    grid = state.grid
    u0 = float(np.log(grid.nodes[0]))
    omega = grid.weights / grid.nodes  # trapezoid weights in u
    length, k, nu = mgrid.fft_length, mgrid.k_bins, mgrid.nu_nodes
    phase = np.exp(1j * nu * u0)
    rows = []
    for row in state.amplitudes:
        hw = omega * np.sqrt(grid.nodes) * row
        spec = np.fft.fft(hw, n=length)
        rows.append(phase * spec[(-k) % length] / np.sqrt(2.0 * np.pi))
    return MDistribution(mgrid, state.channels, np.vstack(rows), state.mu)


def from_m_representation(dist: MDistribution, grid: EnergyGrid) -> ChannelState:
    """Left inverse of to_m_representation onto the given grid."""
    mgrid = dist.mgrid
    _require_log_grid(grid, mgrid)
    if grid.n > mgrid.fft_length:
        raise ValueError("grid has more nodes than the transform length")
    u0 = float(np.log(grid.nodes[0]))
    omega = grid.weights / grid.nodes
    length, k, nu = mgrid.fft_length, mgrid.k_bins, mgrid.nu_nodes
    rows = []
    for row in dist.values:
        spec = np.zeros(length, dtype=complex)
        spec[(-k) % length] = row * np.sqrt(2.0 * np.pi) * np.exp(-1j * nu * u0)
        hw = np.fft.ifft(spec)[: grid.n]
        rows.append(hw / (omega * np.sqrt(grid.nodes)))
    return ChannelState(grid, dist.channels, np.vstack(rows), dist.mu)


def mf_expectation_via_m(
    state: ChannelState, t: float, mgrid: MGrid | None = None
) -> float:
    """Spectral-theorem route: first moment of the evolved eigenvalue density."""
    return to_m_representation(evolve(state, t), mgrid).first_moment()


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
