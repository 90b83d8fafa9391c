"""Discretization of the forward/backward arrow operators and their traces.

The operators share one singular kernel, 1/(E - E' +- i0+), split by the
Sokhotski-Plemelj formula into a principal-value part and a delta part with
coefficient 1/2.  Discretely the principal value becomes a skip-diagonal
Cauchy sum, antisymmetric once quadrature weights are folded in on both
sides; that antisymmetry makes expectation values real and the
forward/backward completeness identity exact at the matrix level.  Every
grid is uniform in its own coordinate, so the sum is a Toeplitz convolution
applied by FFT; the dense form is kept for grids too irregular for that
and as the reference.

Expectation values additionally carry a diagonal-cell correction: the
evolved kernel integrated exactly over each quadrature cell contributes
-(1/2pi) w_i gamma(w_i t) per node, with gamma built from the sine integral.
Without it the skip-diagonal rule drifts linearly in t; with it the discrete
forward trace has derivative -(1/2pi)|sum_i w_i psi_i(t)|^2 per channel, so
monotonicity holds to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .grids import ChannelState, EnergyGrid
from .numerics import gamma_cell, next_fast_len

Orientation = Literal["forward", "backward"]

REALITY_TOL = 1e-8
MONOTONICITY_STEP_TOL = 1e-9
TRACE_BOUND_TOL = 1e-8
TRACE_COMPLETENESS_TOL = 1e-10  # read by bench/workloads.py; mb is derived from mf here

__all__ = [
    "SingularKernel",
    "LyapunovTrace",
    "MonotonicityError",
    "build_kernel",
    "cauchy_apply",
    "cauchy_matrix",
    "mf_expectation",
    "lyapunov_trace",
    "antisymmetry_defect",
    "pairing_defect",
    "mpc_commutator_defect",
]


class MonotonicityError(RuntimeError):
    """Raised when a forward trace increases beyond the per-step tolerance.

    Attributes
    ----------
    violations : list of (index, t_left, t_right, increase)
    """

    def __init__(self, violations):
        self.violations = violations
        worst = max(v[3] for v in violations)
        super().__init__(
            f"forward trace increased at {len(violations)} step(s); worst increase {worst:.3e}"
        )


# Diagonals the FFT form sums from the nodes per unit of step irregularity,
# and the most it may need before a grid keeps the dense form (see the README).
_NEAR_UNIT, _NEAR_MAX = 6.5e-13, 32
_TIME_BLOCK = 1 << 16  # node-times per trace block, bounding its temporaries


def cauchy_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """1/(rows_i - cols_j), zero where the two nodes coincide."""
    diff = rows[:, None] - cols[None, :]
    same = diff == 0.0
    diff[same] = 1.0
    rec = 1.0 / diff
    rec[same] = 0.0
    return rec


def _cauchy_dense(nodes: np.ndarray, z: np.ndarray, block: int = 512) -> np.ndarray:
    """Reference skip-diagonal sum, one row block of cauchy_matrix at a time."""
    zr, zi = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)
    out = np.empty(z.shape, dtype=complex)
    for a in range(0, nodes.size, block):
        rec = cauchy_matrix(nodes[a : a + block], nodes).T
        out[..., a : a + block] = zr @ rec + 1j * (zi @ rec)
    return out


def _near_width(coord: np.ndarray) -> int:
    """Diagonals beside the main one that the FFT form must sum from the nodes."""
    mean = (coord[-1] - coord[0]) / (coord.size - 1)
    return math.ceil(np.max(np.abs(np.diff(coord) - mean)) / mean / _NEAR_UNIT)


def _cauchy_toeplitz(grid: EnergyGrid, z: np.ndarray, coord: np.ndarray, near: int) -> np.ndarray:
    """Skip-diagonal sum as a circulant-embedded real-FFT convolution.

    1/(E_i - E_j) is b(i - j) with b(d) = 1/(d h) on linear grids and
    (b(i - j) - [j > i]) / E_j with b(d) = sign(d)/expm1(|d| du) on
    logarithmic ones; the `near` diagonals beside the main one are summed
    from the nodes.  The README's design notes give the reasons.
    """
    e, n = grid.nodes, grid.n
    log = grid.spacing_kind == "logarithmic"
    near = min(near, n - 1)
    dist = np.arange(1.0, n) * (coord[-1] - coord[0]) / (n - 1)
    odd = 1.0 / np.expm1(dist) if log else 1.0 / dist
    odd[:near] = 0.0
    size = next_fast_len(2 * n - 1, real=True)
    kern = np.zeros(size)  # b(d) at index d, b(-d) at index size - d
    kern[1:n], kern[: size - n : -1] = odd, -odd
    kern_f = np.fft.rfft(kern)
    parts = np.stack([z.real, z.imag])
    if log:
        parts /= e
    f = np.fft.rfft(parts, size)
    f *= kern_f
    s = np.fft.irfft(f, size)[..., :n]
    if log:  # -sum_{j > i + near} x_j
        s[..., : n - near - 1] -= np.cumsum(parts[..., :near:-1], axis=-1)[..., ::-1]
    out = s[0] + 1j * s[1]
    for k in range(1, near + 1):
        rec = 1.0 / (e[k:] - e[:-k])
        out[..., k:] += rec * z[..., :-k]
        out[..., :-k] -= rec * z[..., k:]
    return out


def cauchy_apply(grid: EnergyGrid, z) -> np.ndarray:
    """S_i = sum_{j != i} z_j / (E_i - E_j) along the last axis of z.

    The FFT form on grids regular enough for its accuracy bound, the dense
    form on the others.
    """
    z = np.asarray(z, dtype=complex)
    coord = grid.coordinate
    near = _near_width(coord)
    if near > _NEAR_MAX:
        return _cauchy_dense(grid.nodes, z)
    return _cauchy_toeplitz(grid, z, coord, near)


CauchyApply = Callable[[EnergyGrid, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class SingularKernel:
    """Discrete Plemelj split of one orientation of the arrow kernel.

    pv_row_sums holds the skip-diagonal quadrature of the Cauchy kernel,
    sum_{i' != i} w_{i'} / (E_i - E_{i'}); endpoint_log holds the analytic
    principal-value integral of 1/(E_i - E') over the grid interval,
    ln((E_i - E_min)/(E_max - E_i)), zeroed at the two boundary nodes where
    it is undefined.  Their difference is the regularized-subtraction
    diagonal used by apply().
    """

    grid: EnergyGrid
    orientation: Orientation
    pv_row_sums: np.ndarray
    endpoint_log: np.ndarray

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Act on a channel amplitude vector.

        Forward orientation:
            (K v)_i = v_i / 2
                      - (1/2 pi i) sum_{i' != i} w_{i'} (v_{i'} - v_i)/(E_i - E_{i'})
                      - (1/2 pi i) v_i L_i
        with L_i the analytic endpoint integral.  The backward kernel is the
        complex conjugate, so forward + backward acts as the identity exactly.
        """
        v = np.asarray(amplitudes, dtype=complex)
        s = cauchy_apply(self.grid, self.grid.weights * v)
        pv = s - v * self.pv_row_sums + v * self.endpoint_log
        sign = 1.0 if self.orientation == "forward" else -1.0
        return 0.5 * v + sign * (1j / (2.0 * np.pi)) * pv


def build_kernel(grid: EnergyGrid, orientation: Orientation = "forward") -> SingularKernel:
    if orientation not in ("forward", "backward"):
        raise ValueError(f"unknown orientation: {orientation!r}")
    rows = cauchy_apply(grid, grid.weights).real
    ell = np.zeros(grid.n)
    ell[1:-1] = np.log((grid.nodes[1:-1] - grid.nodes[0]) / (grid.nodes[-1] - grid.nodes[1:-1]))
    rows.setflags(write=False)
    ell.setflags(write=False)
    return SingularKernel(grid, orientation, rows, ell)


def _forward_values(
    state: ChannelState, times: np.ndarray, cauchy: CauchyApply = cauchy_apply
) -> tuple[np.ndarray, float]:
    """Forward expectation at each time via the Hermitian quadratic form, and
    the reality defect: max over times and channels of |Re<z, C z>| / 2pi for
    the weighted evolved amplitudes z, zero when `cauchy` is antisymmetric.
    Times go in blocks of _TIME_BLOCK node-times, one `cauchy` call per block
    and channel, so the temporaries do not grow with the number of times."""
    grid = state.grid
    e, w = grid.nodes, grid.weights
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    cell = np.zeros(times.size)
    pv_imag = np.zeros(times.size)
    reality = 0.0
    step = max(1, _TIME_BLOCK // grid.n)
    for a in range(0, times.size, step):
        block = slice(a, a + step)
        # evolution phases and diagonal-cell correction, shared across channels
        phase = np.exp(-1j * np.outer(times[block], e))
        gamma = gamma_cell(np.outer(w, times[block]))
        for row in state.amplitudes:
            z = (w * row) * phase
            pv = np.sum(np.conj(z) * cauchy(grid, z), axis=1)
            pv_imag[block] += pv.imag
            reality = np.maximum(reality, np.max(np.abs(pv.real), initial=0.0))
            cell[block] += np.sum((w * np.abs(row) ** 2)[:, None] * gamma, axis=0)
    mf = 0.5 * state.norm_squared() - pv_imag / (2.0 * np.pi) - cell / (2.0 * np.pi)
    return mf, float(reality) / (2.0 * np.pi)


def mf_expectation(state: ChannelState, times):
    """<psi(t)| M_F |psi(t)> at each entry of `times`, from one kernel pass: a
    float for a scalar, else an array of the same shape.  Raises RuntimeError
    when the reality defect exceeds REALITY_TOL; <M_B> is norm_squared() - mf."""
    fwd, reality = _forward_values(state, np.ravel(times))
    if not reality <= REALITY_TOL:
        raise RuntimeError(
            "expectation value acquired an imaginary part "
            f"({reality:.3e}); the antisymmetric kernel is broken"
        )
    return float(fwd[0]) if np.ndim(times) == 0 else fwd.reshape(np.shape(times))


@dataclass(frozen=True, eq=False)
class LyapunovTrace:
    """Forward expectation values along strictly increasing times; the
    backward values are derived, mb = norm^2 - mf."""

    times: np.ndarray
    mf_values: np.ndarray
    norm_squared: float

    def __post_init__(self):
        for name in ("times", "mf_values"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        tol = TRACE_BOUND_TOL * max(1.0, self.norm_squared)
        if not np.all((-tol <= self.mf_values) & (self.mf_values <= self.norm_squared + tol)):
            raise ValueError("trace values escape [0, norm^2] beyond tolerance")

    @property
    def mb_values(self) -> np.ndarray:
        return self.norm_squared - self.mf_values


def lyapunov_trace(state: ChannelState, times) -> LyapunovTrace:
    """Sample both arrow expectations; reject non-monotone forward traces.

    A forward step increasing by more than MONOTONICITY_STEP_TOL raises
    MonotonicityError carrying per-step diagnostics rather than returning a
    silently unphysical trace.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("times must be strictly increasing")
    mf = mf_expectation(state, times)
    trace = LyapunovTrace(times, mf, state.norm_squared())
    steps = np.diff(mf)
    bad = np.nonzero(steps > MONOTONICITY_STEP_TOL)[0]
    if bad.size:
        raise MonotonicityError(
            [(int(i), float(times[i]), float(times[i + 1]), float(steps[i])) for i in bad]
        )
    return trace


def antisymmetry_defect(
    state: ChannelState, times, cauchy: CauchyApply = cauchy_apply
) -> float:
    """Worst |Re<psi(t)| C |psi(t)>| / 2pi over `times` for C = W Cauchy W.

    Zero to roundoff when C is antisymmetric, which is what makes expectation
    values real and forward + backward the identity.  `cauchy` replaces the
    skip-diagonal Cauchy sum, so a fault can be injected into the operator.
    """
    return _forward_values(state, np.atleast_1d(np.asarray(times, dtype=float)), cauchy)[1]


def pairing_defect(
    grid: EnergyGrid, a, b, cauchy: CauchyApply = cauchy_apply
) -> float:
    """|<a, C b> + <C a, b>| / (|a| |C b| + |C a| |b|) for C = W Cauchy W.

    Zero to roundoff when C is antisymmetric; `cauchy` as in antisymmetry_defect.
    """
    w = grid.weights
    ab = np.stack([a, b]).astype(complex)
    a, b = ab
    ca, cb = w * cauchy(grid, w * ab)
    defect = abs(np.vdot(a, cb) + np.vdot(ca, b))
    scale = np.linalg.norm(a) * np.linalg.norm(cb) + np.linalg.norm(ca) * np.linalg.norm(b)
    return float(defect / scale) if scale > 0.0 else float(defect)


def mpc_commutator_defect(state: ChannelState) -> tuple[float, float]:
    """Expected decrease rate and its incompatibility with the arrow operator.

    The rate operator D = -i[H, M_F] of the discrete evolved trace is the
    per-channel rank-one form <psi|D|psi> = (1/2pi) |sum_i w_i psi_i|^2,
    manifestly nonnegative and equal to -d<M_F>/dt at t = 0.  The returned
    noncommutativity is the spectral norm of [M_F, D] in symmetrized
    coordinates; it is strictly positive on generic grids, which is the
    failure of the measurement-compatibility assumption.
    """
    grid = state.grid
    w = grid.weights
    d_expect = sum(
        float(np.abs(np.sum(w * row)) ** 2) for row in state.amplitudes
    ) / (2.0 * np.pi)

    # D is rank one per channel, (1/2pi)|u><u| with u = sqrt(w) in symmetrized
    # coordinates, so [M_F, D] = (1/2pi)(|a><u| - |u><a|) with a = M_F u lives
    # in span{u, a}; its spectral norm follows from the 2x2 restriction.
    sw = np.sqrt(w)
    a = 0.5 * sw + (1j / (2.0 * np.pi)) * sw * cauchy_apply(grid, w)
    uu = float(np.vdot(sw, sw).real)
    aa = float(np.vdot(a, a).real)
    ua = complex(np.vdot(sw, a))
    trace = ua - np.conj(ua)
    det = uu * aa - abs(ua) ** 2
    eigs = np.roots([1.0, -trace, det])
    noncomm = float(np.max(np.abs(eigs))) / (2.0 * np.pi)
    return d_expect, noncomm
