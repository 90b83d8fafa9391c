"""The numerical helpers the library needs beyond numpy, so that it never imports scipy.

FFT lengths, cumulative Simpson on a uniform lattice, a not-a-knot cubic
spline and the sine-integral cell average; each matches the scipy routine it
replaces to roundoff (tests/test_numerics.py).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

__all__ = ["next_fast_len", "cumulative_simpson", "CubicSpline", "gamma_cell"]


@lru_cache(maxsize=2)
def _smooth_lengths(largest_prime: int) -> tuple[int, ...]:
    sizes = np.array([1], dtype=np.int64)
    for p in (2, 3, 5, 7, 11):
        if p <= largest_prime:
            sizes = np.outer(sizes, p ** np.arange(int(math.log(2**31, p)) + 2)).ravel()
            sizes = sizes[sizes <= 2**31]
    return tuple(np.sort(sizes).tolist())


def next_fast_len(n: int, real: bool = False) -> int:
    """Smallest 5-smooth (real) or 11-smooth (complex) length >= n (n <= 2^31), as scipy.fft's."""
    sizes = _smooth_lengths(5 if real else 11)
    return sizes[bisect_left(sizes, n)]


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running integral of samples y with step dx, as scipy.integrate.cumulative_simpson:
    each interval integrates the parabola through it and its right neighbour
    (intervals 0, 2, 4, ...) or its left one (the others and the last)."""
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    parts = np.empty(y.size - 1, dtype=y.dtype)
    parts[:-1:2] = (5.0 * f1 + 8.0 * f2 - f3)[::2]
    parts[1::2] = (5.0 * f3 + 8.0 * f2 - f1)[::2]
    parts[-1] = 5.0 * y[-1] + 8.0 * y[-2] - y[-3]
    return np.concatenate([[0.0], np.cumsum(parts * (dx / 12.0))])


def _linear_scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y_i = a_i y_{i-1} + b_i along the last axis of b, with y_{-1} = 0, by recursive doubling."""
    a, b = a.copy(), b.copy()
    step = 1
    while step < a.size:
        b[..., step:] += a[step:] * b[..., :-step]
        a[step:] *= a[:-step]
        step *= 2
    return b


class CubicSpline:
    """Not-a-knot cubic spline through (x_i, y_i), n >= 4, extrapolated by the end pieces.

    Rows stacked along the leading axes of y share the nodes; results carry
    those axes.  The slopes solve scipy's tridiagonal system by the Thomas
    algorithm: the elimination factors, which depend only on the nodes, in
    one sweep over Python floats, both substitutions as linear recurrences
    by recursive doubling.  Complex y fits in one pass.
    """

    def __init__(self, x, y):
        x, y, n = np.asarray(x, dtype=float), np.asarray(y), len(x)
        h, d0, d1 = np.diff(x), x[2] - x[0], x[-1] - x[-3]
        slope = np.diff(y) / h
        lower = np.concatenate([h[1:], [d1]])  # row i, column i - 1
        diag = np.concatenate([[h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]]])
        upper = np.concatenate([[d0], h[:-1], [0.0]])  # row i, column i + 1
        rhs = np.empty(y.shape, dtype=slope.dtype)
        rhs[..., 1:-1] = 3.0 * (h[1:] * slope[..., :-1] + h[:-1] * slope[..., 1:])
        rhs[..., 0] = ((h[0] + 2.0 * d0) * h[1] * slope[..., 0] + h[0] ** 2 * slope[..., 1]) / d0
        rhs[..., -1] = (
            h[-1] ** 2 * slope[..., -2] + (2.0 * d1 + h[-1]) * h[-2] * slope[..., -1]
        ) / d1

        factor = [upper[0] / diag[0]]
        for lo, di, up in zip(lower.tolist(), diag[1:].tolist(), upper[1:].tolist()):
            factor.append(up / (di - lo * factor[-1]))
        factor = np.array(factor)
        pivot = np.concatenate([diag[:1], diag[1:] - lower * factor[:-1]])
        fwd = _linear_scan(np.concatenate([[0.0], -lower / pivot[1:]]), rhs / pivot)
        s = _linear_scan(np.concatenate([[0.0], -factor[-2::-1]]), fwd[..., ::-1])[..., ::-1]

        t = (s[..., :-1] + s[..., 1:] - 2.0 * slope) / h
        self.x = x
        self.coef = np.stack([t / h, (slope - s[..., :-1]) / h - t, s[..., :-1], y[..., :-1]])
        area = np.cumsum(self._antiderivative(np.arange(n - 1), h), axis=-1)
        self._area = np.concatenate([np.zeros(y.shape[:-1] + (1,), area.dtype), area], axis=-1)

    def _locate(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        return i, xq - self.x[i]

    def _antiderivative(self, i: np.ndarray, d: np.ndarray) -> np.ndarray:
        c3, c2, c1, c0 = self.coef[..., i]
        return (((c3 / 4.0 * d + c2 / 3.0) * d + c1 / 2.0) * d + c0) * d

    def __call__(self, xq) -> np.ndarray:
        i, d = self._locate(np.asarray(xq, dtype=float))
        c3, c2, c1, c0 = self.coef[..., i]
        return ((c3 * d + c2) * d + c1) * d + c0

    def integrate(self, a: float, b: float):
        """Integral of the spline from a to b."""
        i, d = self._locate(np.array([a, b], dtype=float))
        ends = self._area[..., i] + self._antiderivative(i, d)
        return ends[..., 1] - ends[..., 0]


# Below the cut gamma(x) = x sum_k _GAMMA_SERIES[k] x^(2k), free of cancellation
# there.  Above it Si(x) = pi/2 - f(x) cos x - g(x) sin x, with x f(x) and
# x^2 g(x) as Chebyshev series in t = 2 cut^2 / x^2 - 1 (tools/fit_sine_integral.py).
_SI_CUT = 6.0
_GAMMA_SERIES = tuple((-1) ** k * 2 / ((2 * k + 1) * math.factorial(2 * k + 2)) for k in range(18))
_SI_F = (
    0.97677780627717525, -0.021972185083293429, 0.001123204693877129, -0.000108349089526805,
    1.5052063142799e-05, -2.659921543238e-06, 5.5859282945e-07, -1.33721623401e-07,
    3.5502421174e-08, -1.0254992963e-08, 3.178063442e-09, -1.04558777e-09, 3.62225354e-10,
    -1.31280875e-10, 4.9516671e-11, -1.9353418e-11, 7.810178e-12, -3.244486e-12, 1.383858e-12,
    -6.04689e-13, 2.70166e-13, -1.23213e-13, 5.7275e-14, -2.7101e-14, 1.3038e-14, -6.37e-15,
    3.158e-15, -1.588e-15, 8.08e-16, -4.17e-16, 2.17e-16,
)
_SI_G = (
    0.93677523891681957, -0.058032949637417994, 0.004513991530830914, -0.000560286490920706,
    9.2792693767334e-05, -1.8736580628715e-05, 4.37803522296e-06, -1.14529045567e-06,
    3.27997577743e-07, -1.01208701836e-07, 3.3252959074e-08, -1.152903003e-08, 4.188305528e-09,
    -1.585306444e-09, 6.22327088e-10, -2.52407245e-10, 1.05433189e-10, -4.523463e-11,
    1.9887372e-11, -8.941854e-12, 4.104545e-12, -1.920551e-12, 9.14796e-13, -4.43036e-13,
    2.17925e-13, -1.0877e-13, 5.5039e-14, -2.8213e-14, 1.464e-14, -7.685e-15, 4.079e-15,
    -2.188e-15, 1.185e-15,
)


def _gamma_series(x: np.ndarray) -> np.ndarray:
    x2, out = x * x, np.full_like(x, _GAMMA_SERIES[-1])
    for c in _GAMMA_SERIES[-2::-1]:
        out *= x2
        out += c
    out *= x
    return out


def _si_asymptotic(x: np.ndarray) -> np.ndarray:
    """Si(x) for |x| >= the cut."""
    from numpy.polynomial.chebyshev import chebval  # off the import path of every command

    a = np.abs(x)
    t = 2.0 * (_SI_CUT / a) ** 2 - 1.0
    f, g = chebval(t, _SI_F) / a, chebval(t, _SI_G) / (a * a)
    return np.copysign(0.5 * np.pi - f * np.cos(a) - g * np.sin(a), x)


def gamma_cell(x) -> np.ndarray:
    """2 Si(x) - 2(1 - cos x)/x: exact cell average of the evolved diagonal.

    Odd in x, ~ x - x^3/36 near zero, saturating at +-pi for large |x|;
    within 1e-15 relative of the exact value.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= _SI_CUT
    if small.all():
        return _gamma_series(x)
    out, big = np.empty_like(x), x[~small]
    out[small] = _gamma_series(x[small])
    out[~small] = 2.0 * _si_asymptotic(big) - np.sin(0.5 * big) ** 2 / (0.25 * big)
    return out
