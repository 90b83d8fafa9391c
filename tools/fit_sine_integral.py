"""Regenerate the sine-integral tables of `arrowtime.numerics` from mpmath.

For |x| above the series cut, Si(x) = pi/2 - f(x) cos x - g(x) sin x with the
auxiliary functions f and g.  Both x f(x) and x^2 g(x) are smooth functions of
s = 1/x^2 that tend to 1 as s -> 0, so each is tabulated as a Chebyshev series
in t = 2 s cut^2 - 1 on [-1, 1], that is x in [cut, inf).  The coefficients
come from interpolation at many Chebyshev points in 40-digit arithmetic and
are truncated before the first one whose effect on Si at the cut, |c| / cut
for f and |c| / cut^2 for g, falls below 2.5e-17; the rest decays
geometrically, so the dropped tail stays below about 4e-17 relative.

Run from the repository root and paste the output over the tables:

    python tools/fit_sine_integral.py
"""

import mpmath as mp

CUT = 6  # must equal numerics._SI_CUT
TRUNCATE = 2.5e-17
POINTS = 64  # interpolation points; the aliasing error is far below the truncation

mp.mp.dps = 40


def auxiliary(x):
    """(x f(x), x^2 g(x)) from Si and Ci."""
    si, ci = mp.si(x) - mp.pi / 2, mp.ci(x)
    f = ci * mp.sin(x) - si * mp.cos(x)
    g = -ci * mp.cos(x) - si * mp.sin(x)
    return x * f, x * x * g


def chebyshev_coefficients(which):
    angles = [mp.pi * (j + mp.mpf(1) / 2) / POINTS for j in range(POINTS)]
    values = []
    for a in angles:
        s = (mp.cos(a) + 1) / (2 * CUT**2)
        values.append(auxiliary(1 / mp.sqrt(s))[which])
    coef = [
        2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / POINTS
        for k in range(POINTS)
    ]
    coef[0] /= 2
    weight = CUT ** -(which + 1)
    size = next(k for k, c in enumerate(coef) if abs(c) * weight < TRUNCATE)
    assert max(abs(c) * weight for c in coef[size:]) < TRUNCATE, "raise POINTS"
    return coef[:size]


def main():
    for name, which in (("_SI_F", 0), ("_SI_G", 1)):
        print(f"{name} = (")
        line = "   "
        for c in chebyshev_coefficients(which):
            # the digits that matter at 1e-18 absolute, at most a double's 17
            digits = min(17, max(1, int(mp.floor(mp.log10(abs(c)))) + 19))
            value = f" {float(c):.{digits}g},"
            if len(line) + len(value) > 96:
                print(line)
                line = "   "
            line += value
        print(line + "\n)")


if __name__ == "__main__":
    main()
