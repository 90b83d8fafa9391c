"""Named invariant suite behind the `check` subcommand.

Each check returns quietly or raises AssertionError with a diagnostic; the
runner collects them into a pass/fail table.  Grids are sized so the whole
suite stays well under five minutes on commodity hardware while keeping
every tolerance at its contractual value.

`fault` is a test hook: "kernel-antisymmetry" adds the symmetric rank-one
term 1e-6 w w^T to the weighted principal-value operator that the
antisymmetry check inspects, so the check measures a broken operator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import galapon as gal
from .grids import (
    EnergyGrid,
    energy_to_momentum,
    inner_product,
    make_energy_grid,
    momentum_to_energy,
)
from .hardy import forward_component, mf_expectation_oracle, tail_density
from .kernel import (
    antisymmetry_defect,
    build_kernel,
    cauchy_apply,
    expectation_trace,
    lyapunov_trace,
    mf_expectation,
    mpc_commutator_defect,
    pairing_defect,
)
from .mrep import (
    backward_running_probability,
    default_spectral_grid,
    eigen_residual,
    from_m_representation,
    make_m_grid,
    mf_expectation_via_m,
    to_m_representation,
)
from .scattering import (
    asymptotic_overlap,
    delta_model,
    equivalence_defect,
    fd_transmission_probability,
)
from .states import (
    GaussianPacketParams,
    default_profile_grid,
    evolve,
    exponential_profile,
    gaussian_channel_state,
    gaussian_position_density,
    random_smooth_state,
)

__all__ = ["CheckResult", "run_checks", "check_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Ctx:
    """Shared lazily-built fixtures so checks can reuse expensive objects."""

    def __init__(self, seed: int, fault: str | None):
        self.seed = seed
        self.fault = fault
        self._cache: dict[str, object] = {}

    def get(self, key: str, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def profile_grid(self, n=4096):
        return self.get(f"pgrid{n}", lambda: default_profile_grid(n))

    def oracle_state(self, n=4096):
        return self.get(f"oracle{n}", lambda: exponential_profile(self.profile_grid(n)))

    def packet(self, n=2048):
        params = GaussianPacketParams(6.4, 3.0)
        return self.get(f"packet{n}", lambda: gaussian_channel_state(params, n=n))

    def random_states(self, count, n=1024):
        grid = self.profile_grid(n)
        key = f"rand{count}-{n}"
        return self.get(
            key, lambda: [random_smooth_state(grid, self.seed + 17 * k) for k in range(count)]
        )


def _arctan_trace(t):
    return 0.5 - np.arctan(t) / np.pi


# --- spectral_core -----------------------------------------------------------


def check_quadrature_convergence(ctx: _Ctx):
    def integral(n):
        g = make_energy_grid(1e-9, 40.0, n)
        return float(np.sum(g.weights * 2.0 * np.exp(-2.0 * g.nodes)))

    v4, v8 = integral(4096), integral(8192)
    assert abs(v4 - 1.0) < 1e-8, f"integral error {v4 - 1.0:.3e}"
    assert abs(v8 - v4) < 1e-9, f"refinement moved integral by {v8 - v4:.3e}"


def check_momentum_roundtrip(ctx: _Ctx):
    state = ctx.packet()
    back = momentum_to_energy(energy_to_momentum(state), state.grid)
    sup = float(np.max(np.abs(back.amplitudes - state.amplitudes)))
    assert sup < 1e-10, f"roundtrip sup error {sup:.3e}"


def check_inner_product_sesquilinear(ctx: _Ctx):
    from .grids import ChannelState

    grid = ctx.profile_grid(1024)
    rng = np.random.default_rng(ctx.seed)
    shape = (2, grid.n)

    def mk():
        return ChannelState(grid, ("+", "-"), rng.normal(size=shape) + 1j * rng.normal(size=shape))

    a, b, c = mk(), mk(), mk()
    z = complex(rng.normal(), rng.normal())
    lhs = inner_product(a, b.with_amplitudes(z * b.amplitudes + c.amplitudes))
    rhs = z * inner_product(a, b) + inner_product(a, c)
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) < 1e-12 * scale, f"linearity defect {abs(lhs - rhs):.3e}"
    sym = inner_product(a, b) - np.conj(inner_product(b, a))
    assert abs(sym) < 1e-12 * scale, f"conjugate symmetry defect {abs(sym):.3e}"


# --- states ------------------------------------------------------------------


def check_position_density_normalization(ctx: _Ctx):
    for p0, xi0, t in ((6.4, 3.0, 0.0), (6.4, 3.0, 0.3), (2.0, 0.7, -1.2)):
        params = GaussianPacketParams(p0, xi0)
        sig = np.sqrt((params.mu**2 + xi0**4 * t**2) / (2.0 * params.mu**2 * xi0**2))
        xc = p0 * t / params.mu
        x = np.linspace(xc - 16 * sig, xc + 16 * sig, 4001)
        total = np.trapezoid(gaussian_position_density(params, x, t), x)
        assert abs(total - 1.0) < 1e-8, f"density integral {total - 1.0:.3e}"


def check_evolve_channel_restriction(ctx: _Ctx):
    state = ctx.packet()
    a = evolve(state.restrict_channel("+"), 0.37)
    b = evolve(state, 0.37).restrict_channel("+")
    assert np.array_equal(a.amplitudes, b.amplitudes), "evolve does not commute with restriction"


# --- arrow_operator ----------------------------------------------------------


def _symmetric_fault(grid: EnergyGrid, z: np.ndarray) -> np.ndarray:
    """Cauchy sum plus 1e-6 on every entry: W(...)W gains 1e-6 w w^T."""
    return cauchy_apply(grid, z) + 1e-6 * np.sum(z, axis=-1, keepdims=True)


def check_antisymmetry(ctx: _Ctx):
    states = ctx.random_states(100)
    times = np.linspace(-2.0, 2.0, 5)
    cauchy = _symmetric_fault if ctx.fault == "kernel-antisymmetry" else cauchy_apply
    reality = max(antisymmetry_defect(state, times, cauchy) for state in states)
    rng = np.random.default_rng(ctx.seed)
    n = states[0].grid.n
    pairs = rng.normal(size=(len(states), 2, n)) + 1j * rng.normal(size=(len(states), 2, n))
    pairing = max(pairing_defect(states[0].grid, a, b, cauchy) for a, b in pairs)
    assert reality < 1e-12, f"reality defect {reality:.3e}"
    assert pairing < 1e-12, f"relative pairing defect {pairing:.3e}"


def check_monotonicity_random(ctx: _Ctx):
    states = ctx.random_states(100)
    times = np.linspace(-5.0, 5.0, 201)
    lo, hi = np.inf, -np.inf
    for state in states:
        trace = lyapunov_trace(state, times)  # raises MonotonicityError on violation
        lo = min(lo, float(trace.mf_values.min()))
        hi = max(hi, float(trace.mf_values.max()))
    ctx._cache["mono-bounds"] = (lo, hi)


def check_bounds(ctx: _Ctx):
    if "mono-bounds" not in ctx._cache:
        check_monotonicity_random(ctx)
    lo, hi = ctx._cache["mono-bounds"]
    assert lo >= -1e-8 and hi <= 1.0 + 1e-8, f"trace range [{lo:.3e}, {hi:.3e}]"


def check_derivative_identity(ctx: _Ctx):
    state = ctx.oracle_state(2048)
    t, h = 0.7, 1e-3
    num = (mf_expectation(state, t + h) - mf_expectation(state, t - h)) / (2.0 * h)
    rate = -tail_density(evolve(state, t), 0.0)
    assert abs(num - rate) < 1e-3 + h**2, f"derivative mismatch {num - rate:.3e}"


def check_channel_additivity(ctx: _Ctx):
    state = ctx.packet()
    whole = mf_expectation(state, 0.21)
    parts = mf_expectation(state.restrict_channel("+"), 0.21) + mf_expectation(
        state.restrict_channel("-"), 0.21
    )
    assert abs(whole - parts) < 1e-12, f"channel additivity defect {whole - parts:.3e}"


def check_mpc_rate(ctx: _Ctx):
    state = ctx.oracle_state(2048)
    d_expect, _ = mpc_commutator_defect(state)
    assert abs(d_expect - 1.0 / np.pi) < 1e-3, f"rate {d_expect:.6f} != 1/pi"
    _, noncomm = mpc_commutator_defect(exponential_profile(make_energy_grid(1e-9, 42.0, 64)))
    assert noncomm > 1e-3, f"noncommutativity {noncomm:.3e} not positive"


# --- hardy -------------------------------------------------------------------


def check_oracle_agreement(ctx: _Ctx):
    times = np.linspace(-3.0, 3.0, 11)
    states = [ctx.oracle_state(4096), ctx.packet(4096)] + ctx.random_states(20, n=4096)
    worst = 0.0
    for state in states:
        direct = expectation_trace(state, times, "forward")
        worst = max(worst, float(np.max(np.abs(mf_expectation_oracle(state, times) - direct))))
    assert worst < 5e-4, f"oracle vs kernel deviation {worst:.3e}"


def check_oracle_support(ctx: _Ctx):
    state = ctx.oracle_state(2048)
    f = forward_component(state, 0.5)
    assert np.all(f == 0.0), "forward component must vanish at positive delay"
    got = abs(forward_component(state, 0.0)[0])
    assert abs(got - np.sqrt(2.0) / (2.0 * np.pi)) < 1e-6, f"f(0) = {got:.8f}"


def check_oracle_tail(ctx: _Ctx):
    state = ctx.oracle_state(4096)
    got = mf_expectation_oracle(state, -100.0)
    want = _arctan_trace(-100.0)
    assert abs(got - want) < 1e-4, f"far-past oracle off by {got - want:.3e}"


# --- m_transform -------------------------------------------------------------


def check_m_parseval(ctx: _Ctx):
    states = [ctx.oracle_state(2048), ctx.packet()] + ctx.random_states(5, n=2048)
    worst = 0.0
    for state in states:
        dist = to_m_representation(state)
        worst = max(worst, abs(dist.norm_squared() - state.norm_squared()))
    assert worst < 1e-6, f"unitarity defect {worst:.3e}"


def check_m_orthonormality_weak(ctx: _Ctx):
    a, b = ctx.random_states(2, n=2048)
    mgrid = make_m_grid(a.grid)
    lhs = to_m_representation(a, mgrid).inner(to_m_representation(b, mgrid))
    rhs = inner_product(a, b)
    assert abs(lhs - rhs) < 1e-6, f"pairing defect {abs(lhs - rhs):.3e}"


def check_m_roundtrip(ctx: _Ctx):
    state = ctx.packet()
    back = from_m_representation(to_m_representation(state), state.grid)
    sup = float(np.max(np.abs(back.amplitudes - state.amplitudes)))
    assert sup < 1e-6, f"roundtrip sup {sup:.3e}"


def check_eigen_residual_refinement(ctx: _Ctx):
    res = {}
    for n in (4096, 8192):
        grid = default_spectral_grid(n)
        kern = build_kernel(grid, "forward")
        res[n] = [eigen_residual(m, grid, kern) for m in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert max(res[4096]) < 1e-2, f"residuals {res[4096]}"
    for coarse, fine in zip(res[4096], res[8192]):
        assert fine < coarse, f"no refinement: {coarse:.3e} -> {fine:.3e}"


def check_triangulation(ctx: _Ctx):
    states = [ctx.oracle_state(4096), ctx.packet(4096)]
    times = (-0.3, 0.0, 0.3)
    worst = 0.0
    for state in states:
        oracle = mf_expectation_oracle(state, times)
        for t, b in zip(times, oracle):
            a = mf_expectation(state, t)
            c = mf_expectation_via_m(state, t)
            worst = max(worst, abs(a - b), abs(b - c), abs(a - c))
    assert worst < 1e-3, f"route disagreement {worst:.3e}"


def check_backward_running(ctx: _Ctx):
    prob = backward_running_probability(ctx.packet(), (0.4, 0.6), (0.7, 0.9), 0.05)
    assert prob > 1e-6, f"backward-running probability {prob:.3e}"


# --- scattering --------------------------------------------------------------


def check_scattering_unitarity(ctx: _Ctx):
    p = np.geomspace(1e-3, 50.0, 512)
    for lam in (0.0, 1.0, 2.0, 7.5):
        model = delta_model(lam)
        defect = np.max(
            np.abs(
                np.abs(model.reflection(p)) ** 2 + np.abs(model.transmission(p)) ** 2 - 1.0
            )
        )
        assert defect < 1e-12, f"unitarity defect {defect:.3e} at coupling {lam}"


def check_fd_scattering_oracle(ctx: _Ctx):
    model = delta_model(1.0)
    exact = float(np.abs(model.transmission(1.0)) ** 2)
    fd = fd_transmission_probability(1.0, 1.0, 1.0)
    assert abs(fd - exact) < 1e-4, f"finite-difference solve off by {fd - exact:.3e}"


def check_equivalence_defect(ctx: _Ctx):
    state = ctx.packet()
    for lam in (0.0, 1.0, 2.0):
        d = equivalence_defect(state, delta_model(lam))
        assert d < 1e-10, f"equivalence defect {d:.3e} at coupling {lam}"


def check_asymptotic_overlap(ctx: _Ctx):
    state = ctx.packet()
    overlaps = asymptotic_overlap(state, [delta_model(2.0)], [-5.0, -10.0, -20.0, -50.0])[0]
    for early, late in zip(overlaps, overlaps[1:]):
        assert late >= early - 1e-3, f"overlap not converging: {overlaps}"
    assert overlaps[-1] > 0.99, f"overlap(-50) = {overlaps[-1]:.6f}"


# --- galapon -----------------------------------------------------------------


def check_galapon_witness(ctx: _Ctx):
    state = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for gap in (0.5, 1.0, 2.0):
        op = gal.galapon_T([0.0, gap])
        times = np.linspace(0.0, 2.0 * np.pi / gap, 129)
        wt = gal.lyapunov_violation_witness(op, state, times)
        dev = np.max(np.abs(wt.values + np.sin(gap * times) / gap))
        assert dev < 1e-12, f"two-level trace off by {dev:.3e} at gap {gap}"
        assert wt.non_monotone, "oscillating trace not flagged"


def check_galapon_proportionality(ctx: _Ctx):
    _, dev = gal.level_correspondence(np.linspace(1.0, 2.0, 9))
    assert dev < 1e-12, f"proportionality defect {dev:.3e}"


_CHECKS = [
    ("spectral_core.quadrature_convergence", check_quadrature_convergence),
    ("spectral_core.momentum_roundtrip", check_momentum_roundtrip),
    ("spectral_core.inner_product_sesquilinear", check_inner_product_sesquilinear),
    ("states.position_density_normalization", check_position_density_normalization),
    ("states.evolve_channel_restriction", check_evolve_channel_restriction),
    ("arrow_operator.antisymmetry", check_antisymmetry),
    ("arrow_operator.monotonicity_random", check_monotonicity_random),
    ("arrow_operator.bounds", check_bounds),
    ("arrow_operator.derivative_identity", check_derivative_identity),
    ("arrow_operator.channel_additivity", check_channel_additivity),
    ("arrow_operator.mpc_rate", check_mpc_rate),
    ("hardy.oracle_agreement", check_oracle_agreement),
    ("hardy.oracle_support", check_oracle_support),
    ("hardy.oracle_tail", check_oracle_tail),
    ("m_transform.parseval", check_m_parseval),
    ("m_transform.orthonormality_weak", check_m_orthonormality_weak),
    ("m_transform.roundtrip", check_m_roundtrip),
    ("m_transform.eigen_residual_refinement", check_eigen_residual_refinement),
    ("m_transform.triangulation", check_triangulation),
    ("m_transform.backward_running", check_backward_running),
    ("scattering.unitarity", check_scattering_unitarity),
    ("scattering.fd_oracle", check_fd_scattering_oracle),
    ("scattering.equivalence_defect", check_equivalence_defect),
    ("scattering.asymptotic_overlap", check_asymptotic_overlap),
    ("galapon.witness", check_galapon_witness),
    ("galapon.proportionality", check_galapon_proportionality),
]


def check_names() -> list[str]:
    return [name for name, _ in _CHECKS]


def run_checks(
    name_filter: str | None = None, seed: int = 20260808, fault: str | None = None
) -> list[CheckResult]:
    """Run the invariant suite; `name_filter` selects by substring."""
    ctx = _Ctx(seed, fault)
    results = []
    for name, fn in _CHECKS:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        try:
            fn(ctx)
            results.append(CheckResult(name, True, "ok", time.perf_counter() - start))
        except Exception as exc:  # noqa: BLE001 - the table reports any failure
            results.append(CheckResult(name, False, str(exc), time.perf_counter() - start))
    return results
