"""Named invariant suite behind the `check` subcommand.

Each check is a generator of Margin records, a measured value against its
contractual bound; run_checks alone judges them, so a check states each
contract once and a NaN fails it.  Grids are sized so the whole suite stays
well under five minutes on commodity hardware.

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
    MONOTONICITY_STEP_TOL,
    antisymmetry_defect,
    build_kernel,
    cauchy_apply,
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

__all__ = ["Margin", "CheckResult", "run_checks", "check_names"]


@dataclass(frozen=True)
class Margin:
    """A measured value against its bound: ok iff value < bound (value > bound
    when `above`), so a NaN fails either way."""

    what: str
    value: float
    bound: float
    above: bool = False

    @property
    def ok(self) -> bool:
        return self.value > self.bound if self.above else self.value < self.bound

    def __str__(self) -> str:
        return f"{self.what} {self.value:.4g} {'>' if self.above else '<'} {self.bound:.4g}"


@dataclass(frozen=True)
class CheckResult:
    """A check passes iff it raised nothing, measured something and every margin is ok."""

    name: str
    margins: tuple[Margin, ...]
    error: str | None
    seconds: float

    @property
    def passed(self) -> bool:
        return self.error is None and bool(self.margins) and all(m.ok for m in self.margins)

    @property
    def detail(self) -> str:
        return self.error or "; ".join(map(str, self.margins)) or "measured nothing"


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
    yield Margin("integral error", abs(v4 - 1.0), 1e-8)
    yield Margin("refinement shift", abs(v8 - v4), 1e-9)


def check_momentum_roundtrip(ctx: _Ctx):
    state = ctx.packet()
    back = momentum_to_energy(energy_to_momentum(state), state.grid)
    yield Margin("roundtrip sup error", np.max(np.abs(back.amplitudes - state.amplitudes)), 1e-10)


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
    yield Margin("linearity defect", abs(lhs - rhs), 1e-12 * scale)
    sym = inner_product(a, b) - np.conj(inner_product(b, a))
    yield Margin("conjugate symmetry defect", abs(sym), 1e-12 * scale)


# --- states ------------------------------------------------------------------


def check_position_density_normalization(ctx: _Ctx):
    errors = []
    for p0, xi0, t in ((6.4, 3.0, 0.0), (6.4, 3.0, 0.3), (2.0, 0.7, -1.2)):
        params = GaussianPacketParams(p0, xi0)
        sig = np.sqrt((params.mu**2 + xi0**4 * t**2) / (2.0 * params.mu**2 * xi0**2))
        xc = p0 * t / params.mu
        x = np.linspace(xc - 16 * sig, xc + 16 * sig, 4001)
        errors.append(abs(np.trapezoid(gaussian_position_density(params, x, t), x) - 1.0))
    yield Margin("density integral error", np.max(errors), 1e-8)


def check_evolve_channel_restriction(ctx: _Ctx):
    state = ctx.packet()
    a = evolve(state.restrict_channel("+"), 0.37)
    b = evolve(state, 0.37).restrict_channel("+")
    yield Margin("differing entries", np.count_nonzero(a.amplitudes != b.amplitudes), 1)


# --- arrow_operator ----------------------------------------------------------


def _symmetric_fault(grid: EnergyGrid, z: np.ndarray) -> np.ndarray:
    """Cauchy sum plus 1e-6 on every entry: W(...)W gains 1e-6 w w^T."""
    return cauchy_apply(grid, z) + 1e-6 * np.sum(z, axis=-1, keepdims=True)


def check_antisymmetry(ctx: _Ctx):
    states = ctx.random_states(100)
    times = np.linspace(-2.0, 2.0, 5)
    cauchy = _symmetric_fault if ctx.fault == "kernel-antisymmetry" else cauchy_apply
    reality = np.max([antisymmetry_defect(state, times, cauchy) for state in states])
    rng = np.random.default_rng(ctx.seed)
    n = states[0].grid.n
    pairs = rng.normal(size=(len(states), 2, n)) + 1j * rng.normal(size=(len(states), 2, n))
    pairing = np.max([pairing_defect(states[0].grid, a, b, cauchy) for a, b in pairs])
    yield Margin("reality defect", reality, 1e-12)
    yield Margin("relative pairing defect", pairing, 1e-12)


def check_monotonicity_random(ctx: _Ctx):
    # lyapunov_trace raises on a step above the bound or a value outside
    # [0, norm^2]; the margin reports how close the worst step came
    times = np.linspace(-5.0, 5.0, 201)
    steps = [np.max(np.diff(lyapunov_trace(s, times).mf_values)) for s in ctx.random_states(100)]
    yield Margin("worst forward step", np.max(steps), MONOTONICITY_STEP_TOL)


def check_derivative_identity(ctx: _Ctx):
    state = ctx.oracle_state(2048)
    t, h = 0.7, 1e-3
    num = (mf_expectation(state, t + h) - mf_expectation(state, t - h)) / (2.0 * h)
    rate = -tail_density(evolve(state, t), 0.0)
    yield Margin("derivative mismatch", abs(num - rate), 1e-3 + h**2)


def check_channel_additivity(ctx: _Ctx):
    state = ctx.packet()
    whole = mf_expectation(state, 0.21)
    parts = mf_expectation(state.restrict_channel("+"), 0.21) + mf_expectation(
        state.restrict_channel("-"), 0.21
    )
    yield Margin("channel additivity defect", abs(whole - parts), 1e-12)


def check_mpc_rate(ctx: _Ctx):
    d_expect, _ = mpc_commutator_defect(ctx.oracle_state(2048))
    yield Margin("rate deviation from 1/pi", abs(d_expect - 1.0 / np.pi), 1e-3)
    _, noncomm = mpc_commutator_defect(exponential_profile(make_energy_grid(1e-9, 42.0, 64)))
    yield Margin("noncommutativity", noncomm, 1e-3, above=True)


# --- hardy -------------------------------------------------------------------


def check_oracle_agreement(ctx: _Ctx):
    times = np.linspace(-3.0, 3.0, 11)
    states = [ctx.oracle_state(4096), ctx.packet(4096)] + ctx.random_states(20, n=4096)
    devs = [
        np.max(np.abs(mf_expectation_oracle(s, times) - mf_expectation(s, times)))
        for s in states
    ]
    yield Margin("oracle vs kernel deviation", np.max(devs), 5e-4)


def check_oracle_support(ctx: _Ctx):
    state = ctx.oracle_state(2048)
    nonzero = np.count_nonzero(forward_component(state, 0.5) != 0.0)
    yield Margin("nonzero forward entries at positive delay", nonzero, 1)
    got = abs(forward_component(state, 0.0)[0])
    yield Margin("f(0) error", abs(got - np.sqrt(2.0) / (2.0 * np.pi)), 1e-6)


def check_oracle_tail(ctx: _Ctx):
    state = ctx.oracle_state(4096)
    got = mf_expectation_oracle(state, -100.0)
    yield Margin("far-past oracle error", abs(got - _arctan_trace(-100.0)), 1e-4)


# --- m_transform -------------------------------------------------------------


def check_m_parseval(ctx: _Ctx):
    states = [ctx.oracle_state(2048), ctx.packet()] + ctx.random_states(5, n=2048)
    defects = [abs(to_m_representation(s).norm_squared() - s.norm_squared()) for s in states]
    yield Margin("unitarity defect", np.max(defects), 1e-6)


def check_m_orthonormality_weak(ctx: _Ctx):
    a, b = ctx.random_states(2, n=2048)
    mgrid = make_m_grid(a.grid)
    lhs = to_m_representation(a, mgrid).inner(to_m_representation(b, mgrid))
    yield Margin("pairing defect", abs(lhs - inner_product(a, b)), 1e-6)


def check_m_roundtrip(ctx: _Ctx):
    state = ctx.packet()
    back = from_m_representation(to_m_representation(state), state.grid)
    yield Margin("roundtrip sup", np.max(np.abs(back.amplitudes - state.amplitudes)), 1e-6)


def check_eigen_residual_refinement(ctx: _Ctx):
    res = {}
    for n in (4096, 8192):
        grid = default_spectral_grid(n)
        kern = build_kernel(grid, "forward")
        res[n] = [eigen_residual(m, grid, kern) for m in (0.1, 0.3, 0.5, 0.7, 0.9)]
    yield Margin("worst residual at n=4096", np.max(res[4096]), 1e-2)
    yield Margin("worst change at n=8192", np.max(np.subtract(res[8192], res[4096])), 0.0)


def check_triangulation(ctx: _Ctx):
    times = (-0.3, 0.0, 0.3)
    gaps = []
    for state in (ctx.oracle_state(4096), ctx.packet(4096)):
        a = mf_expectation(state, times)
        b = mf_expectation_oracle(state, times)
        c = mf_expectation_via_m(state, times)
        gaps += [np.abs(a - b), np.abs(b - c), np.abs(a - c)]
    yield Margin("route disagreement", np.max(gaps), 1e-3)


def check_backward_running(ctx: _Ctx):
    prob = backward_running_probability(ctx.packet(), (0.4, 0.6), (0.7, 0.9), 0.05)
    yield Margin("backward-running probability", prob, 1e-6, above=True)


# --- scattering --------------------------------------------------------------


def check_scattering_unitarity(ctx: _Ctx):
    p = np.geomspace(1e-3, 50.0, 512)
    models = [delta_model(lam) for lam in (0.0, 1.0, 2.0, 7.5)]
    flux = [np.abs(m.reflection(p)) ** 2 + np.abs(m.transmission(p)) ** 2 for m in models]
    yield Margin("unitarity defect", np.max(np.abs(np.subtract(flux, 1.0))), 1e-12)


def check_fd_scattering_oracle(ctx: _Ctx):
    exact = float(np.abs(delta_model(1.0).transmission(1.0)) ** 2)
    fd = fd_transmission_probability(1.0, 1.0, 1.0)
    yield Margin("finite-difference error", abs(fd - exact), 1e-4)


def check_equivalence_defect(ctx: _Ctx):
    state = ctx.packet()
    defects = [equivalence_defect(state, delta_model(lam)) for lam in (0.0, 1.0, 2.0)]
    yield Margin("equivalence defect", np.max(defects), 1e-10)


def check_asymptotic_overlap(ctx: _Ctx):
    state = ctx.packet()
    overlaps = asymptotic_overlap(state, [delta_model(2.0)], [-5.0, -10.0, -20.0, -50.0])[0]
    yield Margin("worst overlap decrease", np.max(overlaps[:-1] - overlaps[1:]), 1e-3)
    yield Margin("overlap(-50)", overlaps[-1], 0.99, above=True)


# --- galapon -----------------------------------------------------------------


def check_galapon_witness(ctx: _Ctx):
    state = np.array([1.0, 1.0]) / np.sqrt(2.0)
    devs, unflagged = [], 0
    for gap in (0.5, 1.0, 2.0):
        times = np.linspace(0.0, 2.0 * np.pi / gap, 129)
        wt = gal.lyapunov_violation_witness(gal.galapon_T([0.0, gap]), state, times)
        devs.append(np.max(np.abs(wt.values + np.sin(gap * times) / gap)))
        unflagged += not wt.non_monotone
    yield Margin("two-level trace deviation", np.max(devs), 1e-12)
    yield Margin("unflagged gaps", unflagged, 1)


def check_galapon_proportionality(ctx: _Ctx):
    _, dev = gal.level_correspondence(np.linspace(1.0, 2.0, 9))
    yield Margin("proportionality defect", dev, 1e-12)


_CHECKS = [
    ("spectral_core.quadrature_convergence", check_quadrature_convergence),
    ("spectral_core.momentum_roundtrip", check_momentum_roundtrip),
    ("spectral_core.inner_product_sesquilinear", check_inner_product_sesquilinear),
    ("states.position_density_normalization", check_position_density_normalization),
    ("states.evolve_channel_restriction", check_evolve_channel_restriction),
    ("arrow_operator.antisymmetry", check_antisymmetry),
    ("arrow_operator.monotonicity_random", check_monotonicity_random),
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
    """Run the invariant suite; `name_filter` selects by substring.

    A check that raises fails with its message, keeping the margins it
    yielded before the error."""
    ctx = _Ctx(seed, fault)
    results = []
    for name, fn in _CHECKS:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        margins, error = [], None
        try:
            margins.extend(fn(ctx))
        except Exception as exc:  # noqa: BLE001 - the table reports any failure
            error = str(exc) or type(exc).__name__
        results.append(CheckResult(name, tuple(margins), error, time.perf_counter() - start))
    return results
