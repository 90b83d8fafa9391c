"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

import arrowtime as at
from arrowtime.checks import check_names
from arrowtime.cli import main
from conftest import arctan_trace


def report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  criterion {criterion}: {detail}")
    assert passed, detail


def test_criterion_01_closed_form_trace(oracle_state):
    start = time.perf_counter()
    times = np.linspace(-2.0, 2.0, 21)
    exact = arctan_trace(times)
    direct = at.mf_expectation(oracle_state, times)
    err_kernel = float(np.max(np.abs(direct - exact)))
    err_oracle = float(np.max(np.abs(at.mf_expectation_oracle(oracle_state, times) - exact)))
    elapsed = time.perf_counter() - start
    report(
        1,
        err_kernel < 2e-4 and err_oracle < 1e-5 and elapsed < 30.0,
        f"kernel err {err_kernel:.2e} (<2e-4), tail-oracle err {err_oracle:.2e} (<1e-5), "
        f"{elapsed:.1f}s (<30s) at n=4096",
    )


def test_criterion_02_monotone_packet_trace(packet_state_fine):
    times = np.linspace(-0.5, 0.5, 201)
    trace = at.lyapunov_trace(packet_state_fine, times)
    steps = np.diff(trace.mf_values)
    mid = at.mf_expectation(packet_state_fine, 0.0)
    report(
        2,
        bool(np.all(steps < 1e-9)) and abs(mid - 0.5) < 1e-3,
        f"max step {steps.max():.2e} (<1e-9), <M_F(0)> = {mid:.6f} (0.5 +- 1e-3)",
    )


def test_criterion_03_completeness():
    # forward + backward = 1 holds by construction once the weighted
    # principal-value operator is antisymmetric, so antisymmetry is tested
    grid = at.default_profile_grid(1024)
    times = np.linspace(-2.0, 2.0, 5)
    rng = np.random.default_rng(9000)
    realities, pairings = [], []
    for k in range(100):
        state = at.random_smooth_state(grid, seed=9000 + k)
        realities.append(at.antisymmetry_defect(state, times))
        a, b = rng.normal(size=(2, grid.n)) + 1j * rng.normal(size=(2, grid.n))
        pairings.append(at.pairing_defect(grid, a, b))
    reality, pairing = np.max(realities), np.max(pairings)
    report(
        3,
        reality < 1e-12 and pairing < 1e-12,
        f"reality defect {reality:.2e}, relative pairing defect {pairing:.2e} (<1e-12) "
        "over 100 states x 5 times",
    )


def test_criterion_04_oracle_triangulation(oracle_state, packet_state_fine):
    grid = at.default_profile_grid(4096)
    states = [oracle_state, packet_state_fine] + [
        at.random_smooth_state(grid, seed=7000 + k) for k in range(20)
    ]
    times = (-0.4, 0.0, 0.6)
    gaps = []
    for state in states:
        oracle = at.mf_expectation_oracle(state, times)
        for t, b in zip(times, oracle):
            a = at.mf_expectation(state, t)
            c = at.mf_expectation_via_m(state, t)
            gaps += [abs(a - b), abs(b - c), abs(a - c)]
    worst = np.max(gaps)
    report(4, worst < 1e-3, f"worst pairwise route disagreement {worst:.2e} (<1e-3)")


def test_criterion_05_m_density_closed_form(oracle_state):
    dist = at.to_m_representation(oracle_state)
    m = dist.mgrid.m_nodes
    sel = (m >= 0.05) & (m <= 0.95)
    dens = dist.density_m()[1][0]
    dens_err = float(np.max(np.abs(dens[sel] - 1.0 / (np.pi * np.sqrt(m[sel] * (1 - m[sel]))))))
    parseval = abs(dist.norm_squared() - oracle_state.norm_squared())
    report(
        5,
        dens_err < 1e-4 and parseval < 1e-6,
        f"density sup err {dens_err:.2e} (<1e-4), unitarity defect {parseval:.2e} (<1e-6)",
    )


def test_criterion_06_eigen_residuals(registry):
    # residuals at m = 0.1 ... 0.9 on n = 4096, each decreasing at n = 8192
    result = registry.results["m_transform.eigen_residual_refinement"]
    report(6, result.passed, result.detail)


def test_criterion_07_frames(tmp_path):
    import json

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 4096, "m_size": 32768}))
    out = str(tmp_path / "frames.csv")
    assert main(["frames", "--config", str(cfg), "--out", out]) == 0
    mfs, moments, blocks = [], [], 0
    for line in open(out):
        if line.startswith("# block: m"):
            blocks += 1
        elif line.startswith("# first_moment:"):
            moments.append(float(line.split(":")[1]))
        elif line.startswith("# mf:"):
            mfs.append(float(line.split(":")[1]))
    cross = max(abs(a - b) for a, b in zip(mfs[1::2], moments))
    ok = blocks == 5 and cross < 1e-3 and moments[-1] < moments[0]
    report(
        7,
        ok,
        f"5 frames emitted, first-moment cross-check {cross:.2e} (<1e-3), "
        f"mean m {moments[0]:.4f} -> {moments[-1]:.4f} (shift toward 0)",
    )


def test_criterion_08_scattering_equivalence(packet_state):
    models = [at.delta_model(lam) for lam in (0.0, 1.0, 2.0)]
    worst_defect = max(at.equivalence_defect(packet_state, model) for model in models)
    worst_overlap = float(np.min(at.asymptotic_overlap(packet_state, models, -50.0)))
    report(
        8,
        worst_defect < 1e-10 and worst_overlap > 0.99,
        f"equivalence defect {worst_defect:.2e} (<1e-10), overlap(-50) {worst_overlap:.4f} (>0.99)",
    )


def test_criterion_09_galapon_witness():
    op = at.galapon_T([0.0, 1.0])
    state = np.array([1.0, 1.0]) / np.sqrt(2.0)
    times = np.linspace(0.0, 2.0 * np.pi, 257)
    wt = at.lyapunov_violation_witness(op, state, times)
    dev = float(np.max(np.abs(wt.values + np.sin(times))))
    nodes = np.linspace(1.0, 2.0, 9)
    h = nodes[1] - nodes[0]
    grid = at.EnergyGrid(nodes, np.full(nodes.size, h), "linear", 1.0, 2.0)
    prop = float(
        np.max(np.abs(at.discretize_symmetric(grid).matrix - (h / np.pi) * at.galapon_T(nodes).matrix))
    )
    report(
        9,
        dev < 1e-12 and wt.non_monotone and prop < 1e-12,
        f"two-level trace dev {dev:.2e} (<1e-12), non-monotone flagged, "
        f"proportionality dev {prop:.2e} (<1e-12)",
    )


def test_criterion_10_mpc_check(oracle_state):
    d_expect, noncomm = at.mpc_commutator_defect(oracle_state)
    report(
        10,
        abs(d_expect - 1.0 / np.pi) < 1e-3 and noncomm > 0.0,
        f"rate {d_expect:.6f} (1/pi +- 1e-3), noncommutativity {noncomm:.3f} (>0)",
    )


def test_criterion_11_backward_running(packet_state_fine):
    prob = at.backward_running_probability(packet_state_fine, (0.4, 0.6), (0.7, 0.9), 0.05)
    report(11, prob > 1e-6, f"backward-running probability {prob:.3e} (>1e-6)")


def test_criterion_12_check_suite_runtime(registry):
    names = check_names()
    failed = [n for n in names if n not in registry.results or not registry.results[n].passed]
    report(
        12,
        not failed and len(registry.results) == len(names) and registry.seconds < 300.0,
        f"{len(registry.results)} checks in {registry.seconds:.0f}s (<300s)"
        + (f"; failed: {failed}" if failed else ""),
    )


@pytest.mark.parametrize("name", check_names())
def test_invariant(registry, name):
    result = registry.results[name]
    assert result.passed, f"{name}: {result.detail}"


def test_every_check_reports_finite_margins(registry):
    for name, result in registry.results.items():
        assert result.margins, name
        assert all(np.isfinite(m.value) for m in result.margins), f"{name}: {result.detail}"
