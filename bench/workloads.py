"""The two benchmark workloads, their inputs and their correctness gates.

Each workload is closed-loop: one caller makes back-to-back calls, with no
concurrency.  A pass first builds fresh grids and states (`build`), then
runs the calls (`run`).  Every call is one operation: it is attempted once,
and it fails if it raises or if a gate on its output does not hold.  Gate
tolerances are the contracts the library and its acceptance suite already
enforce; none is looser.

Every workload times three steps and reports two accuracy figures.  The
result line carries the accuracy figures under the generic names err1 and
err2; the report line carries all of them under `STEP_NAMES` and `ERR_NAMES`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np

import arrowtime as at
from arrowtime import cli, kernel, mrep, states

# contract tolerances (kernel.py, the acceptance criteria and checks.py)
STEP_TOL = kernel.MONOTONICITY_STEP_TOL  # 1e-9, criterion 2
BOUND_TOL = kernel.TRACE_BOUND_TOL  # 1e-8
COMPLETENESS_TOL = kernel.TRACE_COMPLETENESS_TOL  # 1e-10
KERNEL_ARCTAN_TOL = 2e-4  # criterion 1
ROUTE_GAP_TOL = 1e-3  # criterion 4
EIGEN_RESIDUAL_TOL = 1e-2  # criterion 6

PACKET = at.GaussianPacketParams(6.4, 3.0)

# Sizes.  The smoke sizes are the smallest at which every gate still holds.
SPECS = {
    "kernel_trace": {
        "full": {
            "packet": [[1024, 201], [4096, 201], [8192, 21]],
            "packet_window": [-0.5, 0.5],
            "profile": [4096, 201],
            "profile_window": [-2.0, 2.0],
            "spectral_n": 8192,
            "eigen_m": [0.1, 0.3, 0.5, 0.7, 0.9],
        },
        "smoke": {
            "packet": [[512, 21], [1024, 21], [2048, 5]],
            "packet_window": [-0.5, 0.5],
            "profile": [1024, 21],
            "profile_window": [-2.0, 2.0],
            "spectral_n": 1024,
            "eigen_m": [0.1, 0.5, 0.9],
        },
    },
    "cli_reference": {
        # an empty config is the default RunConfig
        "full": {"config": {}},
        "smoke": {
            "config": {
                "grid_n": 1024,
                "t_count": 21,
                "m_size": 8192,
                "x_count": 101,
                "equiv_t_count": 3,
                "lambdas": [0.0, 1.0],
                "overlap_times": [-5.0],
            }
        },
    },
}

STEP_NAMES = {
    "kernel_trace": ("trace.small_n_s", "trace.large_n_s", "eigen_s"),
    "cli_reference": ("cmd.trace_s", "cmd.frames_s", "cmd.equiv_s"),
}
ERR_NAMES = {
    "kernel_trace": ("err_arctan_kernel", "eigen_residual"),
    "cli_reference": ("route_gap", "route_gap_frames"),
}

# What the workloads call; the traced run wraps each entry (see tracing.py).
FUNCTIONS = {
    f.__name__: f
    for f in (
        states.default_packet_grid,
        states.default_profile_grid,
        mrep.default_spectral_grid,
        states.gaussian_channel_state,
        states.exponential_profile,
        kernel.lyapunov_trace,
        kernel.build_kernel,
        mrep.eigen_residual,
        cli.main,
    )
}


def arctan_trace(t):
    """Closed-form forward trace of the exponential reference profile."""
    return 0.5 - np.arctan(t) / np.pi


class GateFailure(AssertionError):
    pass


def gate(value: float, bound: float, what: str) -> float:
    if not value < bound:
        raise GateFailure(f"{what} {value:.3e} not below {bound:.0e}")
    return value


class Ledger:
    """Attempted and failed operations, failure messages, worst observed errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.worst: dict[str, float] = {}

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed operation is counted and the pass goes on
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def observe(self, key: str, value: float):
        self.worst[key] = max(self.worst.get(key, value), value)


class Steps:
    """Wall time per named step of one pass."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


def _check_trace(trace, norm2: float) -> float:
    """LyapunovTrace bounds, completeness and monotone steps; returns the worst step."""
    scale = max(1.0, norm2)
    mf, mb = trace.mf_values, trace.mb_values
    gate(max(-float(np.min(mf)), -float(np.min(mb))), BOUND_TOL * scale, "trace below 0 by")
    gate(max(float(np.max(mf)), float(np.max(mb))) - norm2, BOUND_TOL * scale, "trace above norm^2 by")
    gate(float(np.max(np.abs(mf + mb - norm2))), COMPLETENESS_TOL * scale, "completeness defect")
    worst = float(np.max(np.diff(mf))) if mf.size > 1 else -np.inf
    gate(worst, STEP_TOL, "forward step")
    return worst


# -- kernel_trace --------------------------------------------------------------


def build_kernel_trace(api, spec: dict) -> dict:
    packets = []
    for n, t_count in spec["packet"]:
        grid = api.default_packet_grid(PACKET, n)
        packets.append((api.gaussian_channel_state(PACKET, grid), t_count))
    n, t_count = spec["profile"]
    profile = api.exponential_profile(api.default_profile_grid(n))
    return {
        "packets": packets,
        "profile": (profile, t_count),
        "spectral": api.default_spectral_grid(spec["spectral_n"]),
    }


def run_kernel_trace(api, inputs: dict, spec: dict, ledger: Ledger, step: Steps, ctx: dict):
    *small, large = inputs["packets"]

    def packet_trace(state, t_count):
        with ledger.op(f"lyapunov_trace packet n={state.grid.n} T={t_count}"):
            times = np.linspace(*spec["packet_window"], t_count)
            trace = api.lyapunov_trace(state, times)
            ledger.observe("max_step", _check_trace(trace, state.norm_squared()))

    with step("step1"):
        for state, t_count in small:
            packet_trace(state, t_count)
        profile, t_count = inputs["profile"]
        with ledger.op(f"lyapunov_trace exponential n={profile.grid.n} T={t_count}"):
            times = np.linspace(*spec["profile_window"], t_count)
            trace = api.lyapunov_trace(profile, times)
            ledger.observe("max_step", _check_trace(trace, profile.norm_squared()))
            err = float(np.max(np.abs(trace.mf_values - arctan_trace(times))))
            ledger.observe("err1", gate(err, KERNEL_ARCTAN_TOL, "kernel arctan error"))
    with step("step2"):
        packet_trace(*large)
    with step("step3"):
        grid = inputs["spectral"]
        kern = None
        with ledger.op(f"build_kernel n={grid.n}"):
            kern = api.build_kernel(grid, "forward")
        for m in spec["eigen_m"]:
            with ledger.op(f"eigen_residual m={m}"):
                if kern is None:
                    raise RuntimeError("no kernel to test")
                res = api.eigen_residual(m, grid, kern)
                ledger.observe("err2", gate(res, EIGEN_RESIDUAL_TOL, f"eigen residual m={m}"))


def counts_kernel_trace(spec: dict) -> dict:
    pairs = sum(n * (n - 1) * t * 2 for n, t in spec["packet"])
    n, t = spec["profile"]
    pairs += n * (n - 1) * t
    n = spec["spectral_n"]
    pairs += n * (n - 1) * (1 + len(spec["eigen_m"]))
    return {"kernel.pair_evals": pairs, "mrep.fft_points": 0}


# -- cli_reference -------------------------------------------------------------

COMMANDS = ("trace", "frames", "equiv", "galapon")


def build_cli_reference(api, spec: dict) -> dict:
    return {"config": spec["config"]}


def _csv_rows(text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    start = lines.index(header) + 1
    return [[float(x) for x in line.split(",")] for line in lines[start:] if line and line[0] != "#"]


def _comment_value(text: str, key: str) -> list[float]:
    prefix = f"# {key}: "
    return [float(line[len(prefix):]) for line in text.splitlines() if line.startswith(prefix)]


def _gate_trace_csv(text: str, ledger: Ledger):
    norm2 = _comment_value(text, "norm_squared")[0]
    rows = np.array(_csv_rows(text, "t,mf,mb,mf_oracle"))
    mf, mb, oracle = rows[:, 1], rows[:, 2], rows[:, 3]
    gate(float(np.max(np.abs(mf + mb - norm2))), COMPLETENESS_TOL, "trace.csv mf + mb - norm^2")
    ledger.observe("max_step", gate(float(np.max(np.diff(mf))), STEP_TOL, "trace.csv forward step"))
    ledger.observe("err1", gate(float(np.max(np.abs(mf - oracle))), ROUTE_GAP_TOL, "trace.csv |mf - mf_oracle|"))


def _gate_frames_csv(text: str, ledger: Ledger):
    mf = _comment_value(text, "mf")[1::2]  # each frame time repeats mf in its x and m blocks
    first_moment = _comment_value(text, "first_moment")
    if not first_moment or len(mf) != len(first_moment):
        raise GateFailure("frames.csv lacks matching mf / first_moment comments")
    gap = max(abs(a - b) for a, b in zip(mf, first_moment))
    ledger.observe("err2", gate(gap, ROUTE_GAP_TOL, "frames.csv |first_moment - mf|"))


def run_cli_reference(api, inputs: dict, spec: dict, ledger: Ledger, step: Steps, ctx: dict):
    """In-process `arrowtime trace|frames|equiv|galapon`, CSVs into ctx["tmp"].

    Every CSV must come out byte-identical in every pass of a run; the first
    pass's digests are the reference (no fixed digest: documented roundoff
    changes to the bytes are allowed between commits).
    """
    tmp = ctx["tmp"]
    args = []
    if inputs["config"]:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inputs["config"], fh)
        args = ["--config", path]
    digests = ctx.setdefault("digests", {})
    ctx["csv_bytes"] = 0
    for i, command in enumerate(COMMANDS):
        out = os.path.join(tmp, f"{command}.csv")
        with step(f"step{i + 1}" if i < 3 else "other"):
            with ledger.op(f"arrowtime {command}"):
                code = api.main([command, "--out", out, *args])
                if code != 0:
                    raise GateFailure(f"exit code {code}")
        with ledger.op(f"check {command}.csv"):
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
            ctx["csv_bytes"] += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if digests.setdefault(command, digest) != digest:
                raise GateFailure(f"{command}.csv bytes differ from the first pass")
            if command == "trace":
                _gate_trace_csv(data.decode("ascii"), ledger)
            elif command == "frames":
                _gate_frames_csv(data.decode("ascii"), ledger)


def counts_cli_reference(spec: dict) -> dict:
    """Counts of the calls cli makes itself (trace and frames); the kernel
    work inside scattering.equivalence_defect is not seen from cli."""
    cfg = cli.RunConfig.from_dict(dict(spec["config"]))
    n = cfg.grid_n
    length = mrep.make_m_grid(states.default_packet_grid(PACKET, n), cfg.m_size).fft_length
    return {
        "kernel.pair_evals": n * (n - 1) * 2 * (cfg.t_count + len(cfg.frame_times)),
        "mrep.fft_points": length * 2 * len(cfg.frame_times),
    }


WORKLOADS = {
    "kernel_trace": (build_kernel_trace, run_kernel_trace, counts_kernel_trace),
    "cli_reference": (build_cli_reference, run_cli_reference, counts_cli_reference),
}

# hardy builds one oracle density per distinct state object in a pass
ORACLE_BUILDS = {
    "kernel_trace": lambda spec: 0,
    "cli_reference": lambda spec: 1,
}
