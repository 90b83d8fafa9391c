"""Command-line front end: expectation traces, density frames, invariant suite,
scattering equivalence, and the discrete time-operator witness, all as CSV.

Every emitted file begins with a comment header echoing the fully resolved
configuration as JSON, so outputs are reproducible byte for byte from the
header alone.  Times are in units of inverse mass (mu = 1 internally).

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .checks import run_checks
from .galapon import galapon_T, level_correspondence, lyapunov_violation_witness
from .grids import EnergyGrid, UncoveredGridError, UnderresolvedGridError, make_energy_grid
from .hardy import mf_expectation_oracle
from .kernel import MonotonicityError, lyapunov_trace, mf_expectation
from .mrep import make_m_grid, to_m_representation
from .scattering import asymptotic_overlap, delta_model, equivalence_defect
from .states import (
    PROFILE_COVERAGE,
    PROFILE_ENERGY_RANGE,
    GaussianPacketParams,
    evolve,
    exponential_profile,
    gaussian_channel_state,
    gaussian_position_density,
)

__all__ = ["RunConfig", "ConfigError", "main"]


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


@dataclass
class RunConfig:
    """Resolved run configuration; JSON config files use exactly these keys."""

    experiment: str = "gaussian"  # gaussian | exponential
    mu: float = 1.0
    p0: float = 6.4
    xi0: float = 3.0
    e_min: float | None = None  # None: derived from the experiment
    e_max: float | None = None
    grid_n: int = 4096
    spacing: str = "logarithmic"
    t0: float = -0.5
    t1: float = 0.5
    t_count: int = 201
    frame_times: tuple[float, ...] = (-0.3, -0.05, 0.0, 0.05, 0.3)
    x_span: float = 8.0
    x_count: int = 801
    m_size: int = 131072
    m_emit_floor: float = 1e-9
    lambdas: tuple[float, ...] = (0.0, 1.0, 2.0)
    # equiv_t0/equiv_t1/equiv_t_count are read by no command; they stay so
    # that existing config files load and every CSV header keeps its bytes
    equiv_t0: float = -0.3
    equiv_t1: float = 0.3
    equiv_t_count: int = 11
    overlap_times: tuple[float, ...] = (-5.0, -10.0, -20.0, -50.0)
    gal_energies: tuple[float, ...] = (0.0, 1.0)
    gal_t0: float = 0.0
    gal_t1: float = 6.283185307179586
    gal_t_count: int = 129
    seed: int = 20260808
    out: str | None = None

    def validate(self, command: str | None = None):
        """Reject bad values; `command` adds the checks that command needs."""
        if self.experiment not in ("gaussian", "exponential"):
            raise ConfigError("experiment", "must be 'gaussian' or 'exponential'")
        if command in ("frames", "equiv") and self.experiment != "gaussian":
            raise ConfigError("experiment", f"{command} is defined for the gaussian experiment")
        if self.mu <= 0:
            raise ConfigError("mu", "must be positive")
        if self.xi0 <= 0:
            raise ConfigError("xi0", "must be positive")
        if self.spacing not in ("logarithmic", "linear"):
            raise ConfigError("spacing", "must be 'logarithmic' or 'linear'")
        if command == "frames" and self.spacing != "logarithmic":
            raise ConfigError("spacing", "frames needs a logarithmic grid for the m-lattice")
        if self.grid_n < 8:
            raise ConfigError("grid_n", "needs at least 8 nodes")
        if self.t_count < 0:
            raise ConfigError("t_count", "must be nonnegative")
        if self.t_count >= 2 and not self.t1 > self.t0:
            raise ConfigError("t1", "must exceed t0")
        if self.e_min is not None and self.e_max is not None and self.e_max <= self.e_min:
            raise ConfigError("e_max", "must exceed e_min")
        e_min, e_max = self.energy_range()
        if not 0.0 < e_min < e_max:
            raise ConfigError("e_min", f"resolved [{e_min:g}, {e_max:g}] needs 0 < e_min < e_max")
        lo, hi = PROFILE_COVERAGE
        if self.experiment == "exponential" and (e_min > lo or e_max < hi):
            name = "e_min" if e_min > lo else "e_max"
            raise ConfigError(name, f"the exponential profile needs [{lo:g}, {hi:g}] in range")
        if self.m_size < 2 * self.grid_n:
            raise ConfigError("m_size", "must be at least twice grid_n")
        if not (0.0 < self.m_emit_floor < 0.5):
            raise ConfigError("m_emit_floor", "must lie in (0, 0.5)")
        if any(lam < 0 for lam in self.lambdas):
            raise ConfigError("lambdas", "couplings must be nonnegative")
        if any(t >= 0 for t in self.overlap_times):
            raise ConfigError("overlap_times", "overlaps are taken at negative times")
        if self.equiv_t_count < 1:
            raise ConfigError("equiv_t_count", "must be positive")
        if self.gal_t_count < 2:
            raise ConfigError("gal_t_count", "needs at least two samples")
        if len(self.gal_energies) < 2 or len(set(self.gal_energies)) != len(self.gal_energies):
            raise ConfigError("gal_energies", "needs at least two distinct levels")
        if self.x_count < 2:
            raise ConfigError("x_count", "needs at least two samples")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Config from JSON data, checking keys and types; validate() checks values."""
        kinds = {f.name: f.type for f in fields(cls)}
        for key, value in data.items():
            if key not in kinds:
                raise ConfigError(key, "unknown configuration key")
            if not _has_kind(value, kinds[key]):
                raise ConfigError(key, f"expected {kinds[key]}, got {json.dumps(value)}")
        lists = {k: tuple(v) for k, v in data.items() if isinstance(v, list)}
        return cls(**{**data, **lists})

    def resolved(self) -> dict:
        return asdict(self)

    def energy_range(self) -> tuple[float, float]:
        """(e_min, e_max) with unset ends taken from the experiment's default range."""
        gaussian = self.experiment == "gaussian"
        lo, hi = _packet_params(self).energy_range if gaussian else PROFILE_ENERGY_RANGE
        return (lo if self.e_min is None else self.e_min, hi if self.e_max is None else self.e_max)


def _has_kind(value, kind: str) -> bool:
    """Whether a JSON value fits a RunConfig annotation; a tuple is a list of
    numbers, and NaN or an infinity (which json accepts) fits nothing."""
    if value is None or isinstance(value, bool):
        return value is None and kind.endswith("| None")
    if kind.startswith("tuple"):
        return isinstance(value, list) and all(_has_kind(v, "float") for v in value)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, {"str": str, "int": int, "float": (int, float)}[kind.split(" |")[0]])


def _packet_params(cfg: RunConfig) -> GaussianPacketParams:
    return GaussianPacketParams(cfg.p0, cfg.xi0, cfg.mu)


def _build_grid(cfg: RunConfig) -> EnergyGrid:
    return make_energy_grid(*cfg.energy_range(), cfg.grid_n, cfg.spacing)


def _build_state(cfg: RunConfig):
    grid = _build_grid(cfg)
    if cfg.experiment == "exponential":
        return exponential_profile(grid)
    try:
        return gaussian_channel_state(_packet_params(cfg), grid)
    except UnderresolvedGridError as exc:
        raise ConfigError("grid_n", str(exc)) from exc
    except UncoveredGridError as exc:
        raise ConfigError("e_max", str(exc)) from exc


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _Emitter:
    def __init__(self, cfg: RunConfig, command: str):
        self.lines = [
            f"# command: {command}",
            f"# config: {json.dumps(cfg.resolved(), sort_keys=True)}",
        ]

    def comment(self, text: str):
        self.lines.append(f"# {text}")

    def header(self, *names: str):
        self.lines.append(",".join(names))

    def row(self, *values: float):
        self.lines.append(",".join(_fmt(float(v)) for v in values))

    def write(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(self.lines) + "\n")


def cmd_trace(cfg: RunConfig, out_path: str) -> int:
    state = _build_state(cfg)
    emitter = _Emitter(cfg, "trace")
    emitter.comment(f"norm_squared: {_fmt(state.norm_squared())}")
    emitter.header("t", "mf", "mb", "mf_oracle")
    times = np.linspace(cfg.t0, cfg.t1, cfg.t_count) if cfg.t_count else np.array([])
    if times.size:
        try:
            trace = lyapunov_trace(state, times)
        except MonotonicityError as exc:
            print(f"invariant failure: {exc}", file=sys.stderr)
            return 1
        oracle = mf_expectation_oracle(state, times)
        for row in zip(times, trace.mf_values, trace.mb_values, oracle):
            emitter.row(*row)
    emitter.write(out_path)
    return 0


def cmd_frames(cfg: RunConfig, out_path: str) -> int:
    state = _build_state(cfg)
    params = _packet_params(cfg)
    mgrid = make_m_grid(state.grid, cfg.m_size)
    emitter = _Emitter(cfg, "frames")
    m = mgrid.m_nodes
    emit = np.nonzero((m >= cfg.m_emit_floor) & (m <= 1.0 - cfg.m_emit_floor))[0]
    x = np.linspace(-cfg.x_span, cfg.x_span, cfg.x_count)
    for t in cfg.frame_times:
        mf_val = mf_expectation(state, float(t))
        emitter.comment(f"block: x t={_fmt(t)}")
        emitter.comment(f"mf: {_fmt(mf_val)}")
        emitter.header("x", "density_x")
        dens_x = gaussian_position_density(params, x, float(t))
        for xi, di in zip(x, dens_x):
            emitter.row(xi, di)
        dist = to_m_representation(evolve(state, float(t)), mgrid)
        dens_sum, dens_ch = dist.density_m()
        emitter.comment(f"block: m t={_fmt(t)}")
        emitter.comment(f"mf: {_fmt(mf_val)}")
        emitter.comment(f"first_moment: {_fmt(dist.first_moment())}")
        emitter.header("m", "nu", "density_m", "density_plus", "density_minus")
        for idx in emit:
            emitter.row(
                mgrid.m_nodes[idx],
                mgrid.nu_nodes[idx],
                dens_sum[idx],
                dens_ch[0][idx],
                dens_ch[1][idx],
            )
    emitter.write(out_path)
    return 0


def cmd_check(cfg: RunConfig, name_filter: str | None, fault: str | None) -> int:
    results = run_checks(name_filter, seed=cfg.seed, fault=fault)
    if not results:
        raise ConfigError("filter", f"no check name contains {name_filter!r}")
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  [{r.seconds:7.2f}s]  {r.detail}")
        if not r.passed:
            failed.append(r.name)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_equiv(cfg: RunConfig, out_path: str) -> int:
    state = _build_state(cfg)
    emitter = _Emitter(cfg, "equiv")
    emitter.header("lambda", "max_defect", "t", "overlap")
    models = [delta_model(float(lam), cfg.mu) for lam in cfg.lambdas]
    overlaps = asymptotic_overlap(state, models, cfg.overlap_times)
    for lam, model, row in zip(cfg.lambdas, models, overlaps):
        defect = equivalence_defect(state, model)
        for t, overlap in zip(cfg.overlap_times, row):
            emitter.row(lam, defect, t, overlap)
    emitter.write(out_path)
    return 0


def cmd_galapon(cfg: RunConfig, out_path: str) -> int:
    energies = np.asarray(cfg.gal_energies, dtype=float)
    op = galapon_T(energies)
    coeff = np.ones(energies.size, dtype=complex) / np.sqrt(energies.size)
    times = np.linspace(cfg.gal_t0, cfg.gal_t1, cfg.gal_t_count)
    witness = lyapunov_violation_witness(op, coeff, times)

    factor, dev = level_correspondence(np.linspace(1.0, 2.0, 9))

    emitter = _Emitter(cfg, "galapon")
    emitter.comment(f"non_monotone: {str(witness.non_monotone).lower()}")
    emitter.comment(f"proportionality_factor: {_fmt(factor)}")
    emitter.comment(f"proportionality_deviation: {_fmt(dev)}")
    emitter.header("t", "expectation")
    for t, v in zip(witness.times, witness.values):
        emitter.row(t, v)
    emitter.write(out_path)
    return 0


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return RunConfig.from_dict(data)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrowtime",
        description="Arrow-of-time operator diagnostics as CSV data "
        "(times in units of inverse mass).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("trace", "forward/backward expectation trace of the configured state"),
        ("frames", "position and eigenvalue density frames at the configured times"),
        ("check", "run the invariant suite and print a pass/fail table"),
        ("equiv", "scattering equivalence defects and asymptotic overlaps"),
        ("galapon", "discrete time-operator witness trace and correspondence"),
    ):
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", help="JSON file with RunConfig keys")
        cmd.add_argument("--out", help="output CSV path")
        cmd.add_argument("--seed", type=int, help="override the configured seed")
        cmd.add_argument("--grid-n", type=int, dest="grid_n", help="override grid_n")
        if name == "check":
            cmd.add_argument("--filter", help="run only checks whose name contains this")
            cmd.add_argument(
                "--inject-fault",
                dest="fault",
                choices=("kernel-antisymmetry",),
                help="test hook: corrupt a named subsystem",
            )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.grid_n is not None:
            cfg.grid_n = args.grid_n
        cfg.validate(args.command)
        out = args.out or cfg.out or f"arrowtime_{args.command}.csv"
        if args.command == "trace":
            return cmd_trace(cfg, out)
        if args.command == "frames":
            return cmd_frames(cfg, out)
        if args.command == "check":
            return cmd_check(cfg, getattr(args, "filter", None), getattr(args, "fault", None))
        if args.command == "equiv":
            return cmd_equiv(cfg, out)
        if args.command == "galapon":
            return cmd_galapon(cfg, out)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
