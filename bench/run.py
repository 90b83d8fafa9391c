"""arrowtime benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload kernel_trace --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --smoke

Run from anywhere; the library is imported from the `src/` next to this
directory and nowhere else.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones.  The line before it
names the same numbers per workload (see README.md); the first line records
the environment.  Exit code 0 means every operation passed its gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("kernel_trace", "cli_reference")

# One BLAS/OpenMP thread: steadier on a shared machine than one per core,
# and the plain single-threaded baseline a faster operator is judged against.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# The bounded timings are scaled to a reference host speed.  The development
# host (a 2-vCPU Xeon VM) runs identical work up to twice as slowly for tens
# of seconds to minutes at a time, and all kinds of work slow down together.
# A fixed reference computation that calls no arrowtime code is timed
# before and after every timed pass (and every set-up probe), and each pass
# is scaled by REFERENCE_S / (mean of the two reference times).  A change to
# the library moves the scaled time as much as the raw one; a slow spell of
# the host moves it much less.  The raw times are on the report line.
REFERENCE_S = 0.17  # the reference's median time on the development host
REFERENCE_SHOTS = 3


def reference_s(shots: int = REFERENCE_SHOTS) -> float:
    """Median time of a few reference computations."""
    return statistics.median(_reference_once() for _ in range(shots))


def _reference_once() -> float:
    """Time one reference computation: interpreter loop, complex exp, BLAS.

    Its three parts, about equally long, mirror what the workloads spend
    their time on: Python-level calls, exp of outer products with fresh
    temporaries (kernel, hardy) and matrix products (the Cauchy blocks).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    e, taus = np.linspace(0.01, 50.0, 2048), np.linspace(-5.0, 5.0, 512)
    z = rng.standard_normal(2048) + 0j
    a = rng.standard_normal((256, 256)) * 1e-2
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    z @ np.exp(1j * np.outer(e, taus))
    for _ in range(96):
        a @ a
    return time.perf_counter() - start


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: str(min(THREADS, _nproc())) for v in THREAD_VARS})
    return env


def _import_workloads():
    """Import the workload module (and with it numpy and arrowtime from SRC)."""
    if not (SRC / "arrowtime" / "__init__.py").is_file():
        raise SystemExit(f"error: no arrowtime sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    origin = Path(workloads.at.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: arrowtime imported from {origin}, not from {SRC}")
    return workloads


def _commit() -> str | None:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "arrowtime").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_probe(workload: str, size: str) -> float:
    """Import plus grid and state construction, in this fresh process."""
    start = time.perf_counter()
    wl = _import_workloads()
    build = wl.WORKLOADS[workload][0]
    build(_raw_api(wl), wl.SPECS[workload][size])
    return time.perf_counter() - start


def _raw_api(wl):
    return SimpleNamespace(**wl.FUNCTIONS)


def measure_setup(args, size: str) -> tuple[list[float], list[float]]:
    """Setup times over fresh interpreter processes, with the reference
    times before and after each (one more reference than probes)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
    if args.smoke:
        cmd.append("--smoke")
    times, refs = [], [reference_s(1)]
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        res = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=170)
        if res.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{res.stderr}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
        refs.append(reference_s(1))
    return times, refs


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by REFERENCE_S over the mean of the references
    taken just before and just after it."""
    return [t * REFERENCE_S / ((r0 + r1) / 2) for t, r0, r1 in zip(times, refs, refs[1:])]


class Runner:
    """Runs passes of one workload and keeps their timings."""

    def __init__(self, wl, workload: str, spec: dict, tmp: Path):
        self.wl = wl
        self.workload = workload
        self.spec = spec
        self.build, self.run, _ = wl.WORKLOADS[workload]
        self.ledger = wl.Ledger()
        self.ctx = {"tmp": str(tmp)}
        self.raw = _raw_api(wl)
        self.tracer = None

    def one_pass(self, traced: bool) -> dict:
        steps = self.wl.Steps()
        if traced:
            tr = self.tracer
            tr.pass_id += 1
            api = tr.api(self.wl.FUNCTIONS)
            patch = tr.patched(self.wl.cli) if self.workload == "cli_reference" else nullcontext()
            with tr.span("pass", "bench"), patch:
                start = time.perf_counter()
                self._pass(api, steps)
                wall = time.perf_counter() - start
            if "csv_bytes" in self.ctx:
                tr.add("cli.csv_bytes", self.ctx["csv_bytes"])
        else:
            start = time.perf_counter()
            self._pass(self.raw, steps)
            wall = time.perf_counter() - start
        return {"wall": wall, "steps": steps.seconds}

    def _pass(self, api, steps):
        inputs = None
        with self.ledger.op("build inputs"):
            inputs = self.build(api, self.spec)
        if inputs is not None:
            self.run(api, inputs, self.spec, self.ledger, steps, self.ctx)


def _until(seconds: float, done: list, minimum: int) -> bool:
    """Keep passing while fewer than `minimum` passes ran or another fits."""
    if len(done) < minimum:
        return True
    return sum(done) + statistics.median(done) <= seconds


def end_to_end(args, wl, runner: Runner, spec: dict) -> tuple[dict, dict]:
    if not args.smoke:
        runner.one_pass(traced=False)  # warm-up: first-call costs, lazy imports
    passes, walls, refs = [], [], [reference_s()]
    minimum = 1 if args.smoke else MIN_PASSES
    while _until(args.seconds, walls, minimum):
        p = runner.one_pass(traced=False)
        refs.append(reference_s())
        passes.append(p)
        walls.append(p["wall"])
    setups, setup_refs = measure_setup(args, "smoke" if args.smoke else "full")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    worst = runner.ledger.worst
    metrics = {
        "setup_s": (statistics.median(scaled(setups, setup_refs)), "s"),
        "norm_wall_s": (statistics.median(scaled(walls, refs)), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "err1": (worst.get("err1"), "1"),
        "err2": (worst.get("err2"), "1"),
    }
    err_names = dict(zip(("err1", "err2"), wl.ERR_NAMES[args.workload]))
    report = {err_names.get(k, k): {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for i, name in enumerate(wl.STEP_NAMES[args.workload]):
        step = statistics.median(p["steps"].get(f"step{i + 1}", 0.0) for p in passes)
        report[name] = {"value": step, "unit": "s"}
    report["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    report["raw_setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    report["reference_s"] = {"value": statistics.median(refs + setup_refs), "unit": "s"}
    report["passes"] = {"value": len(passes), "unit": "count"}
    report["pass_walls_s"] = walls
    report["pass_references_s"] = refs
    return metrics, report


def per_layer(args, wl, runner: Runner, spec: dict) -> tuple[dict, dict]:
    runner.tracer = tracing.Tracer()
    if not args.smoke:
        runner.one_pass(traced=False)  # warm-up
    plain, traced, rounds, summaries = [], [], [], []
    minimum = 1 if args.smoke else MIN_TRACED_PASSES
    while _until(args.seconds, rounds, minimum):
        plain.append(runner.one_pass(traced=False)["wall"])
        traced.append(runner.one_pass(traced=True)["wall"])
        rounds.append(plain[-1] + traced[-1])
        summaries.append(tracing.pass_summary(runner.tracer, runner.tracer.pass_id))
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(runner.tracer, OUT / f"spans-{args.workload}-seed{args.seed}.json")

    problems = []
    counts = [dict(runner.tracer.counts[i]) for i in range(len(summaries))]
    peaks = [dict(runner.tracer.peaks[i]) for i in range(len(summaries))]
    for key in ("kernel.pair_evals", "mrep.fft_points", "cli.csv_bytes"):
        seen = {c.get(key, 0.0) for c in counts}
        if len(seen) != 1:
            problems.append(f"{key} differs between passes: {sorted(seen)}")
    for key, expected in wl.WORKLOADS[args.workload][2](spec).items():
        if counts[0].get(key, 0.0) != expected:
            problems.append(f"{key} {counts[0].get(key, 0.0)} != {expected} from the spec")
    builds = {s["hardy.build.calls"] for s in summaries}
    if builds != {wl.ORACLE_BUILDS[args.workload](spec)}:
        problems.append(f"hardy.builds per pass {sorted(builds)} != distinct states per pass")
    for s in summaries:
        if abs(s["self_sum_s"] - s["pass_s"]) > 1e-6 * max(1.0, s["pass_s"]):
            problems.append(f"self times sum to {s['self_sum_s']} over a {s['pass_s']} s pass")

    med = lambda key: statistics.median(s.get(key, 0.0) for s in summaries)
    kernel_busy = sum(med(f"kernel.{k}.busy_s") for k in ("trace", "point", "apply"))
    pair_evals = counts[0].get("kernel.pair_evals", 0.0)
    plain_wall, traced_wall = statistics.median(plain), statistics.median(traced)
    m = {
        "kernel.pair_evals": (pair_evals, "count"),
        "kernel.pair_rate": (pair_evals / kernel_busy if kernel_busy > 0 else 0.0, "1/s"),
        "kernel.max_step": (max((p.get("kernel.max_step", 0.0) for p in peaks), default=0.0), "1"),
        "hardy.builds": (med("hardy.build.calls"), "count"),
        "hardy.build_s": (med("hardy.build.busy_s"), "s"),
        "hardy.eval.calls": (med("hardy.eval.calls"), "count"),
        "hardy.eval_s": (med("hardy.eval.busy_s"), "s"),
        "hardy.self_s": (med("hardy.build.self_s") + med("hardy.eval.self_s"), "s"),
        "mrep.fft_points": (counts[0].get("mrep.fft_points", 0.0), "count"),
        "mrep.parseval_defect": (max((p.get("mrep.parseval_defect", 0.0) for p in peaks), default=0.0), "1"),
        "cli.csv_bytes": (counts[0].get("cli.csv_bytes", 0.0), "B"),
        "bench.self_s": (med("bench.self_s"), "s"),
        "bench.wall_s": (plain_wall, "s"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.trace_overhead_s": (traced_wall - plain_wall, "s"),
        "bench.self_sum_s": (med("self_sum_s"), "s"),
    }
    for layer in ("grids", "states", "kernel.trace", "kernel.point", "kernel.apply",
                  "mrep", "scattering", "galapon", "cli"):
        m[f"{layer}.calls"] = (med(f"{layer}.calls"), "count")
        m[f"{layer}.busy_s"] = (med(f"{layer}.busy_s"), "s")
    for layer in ("grids", "states", "mrep", "scattering", "galapon", "cli"):
        m[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    m["kernel.self_s"] = (sum(med(f"kernel.{k}.self_s") for k in ("trace", "point", "apply")), "s")
    for command in wl.COMMANDS:
        m[f"cli.{command}_s"] = (med(f"cli.{command}_s"), "s")
    report = {
        "passes": {"value": len(traced), "unit": "count"},
        "pass_walls_s": {"plain": plain, "traced": traced},
        "problems": problems,
    }
    return m, report


def _environment(args, wl, spec: dict) -> dict:
    import numpy
    import scipy

    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "spec": spec,
    }


def run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(min(THREADS, _nproc()))
    wl = _import_workloads()
    size = "smoke" if args.smoke else "full"
    spec = wl.SPECS[args.workload][size]
    print(json.dumps({"environment": _environment(args, wl, spec)}), flush=True)

    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(wl, args.workload, spec, tmp)
        measure = per_layer if args.trace else end_to_end
        metrics, report = measure(args, wl, runner, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ledger = runner.ledger
    problems = report.pop("problems", [])
    for msg in ledger.errors + problems:
        print(f"FAIL {msg}", file=sys.stderr)
    report["fail_ratio"] = {"value": ledger.failed / max(ledger.attempted, 1), "unit": "1"}
    report["observed"] = ledger.worst
    print(json.dumps({"workload": args.workload, "report": report}), flush=True)
    correct = ledger.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        res = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=900)
        sys.stderr.write(res.stderr)
        for line in res.stdout.splitlines():
            print(line)
        worst = max(worst, res.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, one timed pass")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(setup_probe(args.workload, "smoke" if args.smoke else "full"))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
