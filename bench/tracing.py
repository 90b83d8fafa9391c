"""In-memory spans and per-layer counters for the traced benchmark run.

Layers are measured from outside the library: the workloads call arrowtime's
public functions through the namespace `Tracer.api` builds, and in a traced
pass every entry of that namespace records a span around the real call.  The
only names patched inside the package are the ones `arrowtime.cli` imports,
and only while a traced cli_reference pass runs (`Tracer.patched`).

A span is (name, layer, start, end, parent, pass id).  A span's self time is
its length minus the time its direct children cover, so the self times of
one pass sum to the length of that pass's root span.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

# Functions whose layer is not the module that defines them: the default
# grid helpers build EnergyGrids, so they belong to `grids`; the kernel entry
# points are split by how they use the Cauchy operator (many time columns,
# one time column, one plain vector).
LAYER_OF = {
    "default_packet_grid": "grids",
    "default_profile_grid": "grids",
    "default_spectral_grid": "grids",
    "lyapunov_trace": "kernel.trace",
    "mf_expectation": "kernel.point",
    "build_kernel": "kernel.apply",
}

# Categories reported as `<category>.calls / .busy_s / .self_s`.
CATEGORIES = (
    "grids",
    "states",
    "kernel.trace",
    "kernel.point",
    "kernel.apply",
    "hardy.build",
    "hardy.eval",
    "mrep",
    "scattering",
    "galapon",
    "cli",
    "bench",
)


def _pairs(n: int, columns: int) -> int:
    """Off-diagonal Cauchy pair evaluations of one dense apply (computed)."""
    return n * (n - 1) * columns


def _layer_of(fn) -> str:
    return LAYER_OF.get(fn.__name__, fn.__module__.rsplit(".", 1)[-1])


class Tracer:
    """Records spans and counters; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: dict[int, dict[str, float]] = defaultdict(dict)
        self._oracle_states = weakref.WeakSet()

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        rec = [name, layer, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, value: float):
        self.counts[self.pass_id][key] += value

    def peak(self, key: str, value: float):
        cur = self.peaks[self.pass_id].get(key)
        self.peaks[self.pass_id][key] = value if cur is None else max(cur, value)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, layer: str | None = None):
        """Return `fn` recording a span per call plus its computed counters."""
        name = fn.__name__
        layer = layer or _layer_of(fn)
        count = getattr(self, f"_count_{name}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_layer = layer
            if name == "mf_expectation_oracle":
                # the first call on a state object builds its oracle density
                state = args[0]
                span_layer = "hardy.eval" if state in self._oracle_states else "hardy.build"
                self._oracle_states.add(state)
            span_name = name
            if name == "main":
                span_name = args[0][0]  # the cli command
            with self.span(span_name, span_layer):
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span("count", "bench"):
                    count(result, *args, **kwargs)
            return result

        return traced

    def api(self, functions: dict) -> SimpleNamespace:
        """Traced `functions`; a traced build_kernel hands out kernels whose
        `apply` is traced too, so the apply inside eigen_residual shows."""
        api = SimpleNamespace(**{k: self.wrap(f) for k, f in functions.items()})
        if "build_kernel" in functions:
            build = api.build_kernel
            api.build_kernel = functools.wraps(build)(
                lambda *args, **kwargs: TracedKernel(build(*args, **kwargs), self)
            )
        return api

    @contextmanager
    def patched(self, module):
        """Wrap, for the duration of the block, every arrowtime function
        `module` imported from a sibling module."""
        own = module.__name__
        saved = {
            k: v
            for k, v in vars(module).items()
            if inspect.isfunction(v) and v.__module__.startswith("arrowtime.") and v.__module__ != own
        }
        for k, v in saved.items():
            setattr(module, k, self.wrap(v))
        try:
            yield
        finally:
            for k, v in saved.items():
                setattr(module, k, v)

    # -- computed counters ---------------------------------------------------

    def _count_lyapunov_trace(self, result, state, times):
        self.add("kernel.pair_evals", _pairs(state.grid.n, len(result.times) * len(state.channels)))
        steps = result.mf_values[1:] - result.mf_values[:-1]
        if steps.size:
            self.peak("kernel.max_step", float(steps.max()))

    def _count_mf_expectation(self, result, state, t):
        self.add("kernel.pair_evals", _pairs(state.grid.n, len(state.channels)))

    def _count_build_kernel(self, result, grid, orientation="forward"):
        self.add("kernel.pair_evals", _pairs(grid.n, 1))

    def _count_apply(self, result, amplitudes):
        self.add("kernel.pair_evals", _pairs(len(amplitudes), 1))

    def _count_to_m_representation(self, result, state, mgrid=None):
        self.add("mrep.fft_points", result.mgrid.fft_length * len(result.channels))
        self.peak("mrep.parseval_defect", abs(result.norm_squared() - state.norm_squared()))

    def _count_mf_expectation_via_m(self, result, state, t, mgrid):
        self.add("mrep.fft_points", mgrid.fft_length * len(state.channels))


class TracedKernel:
    """A SingularKernel whose `apply` records kernel.apply spans."""

    def __init__(self, kernel, tracer: Tracer):
        self._kernel = kernel
        self.apply = tracer.wrap(kernel.apply, "kernel.apply")

    def __getattr__(self, name):
        return getattr(self._kernel, name)



def pass_summary(tracer: Tracer, pass_id: int) -> dict:
    """Calls, busy and self seconds per category for one traced pass."""
    ids = [i for i, s in enumerate(tracer.spans) if s[5] == pass_id]
    covered = defaultdict(float)
    for i in ids:
        s = tracer.spans[i]
        if s[4] >= 0:
            covered[s[4]] += s[3] - s[2]
    out = defaultdict(float, {f"{c}.{k}": 0.0 for c in CATEGORIES for k in ("calls", "busy_s", "self_s")})
    layers = set(CATEGORIES)
    for i in ids:
        name, layer, start, end, parent, _ = tracer.spans[i]
        if name == "count":
            out["bench.self_s"] += end - start
            continue
        layers.add(layer)
        out[f"{layer}.calls"] += 1
        out[f"{layer}.busy_s"] += end - start
        out[f"{layer}.self_s"] += (end - start) - covered[i]
        if layer == "cli":
            out[f"cli.{name}_s"] += end - start
    root = next(tracer.spans[i] for i in ids if tracer.spans[i][4] < 0)
    out["pass_s"] = root[3] - root[2]
    out["self_sum_s"] = sum(out[f"{c}.self_s"] for c in layers)
    return dict(out)


def write_spans(tracer: Tracer, path):
    keys = ("name", "layer", "start", "end", "parent", "pass")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dict(zip(keys, s)) for s in tracer.spans], fh)
