"""The benchmark's smoke mode runs every workload and prints a valid result."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())

# per-workload names on the report line (README.md, "End-to-end metrics")
REPORTED = {
    "kernel_trace": ("trace.small_n_s", "trace.large_n_s", "eigen_s", "err_arctan_kernel", "eigen_residual"),
    "cli_reference": ("cmd.trace_s", "cmd.frames_s", "cmd.equiv_s", "route_gap", "route_gap_frames"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_reports_every_metric(workload, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]

    report = json.loads(lines[-2])
    assert report["workload"] == workload
    assert report["report"]["fail_ratio"]["value"] == 0
    if not trace:
        for name in ("setup_s", "wall_s", "peak_rss_mb") + REPORTED[workload]:
            assert report["report"][name]["value"] > 0, name

    env = json.loads(lines[0])["environment"]
    assert env["seed"] == 7 and env["nproc"] >= 1 and env["spec"]
