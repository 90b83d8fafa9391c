import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import arrowtime
from arrowtime import checks, cli
from arrowtime.cli import main
from conftest import arctan_trace


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


def read_blocks(path):
    """Split an emitted CSV into comment lines and data rows."""
    comments, rows = [], []
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("#"):
            comments.append(line)
        elif line:
            rows.append(line)
    return comments, rows


def test_trace_exponential_matches_closed_form(tmp_path):
    cfg = write_config(
        tmp_path, experiment="exponential", t0=-2.0, t1=2.0, t_count=9, grid_n=4096
    )
    out = str(tmp_path / "trace.csv")
    assert main(["trace", "--config", cfg, "--out", out]) == 0
    comments, rows = read_blocks(out)
    assert rows[0] == "t,mf,mb,mf_oracle"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape == (9, 4)
    exact = arctan_trace(data[:, 0])
    assert np.max(np.abs(data[:, 1] - exact)) < 2e-4
    assert np.max(np.abs(data[:, 3] - exact)) < 1e-4
    assert np.all(np.diff(data[:, 1]) < 0.0)


def test_trace_gaussian_default_monotone(tmp_path):
    cfg = write_config(tmp_path, t_count=21, grid_n=1024)
    out = str(tmp_path / "trace.csv")
    assert main(["trace", "--config", cfg, "--out", out]) == 0
    _, rows = read_blocks(out)
    mf = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(mf) < 0.0)


def test_trace_zero_count_emits_header_only(tmp_path):
    cfg = write_config(tmp_path, experiment="exponential", t_count=0, grid_n=512)
    out = str(tmp_path / "trace.csv")
    assert main(["trace", "--config", cfg, "--out", out]) == 0
    _, rows = read_blocks(out)
    assert rows == ["t,mf,mb,mf_oracle"]


def test_trace_deterministic(tmp_path):
    cfg = write_config(tmp_path, experiment="exponential", t_count=5, grid_n=512)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["trace", "--config", cfg, "--out", out1]) == 0
    assert main(["trace", "--config", cfg, "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def test_config_error_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, grid_n=4)
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "grid_n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["frames", "equiv"])
def test_gaussian_only_command_rejects_exponential_before_work(
    tmp_path, capsys, monkeypatch, command
):
    def no_work(cfg):
        raise AssertionError("state built before the config was checked")

    monkeypatch.setattr(cli, "_build_state", no_work)
    cfg = write_config(tmp_path, experiment="exponential")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "experiment" in capsys.readouterr().err


def test_frames_rejects_linear_spacing_before_work(tmp_path, capsys, monkeypatch):
    def no_work(cfg):
        raise AssertionError("state built before the config was checked")

    monkeypatch.setattr(cli, "_build_state", no_work)
    cfg = write_config(tmp_path, spacing="linear")
    assert main(["frames", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "spacing" in capsys.readouterr().err


def test_too_coarse_grid_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, spacing="linear", grid_n=1024)
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "grid_n" in err and "too coarse" in err


def test_uncovered_energy_range_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, e_max=1000.0, t_count=3, grid_n=512)
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "e_max" in err and "coverage" in err


@pytest.mark.parametrize("overrides", [{"p0": 0.0}, {"e_min": 300.0}])
def test_uncovered_resolved_range_is_a_config_error(tmp_path, capsys, monkeypatch, overrides):
    # the default e_min is 0 when p0 = 0, and e_min = 300 lies above the default e_max
    monkeypatch.setattr(cli, "_build_state", lambda cfg: pytest.fail("work started"))
    cfg = write_config(tmp_path, t_count=3, grid_n=512, **overrides)
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "config field 'e_min'" in err and "needs 0 < e_min < e_max" in err


@pytest.mark.parametrize(
    "command, overrides, field_name",
    [
        ("equiv", {"overlap_times": [0.5]}, "overlap_times"),
        ("equiv", {"overlap_times": [-5.0, 0.0]}, "overlap_times"),
        ("trace", {"experiment": "exponential", "e_max": 30}, "e_max"),
        ("trace", {"experiment": "exponential", "e_min": 0.001}, "e_min"),
        *[(c, {"grid_n": "512"}, "grid_n") for c in ("trace", "frames", "equiv", "galapon")],
        *[(c, {"lambdas": 1.0}, "lambdas") for c in ("trace", "frames", "equiv", "galapon")],
        *[(c, {"grid_n": 4096.5}, "grid_n") for c in ("trace", "frames", "equiv")],
        ("trace", {"t_count": 2.0}, "t_count"),
        ("frames", {"x_count": 2.5}, "x_count"),
        # json reads NaN and Infinity as floats
        ("trace", {"t1": float("inf"), "grid_n": 1024, "t_count": 5}, "t1"),
        *[(c, {"xi0": float("inf")}, "xi0") for c in ("trace", "frames", "equiv")],
        ("equiv", {"overlap_times": [float("nan")]}, "overlap_times"),
        ("frames", {"frame_times": [float("nan")]}, "frame_times"),
    ],
)
def test_bad_config_value_is_rejected_before_work(
    tmp_path, capsys, monkeypatch, command, overrides, field_name
):
    monkeypatch.setattr(cli, "_build_state", lambda cfg: pytest.fail("work started"))
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert f"config field '{field_name}'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, grid_m=4096)
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "grid_m" in capsys.readouterr().err


def test_grid_n_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, experiment="exponential", t_count=3, grid_n=512)
    out = str(tmp_path / "trace.csv")
    assert main(["trace", "--config", cfg, "--out", out, "--grid-n", "256"]) == 0
    comments, _ = read_blocks(out)
    assert '"grid_n": 256' in comments[1]


@pytest.mark.parametrize("config_n, flag_n", [(4, "512"), (512, "4")])
def test_config_is_validated_after_overrides(tmp_path, capsys, config_n, flag_n):
    cfg = write_config(tmp_path, experiment="exponential", t_count=3, grid_n=config_n)
    out = tmp_path / "trace.csv"
    code = main(["trace", "--config", cfg, "--out", str(out), "--grid-n", flag_n])
    assert code == (0 if flag_n == "512" else 2)
    assert out.exists() == (code == 0)
    assert ("config field 'grid_n'" in capsys.readouterr().err) == (code == 2)


def test_frames_blocks_and_cross_checks(tmp_path):
    cfg = write_config(tmp_path, grid_n=1024, m_size=8192, x_count=801)
    out = str(tmp_path / "frames.csv")
    assert main(["frames", "--config", cfg, "--out", out]) == 0
    comments, rows = read_blocks(out)
    x_blocks = [c for c in comments if c.startswith("# block: x")]
    m_blocks = [c for c in comments if c.startswith("# block: m")]
    assert len(x_blocks) == 5 and len(m_blocks) == 5
    for expected_t in (-0.3, -0.05, 0.0, 0.05, 0.3):
        assert any(f"t={expected_t:.17g}" in c for c in x_blocks)
    mfs = [float(c.split(":")[1]) for c in comments if c.startswith("# mf:")]
    moments = [float(c.split(":")[1]) for c in comments if c.startswith("# first_moment:")]
    assert len(moments) == 5
    # the mf comment appears once per block pair; compare each first moment
    for mf, moment in zip(mfs[1::2], moments):
        assert abs(mf - moment) < 1e-3

    # x-block normalization per frame
    rows_iter = iter(rows)
    header = next(rows_iter)
    assert header == "x,density_x"
    x, dens = [], []
    for r in rows_iter:
        if r == "m,nu,density_m,density_plus,density_minus":
            break
        xi, di = map(float, r.split(","))
        x.append(xi)
        dens.append(di)
    total = np.trapezoid(dens, x)
    assert abs(total - 1.0) < 1e-6


def test_frames_mass_migrates_toward_small_m(tmp_path):
    cfg = write_config(tmp_path, grid_n=1024, m_size=8192)
    out = str(tmp_path / "frames.csv")
    assert main(["frames", "--config", cfg, "--out", out]) == 0
    comments, _ = read_blocks(out)
    moments = [float(c.split(":")[1]) for c in comments if c.startswith("# first_moment:")]
    assert moments[-1] < moments[0]  # t = +0.3 vs t = -0.3


def test_equiv_free_coupling_exact(tmp_path):
    cfg = write_config(
        tmp_path, grid_n=1024, lambdas=[0.0], overlap_times=[-5.0], equiv_t_count=3
    )
    out = str(tmp_path / "equiv.csv")
    assert main(["equiv", "--config", cfg, "--out", out]) == 0
    _, rows = read_blocks(out)
    assert rows[0] == "lambda,max_defect,t,overlap"
    lam, defect, t, overlap = map(float, rows[1].split(","))
    assert defect == 0.0
    assert abs(overlap - 1.0) < 1e-10


def test_galapon_command_trace(tmp_path):
    out = str(tmp_path / "gal.csv")
    assert main(["galapon", "--out", out]) == 0
    comments, rows = read_blocks(out)
    assert "# non_monotone: true" in comments
    dev = [float(c.split(":")[1]) for c in comments if c.startswith("# proportionality_deviation")]
    assert dev[0] < 1e-12
    factor = [float(c.split(":")[1]) for c in comments if c.startswith("# proportionality_factor")]
    assert arrowtime.level_correspondence(np.linspace(1.0, 2.0, 9)) == (factor[0], dev[0])
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.max(np.abs(data[:, 1] + np.sin(data[:, 0]))) < 1e-12


def stub_checks(monkeypatch):
    """Replace the registry with checks that record which ones ran and yield
    one passing margin; the real checks run once per session in the
    `registry` fixture."""
    ran = []

    def stub(name):
        ran.append(name)
        yield checks.Margin("stub defect", 0.0, 1.0)

    stubs = [(name, lambda ctx, name=name: stub(name)) for name in checks.check_names()]
    monkeypatch.setattr(checks, "_CHECKS", stubs)
    return ran


def test_check_subcommand_filtered(capsys, monkeypatch):
    ran = stub_checks(monkeypatch)
    assert main(["check", "--filter", "galapon"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS  galapon.witness")
    assert lines[0].endswith("stub defect 0 < 1")
    assert ran == ["galapon.witness", "galapon.proportionality"]


def test_check_filter_matching_nothing_is_a_config_error(capsys, monkeypatch):
    ran = stub_checks(monkeypatch)
    assert main(["check", "--filter", "nomatch"]) == 2
    assert "filter" in capsys.readouterr().err
    assert ran == []


def test_check_fault_injection_fails_antisymmetry(capsys):
    code = main(
        ["check", "--filter", "antisymmetry", "--inject-fault", "kernel-antisymmetry"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL  arrow_operator.antisymmetry" in captured.out
    assert "reality defect" in captured.out


def test_check_rejects_unknown_fault(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--filter", "galapon", "--inject-fault", "bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_run_checks_filter_names(monkeypatch):
    assert any(n.startswith("hardy.") for n in checks.check_names())
    ran = stub_checks(monkeypatch)
    results = checks.run_checks("galapon")
    assert results and all(r.name.startswith("galapon") for r in results)
    assert ran == [r.name for r in results]


def test_run_checks_fails_a_check_that_measures_nothing_or_raises(monkeypatch):
    def broken(ctx):
        yield checks.Margin("defect", 0.0, 1.0)
        raise RuntimeError("operator broke")

    monkeypatch.setattr(checks, "_CHECKS", [("empty", lambda ctx: iter(())), ("raises", broken)])
    empty, raised = checks.run_checks()
    assert not empty.passed and empty.detail == "measured nothing"
    assert not raised.passed and raised.detail == "operator broke"


def _nan_on_call(fn, k):
    """`fn`, except that its k-th call returns NaN values."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        out = fn(*args)
        if len(calls) != k:
            return out
        return replace(out, values=out.values * np.nan) if hasattr(out, "values") else out * np.nan

    return wrapped


@pytest.mark.parametrize(
    "name, route, call",
    [
        ("hardy.oracle_agreement", "mf_expectation_oracle", 2),
        ("m_transform.parseval", "to_m_representation", 2),
        ("m_transform.triangulation", "mf_expectation_oracle", 2),
        # call 4: the second channel of the second state
        ("arrow_operator.antisymmetry", "cauchy_apply", 4),
    ],
)
def test_nan_from_the_second_state_fails_the_check(monkeypatch, name, route, call):
    monkeypatch.setattr(checks, route, _nan_on_call(getattr(checks, route), call))
    (result,) = checks.run_checks(name)
    assert not result.passed and "nan" in result.detail


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, experiment="exponential", t_count=0, grid_n=512)
    out = str(tmp_path / "trace.csv")
    assert main(["trace", "--config", cfg, "--out", out, "--seed", "777"]) == 0
    comments, _ = read_blocks(out)
    assert '"seed": 777' in comments[1]


# the benchmark's smoke config for its cli_reference workload
SMOKE_CONFIG = {
    "grid_n": 1024,
    "t_count": 21,
    "m_size": 8192,
    "x_count": 101,
    "equiv_t_count": 3,
    "lambdas": [0.0, 1.0],
    "overlap_times": [-5.0],
}

NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import arrowtime.checks
from arrowtime.cli import main
config, out = sys.argv[1], sys.argv[2]
for command in ("trace", "frames", "equiv", "galapon"):
    code = main([command, "--config", config, "--out", f"{out}/{command}.csv"])
    assert code == 0, (command, code)
loaded = [name for name, mod in sys.modules.items() if name.startswith("scipy") and mod]
assert not loaded, loaded
"""


def test_commands_run_without_scipy(tmp_path):
    cfg = write_config(tmp_path, **SMOKE_CONFIG)
    src = str(Path(arrowtime.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, cfg, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    for command in ("trace", "frames", "equiv", "galapon"):
        assert (tmp_path / f"{command}.csv").stat().st_size > 0
