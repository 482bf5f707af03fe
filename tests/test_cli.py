"""Command-line interface and experiment artifacts."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from mfcontrol import PolicyField, experiments, field_from_csv, simulate
from mfcontrol.cli import main
from mfcontrol.config import RunConfig
from mfcontrol.experiments import (
    SweepResult,
    robustness_sweep,
    sparsity_report,
    sparsity_to_csv,
)


def _cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


TINY = (
    "problem = portfolio\n"
    "grid.cells = 10\n"
    "grid.time_steps = 10\n"
    "particles = 200\n"
    "iterations = 2\n"
)


def test_run_writes_artifacts(tmp_path):
    cfg = _cfg(tmp_path, TINY + f"output = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "m,J,stderr,grad_norm,wall_ms"
    assert len(report) == 4
    payload = json.loads((out / "report.json").read_text())
    assert payload["problem"] == "portfolio"
    assert payload["settings"]["config"]["grid.cells"] == "10"
    policy = field_from_csv(out / "policy_phi.csv", policy=True)
    assert policy.grid.nodes == (11, 11)


def test_run_method_and_output_overrides(tmp_path):
    cfg = _cfg(tmp_path, TINY)
    out = tmp_path / "alt"
    assert main(["run", cfg, "--method", "emreg", "--output", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["method"] == "emreg-fipde"



def test_emreg_run_honours_momentum_cap():
    # momentum first acts on the lookahead of step 2, so a cap of 0 first
    # changes the cost of phi^3
    cfg = RunConfig(
        problem="portfolio", method="emreg", cells=10, time_steps=10,
        particles=200, iterations=3,
    )
    free = experiments.execute_run(cfg).costs
    capped = experiments.execute_run(replace(cfg, momentum_cap=0.0)).costs
    np.testing.assert_array_equal(capped[:3], free[:3])
    assert capped[3] != free[3]

def test_dumps_are_written_on_request(tmp_path):
    cfg = _cfg(
        tmp_path,
        TINY + "dump_adjoint = true\ndump_trajectories = true\n"
        f"output = {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    adj = field_from_csv(out / "adjoint_u.csv")
    assert adj.components == 2
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "t,particle,x1,x2"
    assert len(lines) == 1 + 11 * 100


def test_dumps_simulate_the_training_ensemble_once(tmp_path, monkeypatch):
    calls = []

    def counting_simulate(*args):
        calls.append(args[2:])
        return simulate(*args)

    monkeypatch.setattr(experiments, "simulate", counting_simulate)
    cfg = _cfg(
        tmp_path,
        TINY + "dump_adjoint = true\ndump_trajectories = true\n"
        f"output = {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 0
    # N, M and the training seed; the solve itself simulates through nag
    assert calls == [(200, 10, 0)]
    assert (tmp_path / "out" / "adjoint_u.csv").is_file()
    assert (tmp_path / "out" / "trajectories.csv").is_file()


def test_failed_initial_cost_row_writes_header_only_report(tmp_path, monkeypatch, capsys):
    build = RunConfig.build

    def exploding_build(config):
        problem, grid = build(config)
        problem.drift = lambda t, x, a, eta: np.full_like(x, np.inf)
        return problem, grid

    monkeypatch.setattr(RunConfig, "build", exploding_build)
    config = replace(
        RunConfig(problem="portfolio", cells=10, time_steps=10, particles=200, iterations=2),
        output=str(tmp_path / "out"),
    )
    assert experiments.run_experiment(config) == 1
    assert "iteration 0 failed: non-finite state" in capsys.readouterr().out
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert report == ["m,J,stderr,grad_norm,wall_ms"]


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, "problem = nonsense\n")
    assert main(["run", cfg]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_non_positive_problem_kernel_subsample_exits_2(tmp_path, capsys):
    text = TINY.replace("portfolio", "cs2d") + f"output = {tmp_path / 'out'}\n"
    cfg = _cfg(tmp_path, text + "problem.kernel_subsample = 0\n")
    assert main(["run", cfg]) == 2
    assert "problem.kernel_subsample" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_subcommand(tmp_path, capsys):
    cfg = _cfg(tmp_path, "problem = portfolio\n")
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "all derivatives within tolerance" in out


def test_sparsity_subcommand(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        "problem = portfolio\nproblem.k2 = 1\n"
        "grid.cells = 10\ngrid.time_steps = 10\n"
        "particles = 300\niterations = 3\n"
        f"output = {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 0
    assert main(["sparsity", str(tmp_path / "out" / "policy_phi.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,zero_fraction"
    assert len(lines) == 12


def test_sweep_subcommand(tmp_path):
    cfg = _cfg(
        tmp_path,
        TINY + "sweep.steps = 2\nsweep.iterations = 1\n"
        "sweep.q_min_lo = 0.8\nsweep.q_min_hi = 1.0\n"
        "sweep.q_max_lo = 2.0\nsweep.q_max_hi = 2.2\n"
        f"output = {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 0
    policy = str(tmp_path / "out" / "policy_phi.csv")
    assert main(["sweep", cfg, "--policy", policy]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "q_min,q_max,J_policy,J_ref,abs_gap,rel_gap"
    assert len(rows) == 1 + 4


def test_sparsity_report_counts_exact_zeros(tmp_path):
    cfg = RunConfig(problem="portfolio", cells=10, time_steps=10, particles=200, iterations=2)
    problem, grid = cfg.build()
    from mfcontrol import PolicyField

    vals = np.ones((11,) + grid.nodes + (1,))
    vals[3] = 0.0
    fractions = sparsity_report(PolicyField(grid, vals))
    assert fractions[3] == 1.0
    assert fractions[0] == 0.0
    out = tmp_path / "sparsity.csv"
    sparsity_to_csv(grid.times, fractions, out)
    assert out.read_text().splitlines()[0] == "t,zero_fraction"
    with pytest.raises(ValueError):
        sparsity_report(PolicyField(grid, vals), threshold=-1.0)


def _run_cli_subprocess(cfg, out_dir, threads):
    env = dict(os.environ, MFCONTROL_THREADS=str(threads))
    return subprocess.run(
        [sys.executable, "-m", "mfcontrol.cli", "run", cfg, "--output", str(out_dir)],
        capture_output=True,
        env=env,
        check=True,
    )


def _strip_wall_time(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_reports_are_byte_identical_across_thread_counts(tmp_path):
    cfg = _cfg(tmp_path, TINY)
    _run_cli_subprocess(cfg, tmp_path / "t1", 1)
    _run_cli_subprocess(cfg, tmp_path / "t4", 4)
    for name in ("policy_phi.csv", "policy_psi.csv"):
        a = (tmp_path / "t1" / name).read_bytes()
        b = (tmp_path / "t4" / name).read_bytes()
        assert a == b, name
    # every numeric column except the wall-time measurement is reproducible
    assert _strip_wall_time(tmp_path / "t1" / "report.csv") == _strip_wall_time(
        tmp_path / "t4" / "report.csv"
    )


def test_robustness_sweep_is_thread_count_invariant(monkeypatch):
    # the sweep is the only threaded code: its cells run in a pool of
    # MFCONTROL_THREADS workers and must come out bit for bit the same
    config = RunConfig(
        problem="portfolio", cells=6, time_steps=6, particles=200,
        sweep_steps=2, sweep_iterations=1,
    )
    _, grid = config.build()
    rng = np.random.default_rng(4)
    policy = PolicyField(grid, 0.3 * rng.standard_normal((7,) + grid.nodes + (1,)))

    pools = []

    class RecordingPool(experiments.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    results = []
    for threads in (1, 2):
        monkeypatch.setenv("MFCONTROL_THREADS", str(threads))
        results.append(robustness_sweep(config, policy))
    assert pools == [2]  # one worker runs inline; two run in a pool
    for f in fields(SweepResult):
        a, b = (getattr(r, f.name) for r in results)
        assert a.shape == b.shape, f.name
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64), err_msg=f.name)
