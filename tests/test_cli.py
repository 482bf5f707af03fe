"""Command-line interface and experiment artifacts."""

import io
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mfcontrol import (
    ParticleEnsemble,
    PolicyField,
    experiments,
    field_from_csv,
    field_to_csv,
    problems,
    simulate,
)
from mfcontrol.cli import main
from mfcontrol.config import RunConfig, parse_config
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


SRC = str(Path(__file__).resolve().parents[1] / "src")

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
    # the lookahead has no reader, so no policy_psi.csv
    assert sorted(p.name for p in out.iterdir()) == ["policy_phi.csv", "report.csv", "report.json"]


def test_run_method_and_output_overrides(tmp_path):
    cfg = _cfg(tmp_path, TINY)
    out = tmp_path / "alt"
    assert main(["run", cfg, "--method", "emreg", "--output", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["method"] == "emreg-fipde"


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


def _trajectories_by_value(times, states, path):
    """The trajectory writer as it was: one f-string per value and per row."""
    with open(path, "w") as fh:
        cols = ["t", "particle"] + [f"x{i+1}" for i in range(states.shape[2])]
        fh.write(",".join(cols) + "\n")
        for j, t in enumerate(times):
            for l in range(min(100, states.shape[1])):
                coords = ",".join(f"{v:.17g}" for v in states[j, l])
                fh.write(f"{t:.17g},{l},{coords}\n")


@pytest.mark.parametrize("N", [37, 250])
def test_trajectories_csv_matches_the_per_value_formatter_byte_for_byte(
    tmp_path, monkeypatch, N
):
    # N below and above the 100 particles that are kept
    config = RunConfig(problem="portfolio", cells=4, time_steps=6, particles=N,
                       dump_trajectories=True)
    times = config.build()[1].times
    rng = np.random.default_rng(N)
    states = rng.standard_normal((7, N, 2)) * 10.0 ** rng.integers(-8, 9, (7, N, 2))
    special = [0.0, -0.0, 5e-324, 1e-310, 1e20, -1e20, -2.5, -3.0e-7]
    keep = min(100, N)
    states[0, :4] = np.reshape(special, (4, 2))
    states[-1, keep - 4 : keep] = -np.reshape(special, (4, 2))[::-1]
    ensemble = ParticleEnsemble(states, np.zeros((7, 1)))
    monkeypatch.setattr(experiments, "simulate", lambda *args: ensemble)
    report = SimpleNamespace(policy=None, lookahead=None)
    experiments._write_dumps(config, report, tmp_path)
    _trajectories_by_value(times, states, tmp_path / "values.csv")
    got = (tmp_path / "trajectories.csv").read_bytes()
    assert got == (tmp_path / "values.csv").read_bytes()
    assert got.count(b"\n") == 1 + 7 * keep


def test_the_run_cap_alone_caps_every_kernel_sum(tmp_path, monkeypatch):
    # the drift of the simulation subsamples at the same cap as the adjoint,
    # so a config that sets only kernel_subsample runs no O(N^2) step
    base = (
        "problem = cs2d\nproblem.beta = 10\ngrid.time_steps = 5\n"
        "particles = 2000\niterations = 1\nkernel_subsample = 200\n"
    )
    kernel_sums = problems._kernel_sums
    atoms = []

    def counted_kernel_sums(x, atom_x, *args, **kwargs):
        atoms.append(atom_x.size)
        return kernel_sums(x, atom_x, *args, **kwargs)

    monkeypatch.setattr(problems, "_kernel_sums", counted_kernel_sums)
    one = experiments.execute_run(parse_config(_cfg(tmp_path, base)))
    assert atoms and max(atoms) <= 200, (len(atoms), max(atoms, default=0))
    assert one.settings["kernel_subsample"] == 200
    both = experiments.execute_run(
        parse_config(_cfg(tmp_path, base + "problem.kernel_subsample = 200\n"))
    )
    assert one.costs.tobytes() == both.costs.tobytes()
    np.testing.assert_array_equal(
        one.policy.values.view(np.int64), both.policy.values.view(np.int64)
    )


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


def test_negative_sweep_iterations_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY + f"output = {tmp_path / 'out'}\nsweep.iterations = -1\n")
    assert main(["run", cfg]) == 2
    assert "sweep.iterations" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_horizon_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY + f"output = {tmp_path / 'out'}\nproblem.horizon = nan\n")
    assert main(["run", cfg]) == 2
    assert "horizon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_initial_policy_from_another_box_exits_2(tmp_path, capsys):
    # a cs2d policy has the portfolio run's 11 x 11 nodes and 10 steps,
    # but its box starts at (0, 0), the portfolio's at (-2, 0)
    cs_out = tmp_path / "cs"
    cs_cfg = TINY.replace("portfolio", "cs2d").replace("iterations = 2", "iterations = 0")
    assert main(["run", _cfg(tmp_path, cs_cfg), "--output", str(cs_out)]) == 0
    capsys.readouterr()
    cfg = _cfg(tmp_path, TINY + f"initial_policy = {cs_out / 'policy_phi.csv'}\n")
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "not on the run grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_subcommand(tmp_path, capsys):
    cfg = _cfg(tmp_path, "problem = portfolio\n")
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "all derivatives within tolerance" in out
    names = {line.split()[0] for line in out.splitlines() if "max rel error" in line}
    assert names == {"dx_drift", "da_drift", "dx_running", "da_running", "dx_terminal"}


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


def test_sparsity_report_counts_exact_zeros():
    cfg = RunConfig(problem="portfolio", cells=10, time_steps=10, particles=200, iterations=2)
    problem, grid = cfg.build()
    from mfcontrol import PolicyField

    vals = np.ones((11,) + grid.nodes + (1,))
    vals[3] = 0.0
    fractions = sparsity_report(PolicyField(grid, vals))
    assert fractions[3] == 1.0
    assert fractions[0] == 0.0
    out = io.StringIO()
    sparsity_to_csv(grid.times, fractions, out)
    assert out.getvalue().splitlines()[0] == "t,zero_fraction"
    for threshold in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            sparsity_report(PolicyField(grid, vals), threshold=threshold)


def _run_cli_subprocess(cfg, out_dir, threads):
    env = dict(os.environ, PYTHONPATH=SRC, MFCONTROL_THREADS=str(threads))
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
    a = (tmp_path / "t1" / "policy_phi.csv").read_bytes()
    assert a == (tmp_path / "t4" / "policy_phi.csv").read_bytes()
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


_SCIPY_PROBE = """
import json, sys

def scipy_state():
    return {name: name in sys.modules for name in ("scipy", "scipy.sparse")}

import mfcontrol
from mfcontrol import experiments
from mfcontrol.config import parse_config

seen = {"import": scipy_state()}
parse_config(sys.argv[1]).build()
seen["build"] = scipy_state()
experiments.execute_run(parse_config(sys.argv[1]))
seen["emreg run"] = scipy_state()
experiments.execute_run(parse_config(sys.argv[2]))
seen["fipde run"] = scipy_state()
print(json.dumps(seen))
"""


def test_no_job_stage_loads_scipy(tmp_path):
    # a fresh process: this one has scipy loaded already
    emreg = tmp_path / "emreg.cfg"
    emreg.write_text(TINY + "method = emreg\n")
    fipde = tmp_path / "fipde.cfg"
    fipde.write_text(TINY + "method = fipde\n")
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(emreg), str(fipde)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        check=True, timeout=300,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    for stage in ("import", "build", "emreg run", "fipde run"):
        assert seen[stage] == {"scipy": False, "scipy.sparse": False}, stage


_NO_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from mfcontrol.cli import main

sys.exit(main(["run", sys.argv[1]]) or main(["run", sys.argv[2]]))
"""


def test_pde_jobs_run_without_scipy(tmp_path):
    # as on an install with numpy alone: both models through the PDE adjoint
    portfolio = _cfg(tmp_path, TINY + f"method = fipde\noutput = {tmp_path / 'p'}\n")
    cs = tmp_path / "cs.cfg"
    cs.write_text(
        "problem = cs2d\ngrid.cells = 8\ngrid.time_steps = 5\nparticles = 200\n"
        f"iterations = 1\nmethod = fipde\noutput = {tmp_path / 'cs'}\n"
    )
    subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, portfolio, str(cs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        check=True, timeout=300,
    )
    for out in ("p", "cs"):
        assert (tmp_path / out / "report.json").exists()


def test_sweep_is_thread_count_invariant_from_a_fresh_process(tmp_path):
    # unlike test_robustness_sweep_is_thread_count_invariant, the process
    # starts cold, so with four workers the cells' first PDE reference
    # solves run on concurrent threads
    cfg = _cfg(
        tmp_path,
        "problem = portfolio\ngrid.cells = 6\ngrid.time_steps = 6\nparticles = 200\n"
        "sweep.steps = 2\nsweep.iterations = 1\n",
    )
    _, grid = parse_config(cfg).build()
    rng = np.random.default_rng(5)
    policy = tmp_path / "policy.csv"
    field_to_csv(PolicyField(grid, 0.3 * rng.standard_normal((7,) + grid.nodes + (1,))), policy)
    for threads in (4, 1):
        subprocess.run(
            [sys.executable, "-m", "mfcontrol.cli", "sweep", cfg, "--policy", str(policy),
             "--output", str(tmp_path / f"t{threads}")],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=SRC, MFCONTROL_THREADS=str(threads)),
            check=True, timeout=300,
        )
    sweeps = [(tmp_path / f"t{threads}" / "sweep.csv").read_bytes() for threads in (4, 1)]
    assert sweeps[0] == sweeps[1]
