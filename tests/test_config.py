"""Configuration parsing, validation and round-trips."""

import re
from dataclasses import fields, replace

import pytest

from mfcontrol import ConfigError, RunConfig, parse_config
from mfcontrol.config import _KEYS, parse_items

# every key set away from its default; the problem overrides come out sorted
FULL = RunConfig(
    problem="cs2d",
    method="ipde",
    cells=30,
    time_steps=40,
    particles=2000,
    tau=1 / 3,
    iterations=0,
    seed=7,
    eval_seed=11,
    output="runs/cs",
    dump_adjoint=True,
    dump_trajectories=True,
    kernel_subsample=500,
    initial_policy="warm/policy_phi.csv",
    sweep_q_min_lo=0.4,
    sweep_q_min_hi=1.2,
    sweep_q_max_lo=1.6,
    sweep_q_max_hi=2.8,
    sweep_steps=3,
    sweep_iterations=4,
    problem_overrides={"sigma": 0.2, "beta": 10.0},
)


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_minimal_config_uses_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "problem = portfolio\n"))
    assert cfg.problem == "portfolio"
    assert cfg.method == "fipde"
    assert cfg.cells == 50
    assert cfg.time_steps == 50
    assert cfg.particles == 10_000
    assert cfg.tau == pytest.approx(1.0 / 6.0)
    assert cfg.iterations == 20


def test_comments_fractions_and_booleans(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            """
            # experiment configuration
            problem = cs2d
            method = ipde          # no momentum
            tau = 1/8
            dump_adjoint = true
            grid.cells = 25
            """,
        )
    )
    assert cfg.method == "ipde"
    assert cfg.tau == 0.125
    assert cfg.dump_adjoint is True
    assert cfg.cells == 25


def test_problem_overrides_apply(tmp_path):
    cfg = parse_config(
        _write(tmp_path, "problem = cs2d\nproblem.beta = 10\nproblem.sigma = 0.2\n")
    )
    params = cfg.problem_params()
    assert params.beta == 10.0
    assert params.sigma == 0.2
    problem, grid = cfg.build()
    assert problem.state_dim == 2
    assert grid.nodes == (51, 51)


def test_unknown_key_suggests_nearest(tmp_path):
    with pytest.raises(ConfigError, match="grid.cells"):
        parse_config(_write(tmp_path, "problem = portfolio\ngrid.cell = 20\n"))


def test_unknown_problem_parameter_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown parameter"):
        parse_config(_write(tmp_path, "problem = portfolio\nproblem.beta = 10\n"))


def test_type_errors_cite_line_numbers(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(_write(tmp_path, "problem = portfolio\nparticles = many\n"))


def test_missing_problem_rejected(tmp_path):
    with pytest.raises(ConfigError, match="problem"):
        parse_config(_write(tmp_path, "method = fipde\n"))


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(_write(tmp_path, "problem portfolio\n"))


def test_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig(problem="unknown")
    with pytest.raises(ConfigError):
        RunConfig(problem="portfolio", method="sgd")
    with pytest.raises(ConfigError):
        RunConfig(problem="portfolio", tau=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(problem="portfolio", cells=0)
    with pytest.raises(ConfigError):
        RunConfig(problem="portfolio", kernel_subsample=0)
    # zero iterations is a valid request (report the initial cost only)
    assert RunConfig(problem="portfolio", iterations=0).iterations == 0



@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_problem_kernel_subsample_is_rejected(tmp_path, value):
    text = f"problem = cs2d\nproblem.kernel_subsample = {value}\n"
    with pytest.raises(ConfigError, match="line 2: problem.kernel_subsample"):
        parse_config(_write(tmp_path, text))
    assert parse_config(_write(tmp_path, "problem = cs2d\nproblem.kernel_subsample = 1\n"))


def test_problem_kernel_subsample_spells_the_run_cap_for_cs2d(tmp_path):
    run_key = parse_config(_write(tmp_path, "problem = cs2d\nkernel_subsample = 300\n"))
    alias = parse_config(_write(tmp_path, "problem = cs2d\nproblem.kernel_subsample = 300\n"))
    assert alias == run_key
    assert alias.kernel_subsample == 300 and alias.problem_overrides == {}
    assert alias.build()[0].kernel_subsample == 300
    both = "problem = cs2d\nproblem.kernel_subsample = 300\nkernel_subsample = 300\n"
    assert parse_config(_write(tmp_path, both)) == run_key
    # the items carry the one run key, and parse back to the same config
    items = alias.to_items()
    assert items["kernel_subsample"] == "300" and "problem.kernel_subsample" not in items
    text = "".join(f"{k} = {v}\n" for k, v in items.items())
    assert parse_config(_write(tmp_path, text)) == alias


@pytest.mark.parametrize("alias_first", [False, True])
def test_disagreeing_kernel_subsample_spellings_are_rejected(tmp_path, alias_first):
    lines = ["kernel_subsample = 300", "problem.kernel_subsample = 500"]
    if alias_first:
        lines.reverse()
    text = "problem = cs2d\n" + "\n# a comment\n".join(lines) + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, text))
    run_line, alias_line = (4, 2) if alias_first else (2, 4)
    assert f"line {run_line}: kernel_subsample = 300" in str(err.value)
    assert f"line {alias_line}: problem.kernel_subsample = 500" in str(err.value)


def test_problem_kernel_subsample_is_unknown_for_portfolio(tmp_path):
    text = "problem = portfolio\nproblem.kernel_subsample = 300\n"
    with pytest.raises(ConfigError, match="line 2: unknown parameter 'problem.kernel_subsample'"):
        parse_config(_write(tmp_path, text))


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_non_finite_tau_is_rejected(tmp_path, tau):
    # NaN passes `tau <= 0`; the check names the field
    with pytest.raises(ConfigError, match="tau"):
        RunConfig(problem="portfolio", tau=tau)
    with pytest.raises(ConfigError, match="tau"):
        parse_config(_write(tmp_path, f"problem = portfolio\ntau = {tau}\n"))


def test_momentum_cap_is_an_unknown_key(tmp_path):
    # the momentum weight is m / (m + 3); method = ipde takes plain steps
    with pytest.raises(ConfigError, match="line 2: unknown key 'momentum_cap'"):
        parse_config(_write(tmp_path, "problem = portfolio\nmomentum_cap = 0.5\n"))


def test_a_key_set_twice_is_rejected():
    items = [("problem", "portfolio", 1), ("iterations", "3", 2), ("iterations", "5", 3)]
    with pytest.raises(ConfigError, match="line 3: key 'iterations' is already set on line 2"):
        parse_items(items)
    with pytest.raises(ConfigError, match="line 4: key 'problem.sigma' is already set on line 2"):
        parse_items([
            ("problem", "portfolio", 1), ("problem.sigma", "0.2", 2),
            ("iterations", "3", 3), ("problem.sigma", "0.3", 4),
        ])


def test_dump_adjoint_rejected_for_emreg(tmp_path):
    # the regression solves no adjoint PDE, so there is nothing to dump
    text = "problem = portfolio\ndump_adjoint = true\n"
    with pytest.raises(ConfigError, match="dump_adjoint"):
        parse_config(_write(tmp_path, text + "method = emreg\n"))
    # the same check covers the --method override of the CLI
    with pytest.raises(ConfigError, match="dump_adjoint"):
        replace(parse_config(_write(tmp_path, text)), method="emreg")


def test_to_items_is_frozen():
    # report.json stores these items as settings.config: keys, order and
    # value strings are part of the output
    default = RunConfig(problem="portfolio").to_items()
    assert list(default.items()) == list({
        "problem": "portfolio",
        "method": "fipde",
        "grid.cells": "50",
        "grid.time_steps": "50",
        "particles": "10000",
        "tau": "0.16666666666666666",
        "iterations": "20",
        "seed": "0",
        "eval_seed": "1000003",
        "output": "out",
        "dump_adjoint": "false",
        "dump_trajectories": "false",
        "sweep.q_min_lo": "0.5",
        "sweep.q_min_hi": "1.5",
        "sweep.q_max_lo": "1.5",
        "sweep.q_max_hi": "2.5",
        "sweep.steps": "11",
        "sweep.iterations": "8",
    }.items())
    assert list(FULL.to_items().items()) == list({
        "problem": "cs2d",
        "method": "ipde",
        "grid.cells": "30",
        "grid.time_steps": "40",
        "particles": "2000",
        "tau": "0.3333333333333333",
        "iterations": "0",
        "seed": "7",
        "eval_seed": "11",
        "output": "runs/cs",
        "dump_adjoint": "true",
        "dump_trajectories": "true",
        "kernel_subsample": "500",
        "initial_policy": "warm/policy_phi.csv",
        "sweep.q_min_lo": "0.4",
        "sweep.q_min_hi": "1.2",
        "sweep.q_max_lo": "1.6",
        "sweep.q_max_hi": "2.8",
        "sweep.steps": "3",
        "sweep.iterations": "4",
        "problem.beta": "10.0",
        "problem.sigma": "0.2",
    }.items())


def test_round_trip_through_items(tmp_path):
    # the default config writes tau = 1/6 and both bools as false; FULL
    # writes every key away from its default, both bools as true
    for cfg in (RunConfig(problem="portfolio"), FULL):
        text = "".join(f"{k} = {v}\n" for k, v in cfg.to_items().items())
        assert parse_config(_write(tmp_path, text)) == cfg


def test_each_field_but_the_overrides_is_one_key():
    # a setting that parses is written back by to_items, and the other way round
    keyed = [f.name for f in _KEYS.values()]
    assert keyed == [f.name for f in fields(RunConfig) if f.name != "problem_overrides"]
    assert "problem.kernel_subsample" not in _KEYS


@pytest.mark.parametrize("key, lower", [
    ("grid.cells", 1),
    ("grid.time_steps", 1),
    ("particles", 1),
    ("iterations", 0),
    ("kernel_subsample", 1),
    ("sweep.steps", 1),
    ("sweep.iterations", 0),
])
def test_counts_below_their_bound_are_rejected(tmp_path, key, lower):
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be at least {lower}")):
        parse_config(_write(tmp_path, f"problem = portfolio\n{key} = {lower - 1}\n"))
    assert parse_config(_write(tmp_path, f"problem = portfolio\n{key} = {lower}\n"))


def test_sweep_settings(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            "problem = portfolio\n"
            "sweep.q_min_lo = 0.4\nsweep.q_min_hi = 1.2\n"
            "sweep.q_max_lo = 1.6\nsweep.q_max_hi = 2.8\n"
            "sweep.steps = 3\nsweep.iterations = 4\n",
        )
    )
    assert cfg.sweep_q_min == (0.4, 1.2)
    assert cfg.sweep_q_max == (1.6, 2.8)
    assert cfg.sweep_steps == 3
    assert cfg.sweep_iterations == 4
