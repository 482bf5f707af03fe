"""Configuration parsing, validation and round-trips."""

from dataclasses import replace

import pytest

from mfcontrol import ConfigError, RunConfig, parse_config


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


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_non_finite_tau_is_rejected(tmp_path, tau):
    # NaN passes `tau <= 0`; the check names the field
    with pytest.raises(ConfigError, match="tau"):
        RunConfig(problem="portfolio", tau=tau)
    with pytest.raises(ConfigError, match="tau"):
        parse_config(_write(tmp_path, f"problem = portfolio\ntau = {tau}\n"))


def test_nan_momentum_cap_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="momentum_cap"):
        RunConfig(problem="portfolio", momentum_cap=float("nan"))
    with pytest.raises(ConfigError, match="momentum_cap"):
        parse_config(_write(tmp_path, "problem = portfolio\nmomentum_cap = nan\n"))


def test_dump_adjoint_rejected_for_emreg(tmp_path):
    # the regression solves no adjoint PDE, so there is nothing to dump
    text = "problem = portfolio\ndump_adjoint = true\n"
    with pytest.raises(ConfigError, match="dump_adjoint"):
        parse_config(_write(tmp_path, text + "method = emreg\n"))
    # the same check covers the --method override of the CLI
    with pytest.raises(ConfigError, match="dump_adjoint"):
        replace(parse_config(_write(tmp_path, text)), method="emreg")

def test_round_trip_through_items(tmp_path):
    cfg = RunConfig(
        problem="cs2d",
        method="emreg",
        cells=30,
        tau=0.2,
        kernel_subsample=500,
        momentum_cap=0.8,
        problem_overrides={"beta": 10.0},
    )
    text = "".join(f"{k} = {v}\n" for k, v in cfg.to_items().items())
    assert parse_config(_write(tmp_path, text)) == cfg


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
