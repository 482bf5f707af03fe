"""Proximal-gradient driver: updates, gradient assembly, run reports."""

import dataclasses
import gc

import numpy as np
import pytest

from mfcontrol import (
    CuckerSmaleParams,
    GridField,
    MeasureKernel,
    MfcProblem,
    cs2d_grid,
    cs2d_problem,
    field_from_csv,
    field_to_csv,
    portfolio_grid,
    portfolio_problem,
    simulate,
)
from mfcontrol import nag
from mfcontrol.fdsolver import AdjointField
from mfcontrol.nag import (
    NagState,
    SolverError,
    gradient_slice,
    momentum_coefficient,
    nag_step,
    run,
)
from mfcontrol.particles import ParticleEnsemble
from mfcontrol.prox import ProxSpec, prox_apply


def test_momentum_schedule():
    assert momentum_coefficient(0) == 0.0
    assert momentum_coefficient(1) == 0.25
    assert momentum_coefficient(7) == 0.7


def test_zero_gradient_is_a_fixed_point():
    grid = portfolio_grid(cells=10, time_steps=10)
    prob = portfolio_problem()
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((11,) + grid.nodes + (1,))
    phi = GridField(grid, vals)
    state = NagState(iteration=3, phi=phi, psi=phi.copy())
    new = nag_step(state, GridField.zeros(grid, 1), 0.5, prob)
    np.testing.assert_array_equal(new.phi.values, vals)
    np.testing.assert_array_equal(new.psi.values, vals)
    assert new.iteration == 4


def test_nag_step_composition():
    grid = portfolio_grid(cells=8, time_steps=10)
    prob = portfolio_problem()
    prob.nonsmooth_cost = ProxSpec.l1(0.4)
    rng = np.random.default_rng(1)
    phi_prev = GridField(grid, rng.standard_normal((11,) + grid.nodes + (1,)))
    psi = GridField(grid, rng.standard_normal((11,) + grid.nodes + (1,)))
    grad = GridField(grid, rng.standard_normal((11,) + grid.nodes + (1,)))
    tau = 0.2
    state = NagState(iteration=2, phi=phi_prev, psi=psi)
    new = nag_step(state, grad, tau, prob)
    phi_expected = prox_apply(prob.nonsmooth_cost, tau, psi.values - tau * grad.values)
    np.testing.assert_allclose(new.phi.values, phi_expected, atol=1e-15)
    coef = 2.0 / 5.0
    np.testing.assert_allclose(
        new.psi.values, phi_expected + coef * (phi_expected - phi_prev.values), atol=1e-14
    )
    plain = nag_step(state, grad, tau, prob, accelerate=False)
    np.testing.assert_array_equal(plain.psi.values, plain.phi.values)
    with pytest.raises(ValueError):
        nag_step(state, grad, 0.0, prob)


def test_non_finite_step_settings_are_rejected():
    grid = portfolio_grid(cells=4, time_steps=4)
    prob = portfolio_problem()
    phi = GridField.zeros(grid, 1)
    state = NagState(iteration=1, phi=phi, psi=phi.copy())
    grad = GridField.zeros(grid, 1)
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau"):
            nag_step(state, grad, tau, prob)
        # run checks before any particle is simulated
        with pytest.raises(ValueError, match="tau"):
            run(prob, grid, iterations=1, tau=tau, num_particles=10)


@pytest.mark.parametrize("method", ["fipde", "emreg"])
def test_non_positive_kernel_subsample_is_rejected_before_any_simulation(method, monkeypatch):
    # the cap is the problem's: building the problem rejects it, so a run
    # never starts
    def never(*args):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(nag, "simulate", never)
    monkeypatch.setattr(nag, "estimate_cost", never)
    grid = portfolio_grid(cells=10, time_steps=10)
    for cap in (0, -3):
        for make_problem in (portfolio_problem, cs2d_problem):
            with pytest.raises(ValueError, match="kernel_subsample"):
                run(make_problem(kernel_subsample=cap), grid, 1, num_particles=200,
                    method=method)


def _random_adjoint(grid, ensemble, d, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (d,))
    return AdjointField(GridField(grid, values), ensemble)


def test_portfolio_gradient_formula():
    # gradient = u2 + s + 2 k1 psi + lam * mean of u1 over the particle cloud
    prob = portfolio_problem()
    grid = portfolio_grid(cells=20, time_steps=20)
    rng = np.random.default_rng(2)
    policy = GridField(grid, rng.standard_normal((21,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 300, grid.time_steps, 0)
    adj = _random_adjoint(grid, ens, 2, 3)
    j = 7
    grad = gradient_slice(prob, policy, adj, j)
    X = grid.node_coords()
    u_at_particles = adj.u.eval_slice(j, ens.states[j])
    expected = (
        adj.u.slice_flat(j)[:, 1]
        + X[:, 0]
        + 2.0 * policy.slice_flat(j)[:, 0]
        + 0.5 * u_at_particles[:, 0].mean()
    )
    np.testing.assert_allclose(grad[:, 0], expected, atol=1e-12)


def test_cs2d_gradient_formula():
    # no control-measure coupling: gradient = 2 gamma1 psi + u2
    prob = cs2d_problem(CuckerSmaleParams(gamma1=0.1))
    grid = cs2d_grid(cells=20, time_steps=20)
    rng = np.random.default_rng(4)
    policy = GridField(grid, rng.standard_normal((21,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 300, grid.time_steps, 0)
    adj = _random_adjoint(grid, ens, 2, 5)
    j = 11
    grad = gradient_slice(prob, policy, adj, j)
    expected = 0.2 * policy.slice_flat(j)[:, 0] + adj.u.slice_flat(j)[:, 1]
    np.testing.assert_allclose(grad[:, 0], expected, atol=1e-12)


def test_run_report_structure_and_reproducibility():
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    rep = run(prob, grid, iterations=2, num_particles=200, seed=1)
    assert rep.method == "fipde"
    assert [r.m for r in rep.records] == [0, 1, 2]
    assert np.isnan(rep.records[0].grad_norm)
    assert rep.records[1].grad_norm > 0
    assert rep.policy is not None and rep.lookahead is not None
    rep2 = run(prob, grid, iterations=2, num_particles=200, seed=1)
    np.testing.assert_array_equal(rep.costs, rep2.costs)
    np.testing.assert_array_equal(rep.policy.values, rep2.policy.values)


def test_run_zero_iterations_reports_initial_cost():
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    rep = run(prob, grid, iterations=0, num_particles=4_000, seed=0)
    assert len(rep.records) == 1
    # zero policy freezes the inventory: J = E[q0^2] (T + gamma) - s0 E[q0] = 0.5
    assert abs(rep.records[0].cost - 0.5) < 0.1


def test_methods_diverge_after_momentum_kicks_in():
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    fast = run(prob, grid, iterations=3, num_particles=300, seed=1)
    plain = run(prob, grid, iterations=3, num_particles=300, seed=1, method="ipde")
    # the momentum weight is zero at the first step, so the iterates agree
    # through phi^2 and first diverge at phi^3
    np.testing.assert_allclose(fast.costs[:3], plain.costs[:3], atol=1e-12)
    assert fast.costs[3] != plain.costs[3]
    with pytest.raises(ValueError):
        run(prob, grid, iterations=1, method="bogus")
    with pytest.raises(ValueError):
        run(prob, grid, iterations=-1)


@pytest.mark.parametrize("method", ["fipde", "emreg"])
def test_callback_sees_every_iteration(method):
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    seen = []
    run(prob, grid, iterations=3, num_particles=100, seed=0, method=method,
        callback=lambda m, state, report: seen.append((m, state.iteration)))
    assert seen == [(1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("method", ["fipde", "emreg"])
def test_run_holds_one_ensemble_at_a_time(method, monkeypatch):
    # no ensemble may be alive when the next simulation or a cost row starts
    alive_at_start = []

    def ensembles():
        gc.collect()
        return sum(isinstance(o, ParticleEnsemble) for o in gc.get_objects())

    def watched(fn):
        def call(*args):
            alive_at_start.append((fn.__name__, ensembles()))
            return fn(*args)
        return call

    monkeypatch.setattr(nag, "simulate", watched(nag.simulate))
    monkeypatch.setattr(nag, "estimate_cost", watched(nag.estimate_cost))
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    run(prob, grid, iterations=2, num_particles=100, seed=0, method=method)
    assert alive_at_start == [
        ("estimate_cost", 0),
        ("simulate", 0), ("estimate_cost", 0),
        ("simulate", 0), ("estimate_cost", 0),
    ]


@pytest.mark.parametrize("method", ["fipde", "ipde", "emreg"])
def test_run_holds_one_policy_pair_at_a_time(method, monkeypatch):
    # no grid field but phi and psi may be alive when a simulation or a cost
    # row starts: the initial policy goes with the first step
    alive_at_start = []

    def watched(fn):
        def call(*args):
            gc.collect()
            alive_at_start.append(sum(isinstance(o, GridField) for o in gc.get_objects()))
            return fn(*args)
        return call

    monkeypatch.setattr(nag, "simulate", watched(nag.simulate))
    monkeypatch.setattr(nag, "estimate_cost", watched(nag.estimate_cost))
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    run(prob, grid, iterations=2, num_particles=100, seed=0, method=method)
    assert alive_at_start == [2, 2, 2, 2, 2]


def _rows(report):
    return [(r.m, r.cost.hex(), r.stderr.hex(), r.grad_norm.hex()) for r in report.records]


@pytest.mark.parametrize("method", ["fipde", "emreg"])
def test_a_restart_from_csv_runs_on_the_run_grid(method, tmp_path):
    # at 49 cells the CSV's upper corner is the last node's coordinate,
    # lo + 49 h, which misses hi = (6, 4) in the last bits
    prob = portfolio_problem()
    grid = portfolio_grid(cells=49, time_steps=4)
    rng = np.random.default_rng(11)
    policy = GridField(grid, 0.3 * rng.standard_normal((5,) + grid.nodes + (1,)))
    field_to_csv(policy, tmp_path / "policy.csv")
    restored = field_from_csv(tmp_path / "policy.csv")
    assert restored.grid.hi != grid.hi
    reports = [
        run(prob, grid, iterations=2, num_particles=200, seed=0, method=method,
            initial_policy=initial)
        for initial in (policy, restored)
    ]
    for report in reports:
        assert report.policy.grid is grid and report.lookahead.grid is grid
    assert _rows(reports[1]) == _rows(reports[0])
    np.testing.assert_array_equal(reports[1].policy.values, reports[0].policy.values)


@pytest.mark.parametrize("method", ["fipde", "ipde", "emreg"])
def test_an_initial_policy_off_the_run_grid_is_rejected_before_any_simulation(
    method, monkeypatch
):
    def never(*args):
        raise AssertionError("simulated before the initial policy was checked")

    monkeypatch.setattr(nag, "simulate", never)
    monkeypatch.setattr(nag, "estimate_cost", never)
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    shifted = dataclasses.replace(grid, lo=(-1.0, 0.0), hi=(7.0, 4.0))
    coarse = portfolio_grid(cells=8, time_steps=10)
    for other in (shifted, coarse):
        with pytest.raises(ValueError, match="initial policy") as info:
            run(prob, grid, 1, num_particles=100, method=method,
                initial_policy=GridField.zeros(other, 1))
        assert repr(other) in str(info.value) and repr(grid) in str(info.value)


def test_failure_carries_partial_report():
    base = portfolio_problem()

    def bad_dx_running(t, x, a, eta):
        return np.full((x.shape[0], 2), np.inf)

    base.dx_running = bad_dx_running
    grid = portfolio_grid(cells=10, time_steps=10)
    with pytest.raises(SolverError) as info:
        run(base, grid, iterations=2, num_particles=100, seed=0)
    partial = info.value.partial_report
    assert len(partial.records) == 1
    assert partial.policy is not None


@pytest.mark.parametrize("method, point", [("fipde", "node"), ("emreg", "particle")])
def test_a_non_finite_adjoint_source_fails_its_iteration(method, point):
    # one NaN at t = 0.5: both adjoints stop at the slice that reads it,
    # before the NaN reaches the gradient, the policy and the next simulation
    base = portfolio_problem()

    def dx_running(t, x, a, eta):
        out = np.array(base.dx_running(t, x, a, eta), dtype=float)
        if t == 0.5:
            out[0, 0] = np.nan
        return out

    prob = dataclasses.replace(base, dx_running=dx_running)
    grid = portfolio_grid(cells=10, time_steps=10)
    message = rf"^iteration 0 failed: non-finite adjoint source at slice 5, {point} 0$"
    with pytest.raises(SolverError, match=message) as info:
        run(prob, grid, iterations=2, num_particles=200, seed=0, method=method)
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert len(info.value.partial_report.records) == 1


def test_failure_in_the_initial_cost_row_carries_empty_report():
    prob = dataclasses.replace(
        portfolio_problem(), drift=lambda t, x, a, eta: np.full_like(x, np.inf)
    )
    grid = portfolio_grid(cells=10, time_steps=10)
    with pytest.raises(SolverError, match="non-finite state") as info:
        run(prob, grid, iterations=2, num_particles=100)
    partial = info.value.partial_report
    assert partial.records == []
    assert partial.policy is not None


def test_report_serialization(tmp_path):
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    rep = run(prob, grid, iterations=1, num_particles=100, seed=0)
    csv_path = tmp_path / "report.csv"
    rep.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "m,J,stderr,grad_norm,wall_ms"
    assert len(lines) == 3
    json_path = tmp_path / "report.json"
    rep.to_json(json_path)
    import json

    payload = json.loads(json_path.read_text())
    assert payload["method"] == "fipde"
    assert len(payload["iterations"]) == 2


def test_report_json_is_strict(tmp_path):
    # row 0 has no gradient: its NaN norm is written as null, since strict
    # parsers reject the NaN token
    import json

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rep = run(portfolio_problem(), portfolio_grid(cells=10, time_steps=10), iterations=1,
              num_particles=100, seed=0)
    rep.records[1].stderr = float("inf")
    rep.settings["tau"] = float("-inf")
    json_path = tmp_path / "report.json"
    rep.to_json(json_path)
    payload = json.loads(json_path.read_text(), parse_constant=reject)
    rows = payload["iterations"]
    assert rows[0]["grad_norm"] is None and rows[1]["stderr"] is None
    assert rows[1]["grad_norm"] == rep.records[1].grad_norm
    assert rows[0]["J"] == rep.records[0].cost
    assert payload["settings"]["tau"] is None
    assert payload["settings"]["grid_nodes"] == [11, 11]
