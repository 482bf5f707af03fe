"""Proximal-gradient driver: updates, gradient assembly, run reports."""

import numpy as np
import pytest

from mfcontrol import (
    CuckerSmaleParams,
    GridField,
    MeasureKernel,
    MfcProblem,
    PolicyField,
    cs2d_grid,
    cs2d_problem,
    portfolio_grid,
    portfolio_problem,
    simulate,
)
from mfcontrol.fdsolver import AdjointField
from mfcontrol.nag import (
    NagState,
    SolverError,
    gradient_slice,
    momentum_coefficient,
    nag_step,
    run,
)
from mfcontrol.prox import ProxSpec, prox_apply


def test_momentum_schedule():
    assert momentum_coefficient(0) == 0.0
    assert momentum_coefficient(1) == 0.25
    assert momentum_coefficient(7) == 0.7
    assert momentum_coefficient(7, cap=0.5) == 0.5


def test_zero_gradient_is_a_fixed_point():
    grid = portfolio_grid(cells=10, time_steps=10)
    prob = portfolio_problem()
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((11,) + grid.nodes + (1,))
    phi = PolicyField(grid, vals)
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
    phi_prev = PolicyField(grid, rng.standard_normal((11,) + grid.nodes + (1,)))
    psi = PolicyField(grid, rng.standard_normal((11,) + grid.nodes + (1,)))
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


def _random_adjoint(grid, d, seed):
    rng = np.random.default_rng(seed)
    return AdjointField(u=GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (d,))))


def test_portfolio_gradient_formula():
    # gradient = u2 + s + 2 k1 psi + lam * mean of u1 over the particle cloud
    prob = portfolio_problem()
    grid = portfolio_grid(cells=20, time_steps=20)
    rng = np.random.default_rng(2)
    policy = PolicyField(grid, rng.standard_normal((21,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 300, grid.time_steps, 0)
    adj = _random_adjoint(grid, 2, 3)
    j = 7
    grad = gradient_slice(prob, policy, ens, adj, j)
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
    policy = PolicyField(grid, rng.standard_normal((21,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 300, grid.time_steps, 0)
    adj = _random_adjoint(grid, 2, 5)
    j = 11
    grad = gradient_slice(prob, policy, ens, adj, j)
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
