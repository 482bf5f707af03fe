"""Regression baseline: cell indexing, indicator least squares, outer loop."""

import numpy as np
import pytest

from mfcontrol import (
    CuckerSmaleParams,
    PolicyField,
    cs2d_grid,
    cs2d_problem,
    portfolio_grid,
    portfolio_problem,
    regress_adjoint,
    run,
    simulate,
)
from mfcontrol.emreg import PiecewiseConstantAdjoint, cell_index, cell_regression, run_emreg
from mfcontrol.grids import SpaceTimeGrid


@pytest.fixture
def grid():
    return SpaceTimeGrid(horizon=1.0, time_steps=4, lo=(0.0, 0.0), hi=(1.0, 1.0), nodes=(5, 5))


def test_cell_index_layout(grid):
    # 4x4 cells in C order, clamped at the box
    assert cell_index(grid, np.array([[0.0, 0.0]]))[0] == 0
    assert cell_index(grid, np.array([[0.0, 0.3]]))[0] == 1
    assert cell_index(grid, np.array([[0.3, 0.0]]))[0] == 4
    assert cell_index(grid, np.array([[0.99, 0.99]]))[0] == 15
    assert cell_index(grid, np.array([[5.0, -3.0]]))[0] == 12


def test_cell_regression_matches_dense_least_squares(grid):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (300, 2))
    targets = rng.standard_normal((300, 2))
    fallback = np.zeros((16, 2))
    out = cell_regression(grid, x, targets, fallback)
    # dense normal equations on the indicator design matrix
    idx = cell_index(grid, x)
    design = np.zeros((300, 16))
    design[np.arange(300), idx] = 1.0
    dense, *_ = np.linalg.lstsq(design, targets, rcond=None)
    filled = np.bincount(idx, minlength=16) > 0
    np.testing.assert_allclose(out[filled], dense[filled], atol=1e-10)


def test_cell_regression_keeps_fallback_in_empty_cells(grid):
    x = np.array([[0.1, 0.1]])  # only cell 0 is visited
    targets = np.array([[2.0, -1.0]])
    fallback = np.full((16, 2), 7.0)
    out = cell_regression(grid, x, targets, fallback)
    np.testing.assert_array_equal(out[0], [2.0, -1.0])
    np.testing.assert_array_equal(out[1:], fallback[1:])


def test_piecewise_constant_protocol(grid):
    cells = np.arange(5 * 16 * 2, dtype=float).reshape(5, 16, 2)
    adj = PiecewiseConstantAdjoint(grid=grid, cells=cells)
    pts = np.array([[0.1, 0.1], [0.9, 0.9]])
    out = adj.u_at_points(2, pts)
    np.testing.assert_array_equal(out, cells[2][[0, 15]])
    assert adj.u_at_nodes(1).shape == (25, 2)


def test_regressed_adjoint_tracks_terminal_condition():
    prob = portfolio_problem()
    grid = portfolio_grid(cells=25, time_steps=25)
    policy = PolicyField.zeros(grid, 1)
    ens = simulate(prob, policy, 20_000, grid.time_steps, 0)
    adj = regress_adjoint(prob, ens, grid)
    xT = ens.states[-1]
    exact = np.stack([-xT[:, 1], -xT[:, 0] + xT[:, 1]], axis=1)
    approx = adj.u_at_points(grid.time_steps, xT)
    # piecewise-constant projection error is O(h) where cells are populated
    err = np.abs(approx - exact).mean()
    assert err < 0.1


def _regress_reference(problem, policy, ensemble, grid, previous, kernel_subsample):
    """The backward regression spelled out with the public pieces: cell
    indices recomputed for every lookup and the policy re-evaluated at the
    particles.  regress_adjoint must reproduce it bit for bit."""
    M = grid.time_steps
    cells = np.empty_like(previous)
    mu_T = ensemble.measure(M)
    term = problem.dx_terminal(ensemble.states[M], mu_T) + problem.mu_terminal.mean_contract(
        problem.horizon, mu_T.strided(kernel_subsample), ensemble.states[M], None
    )
    cells[M] = cell_regression(grid, ensemble.states[M], term, previous[M])
    adj = PiecewiseConstantAdjoint(grid=grid, cells=cells)
    for j in range(M, 0, -1):
        t, x, eta = j * grid.dt, ensemble.states[j], ensemble.measure(j)
        a = policy.eval_slice(j, x)
        u = adj.u_at_points(j, x)
        src = np.einsum("pil,pi->pl", problem.dx_drift(t, x, a, eta), u)
        src += problem.dx_running(t, x, a, eta)
        eta_k = eta.strided(kernel_subsample)
        if not problem.mu_drift.is_zero:
            u_k = u[:: eta.stride(kernel_subsample)]
            src += problem.mu_drift.mean_contract(t, eta_k, x, a, weights=u_k)
        if not problem.mu_running.is_zero:
            src += problem.mu_running.mean_contract(t, eta_k, x, a)
        cells[j - 1] = cell_regression(
            grid, ensemble.states[j - 1], u + grid.dt * src, previous[j - 1]
        )
    return cells


@pytest.mark.parametrize("model", ["portfolio", "cs2d"])
def test_regress_adjoint_matches_reference_loop_bitwise(model):
    if model == "portfolio":
        prob, grid, subsample = portfolio_problem(), portfolio_grid(cells=10, time_steps=6), None
    else:
        params = CuckerSmaleParams(beta=1.0)
        prob, grid, subsample = cs2d_problem(params), cs2d_grid(params, cells=10, time_steps=6), 64
    rng = np.random.default_rng(4)
    policy = PolicyField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 400, grid.time_steps, 0)
    previous = rng.standard_normal((grid.time_steps + 1, 100, 2))
    adj = regress_adjoint(
        prob, ens, grid,
        previous=PiecewiseConstantAdjoint(grid, previous), kernel_subsample=subsample,
    )
    want = _regress_reference(prob, policy, ens, grid, previous, subsample)
    np.testing.assert_array_equal(adj.cells, want)
    for j in (0, grid.time_steps):
        np.testing.assert_array_equal(
            adj.u_at_nodes(j), adj.u_at_points(j, grid.node_coords())
        )


def test_state_dependent_diffusion_unsupported():
    prob = portfolio_problem()
    prob.diffusion_state_dependent = True
    prob.dx_diffusion = lambda t, x, a, eta: np.zeros((x.shape[0], 2, 1, 2))
    grid = portfolio_grid(cells=10, time_steps=10)
    policy = PolicyField.zeros(grid, 1)
    ens = simulate(portfolio_problem(), policy, 50, grid.time_steps, 0)
    with pytest.raises(NotImplementedError):
        regress_adjoint(prob, ens, grid)


def test_run_emreg_mirrors_driver_interface():
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    rep = run(prob, grid, iterations=2, num_particles=300, seed=1, method="emreg")
    assert rep.method == "emreg-fipde"
    assert [r.m for r in rep.records] == [0, 1, 2]
    assert rep.policy is not None
    # run_emreg is the same run under another name, with the method fixed
    rep2 = run_emreg(prob, grid, iterations=2, num_particles=300, seed=1)
    np.testing.assert_array_equal(rep.costs, rep2.costs)
    np.testing.assert_array_equal(rep.policy.values, rep2.policy.values)
    with pytest.raises(TypeError):
        run_emreg(prob, grid, iterations=1, method="ipde")


def test_emreg_approaches_pde_solution_on_nominal_model():
    prob = portfolio_problem()
    grid = portfolio_grid()
    rf = run(prob, grid, iterations=6, num_particles=4_000, seed=0)
    re = run(prob, grid, iterations=6, num_particles=4_000, seed=0, method="emreg")
    assert abs(re.records[-1].cost - rf.records[-1].cost) / abs(rf.records[-1].cost) < 0.05
