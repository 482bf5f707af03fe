"""Micro-benchmarks of the hottest kernels of the portfolio and the
Cucker-Smale solves.

pytest-benchmark times each call; the rounds are few, so the file runs in
well under three seconds.  `pytest tests/test_microbench.py` prints the
timing table; end-to-end numbers come from `perfbench/run.py`.
"""

import numpy as np
import pytest

from mfcontrol import (
    CuckerSmaleParams,
    EmpiricalMeasure,
    GridField,
    backward_sweep,
    build_operator,
    cs2d_grid,
    cs2d_problem,
    estimate_cost,
    gradient_field,
    multilinear_eval,
    portfolio_grid,
    portfolio_problem,
    regress_adjoint,
    simulate,
)
from mfcontrol.grids import cell_index

pytest.importorskip("pytest_benchmark")


def test_multilinear_eval_10k_points(benchmark):
    grid = portfolio_grid()
    rng = np.random.default_rng(0)
    values = rng.standard_normal(grid.nodes + (1,))
    x = rng.uniform(grid.lo, grid.hi, (10_000, grid.state_dim))
    out = benchmark.pedantic(
        multilinear_eval, args=(grid, values, x), rounds=20, iterations=5, warmup_rounds=1
    )
    assert out.shape == (10_000, 1)


def test_build_operator_portfolio_slice(benchmark):
    problem, grid = portfolio_problem(), portfolio_grid()
    rng = np.random.default_rng(1)
    policy = GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ensemble = simulate(problem, policy, 1000, grid.time_steps, 0)
    op = benchmark.pedantic(
        build_operator, args=(problem, policy, ensemble, 10),
        rounds=20, iterations=5, warmup_rounds=1,
    )
    assert op.system.nnz == 9804


def test_factor_and_solve_portfolio_slice(benchmark):
    # one implicit step of the adjoint sweep on a coupled slice (a policy of
    # mixed sign keeps every stencil entry): assembly, line plan and solve.
    # The random signs merge 49 of the 51 lines into one run, so this is
    # the worst case of the line solve.
    problem, grid = portfolio_problem(), portfolio_grid()
    rng = np.random.default_rng(1)
    policy = GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ensemble = simulate(problem, policy, 1000, grid.time_steps, 0)
    rhs = rng.standard_normal((grid.num_nodes, 2))

    def step():
        return build_operator(problem, policy, ensemble, 10).solve(rhs)

    out = benchmark.pedantic(step, rounds=10, iterations=2, warmup_rounds=1)
    assert out.shape == (grid.num_nodes, 2)


def test_factor_and_solve_portfolio_liquidating_slice(benchmark):
    # the same step under a smooth policy that sells on most of the box,
    # a = (0.5 - q)(1 + t), as a solved liquidation policy does: the
    # inventory dimension, advected but not diffused, splits the lines
    # into 50 strongly connected components, all but one of them single
    # lines
    problem, grid = portfolio_problem(), portfolio_grid()
    q = grid.node_coords()[:, 1]
    vals = np.outer(1.0 + grid.times, 0.5 - q)
    policy = GridField(grid, vals.reshape((grid.time_steps + 1,) + grid.nodes + (1,)))
    ensemble = simulate(problem, policy, 1000, grid.time_steps, 0)
    rhs = np.random.default_rng(1).standard_normal((grid.num_nodes, 2))

    def step():
        return build_operator(problem, policy, ensemble, 10).solve(rhs)

    out = benchmark.pedantic(step, rounds=10, iterations=2, warmup_rounds=1)
    assert out.shape == (grid.num_nodes, 2)


def test_estimate_cost_portfolio_10k_particles(benchmark):
    # one cost row of a portfolio solve: the streamed Euler loop at
    # N = 10 000, M = 50, summing the costs along the way
    problem, grid = portfolio_problem(), portfolio_grid()
    policy = GridField.zeros(grid, 1)
    cost, stderr = benchmark.pedantic(
        estimate_cost, args=(problem, policy, 10_000, grid.time_steps, 1_000_003),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert np.isfinite(cost) and stderr > 0


def test_simulate_portfolio_10k_particles(benchmark):
    # the training ensemble of a portfolio iteration: the same Euler loop
    # at N = 10 000, M = 50, storing every step's states and control mean
    problem, grid = portfolio_problem(), portfolio_grid()
    policy = GridField.zeros(grid, 1)
    ensemble = benchmark.pedantic(
        simulate, args=(problem, policy, 10_000, grid.time_steps, 0),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert ensemble.states.shape == (grid.time_steps + 1, 10_000, 2)


@pytest.fixture(scope="module")
def portfolio_iteration():
    # the inputs of the gradient of a first portfolio iteration at the
    # README's size: N = 10 000 particles, 51 x 51 nodes, M = 50
    problem, grid = portfolio_problem(), portfolio_grid()
    policy = GridField.zeros(grid, 1)
    ensemble = simulate(problem, policy, 10_000, grid.time_steps, 0)
    return problem, grid, policy, ensemble


@pytest.mark.parametrize("method", ["fipde", "emreg"])
def test_gradient_field_portfolio_iteration(benchmark, portfolio_iteration, method):
    # 51 gradient slices; the lam * E[u] term reads the particle mean of
    # the adjoint off the node deposit (fipde) or the cell histogram (emreg)
    problem, grid, policy, ensemble = portfolio_iteration
    if method == "emreg":
        adjoint = regress_adjoint(problem, policy, ensemble)
    else:
        adjoint = backward_sweep(problem, policy, ensemble)
    grad = benchmark.pedantic(
        gradient_field, args=(problem, policy, adjoint),
        rounds=5, iterations=1, warmup_rounds=1,
    )
    assert grad.values.shape == (grid.time_steps + 1,) + grid.nodes + (1,)


def test_cell_index_10k_points(benchmark):
    grid = portfolio_grid()
    x = np.random.default_rng(0).uniform(grid.lo, grid.hi, (10_000, grid.state_dim))
    idx = benchmark.pedantic(
        cell_index, args=(grid, x), rounds=20, iterations=5, warmup_rounds=1
    )
    assert idx.shape == (10_000,) and idx.max() < 50 * 50


def _cs_measure(n, seed):
    rng = np.random.default_rng(seed)
    return EmpiricalMeasure(rng.normal((1.5, 1.5), 0.3, (n, 2)), np.zeros(1))


def test_cs_drift_5000_particles_500_atoms(benchmark):
    # the simulation step of the beta = 10 experiment: every particle
    # against a 500-atom subsample of the 5000-particle law
    problem = cs2d_problem(CuckerSmaleParams(beta=10.0), kernel_subsample=500)
    eta = _cs_measure(5000, 2)
    a = np.zeros((5000, 1))
    out = benchmark.pedantic(
        problem.drift, args=(0.0, eta.x, a, eta), rounds=10, iterations=2, warmup_rounds=1
    )
    assert out.shape == (5000, 2)


def test_cs_mu_drift_contraction_on_lattice(benchmark):
    # the nonlocal adjoint source of one slice: 2601 nodes, 500 carriers
    params = CuckerSmaleParams(beta=10.0)
    problem, grid = cs2d_problem(params), cs2d_grid(params)
    eta = _cs_measure(500, 3)
    X = grid.node_coords()
    a = np.zeros((grid.num_nodes, 1))
    weights = np.random.default_rng(4).standard_normal((500, 2))
    out = benchmark.pedantic(
        problem.mu_drift.mean_contract, args=(0.0, eta, X, a),
        kwargs={"weights": weights}, rounds=20, iterations=5, warmup_rounds=1,
    )
    assert out.shape == (grid.num_nodes, 2)
