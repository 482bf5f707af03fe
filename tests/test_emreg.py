"""Regression baseline: cell indexing, indicator least squares, outer loop."""

import numpy as np
import pytest

from mfcontrol import (
    CuckerSmaleParams,
    GridField,
    cs2d_grid,
    cs2d_problem,
    portfolio_grid,
    portfolio_problem,
    regress_adjoint,
    run,
    simulate,
)
from mfcontrol import emreg
from mfcontrol.emreg import PiecewiseConstantAdjoint, _cell_means, run_emreg
from mfcontrol.grids import SpaceTimeGrid, cell_index


def cell_regression(grid, x, targets, fallback):
    """Oracle of the indicator least squares: the target mean per visited
    cell, one cell at a time, summed as np.bincount sums; empty cells keep
    their fallback row."""
    idx = cell_index(grid, x)
    out = fallback.copy()
    for cell in np.unique(idx):
        rows = targets[idx == cell]
        total = np.zeros(targets.shape[1])
        for row in rows:
            total += row
        out[cell] = total / rows.shape[0]
    return out


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


def _cell_index_matmul(grid, x):
    """Cell lookup by an (N, d) integer matrix product: floor, clip to the
    cells, then the flat index as idx @ strides over the cell lattice."""
    lo = np.array(grid.lo)
    n = np.array(grid.nodes)
    idx = np.floor((np.asarray(x) - lo) / grid.h).astype(np.int64)
    np.clip(idx, 0, n - 2, out=idx)
    ncells = n - 1
    strides = np.ones(grid.state_dim, dtype=np.int64)
    for i in range(grid.state_dim - 2, -1, -1):
        strides[i] = strides[i + 1] * ncells[i + 1]
    return idx @ strides


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_index_matches_matmul_formula_bitwise(d):
    rng = np.random.default_rng(20 + d)
    lo = np.array([-1.5, 0.0, 0.3])[:d]
    hi = np.array([2.5, 3.0, 1.1])[:d]
    grid = SpaceTimeGrid(1.0, 2, tuple(lo), tuple(hi), (7, 5, 4)[:d])
    inside = rng.uniform(lo, hi, (500, d))
    faces = inside.copy()
    for i in range(d):
        faces[i::2 * d, i] = hi[i]
        faces[i + d :: 2 * d, i] = lo[i]
    outside = rng.uniform(lo - 3.0, hi + 3.0, (500, d))
    for pts in (grid.node_coords(), inside, faces, outside):
        got = cell_index(grid, pts)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _cell_index_matmul(grid, pts))


def test_cell_regression_matches_dense_least_squares(grid):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (300, 2))
    targets = rng.standard_normal((300, 2))
    fallback = np.zeros((16, 2))
    idx = cell_index(grid, x)
    out = fallback.copy()
    _cell_means(idx, np.bincount(idx, minlength=16), targets, out)
    np.testing.assert_array_equal(out, cell_regression(grid, x, targets, fallback))
    # dense normal equations on the indicator design matrix
    design = np.zeros((300, 16))
    design[np.arange(300), idx] = 1.0
    dense, *_ = np.linalg.lstsq(design, targets, rcond=None)
    filled = np.bincount(idx, minlength=16) > 0
    np.testing.assert_allclose(out[filled], dense[filled], atol=1e-10)


def test_cell_regression_keeps_fallback_in_empty_cells(grid):
    x = np.array([[0.1, 0.1]])  # only cell 0 is visited
    targets = np.array([[2.0, -1.0]])
    fallback = np.full((16, 2), 7.0)
    idx = cell_index(grid, x)
    out = fallback.copy()
    _cell_means(idx, np.bincount(idx, minlength=16), targets, out)
    np.testing.assert_array_equal(out[0], [2.0, -1.0])
    np.testing.assert_array_equal(out[1:], fallback[1:])


def test_piecewise_constant_protocol(grid):
    cells = np.arange(5 * 16 * 2, dtype=float).reshape(5, 16, 2)
    adj = PiecewiseConstantAdjoint(grid=grid, cells=cells, means=None, ensemble=None)
    pts = np.array([[0.1, 0.1], [0.9, 0.9]])
    out = adj.u_at_points(2, pts)
    np.testing.assert_array_equal(out, cells[2][[0, 15]])
    assert adj.u_at_nodes(1).shape == (25, 2)


def test_regressed_adjoint_tracks_terminal_condition():
    prob = portfolio_problem()
    grid = portfolio_grid(cells=25, time_steps=25)
    policy = GridField.zeros(grid, 1)
    ens = simulate(prob, policy, 20_000, grid.time_steps, 0)
    adj = regress_adjoint(prob, policy, ens)
    xT = ens.states[-1]
    exact = np.stack([-xT[:, 1], -xT[:, 0] + xT[:, 1]], axis=1)
    approx = adj.u_at_points(grid.time_steps, xT)
    # piecewise-constant projection error is O(h) where cells are populated
    err = np.abs(approx - exact).mean()
    assert err < 0.1


def _regress_reference(problem, policy, ensemble, grid, previous):
    """The backward regression spelled out with the public pieces: cell
    indices recomputed for every lookup and the policy re-evaluated at the
    particles.  regress_adjoint must reproduce it bit for bit."""
    M = grid.time_steps
    cells = np.empty_like(previous)
    mu_T = ensemble.measure(M)
    term = problem.dx_terminal(ensemble.states[M], mu_T)
    cells[M] = cell_regression(grid, ensemble.states[M], term, previous[M])
    adj = PiecewiseConstantAdjoint(grid=grid, cells=cells, means=None, ensemble=None)
    for j in range(M, 0, -1):
        t, x, eta = j * grid.dt, ensemble.states[j], ensemble.measure(j)
        a = policy.eval_slice(j, x)
        u = adj.u_at_points(j, x)
        src = np.einsum("pil,pi->pl", problem.dx_drift(t, x, a, eta), u)
        src += problem.dx_running(t, x, a, eta)
        eta_k = eta.strided()
        if not problem.mu_drift.is_zero:
            u_k = u[:: eta.stride()]
            src += problem.mu_drift.mean_contract(t, eta_k, x, a, weights=u_k)
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
        subsample = 64
        prob = cs2d_problem(params, kernel_subsample=subsample)
        grid = cs2d_grid(params, cells=10, time_steps=6)
    rng = np.random.default_rng(4)
    policy = GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 400, grid.time_steps, 0)
    previous = rng.standard_normal((grid.time_steps + 1, 100, 2))
    cells = previous.copy()
    adj = regress_adjoint(prob, policy, ens, previous=cells)
    # the regression updates the cells it is given, and the oracle reads
    # the original ones
    assert adj.cells is cells
    want = _regress_reference(prob, policy, ens, grid, previous)
    np.testing.assert_array_equal(adj.cells, want)
    for j in (0, grid.time_steps):
        np.testing.assert_array_equal(
            adj.u_at_nodes(j), adj.u_at_points(j, grid.node_coords())
        )


@pytest.mark.parametrize("N, subsample, stride", [(700, None, 1), (1400, 20, 70)])
def test_regression_means_are_the_histogram_means_of_the_strided_atoms(
    N, subsample, stride, monkeypatch
):
    prob = portfolio_problem(kernel_subsample=subsample)
    grid = portfolio_grid(cells=10, time_steps=6)
    rng = np.random.default_rng(11)
    policy = GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, N, grid.time_steps, 5)
    previous = rng.standard_normal((grid.time_steps + 1, 100, 2))
    adj = regress_adjoint(prob, policy, ens, previous=previous.copy())
    assert adj.ensemble is ens and ens.kernel_subsample == subsample
    assert ens.measure(0).stride() == stride
    lookups = []

    def counted_cell_index(grid, x):
        lookups.append(x.shape[0])
        return cell_index(grid, x)

    monkeypatch.setattr(emreg, "cell_index", counted_cell_index)
    for j in range(grid.time_steps + 1):
        # the gradient's atoms, as hamiltonian_derivative takes them
        x = adj.kernel_atoms(j).x
        np.testing.assert_array_equal(x, ens.measure(j).strided().x)
        counts = np.bincount(cell_index(grid, x), minlength=100)
        want = counts @ adj.cells[j] / x.shape[0]
        lookups.clear()
        got = adj.kernel_mean(j)
        assert lookups == []  # stored by the regression, not looked up
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        scale = np.abs(adj.cells[j]).max()
        np.testing.assert_allclose(
            got, adj.u_at_points(j, x).mean(axis=0), rtol=0, atol=1e-13 * scale
        )


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


@pytest.mark.parametrize(
    "previous",
    [np.zeros((7, 100, 2)), np.zeros((9, 100, 2)), np.zeros((8, 100, 2), dtype=np.float32)],
    ids=["too-few-slices", "too-many-slices", "float32"],
)
def test_regression_rejects_cells_of_another_shape(previous):
    prob, grid = portfolio_problem(), portfolio_grid(cells=10, time_steps=7)
    policy = GridField.zeros(grid, 1)
    ens = simulate(prob, policy, 50, grid.time_steps, 0)
    with pytest.raises(ValueError, match=r"expected float64 of shape \(8, 100, 2\)"):
        regress_adjoint(prob, policy, ens, previous=previous)


def test_run_regresses_into_one_cell_array(monkeypatch):
    # from the second iteration on, every regression receives the cells of
    # the one before and returns them as its own; the run is bit for bit
    # the run that regresses into a fresh array every iteration
    regress = emreg.regress_adjoint
    calls = []

    def in_place(problem, policy, ensemble, previous):
        adjoint = regress(problem, policy, ensemble, previous)
        calls.append((previous, adjoint.cells))
        return adjoint

    def fresh(problem, policy, ensemble, previous):
        return regress(problem, policy, ensemble, None if previous is None else previous.copy())

    prob, grid = portfolio_problem(), portfolio_grid(cells=10, time_steps=10)
    reports = []
    for wrapper in (in_place, fresh):
        monkeypatch.setattr(emreg, "regress_adjoint", wrapper)
        reports.append(run(prob, grid, iterations=3, num_particles=300, seed=0, method="emreg"))
    assert len(calls) == 3 and calls[0][0] is None
    cells = calls[0][1]
    for previous, returned in calls[1:]:
        assert previous is cells and returned is cells
    rows = [
        [(r.cost.hex(), r.stderr.hex(), r.grad_norm.hex()) for r in rep.records]
        for rep in reports
    ]
    assert rows[0] == rows[1]
    np.testing.assert_array_equal(reports[0].policy.values, reports[1].policy.values)


def test_emreg_approaches_pde_solution_on_nominal_model():
    prob = portfolio_problem()
    grid = portfolio_grid()
    rf = run(prob, grid, iterations=6, num_particles=4_000, seed=0)
    re = run(prob, grid, iterations=6, num_particles=4_000, seed=0, method="emreg")
    assert abs(re.records[-1].cost - rf.records[-1].cost) / abs(rf.records[-1].cost) < 0.05
