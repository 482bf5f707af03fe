"""Monotone finite-difference solver: stencils, monotonicity, convergence."""

import dataclasses
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from mfcontrol import (
    AdjointField,
    CuckerSmaleParams,
    GridField,
    MeasureKernel,
    MfcProblem,
    PolicyField,
    SpaceTimeGrid,
    assemble_source,
    backward_sweep,
    build_operator,
    cs2d_grid,
    cs2d_problem,
    portfolio_grid,
    portfolio_problem,
    simulate,
)
from mfcontrol import fdsolver
from mfcontrol.fdsolver import MonotoneOperator, terminal_data


def _linear_1d_problem(b=0.0, sigma=np.sqrt(2.0), source=None, terminal=None):
    """Scalar state, constant coefficients, no measure interaction."""

    def drift(t, x, a, eta):
        return np.full_like(x, b)

    def diffusion(t, x, a, eta):
        return np.full((x.shape[0], 1, 1), sigma)

    def zeros_d(t, x, a, eta):
        return np.zeros((x.shape[0], 1, 1))

    def dx_running(t, x, a, eta):
        if source is None:
            return np.zeros((x.shape[0], 1))
        return source(t, x)

    def dx_terminal(x, mu):
        if terminal is None:
            return np.zeros((x.shape[0], 1))
        return terminal(x)

    return MfcProblem(
        state_dim=1, control_dim=1, noise_dim=1, horizon=1.0,
        drift=drift, diffusion=diffusion,
        running_cost=lambda t, x, a, eta: np.zeros(x.shape[0]),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
        dx_drift=zeros_d, da_drift=zeros_d,
        dx_running=dx_running,
        da_running=lambda t, x, a, eta: np.zeros((x.shape[0], 1)),
        dx_terminal=dx_terminal,
        mu_drift=MeasureKernel.zero((1, 1)), nu_drift=MeasureKernel.zero((1, 1)),
        mu_running=MeasureKernel.zero((1,)), nu_running=MeasureKernel.zero((1,)),
        mu_terminal=MeasureKernel.zero((1,)),
        initial_sampler=lambda n, rng: rng.uniform(0.3, 0.7, (n, 1)),
    )


def _grid_1d(nodes=11, time_steps=100):
    return SpaceTimeGrid(horizon=1.0, time_steps=time_steps, lo=(0.0,), hi=(1.0,), nodes=(nodes,))


def _setup(problem, grid, N=64, seed=0):
    policy = PolicyField.zeros(grid, 1)
    ens = simulate(problem, policy, N, grid.time_steps, seed)
    return policy, ens


def _stencil(op):
    """Dense L recovered from the system I - dt*L (zero on boundary rows)."""
    P = op.system.shape[0]
    return (np.eye(P) - op.system.toarray()) / op.grid.dt


def test_stencil_weights_pure_diffusion():
    # sigma^2 = 2, h = 0.1: each interior row is (100, -200, 100)
    prob = _linear_1d_problem(b=0.0, sigma=np.sqrt(2.0))
    grid = _grid_1d(nodes=11)
    policy, ens = _setup(prob, grid)
    op = build_operator(prob, policy, ens, grid, 0)
    L = _stencil(op)
    for k in range(1, 10):
        np.testing.assert_allclose(L[k, k - 1], 100.0, atol=1e-9)
        np.testing.assert_allclose(L[k, k + 1], 100.0, atol=1e-9)
        np.testing.assert_allclose(L[k, k], -200.0, atol=1e-9)
    assert np.all(L[0] == 0.0) and np.all(L[10] == 0.0)


def test_stencil_weights_upwind_drift():
    # b = +1 adds 1/h to the forward neighbour only
    prob = _linear_1d_problem(b=1.0, sigma=np.sqrt(2.0))
    grid = _grid_1d(nodes=11)
    policy, ens = _setup(prob, grid)
    L = _stencil(build_operator(prob, policy, ens, grid, 0))
    np.testing.assert_allclose(L[5, 6], 110.0, atol=1e-9)
    np.testing.assert_allclose(L[5, 4], 100.0, atol=1e-9)
    np.testing.assert_allclose(L[5, 5], -210.0, atol=1e-9)


def test_stencil_nonnegative_off_diagonal_on_models():
    for prob, grid in [(portfolio_problem(), portfolio_grid())]:
        policy, ens = _setup(prob, grid, N=256)
        for j in (0, 25, 49):
            op = build_operator(prob, policy, ens, grid, j)
            sys_ = op.system.tocoo()
            off_sys = sys_.data[sys_.row != sys_.col]
            assert np.all(off_sys <= 0.0)  # M-matrix sign pattern
            # rows of L sum to zero, so every row of I - dt*L sums to one
            # and the diagonal dominates strictly
            np.testing.assert_allclose(op.system.sum(axis=1).A1, 1.0, rtol=0, atol=1e-12)
            assert np.all(op.system.diagonal() >= 1.0)


def test_off_diagonal_diffusion_rejected():
    def skew_diffusion(t, x, a, eta):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 0] = 1.0
        out[:, 1, 1] = 1.0
        return out

    prob = portfolio_problem()
    prob.diffusion = skew_diffusion
    prob.noise_dim = 2
    grid = portfolio_grid()
    policy = PolicyField.zeros(grid, 1)
    ens = simulate(portfolio_problem(), policy, 32, grid.time_steps, 0)
    with pytest.raises(ValueError, match="off-diagonal"):
        build_operator(prob, policy, ens, grid, 0)


@pytest.mark.parametrize("depends_on", ["x", "a"])
def test_diffusion_depending_on_state_or_control_rejected(depends_on):
    base, grid = portfolio_problem(), portfolio_grid()
    rng = np.random.default_rng(5)
    policy = PolicyField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(base, policy, 64, grid.time_steps, 0)

    def diffusion(t, x, a, eta):
        arg = x[:, 1] if depends_on == "x" else a[:, 0]
        return base.diffusion(t, x, a, eta) * (1.0 + 0.1 * arg[:, None, None])

    prob = dataclasses.replace(base, diffusion=diffusion)
    with pytest.raises(ValueError, match="diffusion differs"):
        build_operator(prob, policy, ens, grid, 10)


def test_m_matrix_inverse_nonnegativity():
    prob = portfolio_problem()
    grid = portfolio_grid()
    policy, ens = _setup(prob, grid, N=256)
    op = build_operator(prob, policy, ens, grid, 10)
    rng = np.random.default_rng(0)
    for _ in range(10):
        rhs = rng.uniform(0.0, 1.0, (grid.num_nodes, 1))
        rhs[grid.boundary_mask()] = 0.0
        sol = op.solve(rhs)
        assert sol.min() >= -1e-12


def _coo_system(problem, policy, ensemble, grid, j):
    """I - dt*L assembled from COO triplets and scipy's sparse algebra: the
    reference that build_operator's direct CSR assembly must reproduce."""
    t = j * grid.dt
    X = grid.node_coords()
    psi = policy.slice_flat(j)
    eta = ensemble.measure(j)
    b = problem.drift(t, X, psi, eta)
    sig = problem.diffusion(t, X, psi, eta)
    diag = np.einsum("pii->pi", np.einsum("pir,plr->pil", sig, sig))
    P, h, strides = grid.num_nodes, grid.h, grid.strides
    nodes = np.arange(P)[~grid.boundary_mask()]
    rows, cols, vals = [], [], []
    for i in range(grid.state_dim):
        up = np.maximum(b[:, i], 0.0) / h[i] + 0.5 * diag[:, i] / h[i] ** 2
        dn = np.maximum(-b[:, i], 0.0) / h[i] + 0.5 * diag[:, i] / h[i] ** 2
        rows += [nodes] * 3
        cols += [nodes + strides[i], nodes - strides[i], nodes]
        vals += [up[nodes], dn[nodes], -(up[nodes] + dn[nodes])]
    L = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(P, P)
    )
    return (sp.identity(P, format="csr") - grid.dt * L).tocsr()


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        # compare bit patterns, which also tells -0.0 from 0.0
        np.testing.assert_array_equal(a.view(np.int8), b.view(np.int8))


@pytest.mark.parametrize("psi_scale, nnz", [(0.0, 7403), (1.0, 9804)])
def test_system_matches_coo_assembly_bitwise(psi_scale, nnz):
    # psi = 0 zeroes the inventory drift, so scipy drops those stencil
    # entries as exact zeros; the direct assembly must drop the same ones
    prob, grid = portfolio_problem(), portfolio_grid()
    rng = np.random.default_rng(3)
    vals = psi_scale * rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,))
    policy = PolicyField(grid, vals)
    ens = simulate(prob, policy, 128, grid.time_steps, 0)
    for j in (0, 17):
        got = build_operator(prob, policy, ens, grid, j).system
        assert got.nnz == nnz
        _assert_same_csr(got, _coo_system(prob, policy, ens, grid, j))


def test_system_matches_coo_assembly_bitwise_1d():
    prob = _linear_1d_problem(b=-0.4, sigma=0.3)
    grid = _grid_1d(nodes=21)
    policy, ens = _setup(prob, grid)
    got = build_operator(prob, policy, ens, grid, 0).system
    _assert_same_csr(got, _coo_system(prob, policy, ens, grid, 0))


def test_singular_system_raises_promptly():
    grid = _grid_1d(nodes=21)
    P = grid.num_nodes
    op = MonotoneOperator(grid=grid, system=sp.csr_matrix((P, P)))
    tic = time.perf_counter()
    with pytest.raises(RuntimeError, match="sparse LU"):
        op.solve(np.ones((P, 1)))
    assert time.perf_counter() - tic < 5.0


def test_solve_tolerance_is_relative_to_rhs(monkeypatch):
    prob = _linear_1d_problem()
    grid = _grid_1d(nodes=21)
    policy, ens = _setup(prob, grid)
    op = build_operator(prob, policy, ens, grid, 0)
    rng = np.random.default_rng(1)
    rhs = 1e12 * rng.standard_normal((grid.num_nodes, 1))
    sol = op.solve(rhs)
    res = np.abs(op.system @ sol - rhs).max()
    assert res <= fdsolver._SOLVE_TOL * np.abs(rhs).max()
    monkeypatch.setattr(fdsolver, "_SOLVE_TOL", 0.0)
    with pytest.raises(RuntimeError, match=r"residual .* exceeds the tolerance"):
        op.solve(rhs)


def _coupled_portfolio_slice(j=17):
    """Portfolio operator under a policy of mixed sign: every upwind
    direction occurs, so no stencil entry drops out of the system."""
    prob, grid = portfolio_problem(), portfolio_grid()
    rng = np.random.default_rng(5)
    policy = PolicyField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 256, grid.time_steps, 0)
    return build_operator(prob, policy, ens, grid, j)


def _cs2d_slice(j=3):
    params = CuckerSmaleParams(beta=10.0)
    prob, grid = cs2d_problem(params), cs2d_grid(params, time_steps=10)
    policy = PolicyField(grid, np.random.default_rng(6).standard_normal(
        (grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 200, grid.time_steps, 0)
    return build_operator(prob, policy, ens, grid, j)


def _slice_3d():
    """Space-dependent drift of both signs on a 9 x 8 x 7 lattice (strides
    56, 7, 1), so that a mix-up of dimensions shows in the ordering."""

    def drift(t, x, a, eta):
        return np.stack(
            [np.sin(6.0 * x[:, 1]), x[:, 2] - 0.5, np.cos(5.0 * x[:, 0])], axis=1
        )

    def diffusion(t, x, a, eta):
        return np.broadcast_to(np.diag([0.3, 0.2, 0.4]), (x.shape[0], 3, 3))

    prob = dataclasses.replace(
        _linear_1d_problem(), state_dim=3, noise_dim=3, drift=drift, diffusion=diffusion,
        initial_sampler=lambda n, rng: rng.uniform(0.2, 0.8, (n, 3)),
    )
    grid = SpaceTimeGrid(horizon=1.0, time_steps=20, lo=(0.0,) * 3, hi=(1.0,) * 3, nodes=(9, 8, 7))
    policy, ens = _setup(prob, grid)
    return build_operator(prob, policy, ens, grid, 4)


@pytest.mark.parametrize("make_slice", [_coupled_portfolio_slice, _cs2d_slice, _slice_3d])
def test_solve_matches_dense_solve(make_slice):
    op = make_slice()
    P = op.grid.num_nodes
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((P, 2))
    sol = op.solve(rhs)
    want = np.linalg.solve(op.system.toarray(), rhs)
    assert np.abs(sol - want).max() <= 1e-12 * np.abs(want).max()
    # the factorisation took every diagonal pivot: no row was exchanged
    np.testing.assert_array_equal(op._lu.perm_r, np.arange(P))
    # and the lattice order keeps the fill near that of SuperLU's own
    # per-matrix ordering with partial pivoting
    default = splu(op.system.tocsc())
    assert op._lu.L.nnz + op._lu.U.nnz <= 1.25 * (default.L.nnz + default.U.nnz)


def test_solve_obeys_discrete_maximum_principle():
    # I - dt*L has row sums 1 and a nonnegative inverse, so each entry of
    # the solution is a convex combination of the right-hand side
    op = _coupled_portfolio_slice()
    np.testing.assert_allclose(op.system.sum(axis=1).A1, 1.0, rtol=0, atol=1e-12)
    rhs = np.random.default_rng(8).uniform(-3.0, 5.0, (op.grid.num_nodes, 2))
    sol = op.solve(rhs)
    assert np.all(sol >= rhs.min(axis=0) - 1e-12)
    assert np.all(sol <= rhs.max(axis=0) + 1e-12)


def _liquidating_policy(grid):
    """Smooth, time-varying policy a = (0.5 - q)(1 + t): the inventory
    drift is negative on 7/8 of the box, so the advection-only inventory
    dimension splits the lattice into many strongly connected components."""
    q = grid.node_coords()[:, 1]
    vals = np.outer(1.0 + grid.times, 0.5 - q)
    return PolicyField(grid, vals.reshape((grid.time_steps + 1,) + grid.nodes + (1,)))


def _liquidating_portfolio_slice(j=17):
    prob, grid = portfolio_problem(), portfolio_grid()
    policy = _liquidating_policy(grid)
    ens = simulate(prob, policy, 256, grid.time_steps, 0)
    return build_operator(prob, policy, ens, grid, j)


@pytest.mark.parametrize("make_slice", [_liquidating_portfolio_slice, _cs2d_slice])
def test_elimination_order_is_block_triangular(make_slice):
    op = make_slice()
    P = op.grid.num_nodes
    op.solve(np.ones((P, 1)))
    ncomp, comp = connected_components(op.system, directed=True, connection="strong")
    assert ncomp > 200
    # scipy's labels order the components topologically: the system is
    # block lower-triangular in the order of increasing label
    coo = op.system.tocoo()
    assert np.all(comp[coo.row] >= comp[coo.col])
    # the order sorts by component, and within one by lattice rank
    lattice, lattice_rank = fdsolver._fill_order(op.grid.nodes)
    key = comp[op._order].astype(np.int64) * P + lattice_rank[op._order]
    assert np.all(np.diff(key) > 0)
    np.testing.assert_array_equal(op._rank[op._order], np.arange(P))
    # the factor fills only the diagonal blocks: far less than the lattice
    # order alone
    in_lattice_order = splu(op.system[lattice][:, lattice].tocsc(), **fdsolver._LU_OPTIONS)
    lattice_fill = in_lattice_order.L.nnz + in_lattice_order.U.nnz
    assert op._lu.L.nnz + op._lu.U.nnz <= 0.8 * lattice_fill


def _counting_splu(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fdsolver, "splu", counted)
    return calls


@pytest.mark.parametrize("policy_kind, factors", [("zero", 1), ("liquidating", 10)])
def test_sweep_factors_once_per_distinct_operator(monkeypatch, policy_kind, factors):
    # under the zero policy every slice has b = 0 and the same sigma, so
    # all M slices share one operator; a time-varying policy changes it
    prob, grid = portfolio_problem(), portfolio_grid(cells=20, time_steps=10)
    if policy_kind == "zero":
        policy = PolicyField.zeros(grid, 1)
    else:
        policy = _liquidating_policy(grid)
    ens = simulate(prob, policy, 256, grid.time_steps, 0)
    fdsolver._fill_order(grid.nodes)  # its own splu call stays out of the count
    calls = _counting_splu(monkeypatch)
    backward_sweep(prob, policy, ens, grid)
    assert len(calls) == factors


def test_reused_factor_matches_a_factor_per_slice_bitwise(monkeypatch):
    prob, grid = portfolio_problem(), portfolio_grid()
    policy = PolicyField.zeros(grid, 1)
    ens = simulate(prob, policy, 256, grid.time_steps, 0)
    reused = backward_sweep(prob, policy, ens, grid).u.values
    monkeypatch.setattr(fdsolver, "_same_csr", lambda a, b: False)
    calls = _counting_splu(monkeypatch)
    fresh = backward_sweep(prob, policy, ens, grid).u.values
    assert len(calls) == grid.time_steps
    np.testing.assert_array_equal(reused.view(np.int64), fresh.view(np.int64))


def test_fill_order_is_one_permutation_per_node_lattice():
    fdsolver._fill_order.cache_clear()
    prob = _linear_1d_problem()
    for horizon, steps in [(1.0, 40), (2.0, 7)]:
        grid = SpaceTimeGrid(horizon=horizon, time_steps=steps, lo=(0.0,), hi=(1.0,), nodes=(33,))
        prob = dataclasses.replace(prob, horizon=horizon)
        policy, ens = _setup(prob, grid)
        build_operator(prob, policy, ens, grid, 0).solve(np.ones((33, 1)))
    assert fdsolver._fill_order.cache_info().misses == 1
    order, rank = fdsolver._fill_order((33,))
    np.testing.assert_array_equal(np.sort(order), np.arange(33))
    np.testing.assert_array_equal(rank[order], np.arange(33))
    assert not order.flags.writeable and not rank.flags.writeable


def test_zero_source_sweep_obeys_maximum_principle():
    terminal = lambda x: np.sin(3.0 * x) + 0.2 * np.cos(9.0 * x)
    prob = _linear_1d_problem(b=0.7, sigma=0.5, terminal=terminal)
    grid = _grid_1d(nodes=41, time_steps=50)
    policy, ens = _setup(prob, grid)
    adj = backward_sweep(prob, policy, ens, grid)
    data = terminal(grid.node_coords())
    lo, hi = data.min(), data.max()
    assert adj.u.values.min() >= lo - 1e-10
    assert adj.u.values.max() <= hi + 1e-10


def test_manufactured_solution_convergence_order():
    # exact solution u(t, x) = exp(k (T - t)) sin(pi x) of
    # u_t + (sigma^2 / 2) u_xx = -s with s = (k + sigma^2 pi^2 / 2) u
    k, sigma = 0.5, 0.6
    rate = k + 0.5 * sigma**2 * np.pi**2

    def exact(t, x):
        return np.exp(k * (1.0 - t)) * np.sin(np.pi * x)

    errors = []
    for nodes, steps in [(41, 100), (81, 200), (161, 400)]:
        prob = _linear_1d_problem(
            b=0.0,
            sigma=sigma,
            source=lambda t, x: rate * exact(t, x),
            terminal=lambda x: exact(1.0, x),
        )
        grid = _grid_1d(nodes=nodes, time_steps=steps)
        policy, ens = _setup(prob, grid)
        adj = backward_sweep(prob, policy, ens, grid)
        u0 = adj.u.slice_flat(0)[:, 0]
        errors.append(np.abs(u0 - exact(0.0, grid.node_coords())[:, 0]).max())
    order1 = np.log2(errors[0] / errors[1])
    order2 = np.log2(errors[1] / errors[2])
    assert min(order1, order2) >= 0.9, errors


def test_portfolio_source_and_terminal_data():
    prob = portfolio_problem()
    grid = portfolio_grid()
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,))
    policy = PolicyField(grid, vals)
    ens = simulate(prob, policy, 128, grid.time_steps, 0)
    X = grid.node_coords()
    j = 17
    vals = np.zeros((grid.time_steps + 1,) + grid.nodes + (2,))
    vals[j] = rng.standard_normal(grid.nodes + (2,))
    src = assemble_source(prob, policy, ens, AdjointField(GridField(grid, vals)), grid, j)
    np.testing.assert_allclose(src[:, 0], policy.slice_flat(j)[:, 0], atol=1e-12)
    np.testing.assert_allclose(src[:, 1], 2.0 * X[:, 1], atol=1e-12)
    term = terminal_data(prob, ens, grid)
    np.testing.assert_allclose(
        term, np.stack([-X[:, 1], -X[:, 0] + X[:, 1]], axis=1), atol=1e-12
    )


def test_terminal_data_averages_the_kernel_over_the_strided_atoms():
    # the carrier mean of x**2 depends on which atoms are kept, so the
    # terminal data tells a strided contraction from one over all atoms
    base = portfolio_problem()
    prob = dataclasses.replace(
        base, mu_terminal=MeasureKernel(out_shape=(2,), carrier_fn=lambda t, cx, ca, m: cx**2)
    )
    grid = portfolio_grid(cells=10, time_steps=6)
    rng = np.random.default_rng(6)
    policy = PolicyField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 300, grid.time_steps, 0)
    mu_T = ens.measure(grid.time_steps)
    X = grid.node_coords()
    for subsample in (40, None):
        kept = mu_T.strided(subsample)
        # dx g plus the mu_terminal mean over the strided atoms, as the
        # regression takes it at the particles
        want = base.dx_terminal(X, mu_T) + (kept.x**2).mean(axis=0)
        adj = backward_sweep(prob, policy, ens, grid, kernel_subsample=subsample)
        np.testing.assert_array_equal(adj.u.slice_flat(grid.time_steps), want)
        np.testing.assert_array_equal(terminal_data(prob, ens, grid, subsample), want)
    assert mu_T.stride(40) == 8
    full, strided = (mu_T.x**2).mean(axis=0), (mu_T.strided(40).x**2).mean(axis=0)
    assert np.abs(full - strided).min() > 1e-3


def test_large_time_step_warns():
    prob = _linear_1d_problem()
    grid = SpaceTimeGrid(horizon=1.0, time_steps=1, lo=(0.0,), hi=(1.0,), nodes=(51,))
    policy, ens = _setup(prob, grid)
    with pytest.warns(UserWarning, match="time step"):
        backward_sweep(prob, policy, ens, grid)
