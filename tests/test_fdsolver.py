"""Monotone finite-difference solver: stencils, monotonicity, convergence."""

import dataclasses
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from mfcontrol import (
    AdjointField,
    CuckerSmaleParams,
    GridField,
    MeasureKernel,
    MfcProblem,
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
from mfcontrol.fdsolver import BandMatrix, MonotoneOperator


def _linear_1d_problem(b=0.0, sigma=np.sqrt(2.0), source=None, terminal=None):
    """Scalar state, constant coefficients, no measure interaction."""

    def drift(t, x, a, eta):
        return np.full_like(x, b)

    def diffusion(t, eta):
        return np.full((1, 1), sigma)

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
        mu_drift=MeasureKernel.zero(), nu_drift=MeasureKernel.zero(),
        initial_sampler=lambda n, rng: rng.uniform(0.3, 0.7, (n, 1)),
    )


def _grid_1d(nodes=11, time_steps=100):
    return SpaceTimeGrid(horizon=1.0, time_steps=time_steps, lo=(0.0,), hi=(1.0,), nodes=(nodes,))


def _setup(problem, grid, N=64, seed=0):
    policy = GridField.zeros(grid, 1)
    ens = simulate(problem, policy, N, grid.time_steps, seed)
    return policy, ens


def _stencil(op, dt):
    """Dense L recovered from the system I - dt*L (zero on boundary rows)."""
    P = op.system.shape[0]
    return (np.eye(P) - op.system.toarray()) / dt


def test_stencil_weights_pure_diffusion():
    # sigma^2 = 2, h = 0.1: each interior row is (100, -200, 100)
    prob = _linear_1d_problem(b=0.0, sigma=np.sqrt(2.0))
    grid = _grid_1d(nodes=11)
    policy, ens = _setup(prob, grid)
    op = build_operator(prob, policy, ens, 0)
    L = _stencil(op, grid.dt)
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
    L = _stencil(build_operator(prob, policy, ens, 0), grid.dt)
    np.testing.assert_allclose(L[5, 6], 110.0, atol=1e-9)
    np.testing.assert_allclose(L[5, 4], 100.0, atol=1e-9)
    np.testing.assert_allclose(L[5, 5], -210.0, atol=1e-9)


def test_stencil_nonnegative_off_diagonal_on_models():
    for prob, grid in [(portfolio_problem(), portfolio_grid())]:
        policy, ens = _setup(prob, grid, N=256)
        for j in (0, 25, 49):
            band = build_operator(prob, policy, ens, j).system.band
            off_sys = np.delete(band, grid.state_dim, axis=0)
            assert np.all(off_sys <= 0.0)  # M-matrix sign pattern
            # rows of L sum to zero, so every row of I - dt*L sums to one
            # and the diagonal dominates strictly
            np.testing.assert_allclose(band.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            assert np.all(band[grid.state_dim] >= 1.0)


def test_off_diagonal_diffusion_rejected():
    def skew_diffusion(t, eta):
        return np.array([[1.0, 0.0], [1.0, 1.0]])

    prob = portfolio_problem()
    prob.diffusion = skew_diffusion
    prob.noise_dim = 2
    grid = portfolio_grid()
    policy = GridField.zeros(grid, 1)
    ens = simulate(portfolio_problem(), policy, 32, grid.time_steps, 0)
    with pytest.raises(ValueError, match="off-diagonal"):
        build_operator(prob, policy, ens, 0)


def test_small_off_diagonal_diffusion_rejected():
    # sigma = 1e-7 [1, 1]^T: sigma sigma^T has as much mass off the diagonal
    # as on it, however small both are
    grid = portfolio_grid(cells=10, time_steps=4)
    policy = GridField.zeros(grid, 1)
    ens = simulate(portfolio_problem(), policy, 32, grid.time_steps, 0)
    skew = np.full((2, 1), 1e-7)
    prob = dataclasses.replace(portfolio_problem(), diffusion=lambda t, eta: skew)
    with pytest.raises(ValueError, match="off-diagonal"):
        build_operator(prob, policy, ens, 0)
    # a diagonal sigma sigma^T of the same size passes
    diagonal = np.array([[1e-7], [0.0]])
    prob = dataclasses.replace(portfolio_problem(), diffusion=lambda t, eta: diagonal)
    build_operator(prob, policy, ens, 0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_drift_fails_only_at_an_interior_node(value):
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=10)
    policy, ens = _setup(prob, grid)
    clean = build_operator(prob, policy, ens, 3).system.band
    drift = prob.drift

    def poisoned(t, x, a, eta):
        b = np.array(drift(t, x, a, eta))
        b[node, 0] = value
        return b

    prob.drift = poisoned
    node = 60  # (5, 5), interior of the 11 x 11 lattice
    with pytest.raises(FloatingPointError, match="non-finite drift at slice 3, node 60"):
        build_operator(prob, policy, ens, 3)
    # boundary rows of L are zeroed, so there the drift takes no part
    node = 5  # (0, 5)
    assert grid.boundary_mask()[node]
    np.testing.assert_array_equal(build_operator(prob, policy, ens, 3).system.band, clean)


def test_m_matrix_inverse_nonnegativity():
    prob = portfolio_problem()
    grid = portfolio_grid()
    policy, ens = _setup(prob, grid, N=256)
    op = build_operator(prob, policy, ens, 10)
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
    # sigma at every node, so that the reference keeps its per-node einsum
    sig = problem.diffusion(t, eta)
    sig = np.broadcast_to(sig, (len(X),) + sig.shape)
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


def _as_csr(system):
    """The nonzero entries of a BandMatrix as a CSR matrix."""
    e, rows = np.nonzero(system.band)
    cols = rows + system.offsets[e]
    return sp.csr_matrix((system.band[e, rows], (rows, cols)), shape=system.shape)


def _assert_same_csr(system, want):
    got = _as_csr(system)
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
    policy = GridField(grid, vals)
    ens = simulate(prob, policy, 128, grid.time_steps, 0)
    for j in (0, 17):
        got = build_operator(prob, policy, ens, j).system
        assert got.nnz == nnz
        _assert_same_csr(got, _coo_system(prob, policy, ens, grid, j))


def test_system_matches_coo_assembly_bitwise_1d():
    prob = _linear_1d_problem(b=-0.4, sigma=0.3)
    grid = _grid_1d(nodes=21)
    policy, ens = _setup(prob, grid)
    got = build_operator(prob, policy, ens, 0).system
    _assert_same_csr(got, _coo_system(prob, policy, ens, grid, 0))


def test_singular_system_raises_promptly():
    grid = _grid_1d(nodes=21)
    P = grid.num_nodes
    op = MonotoneOperator(BandMatrix(np.zeros((3, P)), grid.nodes))
    tic = time.perf_counter()
    with pytest.raises(RuntimeError, match="zero pivot"):
        op.solve(np.ones((P, 1)))
    assert time.perf_counter() - tic < 5.0


def test_solve_tolerance_is_relative_to_rhs(monkeypatch):
    prob = _linear_1d_problem()
    grid = _grid_1d(nodes=21)
    policy, ens = _setup(prob, grid)
    op = build_operator(prob, policy, ens, 0)
    rng = np.random.default_rng(1)
    rhs = 1e12 * rng.standard_normal((grid.num_nodes, 1))
    sol = op.solve(rhs)
    res = np.abs(op.system @ sol - rhs).max()
    assert res <= fdsolver._SOLVE_TOL * np.abs(rhs).max()
    monkeypatch.setattr(fdsolver, "_SOLVE_TOL", 0.0)
    with pytest.raises(RuntimeError, match=r"residual .* exceeds the tolerance"):
        op.solve(rhs)


def test_solve_tolerance_is_relative_also_below_unit_scale():
    # an rhs of size 1e-12 solved 1 % off leaves a residual near 1e-14, far
    # below an absolute 1e-10, but a relative residual of 1e-2
    prob = _linear_1d_problem()
    grid = _grid_1d(nodes=21)
    policy, ens = _setup(prob, grid)
    op = build_operator(prob, policy, ens, 0)
    rhs = 1e-12 * np.random.default_rng(3).standard_normal((grid.num_nodes, 1))
    op.solve(rhs)
    exact = op._plan

    class Plan:
        def __init__(self, scale, shift):
            self.scale, self.shift = scale, shift

        def solve(self, b):
            return self.scale * exact.solve(b) + self.shift

    op._plan = Plan(1.01, 0.0)
    with pytest.raises(RuntimeError, match=r"relative residual \S+ > 1e-10"):
        op.solve(rhs)
    # a zero rhs needs a zero residual: the scaled plan still solves it
    zero = np.zeros_like(rhs)
    np.testing.assert_array_equal(op.solve(zero), zero)
    op._plan = Plan(1.0, 1e-300)
    with pytest.raises(RuntimeError, match="relative residual inf"):
        op.solve(zero)


def _coupled_portfolio_slice(j=17):
    """Portfolio operator under a policy of mixed sign: every upwind
    direction occurs, so no stencil entry drops out of the system."""
    prob, grid = portfolio_problem(), portfolio_grid()
    rng = np.random.default_rng(5)
    policy = GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 256, grid.time_steps, 0)
    return build_operator(prob, policy, ens, j)


def _random_sign_portfolio_slice(j=10):
    """The microbenchmark's worst case: a policy of random sign merges 49 of
    the 51 portfolio lines into one run."""
    prob, grid = portfolio_problem(), portfolio_grid()
    rng = np.random.default_rng(1)
    policy = GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 1000, grid.time_steps, 0)
    return build_operator(prob, policy, ens, j)


def _cs2d_slice(j=3):
    params = CuckerSmaleParams(beta=10.0)
    prob, grid = cs2d_problem(params), cs2d_grid(params, time_steps=10)
    policy = GridField(grid, np.random.default_rng(6).standard_normal(
        (grid.time_steps + 1,) + grid.nodes + (1,)))
    ens = simulate(prob, policy, 200, grid.time_steps, 0)
    return build_operator(prob, policy, ens, j)


def _slice_3d():
    """Space-dependent drift of both signs on a 9 x 8 x 7 lattice (strides
    56, 7, 1), diffusing only along the middle dimension, so that a mix-up
    of dimensions shows in the band product."""

    def drift(t, x, a, eta):
        return np.stack(
            [np.sin(6.0 * x[:, 1]), x[:, 2] - 0.5, np.cos(5.0 * x[:, 0])], axis=1
        )

    def diffusion(t, eta):
        return np.diag([0.0, 0.2, 0.0])

    prob = dataclasses.replace(
        _linear_1d_problem(), state_dim=3, noise_dim=3, drift=drift, diffusion=diffusion,
        initial_sampler=lambda n, rng: rng.uniform(0.2, 0.8, (n, 3)),
    )
    grid = SpaceTimeGrid(horizon=1.0, time_steps=20, lo=(0.0,) * 3, hi=(1.0,) * 3, nodes=(9, 8, 7))
    policy, ens = _setup(prob, grid)
    return build_operator(prob, policy, ens, 4)


@pytest.mark.parametrize(
    "make_slice", [_coupled_portfolio_slice, _cs2d_slice, _random_sign_portfolio_slice]
)
def test_solve_matches_dense_solve(make_slice):
    op = make_slice()
    P = op.system.shape[0]
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((P, 2))
    sol = op.solve(rhs)
    want = np.linalg.solve(op.system.toarray(), rhs)
    assert np.abs(sol - want).max() <= 1e-12 * np.abs(want).max()


def test_solve_obeys_discrete_maximum_principle():
    # I - dt*L has row sums 1 and a nonnegative inverse, so each entry of
    # the solution is a convex combination of the right-hand side
    op = _coupled_portfolio_slice()
    np.testing.assert_allclose(op.system.band.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    rhs = np.random.default_rng(8).uniform(-3.0, 5.0, (op.system.shape[0], 2))
    sol = op.solve(rhs)
    assert np.all(sol >= rhs.min(axis=0) - 1e-12)
    assert np.all(sol <= rhs.max(axis=0) + 1e-12)


def _liquidating_policy(grid):
    """Smooth, time-varying policy a = (0.5 - q)(1 + t): the inventory
    drift is negative on 7/8 of the box, so the advection-only inventory
    dimension splits the lattice into many strongly connected components."""
    q = grid.node_coords()[:, 1]
    vals = np.outer(1.0 + grid.times, 0.5 - q)
    return GridField(grid, vals.reshape((grid.time_steps + 1,) + grid.nodes + (1,)))


def _liquidating_portfolio_slice(j=17):
    prob, grid = portfolio_problem(), portfolio_grid()
    policy = _liquidating_policy(grid)
    ens = simulate(prob, policy, 256, grid.time_steps, 0)
    return build_operator(prob, policy, ens, j)


def _line_of_nodes(nodes, line_dim):
    """Line number of every node: its C-order index over the other dimensions."""
    idx = np.indices(nodes).reshape(len(nodes), -1)
    line = np.zeros(idx.shape[1], dtype=np.int64)
    for i in range(len(nodes)):
        if i != line_dim:
            line = line * nodes[i] + idx[i]
    return line


def _assert_block_triangular(plan, system):
    """Check the plan's components and their order against scipy's strongly
    connected components; returns the number of those of the nodes."""
    line = _line_of_nodes(system.nodes, plan.line_dim)
    rank = np.empty(line.max() + 1, dtype=np.int64)
    for k, lines in enumerate(plan.components):
        rank[lines] = k
    # every component comes after the components it reads: in the plan's
    # order the system is block lower-triangular
    coo = _as_csr(system).tocoo()
    assert np.all(rank[line[coo.row]] >= rank[line[coo.col]])
    # the components are the strongly connected components of the line
    # graph, with scipy as the oracle
    L = rank.size
    lines_graph = sp.csr_matrix((np.ones(coo.nnz), (line[coo.row], line[coo.col])), shape=(L, L))
    ncomp, label = connected_components(lines_graph, directed=True, connection="strong")
    assert len(plan.components) == ncomp
    for lines in plan.components:
        assert np.unique(label[lines]).size == 1
    # so each strongly connected component of the nodes lies in one of them
    ncomp, comp = connected_components(coo, directed=True, connection="strong")
    assert np.unique(np.stack([comp, rank[line]]), axis=1).shape[1] == ncomp
    return ncomp


@pytest.mark.parametrize(
    "make_slice, line_dim",
    [(_liquidating_portfolio_slice, 0), (_cs2d_slice, 1), (_coupled_portfolio_slice, 0),
     (_random_sign_portfolio_slice, 0)],
    ids=["_liquidating_portfolio_slice", "_cs2d_slice", "_coupled_portfolio_slice",
         "_random_sign_portfolio_slice"],
)
def test_elimination_order_is_block_triangular(make_slice, line_dim):
    op = make_slice()
    op.solve(np.ones((op.system.shape[0], 1)))
    plan = op._plan
    # the lines run along the one diffusive dimension
    assert plan.line_dim == line_dim
    ncomp = _assert_block_triangular(plan, op.system)
    if make_slice is _random_sign_portfolio_slice:
        # the 200 boundary nodes one by one, and the interior nodes of the
        # one run of 49 lines as one component
        assert ncomp == 201
        assert max(len(lines) for lines in plan.components) == 49
    elif make_slice is not _coupled_portfolio_slice:
        assert ncomp > 200


def test_band_product_matches_the_dense_matrix():
    op = _slice_3d()
    dense = op.system.toarray()
    assert np.count_nonzero(dense) == op.system.nnz
    rng = np.random.default_rng(4)
    for shape in [(op.system.shape[0],), (op.system.shape[0], 3)]:
        x = rng.standard_normal(shape)
        np.testing.assert_allclose(op.system @ x, dense @ x, rtol=0, atol=1e-13)


def _counting_plans(monkeypatch):
    plans = []

    class Counted(fdsolver._LinePlan):
        def __init__(self, system):
            plans.append(1)
            super().__init__(system)

    monkeypatch.setattr(fdsolver, "_LinePlan", Counted)
    return plans


@pytest.mark.parametrize("policy_kind, factors", [("zero", 1), ("liquidating", 10)])
def test_sweep_factors_once_per_distinct_operator(monkeypatch, policy_kind, factors):
    # under the zero policy every slice has b = 0 and the same sigma, so
    # all M slices share one operator and its line plan; a time-varying
    # policy changes it
    prob, grid = portfolio_problem(), portfolio_grid(cells=20, time_steps=10)
    if policy_kind == "zero":
        policy = GridField.zeros(grid, 1)
    else:
        policy = _liquidating_policy(grid)
    ens = simulate(prob, policy, 256, grid.time_steps, 0)
    plans = _counting_plans(monkeypatch)
    backward_sweep(prob, policy, ens)
    assert len(plans) == factors


def test_reused_factor_matches_a_factor_per_slice_bitwise(monkeypatch):
    prob, grid = portfolio_problem(), portfolio_grid()
    policy = GridField.zeros(grid, 1)
    ens = simulate(prob, policy, 256, grid.time_steps, 0)
    reused = backward_sweep(prob, policy, ens).u.values
    solve = MonotoneOperator.solve

    def solve_with_a_fresh_plan(op, rhs):
        op._plan = None
        return solve(op, rhs)

    monkeypatch.setattr(MonotoneOperator, "solve", solve_with_a_fresh_plan)
    plans = _counting_plans(monkeypatch)
    fresh = backward_sweep(prob, policy, ens).u.values
    assert len(plans) == grid.time_steps
    np.testing.assert_array_equal(reused.view(np.int64), fresh.view(np.int64))


def test_two_diffusive_dimensions_rejected():
    grid = portfolio_grid(cells=10, time_steps=4)
    policy = GridField.zeros(grid, 1)
    ens = simulate(portfolio_problem(), policy, 32, grid.time_steps, 0)
    sigma = np.diag([0.7, 0.1])
    prob = dataclasses.replace(portfolio_problem(), noise_dim=2, diffusion=lambda t, eta: sigma)
    with pytest.raises(ValueError, match=r"diffuses in dimensions \[0, 1\]"):
        build_operator(prob, policy, ens, 0)


def _laplacian_system(nodes, weight=30.0):
    """I - dt*L for an L that diffuses equally in every dimension, with a
    Dirichlet boundary: a system that build_operator refuses to assemble."""
    d = len(nodes)
    idx = np.indices(nodes).reshape(d, -1)
    boundary = np.any((idx == 0) | (idx == np.array(nodes)[:, None] - 1), axis=0)
    band = np.full((2 * d + 1, idx.shape[1]), -weight)
    band[d] = 1.0 + 2 * d * weight
    band[:, boundary] = 0.0
    band[d, boundary] = 1.0
    return BandMatrix(band, tuple(nodes))


def test_lines_that_read_each_other_are_eliminated_as_one_run():
    # diffusion in both dimensions of a 2D lattice joins the nine interior
    # lines along dimension 0 into one component, a run that
    # block-tridiagonal elimination solves
    grid = SpaceTimeGrid(horizon=1.0, time_steps=10, lo=(0.0, 0.0), hi=(1.0, 1.0), nodes=(13, 11))
    op = MonotoneOperator(_laplacian_system(grid.nodes))
    rhs = np.random.default_rng(9).standard_normal((grid.num_nodes, 2))
    sol = op.solve(rhs)
    want = np.linalg.solve(op.system.toarray(), rhs)
    assert np.abs(sol - want).max() <= 1e-12 * np.abs(want).max()
    assert op._plan.line_dim == 0
    assert max(len(lines) for lines in op._plan.components) == 9


@st.composite
def _planar_bands(draw):
    """A random I - dt*L on a 1D or 2D lattice of 2-13 nodes per dimension:
    upwind drift in every dimension, with random, sparse, striped or
    constant signs, central diffusion in at most one, Dirichlet rows on the
    boundary; an M-matrix with row sums 1, as build_operator makes them."""
    d = draw(st.integers(1, 2))
    nodes = tuple(draw(st.lists(st.integers(2, 13), min_size=d, max_size=d)))
    diffuse = draw(st.sampled_from([None, *range(d)]))
    kinds = draw(st.lists(st.sampled_from(["random", "sparse", "striped", "constant"]),
                          min_size=d, max_size=d))
    dt = 10.0 ** draw(st.floats(-3.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.indices(nodes).reshape(d, -1)
    P = idx.shape[1]
    band = np.zeros((2 * d + 1, P))
    for i, kind in enumerate(kinds):
        h = 1.0 / (nodes[i] - 1)
        if kind == "random":
            b = rng.standard_normal(P)
        elif kind == "sparse":
            b = rng.standard_normal(P) * (rng.random(P) < 0.2)
        elif kind == "striped":
            # a sign that flips along the drift's own dimension: lines on
            # both sides of a flip towards each other read each other
            stripe = idx[i] // rng.integers(1, 4)
            b = np.where(stripe % 2 == 0, 1.0, -1.0) * rng.uniform(0.5, 1.5, P)
        else:
            b = np.full(P, rng.standard_normal())
        w = dt * rng.uniform(0.0, 5.0) * np.abs(b) / h
        band[2 * d - i] -= np.where(b > 0, w, 0.0)
        band[i] -= np.where(b < 0, w, 0.0)
        if diffuse == i:
            s = dt * rng.uniform(0.0, 2.0, P) / h**2
            band[i] -= s
            band[2 * d - i] -= s
    band[d] = 1.0 - band.sum(axis=0)
    boundary = np.any((idx == 0) | (idx == np.array(nodes)[:, None] - 1), axis=0)
    band[:, boundary] = 0.0
    band[d, boundary] = 1.0
    return BandMatrix(band, nodes)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(system=_planar_bands(), columns=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_line_plan_solves_random_planar_bands(system, columns, seed):
    # a guard on the plan's interval split and chain order: a component
    # solved before one it reads, or a run cut in two, breaks each check
    plan = fdsolver._LinePlan(system)
    _assert_block_triangular(plan, system)
    rhs = np.random.default_rng(seed).standard_normal((system.shape[0], columns))
    sol = plan.solve(rhs)
    # |A^-1|_inf = 1 for an M-matrix with row sums 1, so |A|_inf is its
    # condition number; the bound is the one the _Run docstring states
    dense = system.toarray()
    tol = 4 * np.finfo(float).eps * np.abs(dense).sum(axis=1).max()
    scale = np.abs(rhs).max()
    assert np.abs(system @ sol - rhs).max() <= tol * scale
    want = np.linalg.solve(dense, rhs)
    assert np.abs(sol - want).max() <= tol * np.abs(want).max()
    # maximum principle: each entry is a convex combination of the rhs
    assert np.all(sol >= rhs.min(axis=0) - tol * scale)
    assert np.all(sol <= rhs.max(axis=0) + tol * scale)


def test_a_3d_lattice_raises_at_its_first_solve():
    # the line solve is planar; build_operator still assembles the 3D slice
    for op in (_slice_3d(), MonotoneOperator(_laplacian_system((20, 20, 20)))):
        tic = time.perf_counter()
        with pytest.raises(ValueError, match="planar.*method = emreg"):
            op.solve(np.ones((op.system.shape[0], 1)))
        assert time.perf_counter() - tic < 1.0


def test_zero_source_sweep_obeys_maximum_principle():
    terminal = lambda x: np.sin(3.0 * x) + 0.2 * np.cos(9.0 * x)
    prob = _linear_1d_problem(b=0.7, sigma=0.5, terminal=terminal)
    grid = _grid_1d(nodes=41, time_steps=50)
    policy, ens = _setup(prob, grid)
    adj = backward_sweep(prob, policy, ens)
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
        adj = backward_sweep(prob, policy, ens)
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
    policy = GridField(grid, vals)
    ens = simulate(prob, policy, 128, grid.time_steps, 0)
    X = grid.node_coords()
    j = 17
    vals = np.zeros((grid.time_steps + 1,) + grid.nodes + (2,))
    vals[j] = rng.standard_normal(grid.nodes + (2,))
    adjoint = AdjointField(GridField(grid, vals), ens)
    src = assemble_source(prob, policy, adjoint, j)
    np.testing.assert_allclose(src[:, 0], policy.slice_flat(j)[:, 0], atol=1e-12)
    np.testing.assert_allclose(src[:, 1], 2.0 * X[:, 1], atol=1e-12)
    term = prob.terminal_derivative(X, adjoint)
    np.testing.assert_allclose(
        term, np.stack([-X[:, 1], -X[:, 0] + X[:, 1]], axis=1), atol=1e-12
    )


def test_large_time_step_warns():
    prob = _linear_1d_problem()
    grid = SpaceTimeGrid(horizon=1.0, time_steps=1, lo=(0.0,), hi=(1.0,), nodes=(51,))
    policy, ens = _setup(prob, grid)
    with pytest.warns(UserWarning, match="time step"):
        backward_sweep(prob, policy, ens)
