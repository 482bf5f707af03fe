"""Particle means of the adjoint by node deposit and by cell histogram.

A constant measure kernel needs only the mean of the adjoint over the
particles.  The PDE adjoint reads it off the cloud-in-cell deposit of the
particles on the nodes (the transpose of the interpolation), the regression
adjoint off the count of particles per cell.  The tests hold both against
the per-particle values they replace, and the callers against a copy of
the per-particle path kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcontrol import (
    CuckerSmaleParams,
    GridField,
    MeasureKernel,
    MfcProblem,
    ParticleEnsemble,
    SpaceTimeGrid,
    assemble_source,
    backward_sweep,
    cs2d_grid,
    cs2d_problem,
    multilinear_eval,
    portfolio_grid,
    portfolio_problem,
    regress_adjoint,
    simulate,
)
from mfcontrol.fdsolver import AdjointField
from mfcontrol.grids import deposit
from mfcontrol.nag import gradient_slice


def _grid_and_points(d, seed, n):
    """A random box and n points in it, on its upper faces and outside it."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 1.0, d)
    hi = lo + rng.uniform(0.5, 3.0, d)
    nodes = tuple(int(v) for v in rng.integers(2, 7, d))
    grid = SpaceTimeGrid(1.0, 3, tuple(lo), tuple(hi), nodes)
    x = rng.uniform(lo - 1.0, hi + 1.0, (n, d))
    inside = rng.random(n) < 0.5
    x[inside] = rng.uniform(lo, hi, (int(inside.sum()), d))
    # pin a few coordinates to the faces; the upper face lies in the last cell
    faces = rng.random((n, d))
    x = np.where(faces < 0.15, hi, x)
    x = np.where(faces > 0.9, lo, x)
    return grid, x, rng


_cases = settings(max_examples=40, derandomize=True, deadline=None)
_given = given(
    d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400)
)


@_cases
@_given
def test_deposit_is_the_transpose_of_interpolation(d, seed, n):
    grid, x, rng = _grid_and_points(d, seed, n)
    rho = deposit(grid, x)
    assert rho.shape == (grid.num_nodes,)
    assert np.all(rho >= 0.0)
    np.testing.assert_allclose(rho.sum(), n, rtol=1e-12)
    for c in (1, 3):
        F = rng.standard_normal((grid.num_nodes, c))
        want = multilinear_eval(grid, F.reshape(grid.nodes + (c,)), x).sum(axis=0)
        got = rho @ F
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(F).max() * n)


def _affine_problem(d, rng):
    """A d-dimensional problem whose adjoint source and terminal data are
    random affine maps of the state, with no measure interaction: enough
    for regress_adjoint to fill its cells."""
    B, G, c = rng.standard_normal((d, d)), rng.standard_normal((d, d)), rng.standard_normal(d)
    return MfcProblem(
        state_dim=d, control_dim=1, noise_dim=d, horizon=1.0,
        drift=None, diffusion=None, running_cost=None, terminal_cost=None,
        dx_drift=lambda t, x, a, eta: np.broadcast_to(B, (x.shape[0], d, d)),
        da_drift=None,
        dx_running=lambda t, x, a, eta: x + c,
        da_running=None,
        dx_terminal=lambda x, mu: x @ G,
        mu_drift=MeasureKernel.zero(), nu_drift=MeasureKernel.zero(),
        initial_sampler=None,
    )


@_cases
@_given
def test_kernel_mean_is_the_mean_of_the_point_values(d, seed, n):
    grid, x, rng = _grid_and_points(d, seed, n)
    M = grid.time_steps
    # each slice holds the points in another order, so each keeps other atoms
    states = np.stack([rng.permutation(x) for _ in range(M + 1)])
    subsample = int(rng.integers(1, n + 2))
    ensemble = ParticleEnsemble(states, np.zeros((M + 1, 1)), subsample)
    pde = AdjointField(
        GridField(grid, rng.standard_normal((M + 1,) + grid.nodes + (d,))), ensemble
    )
    ncells = int(np.prod(np.array(grid.nodes) - 1))
    reg = regress_adjoint(
        _affine_problem(d, rng), GridField.zeros(grid, 1), ensemble,
        previous=rng.standard_normal((M + 1, ncells, d)),
    )
    for adjoint in (pde, reg):
        for j in (0, M):
            atoms = adjoint.kernel_atoms(j)
            assert atoms.size == -(-n // ensemble.measure(j).stride())
            want = adjoint.u_at_points(j, atoms.x).mean(axis=0)
            got = adjoint.kernel_mean(j)
            assert got.shape == (d,)
            scale = np.abs(adjoint.u_at_nodes(j)).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


def _gradient_slice_per_atom(problem, policy, ensemble, adjoint, j):
    """gradient_slice with the drift kernel contracted against the adjoint at
    every atom, as it was before the constant kernel read the mean."""
    grid = policy.grid
    t = j * grid.dt
    X = grid.node_coords()
    psi = policy.slice_flat(j)
    eta = ensemble.measure(min(j, ensemble.time_steps))
    U = adjoint.u_at_nodes(j)
    grad = np.einsum("pim,pi->pm", np.asarray(problem.da_drift(t, X, psi, eta)), U)
    grad += np.asarray(problem.da_running(t, X, psi, eta))
    eta_k = eta.strided()
    w = adjoint.u_at_points(j, eta_k.x)
    grad += w.mean(axis=0) @ problem.nu_drift.const
    return grad


@pytest.mark.parametrize("method", ["fipde", "emreg"])
@pytest.mark.parametrize("subsample", [None, 70])
def test_gradient_slice_matches_the_per_atom_path(method, subsample):
    problem = portfolio_problem(kernel_subsample=subsample)
    grid = portfolio_grid(cells=12, time_steps=8)
    assert problem.nu_drift.const is not None
    rng = np.random.default_rng(8)
    policy = GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ensemble = simulate(problem, policy, 500, grid.time_steps, 3)
    if method == "emreg":
        adjoint = regress_adjoint(problem, policy, ensemble)
    else:
        adjoint = backward_sweep(problem, policy, ensemble)
    for j in range(grid.time_steps + 1):
        got = gradient_slice(problem, policy, adjoint, j)
        want = _gradient_slice_per_atom(problem, policy, ensemble, adjoint, j)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_assemble_source_matches_the_per_atom_path():
    # Cucker-Smale at beta = 0 has a constant mu_drift kernel
    params = CuckerSmaleParams(beta=0.0)
    problem = cs2d_problem(params, kernel_subsample=90)
    grid = cs2d_grid(params, cells=12, time_steps=6)
    assert problem.mu_drift.const is not None
    rng = np.random.default_rng(9)
    policy = GridField(grid, rng.standard_normal((grid.time_steps + 1,) + grid.nodes + (1,)))
    ensemble = simulate(problem, policy, 400, grid.time_steps, 1)
    U = rng.standard_normal((grid.num_nodes, 2))
    j = 4
    vals = np.zeros((grid.time_steps + 1,) + grid.nodes + (2,))
    vals[j] = U.reshape(grid.nodes + (2,))
    adjoint = AdjointField(GridField(grid, vals), ensemble)
    got = assemble_source(problem, policy, adjoint, j)
    # the constant kernel's part, against U interpolated at every atom
    t, X, psi = j * grid.dt, grid.node_coords(), policy.slice_flat(j)
    eta = ensemble.measure(j)
    eta_k = eta.strided()
    w = multilinear_eval(grid, U.reshape(grid.nodes + (2,)), eta_k.x)
    want = np.einsum("pil,pi->pl", problem.dx_drift(t, X, psi, eta), U)
    want += problem.dx_running(t, X, psi, eta)
    want += w.mean(axis=0) @ problem.mu_drift.const
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
