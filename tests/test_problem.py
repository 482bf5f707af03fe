"""Problem definitions: derivative callbacks and model-specific values."""

import dataclasses
import warnings

import numpy as np
import pytest

from mfcontrol import (
    AdjointField,
    CuckerSmaleParams,
    EmpiricalMeasure,
    GridField,
    PolicyField,
    assemble_source,
    cs2d_grid,
    cs2d_problem,
    multilinear_eval,
    portfolio_grid,
    portfolio_problem,
    simulate,
    validate_derivatives,
)
from mfcontrol.emreg import PiecewiseConstantAdjoint
from mfcontrol.grids import deposit
from mfcontrol.nag import gradient_slice


def test_portfolio_derivatives_match_finite_differences():
    report = validate_derivatives(portfolio_problem(), tolerance=1e-6)
    assert report.ok, report.flagged
    assert max(report.max_rel_error.values()) <= 1e-6


def test_cs2d_derivatives_match_finite_differences():
    for beta in (0.0, 10.0):
        prob = cs2d_problem(CuckerSmaleParams(beta=beta))
        report = validate_derivatives(prob, tolerance=1e-6)
        assert report.ok, (beta, report.flagged)


def test_state_or_control_dependent_diffusion_is_flagged():
    # the solver takes sigma independent of x and a, so validation flags a
    # sigma that depends on either, under the name of that derivative
    base = portfolio_problem()

    def x_dependent(t, x, a, eta):
        return base.diffusion(t, x, a, eta) + 0.1 * x[:, 0, None, None]

    def a_dependent(t, x, a, eta):
        return base.diffusion(t, x, a, eta) + 0.1 * a[:, 0, None, None]

    for diffusion, name in ((x_dependent, "dx_diffusion"), (a_dependent, "da_diffusion")):
        report = validate_derivatives(dataclasses.replace(base, diffusion=diffusion))
        assert set(report.flagged) == {name}, report.flagged
        np.testing.assert_allclose(report.flagged[name], 0.1, rtol=1e-6)


def check_diffusion_constant(problem, samples=16, seed=1):
    """Spot-check that sigma ignores (x, a, eta)."""
    rng = np.random.Generator(np.random.Philox(seed))
    d, k = problem.state_dim, problem.control_dim
    meas = EmpiricalMeasure(rng.standard_normal((8, d)), rng.standard_normal((8, k)))
    t = 0.5 * problem.horizon
    ref = problem.diffusion(t, np.zeros((1, d)), np.zeros((1, k)), meas)
    for _ in range(samples):
        x = rng.standard_normal((1, d)) * 3.0
        a = rng.standard_normal((1, k)) * 3.0
        m2 = EmpiricalMeasure(rng.standard_normal((5, d)), rng.standard_normal((5, k)))
        if not np.allclose(problem.diffusion(t, x, a, m2), ref, atol=1e-12):
            return False
    return True


def test_declared_constant_diffusions_are_constant():
    assert check_diffusion_constant(portfolio_problem())
    assert check_diffusion_constant(cs2d_problem())


def test_portfolio_pointwise_values():
    prob = portfolio_problem()
    eta = EmpiricalMeasure(np.array([[2.0, 1.0]]), np.array([[0.0]]))
    x = np.array([[2.0, 1.0]])
    a = np.array([[0.0]])
    # terminal cost -q(s - gamma q) has gradient (-q, -s + 2 gamma q)
    np.testing.assert_allclose(prob.dx_terminal(x, eta), [[-1.0, -1.0]], atol=1e-14)
    # marginal running cost in the control at (s, q) = (2, 1), a = 0 is s = 2
    np.testing.assert_allclose(prob.da_running(0.0, x, a, eta), [[2.0]], atol=1e-14)
    np.testing.assert_allclose(
        prob.running_cost(0.0, x, np.array([[1.0]]), eta), [2.0 + 1.0 + 1.0]
    )
    # price drift is lam * E[a]
    eta2 = EmpiricalMeasure(np.array([[2.0, 1.0], [2.0, 1.0]]), np.array([[1.0], [3.0]]))
    b = prob.drift(0.0, x, a, eta2)
    np.testing.assert_allclose(b, [[0.5 * 2.0, 0.0]], atol=1e-14)


def test_cs2d_alignment_kernel_values():
    # two particles at unit distance, beta = 10: kernel weight 2^-10
    prob = cs2d_problem(CuckerSmaleParams(beta=10.0))
    x = np.array([[0.0, 1.0], [1.0, 2.0]])
    a = np.zeros((2, 1))
    eta = EmpiricalMeasure(x, a)
    b = prob.drift(0.0, x[:1], a[:1], eta)
    # positions 0 and 1, velocities 1 and 2; the self term vanishes
    expected_align = 0.5 * (1.0 / 1024.0) * (2.0 - 1.0)
    np.testing.assert_allclose(b, [[1.0, expected_align]], atol=1e-14)


def test_cs2d_velocity_derivative_at_coincident_points():
    # with all atoms at the evaluation point the alignment derivative in the
    # velocity is exactly -K
    prob = cs2d_problem(CuckerSmaleParams(K=1.0, beta=10.0))
    x = np.array([[1.0, 1.5]])
    eta = EmpiricalMeasure(x, np.zeros((1, 1)))
    J = prob.dx_drift(0.0, x, np.zeros((1, 1)), eta)
    np.testing.assert_allclose(J[0], [[0.0, 1.0], [0.0, -1.0]], atol=1e-12)


def test_cs2d_initial_law_is_bimodal():
    prob = cs2d_problem()
    rng = np.random.default_rng(0)
    x0 = prob.initial_sampler(200_000, rng)
    np.testing.assert_allclose(x0.mean(axis=0), [1.5, 1.5], atol=0.01)
    # mixture of N((1.2, 1.8), 0.1^2) and N((1.8, 1.2), 0.1^2):
    # per-coordinate variance 0.3^2 * 0.25 * 4/4 ... = 0.09 + 0.01
    np.testing.assert_allclose(x0.var(axis=0), [0.1, 0.1], atol=0.005)


def test_nonsmooth_cost_follows_k2():
    assert portfolio_problem().nonsmooth_cost.kind == "none"
    from mfcontrol import PortfolioParams

    prob = portfolio_problem(PortfolioParams(k2=1.0))
    assert prob.nonsmooth_cost.kind == "l1"
    assert prob.nonsmooth_cost.kappa == 1.0


def _gradient_slice_einsum(problem, policy, ensemble, adjoint, j, kernel_subsample):
    """The control gradient at the nodes, written out with einsum as
    nag.gradient_slice was before it called hamiltonian_derivative."""
    grid = policy.grid
    t, X, psi = j * grid.dt, grid.node_coords(), policy.slice_flat(j)
    eta = ensemble.measure(min(j, ensemble.time_steps))
    U = adjoint.u_at_nodes(j)
    grad = np.einsum("pim,pi->pm", problem.da_drift(t, X, psi, eta), U)
    grad += problem.da_running(t, X, psi, eta)
    eta_k = eta.strided(kernel_subsample)
    if problem.nu_drift.const is not None:
        grad += problem.nu_drift.const_contract(adjoint.mean_at(j, eta_k.x))
    elif not problem.nu_drift.is_zero:
        w = adjoint.u_at_points(j, eta_k.x)
        grad += problem.nu_drift.mean_contract(t, eta_k, X, psi, weights=w)
    if not problem.nu_running.is_zero:
        grad += problem.nu_running.mean_contract(t, eta_k, X, psi)
    return grad


def _assemble_source_einsum(problem, policy, ensemble, U_next, j, kernel_subsample):
    """The adjoint source at the nodes for node values U_next of slice j,
    written out with einsum as fdsolver.assemble_source was before it
    called hamiltonian_derivative."""
    grid = policy.grid
    t, X, psi = j * grid.dt, grid.node_coords(), policy.slice_flat(j)
    eta = ensemble.measure(j)
    src = np.einsum("pil,pi->pl", problem.dx_drift(t, X, psi, eta), U_next)
    src += problem.dx_running(t, X, psi, eta)
    eta_k = eta.strided(kernel_subsample)
    if problem.mu_drift.const is not None:
        mean = deposit(grid, eta_k.x) @ U_next / eta_k.size
        src += problem.mu_drift.const_contract(mean)
    elif not problem.mu_drift.is_zero:
        w = multilinear_eval(grid, U_next.reshape(grid.nodes + (-1,)), eta_k.x)
        src += problem.mu_drift.mean_contract(t, eta_k, X, psi, weights=w)
    if not problem.mu_running.is_zero:
        src += problem.mu_running.mean_contract(t, eta_k, X, psi)
    return src


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("model", ["portfolio", "cs2d-beta1", "cs2d-beta0"])
@pytest.mark.parametrize("subsample, stride", [(None, 1), (90, 5)])
def test_hamiltonian_derivative_matches_the_einsum_copies_bitwise(model, subsample, stride):
    # d = 2: the column products sum as einsum does, bit for bit.  Portfolio
    # has a constant control kernel, Cucker-Smale a contracted (beta = 1) or
    # constant (beta = 0) state kernel and a carrier cost kernel.
    if model == "portfolio":
        prob, grid = portfolio_problem(), portfolio_grid(cells=10, time_steps=6)
    else:
        params = CuckerSmaleParams(beta=1.0 if model == "cs2d-beta1" else 0.0)
        prob, grid = cs2d_problem(params), cs2d_grid(params, cells=10, time_steps=6)
    M = grid.time_steps
    rng = np.random.default_rng(12)
    policy = PolicyField(grid, rng.standard_normal((M + 1,) + grid.nodes + (1,)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # particles leaving the box
        ens = simulate(prob, policy, 400, M, 2)
    assert ens.measure(0).stride(subsample) == stride
    pde = AdjointField(GridField(grid, rng.standard_normal((M + 1,) + grid.nodes + (2,))))
    ncells = int(np.prod(np.array(grid.nodes) - 1))
    reg = PiecewiseConstantAdjoint(grid, rng.standard_normal((M + 1, ncells, 2)))
    X = grid.node_coords()
    for j in range(M + 1):
        t, psi = j * grid.dt, policy.slice_flat(j)
        for adjoint in (pde, reg):
            want = _gradient_slice_einsum(prob, policy, ens, adjoint, j, subsample)
            got = prob.hamiltonian_derivative(
                "a", t, X, psi, ens.measure(j), adjoint.u_at_nodes(j), adjoint, j, subsample
            )
            np.testing.assert_array_equal(_bits(got), _bits(want))
            got = gradient_slice(prob, policy, ens, adjoint, j, kernel_subsample=subsample)
            np.testing.assert_array_equal(_bits(got), _bits(want))
        U = pde.u_at_nodes(j)
        want = _assemble_source_einsum(prob, policy, ens, U, j, subsample)
        got = prob.hamiltonian_derivative("x", t, X, psi, ens.measure(j), U, pde, j, subsample)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        got = assemble_source(prob, policy, ens, pde, grid, j, kernel_subsample=subsample)
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_hamiltonian_derivative_names_a_bad_variable():
    prob = portfolio_problem()
    eta = EmpiricalMeasure(np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="wrt"):
        prob.hamiltonian_derivative("t", 0.0, eta.x, eta.a, eta, np.zeros((2, 2)), None, 0)
