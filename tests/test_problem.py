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
    assemble_source,
    cs2d_grid,
    cs2d_problem,
    multilinear_eval,
    portfolio_grid,
    portfolio_problem,
    regress_adjoint,
    simulate,
    validate_derivatives,
)
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


def test_derivative_errors_are_relative_to_the_derivative_scale():
    # a terminal cost scaled by 1e-5 whose derivative is twice too large is
    # as wrong as the unscaled one: the error is the derivative itself
    base = portfolio_problem()

    def scaled(factor):
        return dataclasses.replace(
            base,
            terminal_cost=lambda x, mu: 1e-5 * base.terminal_cost(x, mu),
            dx_terminal=lambda x, mu: factor * 1e-5 * base.dx_terminal(x, mu),
        )

    report = validate_derivatives(scaled(2.0))
    assert set(report.flagged) == {"dx_terminal"}
    assert report.max_rel_error["dx_terminal"] == pytest.approx(0.5, rel=1e-6)
    assert validate_derivatives(scaled(1.0), tolerance=1e-6).ok


def test_a_derivative_wrong_late_in_the_horizon_is_flagged():
    # dx_running twice too large for t > 0.5 only: the check must sample
    # times from the whole horizon, not only its start
    base = portfolio_problem()

    def dx_running(t, x, a, eta):
        return (2.0 if t > 0.5 else 1.0) * base.dx_running(t, x, a, eta)

    report = validate_derivatives(dataclasses.replace(base, dx_running=dx_running))
    assert set(report.flagged) == {"dx_running"}
    assert report.max_rel_error["dx_running"] == pytest.approx(0.5, rel=1e-6)


def test_portfolio_pointwise_values():
    prob = portfolio_problem()
    eta = EmpiricalMeasure(np.array([[2.0, 1.0]]), np.array([0.0]))
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
    eta2 = EmpiricalMeasure(
        np.array([[2.0, 1.0], [2.0, 1.0]]), np.array([[1.0], [3.0]]).mean(axis=0)
    )
    b = prob.drift(0.0, x, a, eta2)
    np.testing.assert_allclose(b, [[0.5 * 2.0, 0.0]], atol=1e-14)


def test_model_sigma_is_one_read_only_matrix():
    rng = np.random.default_rng(1)
    etas = [
        EmpiricalMeasure(rng.standard_normal((L, 2)), rng.standard_normal((L, 1)).mean(axis=0))
        for L in (3, 8)
    ]
    for prob, want in ((portfolio_problem(), [[0.7], [0.0]]), (cs2d_problem(), [[0.0], [0.1]])):
        sig = prob.diffusion(0.0, etas[0])
        np.testing.assert_array_equal(sig, want)
        assert prob.diffusion(0.5 * prob.horizon, etas[1]) is sig
        with pytest.raises(ValueError, match="read-only"):
            sig[0, 0] = 1.0


def test_cs2d_alignment_kernel_values():
    # two particles at unit distance, beta = 10: kernel weight 2^-10
    prob = cs2d_problem(CuckerSmaleParams(beta=10.0))
    x = np.array([[0.0, 1.0], [1.0, 2.0]])
    a = np.zeros((2, 1))
    eta = EmpiricalMeasure(x, a.mean(axis=0))
    b = prob.drift(0.0, x[:1], a[:1], eta)
    # positions 0 and 1, velocities 1 and 2; the self term vanishes
    expected_align = 0.5 * (1.0 / 1024.0) * (2.0 - 1.0)
    np.testing.assert_allclose(b, [[1.0, expected_align]], atol=1e-14)


def test_cs2d_velocity_derivative_at_coincident_points():
    # with all atoms at the evaluation point the alignment derivative in the
    # velocity is exactly -K
    prob = cs2d_problem(CuckerSmaleParams(K=1.0, beta=10.0))
    x = np.array([[1.0, 1.5]])
    eta = EmpiricalMeasure(x, np.zeros(1))
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


def _gradient_slice_einsum(problem, policy, ensemble, adjoint, j):
    """The control gradient at the nodes, written out with einsum as
    nag.gradient_slice was before it called hamiltonian_derivative."""
    grid = policy.grid
    t, X, psi = j * grid.dt, grid.node_coords(), policy.slice_flat(j)
    eta = ensemble.measure(min(j, ensemble.time_steps))
    U = adjoint.u_at_nodes(j)
    grad = np.einsum("pim,pi->pm", problem.da_drift(t, X, psi, eta), U)
    grad += problem.da_running(t, X, psi, eta)
    eta_k = eta.strided()
    if problem.nu_drift.const is not None:
        grad += problem.nu_drift.const_contract(adjoint.kernel_mean(j))
    elif not problem.nu_drift.is_zero:
        w = adjoint.u_at_points(j, eta_k.x)
        grad += problem.nu_drift.mean_contract(t, eta_k, X, psi, weights=w)
    return grad


def _assemble_source_einsum(problem, policy, ensemble, U_next, j):
    """The adjoint source at the nodes for node values U_next of slice j,
    written out with einsum as fdsolver.assemble_source was before it
    called hamiltonian_derivative."""
    grid = policy.grid
    t, X, psi = j * grid.dt, grid.node_coords(), policy.slice_flat(j)
    eta = ensemble.measure(j)
    src = np.einsum("pil,pi->pl", problem.dx_drift(t, X, psi, eta), U_next)
    src += problem.dx_running(t, X, psi, eta)
    eta_k = eta.strided()
    if problem.mu_drift.const is not None:
        mean = deposit(grid, eta_k.x) @ U_next / eta_k.size
        src += problem.mu_drift.const_contract(mean)
    elif not problem.mu_drift.is_zero:
        w = multilinear_eval(grid, U_next.reshape(grid.nodes + (-1,)), eta_k.x)
        src += problem.mu_drift.mean_contract(t, eta_k, X, psi, weights=w)
    return src


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("model", ["portfolio", "cs2d-beta1", "cs2d-beta0"])
@pytest.mark.parametrize("subsample, stride", [(None, 1), (90, 5)])
def test_hamiltonian_derivative_matches_the_einsum_copies_bitwise(model, subsample, stride):
    # d = 2: the column products sum as einsum does, bit for bit.  Portfolio
    # has a constant control kernel, Cucker-Smale a contracted (beta = 1) or
    # constant (beta = 0) state kernel.
    if model == "portfolio":
        prob = portfolio_problem(kernel_subsample=subsample)
        grid = portfolio_grid(cells=10, time_steps=6)
    else:
        params = CuckerSmaleParams(beta=1.0 if model == "cs2d-beta1" else 0.0)
        prob = cs2d_problem(params, kernel_subsample=subsample)
        grid = cs2d_grid(params, cells=10, time_steps=6)
    M = grid.time_steps
    rng = np.random.default_rng(12)
    policy = GridField(grid, rng.standard_normal((M + 1,) + grid.nodes + (1,)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # particles leaving the box
        ens = simulate(prob, policy, 400, M, 2)
    assert ens.measure(0).stride() == stride
    pde = AdjointField(GridField(grid, rng.standard_normal((M + 1,) + grid.nodes + (2,))), ens)
    ncells = int(np.prod(np.array(grid.nodes) - 1))
    reg = regress_adjoint(
        prob, policy, ens,
        previous=rng.standard_normal((M + 1, ncells, 2)),
    )
    X = grid.node_coords()
    for j in range(M + 1):
        t, psi = j * grid.dt, policy.slice_flat(j)
        for adjoint in (pde, reg):
            want = _gradient_slice_einsum(prob, policy, ens, adjoint, j)
            got = prob.hamiltonian_derivative("a", t, X, psi, adjoint.u_at_nodes(j), adjoint, j)
            np.testing.assert_array_equal(_bits(got), _bits(want))
            got = gradient_slice(prob, policy, adjoint, j)
            np.testing.assert_array_equal(_bits(got), _bits(want))
        U = pde.u_at_nodes(j)
        want = _assemble_source_einsum(prob, policy, ens, U, j)
        got = prob.hamiltonian_derivative("x", t, X, psi, U, pde, j)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        got = assemble_source(prob, policy, pde, j)
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_hamiltonian_derivative_names_a_bad_variable():
    prob = portfolio_problem()
    x, a = np.zeros((2, 2)), np.zeros((2, 1))
    with pytest.raises(ValueError, match="wrt"):
        prob.hamiltonian_derivative("t", 0.0, x, a, np.zeros((2, 2)), None, 0)
