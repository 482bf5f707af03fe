"""Particle simulation: exactness, statistics, reproducibility, failures."""

import numpy as np
import pytest

from mfcontrol import (
    EmpiricalMeasure,
    MeasureKernel,
    MfcProblem,
    PolicyField,
    PortfolioParams,
    estimate_cost,
    portfolio_grid,
    portfolio_problem,
    simulate,
)


def _zero_policy(grid, k=1):
    return PolicyField.zeros(grid, k)


def test_constant_coefficients_are_integrated_exactly():
    # with sigma = 0 and zero control the paths are deterministic and the
    # per-particle cost has a closed form: q0^2 * T - q0 (s0 - gamma q0)
    prob = portfolio_problem(PortfolioParams(sigma=0.0))
    grid = portfolio_grid(PortfolioParams(sigma=0.0))
    ens = simulate(prob, _zero_policy(grid), 2_000, grid.time_steps, 11)
    q0 = ens.states[0, :, 1]
    np.testing.assert_allclose(ens.states[-1, :, 0], 2.0, atol=1e-12)
    np.testing.assert_allclose(ens.states[-1, :, 1], q0, atol=1e-12)
    cost, stderr = estimate_cost(prob, _zero_policy(grid), ens)
    expected = (q0**2 * 1.0 - q0 * (2.0 - 0.5 * q0)).mean()
    np.testing.assert_allclose(cost, expected, rtol=0, atol=1e-12)
    assert stderr > 0


def test_uncontrolled_price_is_gaussian():
    # S_T = s0 + sigma W_T exactly on the Euler grid (constant coefficients)
    prob = portfolio_problem()
    grid = portfolio_grid()
    N = 40_000
    ens = simulate(prob, _zero_policy(grid), N, grid.time_steps, 5)
    s_T = ens.states[-1, :, 0]
    assert abs(s_T.mean() - 2.0) < 4 * 0.7 / np.sqrt(N)
    assert abs(s_T.var() - 0.49) < 0.02
    # inventory is frozen under the zero policy
    np.testing.assert_array_equal(ens.states[-1, :, 1], ens.states[0, :, 1])


def test_mean_field_drift_sees_population_control():
    # under a constant control c the price drifts at rate lam * c
    prob = portfolio_problem(PortfolioParams(sigma=0.0))
    grid = portfolio_grid(PortfolioParams(sigma=0.0))
    vals = np.full((grid.time_steps + 1,) + grid.nodes + (1,), 0.8)
    ens = simulate(prob, PolicyField(grid, vals), 100, grid.time_steps, 0)
    np.testing.assert_allclose(ens.states[-1, :, 0], 2.0 + 0.5 * 0.8, atol=1e-12)


def test_bitwise_reproducibility():
    prob = portfolio_problem()
    grid = portfolio_grid()
    a = simulate(prob, _zero_policy(grid), 500, grid.time_steps, 42)
    b = simulate(prob, _zero_policy(grid), 500, grid.time_steps, 42)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.controls, b.controls)
    c = simulate(prob, _zero_policy(grid), 500, grid.time_steps, 43)
    assert not np.array_equal(a.states, c.states)


def test_estimate_cost_uses_common_ensemble():
    prob = portfolio_problem()
    grid = portfolio_grid()
    pol = _zero_policy(grid)
    ens = simulate(prob, pol, 1_000, grid.time_steps, 1)
    c1 = estimate_cost(prob, pol, ens)
    c2 = estimate_cost(prob, pol, ens)
    assert c1 == c2


def test_simulate_validates_inputs():
    prob = portfolio_problem()
    grid = portfolio_grid()
    with pytest.raises(ValueError):
        simulate(prob, _zero_policy(grid), 0, grid.time_steps, 0)
    with pytest.raises(ValueError):
        simulate(prob, _zero_policy(grid), 10, grid.time_steps + 1, 0)
    bad_grid = portfolio_grid(time_steps=25)
    with pytest.raises(ValueError):
        # policy partition must match the Euler partition
        simulate(prob, _zero_policy(bad_grid), 10, 50, 0)


def test_non_finite_states_raise():
    base = portfolio_problem()
    grid = portfolio_grid()

    def exploding_drift(t, x, a, eta):
        return np.full_like(x, np.inf)

    prob = MfcProblem(
        state_dim=2, control_dim=1, noise_dim=1, horizon=1.0,
        drift=exploding_drift,
        diffusion=base.diffusion,
        running_cost=base.running_cost,
        terminal_cost=base.terminal_cost,
        dx_drift=base.dx_drift, da_drift=base.da_drift,
        dx_running=base.dx_running, da_running=base.da_running,
        dx_terminal=base.dx_terminal,
        mu_drift=MeasureKernel.zero((2, 2)), nu_drift=MeasureKernel.zero((2, 1)),
        mu_running=MeasureKernel.zero((2,)), nu_running=MeasureKernel.zero((1,)),
        mu_terminal=MeasureKernel.zero((2,)),
        initial_sampler=base.initial_sampler,
    )
    with pytest.raises(FloatingPointError):
        simulate(prob, _zero_policy(grid), 10, grid.time_steps, 0)


def test_measure_slices_pair_states_with_controls():
    prob = portfolio_problem()
    grid = portfolio_grid()
    ens = simulate(prob, _zero_policy(grid), 50, grid.time_steps, 3)
    eta = ens.measure(10)
    assert isinstance(eta, EmpiricalMeasure)
    np.testing.assert_array_equal(eta.x, ens.states[10])
    np.testing.assert_array_equal(eta.a, ens.controls[10])
