"""Particle simulation: exactness, statistics, reproducibility, failures."""

import os
import warnings

import numpy as np
import pytest

from mfcontrol import (
    CuckerSmaleParams,
    EmpiricalMeasure,
    MeasureKernel,
    MfcProblem,
    PolicyField,
    PortfolioParams,
    cs2d_grid,
    cs2d_problem,
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


def test_simulate_warns_when_particles_leave_the_grid_box():
    # the initial inventories are uniform on [1, 2]; the grid stops at 1.5
    params = PortfolioParams(domain_hi=(6.0, 1.5))
    grid = portfolio_grid(params, cells=10, time_steps=10)
    with pytest.warns(RuntimeWarning, match=r"outside the grid box .* dimension 1"):
        simulate(portfolio_problem(params), _zero_policy(grid), 500, grid.time_steps, 0)


@pytest.mark.parametrize(
    "prob, grid",
    [
        (portfolio_problem(), portfolio_grid()),
        (cs2d_problem(), cs2d_grid()),
        (
            cs2d_problem(CuckerSmaleParams(beta=10.0, kernel_subsample=500)),
            cs2d_grid(CuckerSmaleParams(beta=10.0)),
        ),
    ],
    ids=["portfolio", "cs2d", "cs2d-beta10"],
)
def test_default_configs_stay_in_the_grid_box(prob, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(prob, _zero_policy(grid), 2_000, grid.time_steps, 0)


def test_simulate_fails_fast_beyond_physical_memory(monkeypatch):
    # 1 000 pages of 4 KiB: 4 MB of physical memory
    pages = {"SC_PHYS_PAGES": 1_000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    prob = portfolio_problem()
    grid = portfolio_grid()
    # (M+1)·N·(d+k) + M·N·n = 51·10 000·3 + 50·10 000·1 doubles, 16 MB
    with pytest.raises(MemoryError, match=r"N=10000 .* M=50 .*8\*\(\(M\+1\)\*N"):
        simulate(prob, _zero_policy(grid), 10_000, grid.time_steps, 0)
    # a need within the limit runs: 51·100·3 + 50·100 doubles, 160 KB
    simulate(prob, _zero_policy(grid), 100, grid.time_steps, 0)
