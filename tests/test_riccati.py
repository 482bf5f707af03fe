"""Riccati benchmark: ODE accuracy, feedback construction, affine fits."""

import numpy as np
import pytest

from mfcontrol import (
    affine_fit_check,
    closed_loop_mean_velocity,
    cs2d_grid,
    cs2d_problem,
    cs_lq_feedback,
    riccati_steady_state,
    simulate,
    solve_cs_riccati,
)
from mfcontrol.problems import CuckerSmaleParams

# backward integration with a 10x finer step agrees to 5e-16, so this value
# is exact to double precision for K = 1, gamma1 = 0.1, T = 1
A0_REFERENCE = 0.4642625003248658


@pytest.fixture(scope="module")
def sol():
    return solve_cs_riccati()


def test_terminal_value_and_residual(sol):
    assert sol.a[-1] == 2.0
    assert sol.residual() <= 1e-6


def test_initial_value_against_refined_reference(sol):
    assert abs(sol.a[0] - A0_REFERENCE) <= 1e-12


def test_steady_state_value():
    # positive root of a^2 + 4 gamma1 K a - 4 gamma1 = 0
    val = riccati_steady_state(K=1.0, gamma1=0.1)
    assert abs(val - 0.46332495807108) <= 1e-12
    # it is a genuine equilibrium of the backward flow
    assert abs(2.0 * val + val**2 / 0.2 - 2.0) <= 1e-12


def test_long_horizon_approaches_steady_state():
    sol = solve_cs_riccati(horizon=8.0, dt_ode=1e-3)
    assert abs(sol.a[0] - riccati_steady_state()) <= 1e-9


def test_interpolation_clamps(sol):
    assert sol.at(-1.0) == sol.a[0]
    assert sol.at(2.0) == 2.0
    assert sol.gain(1.0) == 2.0 / 0.2


def test_stepsize_validation():
    with pytest.raises(ValueError):
        solve_cs_riccati(dt_ode=0.1)


def test_feedback_field_is_affine_in_velocity(sol):
    grid = cs2d_grid()
    mean_v = np.full(grid.time_steps + 1, 1.5)
    policy = cs_lq_feedback(sol, grid, mean_v)
    report = affine_fit_check(policy, slice_var=1)
    # slope at time t is -a(t) / (2 gamma1); at T that is -10
    np.testing.assert_allclose(report.slopes[-1], -10.0, atol=1e-9)
    np.testing.assert_allclose(
        report.slopes, [-sol.gain(t) for t in grid.times], atol=1e-9
    )
    assert report.residuals.max() <= 1e-9
    # the feedback vanishes at the consensus velocity
    mid = policy.eval_slice(grid.time_steps // 2, np.array([[2.0, 1.5]]))
    np.testing.assert_allclose(mid, [[0.0]], atol=1e-12)


def test_feedback_requires_matching_mean_series(sol):
    grid = cs2d_grid()
    with pytest.raises(ValueError):
        cs_lq_feedback(sol, grid, np.zeros(3))


def test_closed_loop_mean_velocity_is_stationary(sol):
    grid = cs2d_grid()
    means = closed_loop_mean_velocity(
        CuckerSmaleParams(), sol, grid, num_particles=20_000, seed=3
    )
    # the initial mixture mean is 1.5 and both the alignment and the control
    # are centered on the running mean, so it stays put up to MC noise
    np.testing.assert_allclose(means, 1.5, atol=0.01)


@pytest.mark.parametrize("num_particles", [1, 3, 257, 5000])
def test_closed_loop_mean_velocity_streams_the_simulated_means(sol, num_particles):
    # the streamed per-step means equal, bit for bit, the means of the
    # velocity column of the paths that simulate keeps
    params = CuckerSmaleParams()
    grid = cs2d_grid(params, cells=20, time_steps=20)
    means = closed_loop_mean_velocity(params, sol, grid, num_particles=num_particles, seed=4)
    policy = cs_lq_feedback(sol, grid, np.full(grid.time_steps + 1, 1.5))
    ens = simulate(cs2d_problem(params), policy, num_particles, grid.time_steps, 4)
    want = ens.states[:, :, 1].mean(axis=1)
    np.testing.assert_array_equal(means.view(np.int64), want.view(np.int64))


def test_affine_fit_mask_restricts_nodes(sol):
    grid = cs2d_grid()
    mean_v = np.full(grid.time_steps + 1, 1.5)
    policy = cs_lq_feedback(sol, grid, mean_v)
    coords = grid.node_coords()
    mask = (coords[:, 1] >= 1.0) & (coords[:, 1] <= 2.0)
    report = affine_fit_check(policy, slice_var=1, mask=mask)
    assert report.residuals.max() <= 1e-9
