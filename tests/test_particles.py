"""Particle simulation: exactness, statistics, reproducibility, failures."""

import dataclasses
import os
import tracemalloc
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
    build_operator,
    cs2d_grid,
    cs2d_problem,
    estimate_cost,
    portfolio_grid,
    portfolio_problem,
    simulate,
)
from mfcontrol import particles
from mfcontrol.prox import ell_value


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
    cost, stderr = estimate_cost(prob, _zero_policy(grid), 2_000, grid.time_steps, 11)
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
    np.testing.assert_array_equal(a.mean_a, b.mean_a)
    c = simulate(prob, _zero_policy(grid), 500, grid.time_steps, 43)
    assert not np.array_equal(a.states, c.states)


def test_estimate_cost_uses_common_ensemble():
    prob = portfolio_problem()
    grid = portfolio_grid()
    pol = _zero_policy(grid)
    c1 = estimate_cost(prob, pol, 1_000, grid.time_steps, 1)
    c2 = estimate_cost(prob, pol, 1_000, grid.time_steps, 1)
    assert c1 == c2
    assert estimate_cost(prob, pol, 1_000, grid.time_steps, 2) != c1


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
        mu_drift=MeasureKernel.zero(), nu_drift=MeasureKernel.zero(),
        initial_sampler=base.initial_sampler,
    )
    with pytest.raises(FloatingPointError):
        simulate(prob, _zero_policy(grid), 10, grid.time_steps, 0)


def test_measure_slices_pair_states_with_controls():
    prob = portfolio_problem()
    grid = portfolio_grid()
    policy = _wavy_policy(grid, 1)
    ens = simulate(prob, policy, 50, grid.time_steps, 3)
    eta = ens.measure(10)
    assert isinstance(eta, EmpiricalMeasure)
    np.testing.assert_array_equal(eta.x, ens.states[10])
    want = policy.eval_slice(10, ens.states[10]).mean(axis=0)
    assert eta.mean_a.tobytes() == ens.mean_a[10].tobytes() == want.tobytes()


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
            cs2d_problem(CuckerSmaleParams(beta=10.0), kernel_subsample=500),
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
    # (M+1)·(N·d+k) + N·n = 51·(10 000·2 + 1) + 10 000·1 doubles, 8.2 MB
    with pytest.raises(
        MemoryError, match=r"N=10000 .* M=50 .*8\*\(\(M\+1\)\*\(N\*d\+k\) \+ N\*n\)"
    ):
        simulate(prob, _zero_policy(grid), 10_000, grid.time_steps, 0)
    # a need within the limit runs: 51·(100·2 + 1) + 100 doubles, 83 KB
    simulate(prob, _zero_policy(grid), 100, grid.time_steps, 0)


# ---------------------------------------------------------------------------
# the streamed particle loop against the loop it replaced
# ---------------------------------------------------------------------------


def _upfront_simulate(problem, policy, N, M, seed):
    """The particle loop with every Brownian increment drawn before it."""
    d, k, n = problem.state_dim, problem.control_dim, problem.noise_dim
    dt = problem.horizon / M
    init_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    rng_init = np.random.Generator(np.random.Philox(init_seq))
    rng_noise = np.random.Generator(np.random.Philox(noise_seq))
    states = np.empty((M + 1, N, d))
    controls = np.empty((M + 1, N, k))
    states[0] = problem.initial_sampler(N, rng_init)
    dW = rng_noise.standard_normal((M, N, n)) * np.sqrt(dt)
    for j in range(M):
        x = states[j]
        a = policy.eval_slice(j, x)
        controls[j] = a
        eta = EmpiricalMeasure(x, a.mean(axis=0), problem.kernel_subsample)
        b = problem.drift(j * dt, x, a, eta)
        sig = np.broadcast_to(problem.diffusion(j * dt, eta), (N, d, n))
        states[j + 1] = x + b * dt + np.einsum("pir,pr->pi", sig, dW[j])
    controls[M] = policy.eval_slice(M, states[M])
    return states, controls


def _slice_means(controls):
    """The action mean of each slice, as the particle loop takes it."""
    return np.stack([a.mean(axis=0) for a in controls])


def _ensemble_cost(problem, states, controls):
    """Cost of a stored ensemble, summed slice by slice after the loop."""
    M, N = states.shape[0] - 1, states.shape[1]
    dt = problem.horizon / M
    total = np.zeros(N)
    for j in range(M):
        eta = EmpiricalMeasure(states[j], controls[j].mean(axis=0))
        f = problem.running_cost(j * dt, states[j], controls[j], eta)
        total += (f + ell_value(problem.nonsmooth_cost, controls[j])) * dt
    eta = EmpiricalMeasure(states[M], controls[M].mean(axis=0))
    total += problem.terminal_cost(states[M], eta)
    acc = 0.0
    for lo in range(0, N, 4096):
        acc += total[lo : lo + 4096].sum(axis=0)
    return float(acc / N), float(total.std(ddof=1) / np.sqrt(N))


def _wavy_policy(grid, k):
    # smooth, of both signs and small enough to keep the particles in the box
    X = grid.node_coords()
    t = grid.times[:, None, None]
    vals = 0.3 * np.sin(X.sum(axis=1)[None, :, None] + 2.0 * t + np.arange(k))
    return PolicyField(grid, vals.reshape((grid.time_steps + 1,) + grid.nodes + (k,)))


_ORACLE_CASES = [
    # with the l1 control cost, so that ell enters the running cost
    (portfolio_problem(PortfolioParams(k2=0.1)), portfolio_grid(), 2_000, 7),
    (
        cs2d_problem(CuckerSmaleParams(beta=10.0), kernel_subsample=500),
        cs2d_grid(CuckerSmaleParams(beta=10.0), time_steps=20),
        2_000,
        3,
    ),
]


@pytest.mark.parametrize("prob, grid, N, seed", _ORACLE_CASES, ids=["portfolio", "cs2d-beta10"])
def test_streamed_loop_matches_upfront_noise_bitwise(prob, grid, N, seed):
    policy = _wavy_policy(grid, prob.control_dim)
    states, controls = _upfront_simulate(prob, policy, N, grid.time_steps, seed)
    ens = simulate(prob, policy, N, grid.time_steps, seed)
    assert ens.states.tobytes() == states.tobytes()
    assert ens.mean_a.tobytes() == _slice_means(controls).tobytes()
    cost = estimate_cost(prob, policy, N, grid.time_steps, seed)
    assert cost == _ensemble_cost(prob, states, controls)
    # a mean over a few particles keeps the last bits of each particle's sum
    for s in range(4):
        states, controls = _upfront_simulate(prob, policy, 3, grid.time_steps, s)
        cost = estimate_cost(prob, policy, 3, grid.time_steps, s)
        assert cost == _ensemble_cost(prob, states, controls)


def test_estimate_cost_holds_one_step_not_the_paths():
    prob = portfolio_problem()
    grid = portfolio_grid()
    policy = _zero_policy(grid)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        estimate_cost(prob, policy, 10_000, grid.time_steps, 0)
        cost_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        simulate(prob, policy, 10_000, grid.time_steps, 0)
        simulate_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # simulate holds (M+1)·N·d doubles, 8.16 MB; the evaluation a few
    # (N, d+k+n) arrays
    assert simulate_peak > 8.16e6
    assert cost_peak < simulate_peak / 4, (cost_peak, simulate_peak)


@pytest.mark.parametrize(
    "prob, grid",
    [(portfolio_problem(), portfolio_grid()), (cs2d_problem(), cs2d_grid())],
    ids=["portfolio", "cs2d"],
)
def test_simulate_keeps_the_states_and_the_action_means(prob, grid):
    # the ensemble holds the paths and one action mean per step, no control
    # per particle: the coefficients read the action law through its mean
    N, M = 2_000, grid.time_steps
    d, k = prob.state_dim, prob.control_dim
    policy = _wavy_policy(grid, k)
    simulate(prob, policy, 10, M, 0)  # warm the caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ens = simulate(prob, policy, N, M, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    arrays = {name: v.shape for name, v in vars(ens).items() if isinstance(v, np.ndarray)}
    assert arrays == {"states": (M + 1, N, d), "mean_a": (M + 1, k)}
    # (M+1)·N·d doubles, 1.63 MB, and one step of the loop on top; the
    # controls of every step would add (M+1)·N·k
    paths = 8 * (M + 1) * N * d
    assert paths < peak < 1.2 * paths, (peak, paths)


def test_particle_loop_builds_one_measure_per_step(monkeypatch):
    built = []

    class Counted(particles.EmpiricalMeasure):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(particles, "EmpiricalMeasure", Counted)
    prob = portfolio_problem()
    grid = portfolio_grid(cells=10, time_steps=7)
    estimate_cost(prob, _zero_policy(grid), 50, grid.time_steps, 0)
    assert len(built) == grid.time_steps + 1
    built.clear()
    ens = simulate(prob, _zero_policy(grid), 50, grid.time_steps, 0)
    assert len(built) == grid.time_steps + 1
    for j, eta in enumerate(built):
        np.testing.assert_array_equal(eta.x, ens.states[j])


def test_estimate_cost_warns_when_particles_leave_the_grid_box():
    params = PortfolioParams(domain_hi=(6.0, 1.5))
    grid = portfolio_grid(params, cells=10, time_steps=10)
    with pytest.warns(RuntimeWarning, match=r"outside the grid box .* dimension 1"):
        estimate_cost(portfolio_problem(params), _zero_policy(grid), 500, grid.time_steps, 0)


# ---------------------------------------------------------------------------
# one sigma per step against the per-particle contraction it replaced
# ---------------------------------------------------------------------------


def _rotated_noise_problem():
    """Portfolio with two Brownian motions through a scaled rotation: sigma
    has nonzero off-diagonal entries, and sigma sigma^T is diagonal."""
    sig = np.array([[0.6137, 0.2718], [-0.2718, 0.6137]])

    return dataclasses.replace(portfolio_problem(), noise_dim=2, diffusion=lambda t, eta: sig)


def test_two_noise_step_matches_per_particle_einsum_bitwise():
    # _upfront_simulate contracts sigma, broadcast to (N, d, n), per
    # particle with einsum("pir,pr->pi"), as the particle loop did
    prob, grid = _rotated_noise_problem(), portfolio_grid()
    policy = _wavy_policy(grid, 1)
    states, controls = _upfront_simulate(prob, policy, 2_000, grid.time_steps, 5)
    ens = simulate(prob, policy, 2_000, grid.time_steps, 5)
    assert ens.states.tobytes() == states.tobytes()
    assert ens.mean_a.tobytes() == _slice_means(controls).tobytes()


def test_non_finite_state_names_its_step_and_first_particle():
    base = portfolio_problem()
    grid = portfolio_grid()
    dt = grid.dt

    def drift(t, x, a, eta):
        out = base.drift(t, x, a, eta)
        if abs(t - 2 * dt) < 1e-12:  # the step from t_2 to t_3
            out[9, 0] = np.inf
            out[7, 1] = np.nan
        return out

    prob = dataclasses.replace(base, drift=drift)
    with pytest.raises(FloatingPointError, match=r"step 3, particle 7;"):
        simulate(prob, _zero_policy(grid), 20, grid.time_steps, 0)
    with pytest.raises(FloatingPointError, match=r"step 3, particle 7;"):
        estimate_cost(prob, _zero_policy(grid), 20, grid.time_steps, 0)


@pytest.mark.parametrize(
    "sigma",
    [np.diag([0.7, 0.5]), np.array([0.3, 0.0]), np.zeros((1, 2, 1))],
    ids=["two-noises-declared-one", "vector", "batched"],
)
def test_sigma_of_a_wrong_shape_is_rejected(sigma):
    # portfolio declares noise_dim = 1: a (2, 2) sigma would lose its second
    # column in the particle loop but not in the stencil's sigma sigma^T
    base, grid = portfolio_problem(), portfolio_grid()
    prob = dataclasses.replace(base, diffusion=lambda t, eta: sigma)
    policy = _wavy_policy(grid, 1)
    message = r"diffusion returned shape .*\(2, 1\)"
    with pytest.raises(ValueError, match=message):
        simulate(prob, policy, 50, grid.time_steps, 0)
    with pytest.raises(ValueError, match=message):
        estimate_cost(prob, policy, 50, grid.time_steps, 0)
    ens = simulate(base, policy, 50, grid.time_steps, 0)
    with pytest.raises(ValueError, match=message):
        build_operator(prob, policy, ens, 10)
