"""Linear-quadratic benchmarks for the consensus control problem.

With constant alignment rate (beta = 0) and smooth quadratic control cost
the optimal feedback is affine in the velocity:

    phi*(t, x, v) = -(a_t / (2 gamma1)) (v - E[v*_t]),

where the scalar function a solves the backward Riccati equation
a' - 2 K a - a^2 / (2 gamma1) + 2 = 0 with a(T) = 2.  The module
integrates this equation with classical RK4, builds the resulting feedback
on a policy grid, and provides an affine-structure verifier for computed
policies (also used for the liquidation problem, whose optimal control is
affine in the inventory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import GridField, SpaceTimeGrid
from .particles import _check_inputs, _euler
from .problems import CuckerSmaleParams, cs2d_problem

_BLOWUP = 1e6


@dataclass
class RiccatiSolution:
    """Backward Riccati trajectory a(t) on a uniform fine grid."""

    times: np.ndarray  # (n,) increasing, times[0] = 0, times[-1] = T
    a: np.ndarray  # (n,)
    K: float
    gamma1: float

    def at(self, t) -> np.ndarray:
        """Linear interpolation of a at times t (clamped to [0, T])."""
        return np.interp(np.clip(t, self.times[0], self.times[-1]), self.times, self.a)

    def gain(self, t) -> np.ndarray:
        """Feedback gain a_t / (2 gamma1)."""
        return self.at(t) / (2.0 * self.gamma1)

    def residual(self) -> float:
        """Max absolute defect a' - 2Ka - a^2/(2 gamma1) + 2 at interior grid
        times under central differencing."""
        dt = self.times[1] - self.times[0]
        da = (self.a[2:] - self.a[:-2]) / (2.0 * dt)
        mid = self.a[1:-1]
        defect = da - 2.0 * self.K * mid - mid**2 / (2.0 * self.gamma1) + 2.0
        return float(np.abs(defect).max())


def solve_cs_riccati(
    K: float = 1.0,
    gamma1: float = 0.1,
    horizon: float = 1.0,
    dt_ode: float = 1e-5,
) -> RiccatiSolution:
    """Integrate a' = 2 K a + a^2/(2 gamma1) - 2 backward from a(T) = 2 by RK4."""
    if not 0 < dt_ode <= 1e-3:
        raise ValueError("ODE stepsize must lie in (0, 1e-3]")
    steps = int(np.ceil(horizon / dt_ode))
    dt = horizon / steps

    def rhs(a):
        return 2.0 * K * a + a * a / (2.0 * gamma1) - 2.0

    a = np.empty(steps + 1)
    a[steps] = 2.0
    for j in range(steps, 0, -1):
        y = a[j]
        k1 = rhs(y)
        k2 = rhs(y - 0.5 * dt * k1)
        k3 = rhs(y - 0.5 * dt * k2)
        k4 = rhs(y - dt * k3)
        a[j - 1] = y - dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if abs(a[j - 1]) > _BLOWUP:
            raise RuntimeError(f"Riccati solution blew up at t = {(j - 1) * dt:.6g}")
    times = np.arange(steps + 1) * dt
    return RiccatiSolution(times=times, a=a, K=K, gamma1=gamma1)


def riccati_steady_state(K: float = 1.0, gamma1: float = 0.1) -> float:
    """Positive root of 2 K a + a^2/(2 gamma1) - 2 = 0."""
    # a^2 + 4 gamma1 K a - 4 gamma1 = 0
    return float(-2.0 * gamma1 * K + np.sqrt(4.0 * gamma1**2 * K**2 + 4.0 * gamma1))


def cs_lq_feedback(
    sol: RiccatiSolution,
    grid: SpaceTimeGrid,
    mean_velocity: np.ndarray,
) -> GridField:
    """Optimal affine feedback -gain(t_j) (v - mean_velocity[j]) on the grid."""
    mean_velocity = np.asarray(mean_velocity, dtype=float)
    if mean_velocity.shape != (grid.time_steps + 1,):
        raise ValueError("need one mean velocity per grid time")
    v = grid.node_coords()[:, 1]
    vals = np.empty((grid.time_steps + 1,) + grid.nodes + (1,))
    for j, t in enumerate(grid.times):
        slc = -sol.gain(t) * (v - mean_velocity[j])
        vals[j] = slc.reshape(grid.nodes + (1,))
    return GridField(grid, vals)


def closed_loop_mean_velocity(
    params: CuckerSmaleParams,
    sol: RiccatiSolution,
    grid: SpaceTimeGrid,
    num_particles: int = 100_000,
    seed: int = 7,
) -> np.ndarray:
    """E[v*_{t_j}] for the LQ model, by closed-loop particle simulation.

    Under the optimal feedback the mean velocity is a stationary point (the
    alignment and damping terms are both centered), so the feedback is
    constructed around the initial mixture mean and the simulated per-slice
    means are returned as the Monte-Carlo estimate.  The particle loop is
    the one of `simulate`, read one step at a time, so only O(N) doubles
    are held; the means equal, bit for bit, those of the simulated paths.
    """
    v0 = 0.5 * (params.mix_means[0][1] + params.mix_means[1][1])
    guess = np.full(grid.time_steps + 1, v0)
    policy = cs_lq_feedback(sol, grid, guess)
    problem = cs2d_problem(params)
    M = grid.time_steps
    _check_inputs(problem, policy, num_particles, M)
    means = np.empty(M + 1)
    for j, _, eta in _euler(problem, policy, num_particles, M, seed):
        means[j] = eta.x[:, 1].mean()
    return means


@dataclass
class AffineFitReport:
    """Per-time-slice least-squares fit slope * state[slice_var] + intercept."""

    slice_var: int
    slopes: np.ndarray  # (M+1,)
    intercepts: np.ndarray  # (M+1,)
    residuals: np.ndarray  # (M+1,) relative l2 residual per slice


def affine_fit_check(
    policy: GridField,
    slice_var: int,
    mask: Optional[np.ndarray] = None,
    component: int = 0,
) -> AffineFitReport:
    """Fit each time slice of a policy as affine in one state coordinate.

    `mask` selects the flattened nodes entering the fit (all nodes when
    omitted), e.g. to exclude the boundary layer of the truncated domain.
    The residual is relative: |fit - values| / |values| in l2 per slice;
    for a slice of zero norm the absolute residual norm is reported.
    """
    grid = policy.grid
    coord = grid.node_coords()[:, slice_var]
    if mask is not None:
        coord = coord[mask]
    A = np.stack([coord, np.ones_like(coord)], axis=1)
    M = grid.time_steps
    slopes = np.empty(M + 1)
    intercepts = np.empty(M + 1)
    residuals = np.empty(M + 1)
    for j in range(M + 1):
        y = policy.slice_flat(j)[:, component]
        if mask is not None:
            y = y[mask]
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        slopes[j], intercepts[j] = coef
        err = float(np.linalg.norm(A @ coef - y))
        denom = float(np.linalg.norm(y))
        residuals[j] = err / denom if denom > 0 else err
    return AffineFitReport(
        slice_var=slice_var, slopes=slopes, intercepts=intercepts, residuals=residuals
    )
