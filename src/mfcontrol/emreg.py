"""Empirical-regression baseline for the adjoint backward equation.

Instead of solving the adjoint PDE on the grid, this baseline projects the
adjoint process on indicator functions of the grid cells: a least-squares
regression on an indicator basis reduces to per-cell averaging of the
regression targets over the simulated particles.  The resulting
piecewise-constant field exposes the same evaluation protocol as the PDE
solution, so the control-gradient assembly is shared verbatim with the PDE
driver.  The approximation is only supported where particles actually
travel; cells never visited keep the value from the previous outer
iteration (zero initially).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .fdsolver import terminal_data
from .grids import PolicyField, SpaceTimeGrid
from .nag import (
    IterationRecord,
    NagState,
    RunReport,
    SolverError,
    _grad_norm,
    gradient_field,
    nag_step,
)
from .particles import ParticleEnsemble, estimate_cost, simulate
from .problem import MfcProblem


def cell_index(grid: SpaceTimeGrid, x: np.ndarray) -> np.ndarray:
    """Flat index of the grid cell containing each point (clamped to the box)."""
    lo = np.array(grid.lo)
    n = np.array(grid.nodes)
    idx = np.floor((np.asarray(x) - lo) / grid.h).astype(np.int64)
    np.clip(idx, 0, n - 2, out=idx)
    ncells = n - 1
    strides = np.ones(grid.state_dim, dtype=np.int64)
    for i in range(grid.state_dim - 2, -1, -1):
        strides[i] = strides[i + 1] * ncells[i + 1]
    return idx @ strides


def cell_regression(
    grid: SpaceTimeGrid, x: np.ndarray, targets: np.ndarray, fallback: np.ndarray
) -> np.ndarray:
    """Least-squares fit of targets on the indicator basis of the grid cells.

    For an orthogonal indicator basis the normal equations decouple and the
    solution is the target mean per cell.  Cells containing no sample keep
    the corresponding `fallback` row.  Shapes: x (N, d), targets (N, c),
    fallback (num_cells, c); returns (num_cells, c).
    """
    return _cell_means(cell_index(grid, x), targets, fallback)


def _cell_means(idx: np.ndarray, targets: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """cell_regression on precomputed cell indices `idx` of the samples."""
    ncells = fallback.shape[0]
    counts = np.bincount(idx, minlength=ncells)
    out = fallback.copy()
    filled = counts > 0
    sums = np.empty((ncells, targets.shape[1]))
    for c in range(targets.shape[1]):
        sums[:, c] = np.bincount(idx, weights=targets[:, c], minlength=ncells)
    out[filled] = sums[filled] / counts[filled, None]
    return out


@dataclass
class PiecewiseConstantAdjoint:
    """Cell-constant adjoint approximation with the PDE-field protocol."""

    grid: SpaceTimeGrid
    cells: np.ndarray  # (M+1, num_cells, c)

    def u_at_points(self, j: int, x: np.ndarray) -> np.ndarray:
        return self.cells[j][cell_index(self.grid, x)]

    def u_at_nodes(self, j: int) -> np.ndarray:
        return self.cells[j][self._node_cells]

    @cached_property
    def _node_cells(self) -> np.ndarray:
        return cell_index(self.grid, self.grid.node_coords())

    def v_at_nodes(self, j: int):
        return None

    def v_at_points(self, j: int, x: np.ndarray):
        return None


def _pointwise_source(
    problem: MfcProblem,
    t: float,
    eta,
    u: np.ndarray,
    kernel_subsample: Optional[int] = None,
) -> np.ndarray:
    """Adjoint source at the particles of eta: (dx b)^T u + dx f + kernel means.

    u holds the adjoint at the particles, which are also the carriers of
    the kernel means; the controls are the ones stored with the particles.
    """
    x, a = eta.x, eta.a
    Jb = np.asarray(problem.dx_drift(t, x, a, eta))
    src = np.einsum("pil,pi->pl", Jb, u)
    src += np.asarray(problem.dx_running(t, x, a, eta))
    eta_k = eta.strided(kernel_subsample)
    if not problem.mu_drift.is_zero:
        u_k = u[:: eta.stride(kernel_subsample)]
        src += problem.mu_drift.mean_contract(t, eta_k, x, a, weights=u_k)
    if not problem.mu_running.is_zero:
        src += problem.mu_running.mean_contract(t, eta_k, x, a)
    return src


def regress_adjoint(
    problem: MfcProblem,
    policy: PolicyField,
    ensemble: ParticleEnsemble,
    grid: SpaceTimeGrid,
    previous: Optional[PiecewiseConstantAdjoint] = None,
    kernel_subsample: Optional[int] = None,
) -> PiecewiseConstantAdjoint:
    """Backward indicator-basis regression of the adjoint along particles.

    Cell values at slice j-1 are the per-cell means over particles X_{j-1}
    of Y_j(X_j) + dt * source(t_j, X_j), mirroring the explicit source
    treatment of the grid scheme.  Requires a state-independent diffusion
    (no gradient term enters the targets then).  The source reads the
    controls stored in the ensemble, which simulate evaluated under
    `policy`; the ensemble must come from that policy or one with equal
    values, else ValueError.
    """
    if policy is not ensemble.policy and not np.array_equal(
        policy.values, ensemble.policy.values
    ):
        raise ValueError("the ensemble was simulated under a different policy")
    if problem.diffusion_state_dependent:
        raise NotImplementedError(
            "the regression baseline supports state-independent diffusion only"
        )
    M = grid.time_steps
    d = problem.state_dim
    ncells = int(np.prod(np.array(grid.nodes) - 1))
    fallback = (
        previous.cells
        if previous is not None
        else np.zeros((M + 1, ncells, d))
    )

    cells = np.empty((M + 1, ncells, d))
    mu_T = ensemble.measure(M)
    term = np.asarray(problem.dx_terminal(ensemble.states[M], mu_T), dtype=float)
    term = term + problem.mu_terminal.mean_contract(
        problem.horizon, mu_T.strided(kernel_subsample), ensemble.states[M], None
    )
    # idx holds the cells of the particles at the slice being stepped from:
    # the regression onto slice j-1 computes the lookup of the next step
    idx = cell_index(grid, ensemble.states[M])
    cells[M] = _cell_means(idx, term, fallback[M])
    for j in range(M, 0, -1):
        u_here = cells[j][idx]
        src = _pointwise_source(
            problem, j * grid.dt, ensemble.measure(j), u_here,
            kernel_subsample=kernel_subsample,
        )
        targets = u_here + grid.dt * src
        idx = cell_index(grid, ensemble.states[j - 1])
        cells[j - 1] = _cell_means(idx, targets, fallback[j - 1])
    return PiecewiseConstantAdjoint(grid=grid, cells=cells)


def run_emreg(
    problem: MfcProblem,
    grid: SpaceTimeGrid,
    iterations: int,
    tau: float = 1.0 / 6.0,
    num_particles: int = 10_000,
    seed: int = 0,
    eval_seed: int = 1_000_003,
    method: str = "fipde",
    kernel_subsample: Optional[int] = None,
    initial_policy: Optional[PolicyField] = None,
) -> RunReport:
    """Outer loop of the regression baseline; mirrors the PDE driver.

    The gradient assembly, proximal step and momentum are identical to the
    PDE-based run; only the adjoint approximation differs.  Cell values of
    unvisited cells carry over between outer iterations.
    """
    if method not in ("fipde", "ipde"):
        raise ValueError(f"unknown method {method!r}; expected 'fipde' or 'ipde'")
    if iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    M = grid.time_steps
    phi0 = (
        initial_policy.copy()
        if initial_policy is not None
        else PolicyField.zeros(grid, problem.control_dim)
    )
    state = NagState(iteration=0, phi=phi0, psi=phi0.copy())
    settings = {
        "iterations": iterations,
        "tau": tau,
        "num_particles": num_particles,
        "seed": seed,
        "eval_seed": eval_seed,
        "kernel_subsample": kernel_subsample,
        "grid_nodes": list(grid.nodes),
        "time_steps": M,
    }
    report = RunReport(
        method=f"emreg-{method}", problem_name=problem.name, records=[], settings=settings
    )

    def eval_cost(policy):
        ens = simulate(problem, policy, num_particles, M, eval_seed)
        return estimate_cost(problem, policy, ens)

    cost0, err0 = eval_cost(state.phi)
    report.records.append(IterationRecord(0, cost0, err0, float("nan"), 0.0))

    adjoint = None
    try:
        for m in range(iterations):
            tic = time.perf_counter()
            ensemble = simulate(problem, state.psi, num_particles, M, seed)
            adjoint = regress_adjoint(
                problem, state.psi, ensemble, grid,
                previous=adjoint, kernel_subsample=kernel_subsample,
            )
            grad = gradient_field(
                problem, state.psi, ensemble, adjoint, kernel_subsample=kernel_subsample
            )
            state = nag_step(state, grad, tau, problem, accelerate=(method == "fipde"))
            wall_ms = (time.perf_counter() - tic) * 1e3
            cost, err = eval_cost(state.phi)
            report.records.append(
                IterationRecord(m + 1, cost, err, _grad_norm(grad), wall_ms)
            )
    except Exception as exc:  # noqa: BLE001 - partial results matter here
        report.policy = state.phi
        report.lookahead = state.psi
        raise SolverError(f"iteration {state.iteration} failed: {exc}", report) from exc

    report.policy = state.phi
    report.lookahead = state.psi
    return report
