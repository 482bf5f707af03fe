"""Accelerated proximal-gradient driver over feedback policies.

Each outer iteration simulates the interacting-particle state law under the
current lookahead policy, solves the adjoint PDE system backward on the
grid, assembles the control gradient on the same grid and applies a
proximal-gradient step with Nesterov momentum m / (m + 3).  Dropping the
momentum term recovers the plain iterative variant; the regression baseline
swaps the PDE solve for a particle regression of the adjoint.  All three
share the exact same gradient evaluation and step.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .fdsolver import AdjointField, backward_sweep
from .grids import GridField, PolicyField, SpaceTimeGrid
from .particles import estimate_cost, simulate
from .problem import MfcProblem
from .prox import prox_apply

# 'fipde' and 'ipde' solve the adjoint PDE with and without momentum;
# 'emreg' regresses the adjoint on the particles, with momentum
METHODS = ("fipde", "ipde", "emreg")


def gradient_slice(
    problem: MfcProblem, policy: PolicyField, adjoint: AdjointField, j: int
) -> np.ndarray:
    """Control gradient at the time-j grid nodes, shape (num_nodes, k): the
    a-derivative of the Hamiltonian (MfcProblem.hamiltonian_derivative) at
    the nodes and the lookahead controls, under the adjoint's particle law
    of slice j.
    """
    grid = policy.grid
    return problem.hamiltonian_derivative(
        "a", j * grid.dt, grid.node_coords(), policy.slice_flat(j),
        adjoint.u_at_nodes(j), adjoint, j,
    )


def gradient_field(
    problem: MfcProblem, policy: PolicyField, adjoint: AdjointField
) -> GridField:
    """Control gradient on every time slice of the policy grid."""
    grid = policy.grid
    k = problem.control_dim
    vals = np.empty((grid.time_steps + 1,) + grid.nodes + (k,))
    for j in range(grid.time_steps + 1):
        vals[j] = gradient_slice(problem, policy, adjoint, j).reshape(grid.nodes + (k,))
    return GridField(grid, vals)


def momentum_coefficient(m: int) -> float:
    """Nesterov momentum weight of iteration m (0 at the first step)."""
    return m / (m + 3.0)


@dataclass
class NagState:
    """Iterate pair of the accelerated scheme: proximal point and lookahead."""

    iteration: int
    phi: PolicyField
    psi: PolicyField


def _check_step_settings(tau: float) -> None:
    """Raise ValueError unless tau is positive and finite (NaN is neither)."""
    if not 0 < tau < np.inf:
        raise ValueError(f"stepsize tau must be positive and finite, got {tau!r}")


def nag_step(
    state: NagState,
    grad: GridField,
    tau: float,
    problem: MfcProblem,
    accelerate: bool = True,
) -> NagState:
    """One proximal-gradient update, with the momentum extrapolation
    m / (m + 3) when accelerate is set."""
    _check_step_settings(tau)
    grid = state.psi.grid
    phi_vals = prox_apply(
        problem.nonsmooth_cost, tau, state.psi.values - tau * grad.values
    )
    coef = momentum_coefficient(state.iteration) if accelerate else 0.0
    psi_vals = phi_vals + coef * (phi_vals - state.phi.values)
    return NagState(
        iteration=state.iteration + 1,
        phi=PolicyField(grid, phi_vals),
        psi=PolicyField(grid, psi_vals),
    )


@dataclass
class IterationRecord:
    """One row of a run report."""

    m: int
    cost: float
    stderr: float
    grad_norm: float
    wall_ms: float


@dataclass
class RunReport:
    """Outcome of a solver run: per-iteration statistics and the final policy."""

    method: str
    problem_name: str
    records: List[IterationRecord]
    policy: Optional[PolicyField] = None
    lookahead: Optional[PolicyField] = None
    settings: dict = field(default_factory=dict)

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("m,J,stderr,grad_norm,wall_ms\n")
            for r in self.records:
                fh.write(
                    f"{r.m},{r.cost:.17g},{r.stderr:.17g},"
                    f"{r.grad_norm:.17g},{r.wall_ms:.17g}\n"
                )

    def to_json(self, path) -> None:
        """Write the report as strict JSON: a non-finite number (the NaN
        gradient norm of row 0) is written as null."""
        payload = {
            "method": self.method,
            "problem": self.problem_name,
            "settings": self.settings,
            "iterations": [
                {
                    "m": r.m,
                    "J": r.cost,
                    "stderr": r.stderr,
                    "grad_norm": r.grad_norm,
                    "wall_ms": r.wall_ms,
                }
                for r in self.records
            ],
        }
        with open(path, "w") as fh:
            json.dump(_finite_or_null(payload), fh, indent=2, allow_nan=False)
            fh.write("\n")


def _finite_or_null(obj):
    """obj with every non-finite float, also in nested dicts and lists, as None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


class SolverError(RuntimeError):
    """Raised when an iteration fails; carries the partial run report."""

    def __init__(self, message: str, partial_report: RunReport):
        super().__init__(message)
        self.partial_report = partial_report


def _grad_norm(grad: GridField) -> float:
    return float(np.sqrt(np.mean(grad.values**2)))


def _onto_run_grid(policy: PolicyField, grid: SpaceTimeGrid) -> PolicyField:
    """A copy of the policy's values on the run grid itself.

    The policy must lie on `grid`: the same nodes and time steps, and the
    box corners and the horizon equal up to 1e-9 of a mesh width and of a
    time step.  That accepts a policy read back by field_from_csv, whose
    upper corner is the last node's coordinate, lo + (n - 1) h, and can
    differ from hi in the last bits.  Any other grid raises ValueError
    naming both.
    """
    other = policy.grid

    def box(g: SpaceTimeGrid) -> np.ndarray:
        return np.array(g.lo + g.hi + (g.horizon,))

    scale = np.concatenate([grid.h, grid.h, [grid.dt]])
    if not (
        other.nodes == grid.nodes
        and other.time_steps == grid.time_steps
        and np.all(np.abs(box(other) - box(grid)) <= 1e-9 * scale)
    ):
        raise ValueError(f"the initial policy lies on {other}, not on the run grid {grid}")
    return PolicyField(grid, policy.values.copy())


def run(
    problem: MfcProblem,
    grid: SpaceTimeGrid,
    iterations: int,
    tau: float = 1.0 / 6.0,
    num_particles: int = 10_000,
    seed: int = 0,
    eval_seed: int = 1_000_003,
    method: str = "fipde",
    initial_policy: Optional[PolicyField] = None,
    callback: Optional[Callable[[int, NagState, RunReport], None]] = None,
) -> RunReport:
    """Run the iterative solver and report per-iteration costs.

    `method` is one of :data:`METHODS`: 'fipde' and 'emreg' extrapolate with
    the momentum weight m / (m + 3), 'ipde' takes plain steps.  The
    regression updates one cell array for the whole run: each iteration
    writes its cell means into the previous iteration's cells, and a cell
    that no particle visits keeps its value.  The
    training ensemble reuses the same seed every iteration so the scheme is
    a deterministic fixed-point iteration on the policy; cost rows are
    estimated on a separate fixed evaluation seed (common random numbers
    across iterations) so cost gaps between iterates are not drowned by
    Monte Carlo noise.  The evaluation sums the costs along its particle
    loop and keeps no paths, and it runs after the training ensemble is
    dropped with the adjoint bound to it, so at most one ensemble is held
    at a time.  At its peak a solve holds one ensemble, its adjoint, the
    (phi, psi) pair and the gradient; the initial policy is released after
    the first step.  The interaction sums are subsampled at the problem's own
    cap, problem.kernel_subsample.  An initial policy must lie on `grid` up
    to rounding (a CSV round trip of a policy on it does), and the run
    takes its values onto `grid` itself, so that the iterates, the adjoint,
    the gradient and the report's policy share one grid object; a policy on
    another grid raises ValueError before any cost row.  Row m = 0 echoes
    the cost of the initial policy; row m >= 1 reports the cost of phi^m
    together with the gradient norm and wall time of the iteration
    producing it.  On failure, also in the cost row of the initial policy,
    a :class:`SolverError` carrying the partial report is raised.
    """
    # emreg imports this module, so it is imported here, and
    # emreg.regress_adjoint is looked up at each call
    from . import emreg

    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    if iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    _check_step_settings(tau)
    M = grid.time_steps
    phi0 = (
        _onto_run_grid(initial_policy, grid)
        if initial_policy is not None
        else PolicyField.zeros(grid, problem.control_dim)
    )
    state = NagState(iteration=0, phi=phi0, psi=phi0.copy())
    # the state alone holds the initial policy, so the first step releases it
    del phi0
    settings = {
        "iterations": iterations,
        "tau": tau,
        "num_particles": num_particles,
        "seed": seed,
        "eval_seed": eval_seed,
        "kernel_subsample": problem.kernel_subsample,
        "grid_nodes": list(grid.nodes),
        "time_steps": M,
    }
    report = RunReport(
        method="emreg-fipde" if method == "emreg" else method,
        problem_name=problem.name, records=[], settings=settings,
    )

    def eval_cost(policy: PolicyField) -> tuple[float, float]:
        return estimate_cost(problem, policy, num_particles, M, eval_seed)

    # the regression's cells, which the next regression updates in place;
    # not its adjoint, which would keep the last training ensemble alive
    # through the next simulate
    previous = None
    try:
        cost0, err0 = eval_cost(state.phi)
        report.records.append(IterationRecord(0, cost0, err0, float("nan"), 0.0))
        for m in range(iterations):
            tic = time.perf_counter()
            ensemble = simulate(problem, state.psi, num_particles, M, seed)
            if method == "emreg":
                adjoint = emreg.regress_adjoint(problem, state.psi, ensemble, previous)
                previous = adjoint.cells
            else:
                adjoint = backward_sweep(problem, state.psi, ensemble)
            grad = gradient_field(problem, state.psi, adjoint)
            # the training ensemble and the adjoint bound to it go before the
            # evaluation and the next simulate, so that one ensemble is alive
            # at a time
            del ensemble, adjoint
            state = nag_step(state, grad, tau, problem, accelerate=(method != "ipde"))
            grad_norm = _grad_norm(grad)
            del grad
            wall_ms = (time.perf_counter() - tic) * 1e3
            cost, err = eval_cost(state.phi)
            report.records.append(IterationRecord(m + 1, cost, err, grad_norm, wall_ms))
            if callback is not None:
                callback(m + 1, state, report)
    except Exception as exc:  # noqa: BLE001 - partial results matter here
        report.policy = state.phi
        report.lookahead = state.psi
        raise SolverError(f"iteration {state.iteration} failed: {exc}", report) from exc

    report.policy = state.phi
    report.lookahead = state.psi
    return report
