"""Empirical-regression baseline for the adjoint backward equation.

Instead of solving the adjoint PDE on the grid, this baseline projects the
adjoint process on indicator functions of the grid cells: a least-squares
regression on an indicator basis reduces to per-cell averaging of the
regression targets over the simulated particles.  The resulting
piecewise-constant field exposes the same evaluation protocol as the PDE
solution, so ``nag.run(..., method="emreg")`` shares the control-gradient
assembly and the step verbatim with the PDE methods.  The approximation is
only supported where particles actually travel; cells never visited keep
the value from the previous outer iteration (zero initially).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import nag
from .grids import PolicyField, SpaceTimeGrid
from .particles import BoundAdjoint, ParticleEnsemble
from .problem import MfcProblem, check_finite_source

# Bound only because perfbench/run.py traces these names on this module;
# the loop that calls them is nag.run.
from .nag import gradient_field, nag_step  # noqa: F401
from .particles import estimate_cost, simulate  # noqa: F401


def cell_index(grid: SpaceTimeGrid, x: np.ndarray) -> np.ndarray:
    """Flat index of the grid cell containing each point (clamped to the box).

    Cells are numbered in C order over the (n_i - 1) cells per dimension; a
    point on an upper face lies in the last cell.  Each coordinate's cell
    floor((x_i - lo_i) / h_i) is clamped to [0, n_i - 2] while still a float
    and accumulated into the flat index one dimension at a time.
    """
    x = np.asarray(x)
    flat = None
    stride = 1
    for i in range(grid.state_dim - 1, -1, -1):
        u = x[:, i] - grid.lo[i]
        u /= grid.h[i]
        np.floor(u, out=u)
        # ufuncs rather than np.clip, whose wrapper costs more than the clip
        np.maximum(u, 0.0, out=u)
        np.minimum(u, grid.nodes[i] - 2, out=u)
        if flat is None:
            flat = u
        else:
            u *= stride
            flat += u
        stride *= grid.nodes[i] - 1
    # a sum of integers below 2^53 is exact in float64
    return flat.astype(np.int64)


def _cell_means(
    idx: np.ndarray, counts: np.ndarray, targets: np.ndarray, out: np.ndarray
) -> None:
    """Least-squares fit of targets on the indicator basis of the grid cells,
    written into `out` in place.

    For an orthogonal indicator basis the normal equations decouple and the
    solution is the target mean per cell.  `idx` holds the cell of each
    sample (cell_index) and `counts` the samples per cell,
    np.bincount(idx, minlength=num_cells); cells containing no sample keep
    their row of `out`.  Shapes: idx (N,), targets (N, c), out (num_cells, c).
    """
    ncells = out.shape[0]
    filled = counts > 0
    sums = np.empty((ncells, targets.shape[1]))
    for c in range(targets.shape[1]):
        sums[:, c] = np.bincount(idx, weights=targets[:, c], minlength=ncells)
    out[filled] = sums[filled] / counts[filled, None]


@dataclass
class PiecewiseConstantAdjoint(BoundAdjoint):
    """Cell-constant adjoint approximation with the PDE-field protocol.

    regress_adjoint binds it to the particle law (ensemble) it was
    regressed on.  u_at_points looks up each point's cell; kernel_mean(j)
    is the mean of slice j over the kernel atoms, which the regression
    stores in `means` as it reads them off its cell counts.  `cells` is the
    array the regression was handed as `previous` (or its zeros), so a
    later regression into the same array changes this adjoint too.
    """

    grid: SpaceTimeGrid
    cells: np.ndarray  # (M+1, num_cells, c)
    means: np.ndarray  # (M+1, c)
    ensemble: ParticleEnsemble

    def u_at_points(self, j: int, x: np.ndarray) -> np.ndarray:
        return self.cells[j].take(cell_index(self.grid, x), axis=0)

    def u_at_nodes(self, j: int) -> np.ndarray:
        return self.cells[j].take(self._node_cells, axis=0)

    def kernel_mean(self, j: int) -> np.ndarray:
        """u_at_points(j, x).mean(axis=0) over the kernel atoms x of slice j,
        up to summation order; shape (c,)."""
        return self.means[j]

    @cached_property
    def _node_cells(self) -> np.ndarray:
        return cell_index(self.grid, self.grid.node_coords())


def regress_adjoint(
    problem: MfcProblem,
    policy: PolicyField,
    ensemble: ParticleEnsemble,
    previous: Optional[np.ndarray] = None,
) -> PiecewiseConstantAdjoint:
    """Backward indicator-basis regression of the adjoint along particles.

    The cells and time slices are those of policy.grid.  Cell values at
    slice j-1 are the per-cell means over particles X_{j-1} of
    Y_j(X_j) + dt * source(t_j, X_j), mirroring the explicit source
    treatment of the grid scheme.  The source is the x-derivative of the
    Hamiltonian (MfcProblem.hamiltonian_derivative) at the particles and
    the controls of `policy` there, re-evaluated per slice: under the policy
    that simulated `ensemble`, the particle loop's controls bit for bit.
    The diffusion does not depend on the state, so no gradient term enters
    the targets.  A non-finite source raises FloatingPointError naming the
    slice and the particle, before any cell of the slice it feeds is
    written.

    `previous`, the (M+1, num_cells, d) float cells of an earlier
    regression, is updated in place and becomes the returned adjoint's
    `cells`: a visited cell gets its new mean, a cell that no particle
    visits keeps its value.  So an earlier adjoint holding the same array
    sees the new cells.  Without `previous` the cells start from zeros.
    The update is bit for bit the regression into a fresh array: a slice's
    old values are read only by its own regression, for its unvisited
    cells, and no slice is read before it is written.

    The returned adjoint is bound to `ensemble`.  Its kernel means, the mean
    of each slice's cell values over the kernel atoms (every stride-th
    particle under the ensemble's kernel_subsample), are read off the cell
    counts that the regression computes anyway.
    """
    grid = policy.grid
    M = grid.time_steps
    d = problem.state_dim
    ncells = int(np.prod(np.array(grid.nodes) - 1))
    shape = (M + 1, ncells, d)
    if previous is None:
        cells = np.zeros(shape)
    elif previous.shape == shape and previous.dtype == np.float64:
        cells = previous
    else:
        raise ValueError(
            f"previous cells are {previous.dtype} of shape {previous.shape}, "
            f"expected float64 of shape {shape}"
        )

    means = np.empty((M + 1, d))
    stride = ensemble.measure(M).stride()
    # the sources of the loop read the slices and means regressed so far
    adjoint = PiecewiseConstantAdjoint(grid, cells, means, ensemble)

    def regress(j, idx, targets):
        counts = np.bincount(idx, minlength=ncells)
        _cell_means(idx, counts, targets, cells[j])
        if stride > 1:
            counts = np.bincount(idx[::stride], minlength=ncells)
        means[j] = counts @ cells[j] / counts.sum()

    term = problem.terminal_derivative(ensemble.states[M], adjoint)
    # idx holds the cells of the particles at the slice being stepped from:
    # the regression onto slice j-1 computes the lookup of the next step
    idx = cell_index(grid, ensemble.states[M])
    regress(M, idx, term)
    for j in range(M, 0, -1):
        u_here = cells[j].take(idx, axis=0)
        x = ensemble.states[j]
        src = problem.hamiltonian_derivative(
            "x", j * grid.dt, x, policy.eval_slice(j, x), u_here, adjoint, j
        )
        check_finite_source(src, j, "particle")
        targets = u_here + grid.dt * src
        idx = cell_index(grid, ensemble.states[j - 1])
        regress(j - 1, idx, targets)
    means.setflags(write=False)
    return adjoint


def run_emreg(
    problem: MfcProblem, grid: SpaceTimeGrid, iterations: int, **kwargs
) -> nag.RunReport:
    """The regression baseline: ``nag.run(..., method="emreg")``."""
    return nag.run(problem, grid, iterations, method="emreg", **kwargs)
