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

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import nag
from .grids import SpaceTimeGrid
from .particles import ParticleEnsemble
from .problem import MfcProblem

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
    idx: np.ndarray, counts: np.ndarray, targets: np.ndarray, fallback: np.ndarray
) -> np.ndarray:
    """Least-squares fit of targets on the indicator basis of the grid cells.

    For an orthogonal indicator basis the normal equations decouple and the
    solution is the target mean per cell.  `idx` holds the cell of each
    sample (cell_index) and `counts` the samples per cell,
    np.bincount(idx, minlength=num_cells); cells containing no sample keep
    the corresponding `fallback` row.  Shapes: idx (N,), targets (N, c),
    fallback (num_cells, c); returns (num_cells, c).
    """
    ncells = fallback.shape[0]
    out = fallback.copy()
    filled = counts > 0
    sums = np.empty((ncells, targets.shape[1]))
    for c in range(targets.shape[1]):
        sums[:, c] = np.bincount(idx, weights=targets[:, c], minlength=ncells)
    out[filled] = sums[filled] / counts[filled, None]
    return out


def _histogram_mean(counts: np.ndarray, cell_values: np.ndarray) -> np.ndarray:
    """Mean over points of their cell values, from the points per cell."""
    return counts @ cell_values / counts.sum()


@dataclass
class PiecewiseConstantAdjoint:
    """Cell-constant adjoint approximation with the PDE-field protocol.

    u_at_points looks up each point's cell; mean_at gives only the mean of
    those values over the points, from the count of points per cell.
    `atom_means` is set by regress_adjoint: a weak reference to the
    ensemble's states (M+1, N, d), a stride s and the read-only means
    (M+1, c) over the particles states[j, ::s], which mean_at returns for
    exactly those particles instead of looking them up again.
    """

    grid: SpaceTimeGrid
    cells: np.ndarray  # (M+1, num_cells, c)
    atom_means: Optional[tuple] = None

    def u_at_points(self, j: int, x: np.ndarray) -> np.ndarray:
        return self.cells[j].take(cell_index(self.grid, x), axis=0)

    def u_at_nodes(self, j: int) -> np.ndarray:
        return self.cells[j].take(self._node_cells, axis=0)

    def mean_at(self, j: int, x: np.ndarray) -> np.ndarray:
        """u_at_points(j, x).mean(axis=0) up to summation order; shape (c,).

        The mean is read off the histogram of the points over the cells;
        for the regression's own particles it was stored as it was
        regressed, with the same bits.
        """
        if self.atom_means is not None:
            states_ref, stride, means = self.atom_means
            states = states_ref()
            # x must view the very memory of states[j, ::stride], which the
            # weak reference keeps from being another array's
            if states is not None and _same_view(x, states[j, ::stride]):
                return means[j]
        counts = np.bincount(cell_index(self.grid, x), minlength=self.cells.shape[1])
        return _histogram_mean(counts, self.cells[j])

    @cached_property
    def _node_cells(self) -> np.ndarray:
        return cell_index(self.grid, self.grid.node_coords())


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b view the same elements of memory in the same layout."""
    return (
        a.shape == b.shape
        and a.strides == b.strides
        and a.dtype == b.dtype
        and a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
    )


def regress_adjoint(
    problem: MfcProblem,
    ensemble: ParticleEnsemble,
    grid: SpaceTimeGrid,
    previous: Optional[PiecewiseConstantAdjoint] = None,
    kernel_subsample: Optional[int] = None,
) -> PiecewiseConstantAdjoint:
    """Backward indicator-basis regression of the adjoint along particles.

    Cell values at slice j-1 are the per-cell means over particles X_{j-1}
    of Y_j(X_j) + dt * source(t_j, X_j), mirroring the explicit source
    treatment of the grid scheme.  The source is the x-derivative of the
    Hamiltonian (MfcProblem.hamiltonian_derivative) at the particles and
    the controls stored with them; the diffusion does not depend on the
    state, so no gradient term enters the targets.

    The returned adjoint also holds the mean of each slice's cell values
    over the particles of the control gradient, the ensemble's atoms
    subsampled by kernel_subsample, read off the cell counts that the
    regression computes anyway (see PiecewiseConstantAdjoint.atom_means).
    """
    M = grid.time_steps
    d = problem.state_dim
    ncells = int(np.prod(np.array(grid.nodes) - 1))
    fallback = (
        previous.cells
        if previous is not None
        else np.zeros((M + 1, ncells, d))
    )

    cells = np.empty((M + 1, ncells, d))
    means = np.empty((M + 1, d))
    mu_T = ensemble.measure(M)
    stride = mu_T.stride(kernel_subsample)
    # the sources of the loop read the slices and means regressed so far
    adjoint = PiecewiseConstantAdjoint(
        grid=grid, cells=cells,
        atom_means=(weakref.ref(ensemble.states), stride, means),
    )

    def regress(j, idx, targets):
        counts = np.bincount(idx, minlength=ncells)
        cells[j] = _cell_means(idx, counts, targets, fallback[j])
        if stride > 1:
            counts = np.bincount(idx[::stride], minlength=ncells)
        means[j] = _histogram_mean(counts, cells[j])

    term = problem.terminal_derivative(ensemble.states[M], mu_T, kernel_subsample)
    # idx holds the cells of the particles at the slice being stepped from:
    # the regression onto slice j-1 computes the lookup of the next step
    idx = cell_index(grid, ensemble.states[M])
    regress(M, idx, term)
    for j in range(M, 0, -1):
        eta = ensemble.measure(j)
        u_here = cells[j].take(idx, axis=0)
        src = problem.hamiltonian_derivative(
            "x", j * grid.dt, eta.x, eta.a, eta, u_here, adjoint, j, kernel_subsample
        )
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
