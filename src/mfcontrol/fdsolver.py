"""Semi-implicit monotone finite-difference solver for the adjoint PDE system.

The coupled nonlocal linear system for the adjoint decoupling field u is
discretized with implicit timestepping for the local generator (upwind
first-order terms, central second-order terms, all stencil weights
nonnegative) and explicit timestepping for the nonlocal source.  Boundary
nodes of the truncated box hold the terminal condition as Dirichlet data.
Each interior step solves a sparse M-matrix system per solution
component, factored once per slice by a sparse LU without pivoting.

The elimination order is block-triangular.  A model that diffuses in only
some dimensions has only upwind advection in the others, so the graph of
I - dt*L splits into many strongly connected components, and sorting the
nodes by component makes the system block lower-triangular: the LU fills
only the diagonal blocks.  Within a component the nodes keep the lattice's
fill-reducing order.  A sweep whose operator does not change from one slice
to the next (the zero policy of a first iteration) factors it once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .grids import GridField, PolicyField, SpaceTimeGrid, _read_only, deposit
# bound only because perfbench/run.py traces this name on this module
from .grids import multilinear_eval  # noqa: F401
from .particles import ParticleEnsemble
from .problem import MfcProblem

_SOLVE_TOL = 1e-10  # on the residual relative to max(1, |rhs|_inf)

# SuperLU settings of the per-slice factorisation.  The matrix arrives in a
# fill-reducing order (_elimination_order), so no column ordering is computed
# ("NATURAL"), and the diagonal pivot is always taken (threshold 0).  Small
# supernodes (relax, panel_size) cut the factor time of a 51 x 51 portfolio
# slice by a quarter to two thirds against SuperLU's defaults.
_LU_OPTIONS = dict(
    permc_spec="NATURAL",
    diag_pivot_thresh=0.0,
    relax=1,
    panel_size=1,
    options={"SymmetricMode": True},
)


@functools.lru_cache(maxsize=16)
def _fill_order(nodes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Fill-reducing elimination order of the (2d+1)-point node lattice.

    _elimination_order keeps it within each strongly connected component
    of a slice's system.  Returns (order, rank), read-only: order lists
    the flat node indices in elimination order and rank is its inverse,
    rank[order[k]] = k.  The order comes from SuperLU's minimum degree on
    A + A^T for a strictly diagonally dominant matrix on the full lattice
    stencil, whose pattern contains that of every I - dt*L on these nodes.  SuperLU's perm_c maps
    a column to its position, so it is the rank and its inverse the order.
    """
    lattice = None
    for n in reversed(nodes):  # C order: the last dimension has stride 1
        path = sp.diags([-1.0, -1.0], [-1, 1], shape=(n, n))
        lattice = path if lattice is None else sp.kronsum(lattice, path)
    dominant = lattice + (2 * len(nodes) + 1) * sp.identity(lattice.shape[0])
    lu = splu(
        dominant.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    rank = lu.perm_c.astype(np.int64)
    return _read_only(np.argsort(rank)), _read_only(rank)


def _elimination_order(system: sp.csr_matrix, lattice_rank: np.ndarray) -> np.ndarray:
    """Block-triangular elimination order of one slice's system.

    Nodes are sorted by their strongly connected component in the graph of
    the system (an edge r -> c for each nonzero (r, c)), ties broken by
    their rank in the lattice's fill order.  scipy numbers the components
    so that comp[r] >= comp[c] for every nonzero, which makes the reordered
    system block lower-triangular.
    """
    _, comp = connected_components(system, directed=True, connection="strong")
    # unique keys: component first, then lattice rank
    return np.argsort(comp.astype(np.int64) * lattice_rank.size + lattice_rank)


@dataclass
class MonotoneOperator:
    """Implicit step for the monotone stencil L of one time slice.

    L[phi]_k = sum_q a_qk (phi_q - phi_k) on flattened nodes, with zero rows
    on the Dirichlet boundary; `system` is I - dt*L, whose boundary rows are
    identity rows.
    """

    grid: SpaceTimeGrid
    system: sp.csr_matrix
    _lu: object = None
    _order: Optional[np.ndarray] = None
    _rank: Optional[np.ndarray] = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct sparse solve of (I - dt L) u = rhs with a cached LU factor.

        The system is factored as B = Q^T (I - dt L) Q without pivoting, Q
        the block-triangular order of _elimination_order: nodes sorted by
        strongly connected component, each component in the lattice's
        fill-reducing order (_fill_order).  B is block lower-triangular, so
        the factor fills only its diagonal blocks.  Skipping the pivoting
        is safe: I - dt L is a nonsingular M-matrix (nonpositive
        off-diagonal entries, row sums 1, hence strictly diagonally
        dominant), every symmetric permutation of an M-matrix is one, and
        so is every Schur complement of one, so each pivot of the
        elimination is positive, whatever the order.  A failed
        factorisation (a zero pivot on a system not built by
        build_operator) or a residual above tolerance raises RuntimeError
        at once.
        """
        if self._lu is None:
            order = _elimination_order(self.system, _fill_order(self.grid.nodes)[1])
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            # rows in elimination order, then columns relabelled by rank;
            # tocsc sorts each column's row indices
            permuted = self.system[order]
            permuted.indices = rank[permuted.indices]
            permuted.has_sorted_indices = False
            try:
                self._lu = splu(permuted.tocsc(), **_LU_OPTIONS)
            except RuntimeError as exc:
                raise RuntimeError(f"sparse LU of I - dt L failed: {exc}") from exc
            self._order, self._rank = order, rank
        # take gathers rows with the bits of fancy indexing in a tenth of its
        # time on (n, c) arrays; rank, the inverse of order, returns the
        # solution to node order
        sol = self._lu.solve(rhs.take(self._order, axis=0)).take(self._rank, axis=0)
        res = np.abs(self.system @ sol - rhs).max()
        tol = _SOLVE_TOL * max(1.0, np.abs(rhs).max())
        if not res <= tol:
            raise RuntimeError(
                f"linear solve residual {res:.3e} exceeds the tolerance {tol:.3e} "
                f"({_SOLVE_TOL:.0e} * max(1, |rhs|_inf))"
            )
        return sol


@dataclass
class AdjointField:
    """Adjoint decoupling field u on the grid.

    u_at_points interpolates slice j at each point; mean_at gives only the
    mean of that interpolant over the points, read off the node deposit of
    the points, without interpolating at any of them.
    """

    u: GridField

    def u_at_nodes(self, j: int) -> np.ndarray:
        return self.u.slice_flat(j)

    def u_at_points(self, j: int, x: np.ndarray) -> np.ndarray:
        return self.u.eval_slice(j, x)

    def mean_at(self, j: int, x: np.ndarray) -> np.ndarray:
        """u_at_points(j, x).mean(axis=0) up to summation order; shape (c,)."""
        return _node_mean(self.u.grid, self.u_at_nodes(j), x)


def _node_mean(grid: SpaceTimeGrid, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mean over the points x of the interpolant of node values (num_nodes, c)."""
    return deposit(grid, x) @ values / x.shape[0]


def _node_inputs(policy, ensemble, grid, j):
    """Time, node coordinates, node controls and particle measure of slice j."""
    return j * grid.dt, grid.node_coords(), policy.slice_flat(j), ensemble.measure(j)


def _pattern_csr(data: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """CSR matrix from per-row entries (num_rows, width), exact zeros dropped."""
    n = data.shape[0]
    keep = data != 0.0
    counts = np.zeros(n, dtype=np.int64)
    for column in keep.T:  # faster than a row-wise reduction over a few columns
        counts += column
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((data[keep], cols[keep], indptr), shape=(n, n))


def _same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Whether two CSR matrices hold equal indptr, indices and data arrays."""
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def build_operator(
    problem: MfcProblem,
    policy: PolicyField,
    ensemble: ParticleEnsemble,
    grid: SpaceTimeGrid,
    j: int,
) -> MonotoneOperator:
    """Assemble the monotone stencil at time slice j.

    First-order terms are discretized upwind (forward difference weighted by
    b+, backward by b-), the diagonal of sigma sigma^T centrally.  sigma
    depends on t and the measure only, so it is read once per slice as one
    (d, n) matrix at the first node, and checked against its value at the
    last node (ValueError if they differ).  Requires a diagonal diffusion
    matrix; off-diagonal mass would produce negative stencil weights and is
    rejected.

    I - dt*L is written straight into CSR on the fixed (2d+1)-point row
    pattern, with exact zeros dropped: the same arrays, bit for bit, as
    assembling L from COO and forming I - dt*L with scipy's sparse algebra.
    """
    t, X, psi, eta = _node_inputs(policy, ensemble, grid, j)
    b = problem.drift(t, X, psi, eta)
    sig = problem.diffusion_matrix(t, X, psi, eta, check=True)
    a2 = np.einsum("ir,lr->il", sig, sig)
    d = grid.state_dim
    diag = np.diagonal(a2)
    offdiag = a2 - np.diag(diag)
    scale = max(np.abs(a2).max(), 1.0)
    if np.abs(offdiag).max() > 1e-12 * scale:
        raise ValueError(
            "sigma sigma^T has off-diagonal mass; the upwind/central stencil "
            "is monotone only for diagonal diffusion"
        )

    P = grid.num_nodes
    h = grid.h
    strides = grid.strides
    boundary = grid.boundary_mask()

    # Row k holds columns k - s_0 < ... < k - s_{d-1} < k < k + s_{d-1} < ...
    # < k + s_0 (s_i the stride of dimension i): entry i is the backward
    # neighbour in dimension i, entry 2d - i the forward one, entry d the
    # diagonal.  Boundary rows of L are zero, so their out-of-range columns
    # are always dropped.
    offsets = np.concatenate([-strides, [0], strides[::-1]])
    cols = np.arange(P)[:, None] + offsets
    L = np.zeros((P, 2 * d + 1))
    for i in range(d):
        half_diffusion = 0.5 * diag[i] / h[i] ** 2
        up = np.maximum(b[:, i], 0.0) / h[i] + half_diffusion
        dn = np.maximum(-b[:, i], 0.0) / h[i] + half_diffusion
        if np.any((np.minimum(up, dn) < 0) & ~boundary):
            raise ValueError(f"negative stencil weight along dimension {i}")
        L[:, 2 * d - i] = up
        L[:, i] = dn
        L[:, d] -= up + dn
    L[boundary] = 0.0

    # 1 - dt*L_kk on the diagonal, -dt*L_kq off it; x * -dt equals
    # 0 - dt*x and 1 + x * -dt equals 1 - dt*x, bit for bit
    system = L * -grid.dt
    system[:, d] += 1.0
    return MonotoneOperator(grid=grid, system=_pattern_csr(system, cols))


def terminal_data(
    problem: MfcProblem,
    ensemble: ParticleEnsemble,
    grid: SpaceTimeGrid,
    kernel_subsample: Optional[int] = None,
) -> np.ndarray:
    """Discretized terminal condition h of the adjoint system, (num_nodes, d)."""
    mu_T = ensemble.measure(ensemble.time_steps)
    return problem.terminal_derivative(grid.node_coords(), mu_T, kernel_subsample)


def assemble_source(
    problem: MfcProblem,
    policy: PolicyField,
    ensemble: ParticleEnsemble,
    adjoint: AdjointField,
    grid: SpaceTimeGrid,
    j: int,
    kernel_subsample: Optional[int] = None,
) -> np.ndarray:
    """Explicit source slice of the fully discrete scheme, (num_nodes, d).

    The x-derivative of the Hamiltonian (MfcProblem.hamiltonian_derivative)
    at the nodes, with the adjoint's slice j, under the particle law of
    slice j.  A non-finite entry raises FloatingPointError.
    """
    t, X, psi, eta = _node_inputs(policy, ensemble, grid, j)
    src = problem.hamiltonian_derivative(
        "x", t, X, psi, eta, adjoint.u_at_nodes(j), adjoint, j, kernel_subsample
    )
    if not np.all(np.isfinite(src)):
        p = int(np.argwhere(~np.isfinite(src).all(axis=1))[0][0])
        raise FloatingPointError(f"non-finite adjoint source at slice {j}, node {p}")
    return src


def backward_sweep(
    problem: MfcProblem,
    policy: PolicyField,
    ensemble: ParticleEnsemble,
    grid: SpaceTimeGrid,
    kernel_subsample: Optional[int] = None,
) -> AdjointField:
    """Solve the adjoint PDE system backward on the grid.

    Terminal slice is the discretized terminal condition; boundary nodes
    hold the terminal data as Dirichlet data for all times; each interior
    step solves (I - dt L) U^{j-1} = U^j + dt f per component with a shared
    sparse factorization.  A slice whose system has the CSR arrays of the
    previous slice's (indptr, indices and data all equal) reuses that
    operator and its factor, so the result is the same, bit for bit, as
    factoring every slice: under the zero policy of a first iteration all
    M slices share one factor.
    """
    d = problem.state_dim
    dt, h = grid.dt, grid.h
    if dt > float(h.max()) * 4.0:
        warnings.warn(
            f"time step {dt:.3g} is large next to the mesh {h.max():.3g}; the "
            "explicit source treatment expects dt = O(h)",
            stacklevel=2,
        )
    M = grid.time_steps
    term = terminal_data(problem, ensemble, grid, kernel_subsample)
    boundary = grid.boundary_mask()

    U = np.empty((M + 1, grid.num_nodes, d))
    # a view of U: the slices the sweep writes show through to the sources
    adjoint = AdjointField(u=GridField(grid, U.reshape((M + 1,) + grid.nodes + (d,))))
    U[M] = term
    op = None
    for j in range(M, 0, -1):
        new_op = build_operator(problem, policy, ensemble, grid, j - 1)
        if op is None or not _same_csr(new_op.system, op.system):
            op = new_op
        src = assemble_source(
            problem, policy, ensemble, adjoint, grid, j, kernel_subsample=kernel_subsample
        )
        rhs = U[j] + dt * src
        rhs[boundary] = term[boundary]
        U[j - 1] = op.solve(rhs)
    return adjoint
