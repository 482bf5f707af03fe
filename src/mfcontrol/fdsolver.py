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

scipy is imported inside the functions that use it, not at the top of the
module: importing scipy.sparse, its linalg and csgraph costs about 0.3 s
and 25-33 MB of resident memory, and only the PDE adjoint needs them.
`import mfcontrol` and a job with the regression adjoint (method = emreg)
load no scipy; a PDE job loads it at its first build_operator.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .grids import GridField, PolicyField, SpaceTimeGrid, _read_only, deposit
# bound only because perfbench/run.py traces this name on this module
from .grids import multilinear_eval  # noqa: F401
from .particles import BoundAdjoint, ParticleEnsemble
from .problem import MfcProblem

if TYPE_CHECKING:
    import scipy.sparse as sp

_SOLVE_TOL = 1e-10  # on the residual relative to |rhs|_inf

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
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

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
    from scipy.sparse.csgraph import connected_components

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
        build_operator) or a residual above _SOLVE_TOL * |rhs|_inf raises
        RuntimeError at once; a zero rhs must give a zero residual.
        """
        if self._lu is None:
            from scipy.sparse.linalg import splu

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
        scale = np.abs(rhs).max()
        tol = _SOLVE_TOL * scale
        if not res <= tol:
            rel = res / scale if scale > 0 else np.inf
            raise RuntimeError(
                f"linear solve residual {res:.3e} exceeds the tolerance {tol:.3e}: "
                f"relative residual {rel:.3e} > {_SOLVE_TOL:.0e}"
            )
        return sol


@dataclass
class AdjointField(BoundAdjoint):
    """Adjoint decoupling field u on the grid, bound to the particle law
    (ensemble) it was solved on.

    u_at_points interpolates slice j at each point; kernel_mean gives only
    the mean of that interpolant over the slice's kernel atoms, read off
    their node deposit, without interpolating at any of them.
    """

    u: GridField
    ensemble: ParticleEnsemble

    def u_at_nodes(self, j: int) -> np.ndarray:
        return self.u.slice_flat(j)

    def u_at_points(self, j: int, x: np.ndarray) -> np.ndarray:
        return self.u.eval_slice(j, x)

    def kernel_mean(self, j: int) -> np.ndarray:
        """u_at_points(j, x).mean(axis=0) over the kernel atoms x of slice j,
        up to summation order; shape (c,)."""
        x = self.kernel_atoms(j).x
        return deposit(self.u.grid, x) @ self.u_at_nodes(j) / x.shape[0]


def _pattern_csr(data: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """CSR matrix from per-row entries (num_rows, width), exact zeros dropped."""
    import scipy.sparse as sp

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
    b+, backward by b-), the diagonal of sigma sigma^T centrally.  sigma is
    read once per slice, as the (d, n) matrix problem.diffusion(t, eta); a
    wrong shape raises ValueError.  Requires a diagonal diffusion matrix;
    off-diagonal mass above 1e-12 of the largest diagonal entry would
    produce negative stencil weights and is rejected.

    I - dt*L is written straight into CSR on the fixed (2d+1)-point row
    pattern, with exact zeros dropped: the same arrays, bit for bit, as
    assembling L from COO and forming I - dt*L with scipy's sparse algebra.
    """
    t, X, psi = j * grid.dt, grid.node_coords(), policy.slice_flat(j)
    eta = ensemble.measure(j)
    b = problem.drift(t, X, psi, eta)
    sig = np.asarray(problem.diffusion(t, eta))
    shape = (problem.state_dim, problem.noise_dim)
    if sig.shape != shape:
        raise ValueError(f"diffusion returned shape {sig.shape}, not (d, n) = {shape}")
    a2 = np.einsum("ir,lr->il", sig, sig)
    d = grid.state_dim
    diag = np.diagonal(a2)
    offdiag = a2 - np.diag(diag)
    if np.abs(offdiag).max() > 1e-12 * diag.max():
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


def assemble_source(
    problem: MfcProblem,
    policy: PolicyField,
    adjoint: AdjointField,
    grid: SpaceTimeGrid,
    j: int,
) -> np.ndarray:
    """Explicit source slice of the fully discrete scheme, (num_nodes, d).

    The x-derivative of the Hamiltonian (MfcProblem.hamiltonian_derivative)
    at the nodes, with the adjoint's slice j, under the adjoint's particle
    law of slice j.  A non-finite entry raises FloatingPointError.
    """
    src = problem.hamiltonian_derivative(
        "x", j * grid.dt, grid.node_coords(), policy.slice_flat(j),
        adjoint.u_at_nodes(j), adjoint, j,
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
) -> AdjointField:
    """Solve the adjoint PDE system backward on the grid.

    The returned field is bound to `ensemble`, the law that its sources and
    the control gradient are linearised at, under the ensemble's atom cap.
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
    boundary = grid.boundary_mask()

    U = np.empty((M + 1, grid.num_nodes, d))
    # a view of U: the slices the sweep writes show through to the sources
    u = GridField(grid, U.reshape((M + 1,) + grid.nodes + (d,)))
    adjoint = AdjointField(u, ensemble)
    term = problem.terminal_derivative(grid.node_coords(), adjoint)
    U[M] = term
    op = None
    for j in range(M, 0, -1):
        new_op = build_operator(problem, policy, ensemble, grid, j - 1)
        if op is None or not _same_csr(new_op.system, op.system):
            op = new_op
        src = assemble_source(problem, policy, adjoint, grid, j)
        rhs = U[j] + dt * src
        rhs[boundary] = term[boundary]
        U[j - 1] = op.solve(rhs)
    return adjoint
