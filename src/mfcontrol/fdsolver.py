"""Semi-implicit monotone finite-difference solver for the adjoint PDE system.

The coupled nonlocal linear system for the adjoint decoupling field u is
discretized with implicit timestepping for the local generator (upwind
first-order terms, central second-order terms, all stencil weights
nonnegative) and explicit timestepping for the nonlocal source.  Boundary
nodes of the truncated box hold the terminal condition as Dirichlet data.
Each interior step solves an M-matrix system per solution component, with
an exact direct solve in numpy alone.

The solve follows the stencil's line structure on a planar lattice.  At
most one dimension diffuses.  The lines of nodes along it (along the last
dimension if none diffuses) are tridiagonal blocks of I - dt*L.  The other
dimension is only advected, upwind, and couples a line to a neighbouring
line through a diagonal block, where the drift points from the one to the
other.  So the lines form a path, and its strongly connected components are
intervals: single lines, and runs of adjacent lines that read each other
both ways, where the drift across them changes sign towards each other.
Solved in a stable order of the chain of upward reads out of each
component, the system is block lower-triangular, and one walk over the
components solves it: a single line applies the precomputed inverse of its
tridiagonal block, a run of m lines is eliminated block-tridiagonally, at
the cost of m - 1 dense inversions of line-sized blocks.  A slice whose
operator does not change from one slice to the next (the zero policy of a
first iteration) plans it once.  A lattice of three or more dimensions
has no path of lines and raises ValueError at its first solve; method =
emreg, the regression adjoint, runs in any dimension.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import GridField, c_strides, deposit
# bound only because perfbench/run.py traces this name on this module
from .grids import multilinear_eval  # noqa: F401
from .particles import BoundAdjoint, ParticleEnsemble
from .problem import MfcProblem, check_finite_source

_SOLVE_TOL = 1e-10  # on the residual relative to |rhs|_inf


class BandMatrix:
    """Square matrix on a node lattice, stored by stencil entry.

    band has shape (2d+1, P): band[e, k] is the entry of row k in column
    k + offsets[e], with offsets -s_0 < ... < -s_{d-1} < 0 < s_{d-1} < ...
    < s_0 for the C-order strides s_i of `nodes`.  So band[i] holds the
    backward neighbours in dimension i, band[2d - i] the forward ones and
    band[d] the diagonal.  Rows on the boundary of the lattice hold only
    their diagonal entry, so no entry reaches past the lattice.
    """

    def __init__(self, band: np.ndarray, nodes: tuple[int, ...]):
        self.band, self.nodes = band, tuple(nodes)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.band.shape[1],) * 2

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.band))

    @property
    def offsets(self) -> np.ndarray:
        """Column offset of each stencil entry from its row; shape (2d+1,)."""
        s = c_strides(self.nodes)
        return np.concatenate([-s, [0], s[::-1]])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Product with x of shape (P,) or (P, c), by shifted slices."""
        d, band = len(self.nodes), self.band
        xt = np.ascontiguousarray(x.T)  # (c, P): each slice runs along P
        y = band[d] * xt
        for i, s in enumerate(c_strides(self.nodes).tolist()):
            y[..., s:] += band[i, s:] * xt[..., :-s]
            y[..., :-s] += band[2 * d - i, :-s] * xt[..., s:]
        return y.T

    def toarray(self) -> np.ndarray:
        """Dense copy, with +0.0 wherever the band holds a zero."""
        e, rows = np.nonzero(self.band)
        out = np.zeros(self.shape)
        out[rows, rows + self.offsets[e]] = self.band[e, rows]
        return out


def _tridiagonal_inverses(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Inverses of L tridiagonal n x n matrices; shape (n, n, L), the inverse
    of matrix l in [:, :, l].

    Row p of matrix l holds a[l, p] in column p - 1, b[l, p] on the
    diagonal and c[l, p] in column p + 1.  Above its diagonal entry a column
    of the inverse decays by the ratios c_p / top_p of the elimination from
    the top, below it by the ratios a_p / bot_p of the elimination from the
    bottom (Meurant, SIAM J. Matrix Anal. Appl. 13(3), 1992).  The pivots of
    a nonsingular M-matrix are positive and its ratios lie in [0, 1), so the
    decay is stable.  A zero pivot raises RuntimeError.
    """
    L, n = b.shape
    a, b, c = (np.ascontiguousarray(v.T) for v in (a, b, c))  # (n, L): row p
    ca = c[:-1] * a[1:]  # c_p a_{p+1}, shared by both eliminations
    # the pivots from the top and from the bottom, side by side:
    # piv[p] = (top_p, bot_{n-1-p})
    piv = np.empty((n, 2, L))
    piv[0] = b[0], b[-1]
    rows, cross = np.stack([b[1:], b[-2::-1]], axis=1), np.stack([ca, ca[::-1]], axis=1)
    tmp = np.empty((2, L))
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(n - 1):
            np.divide(cross[p], piv[p], out=tmp)
            np.subtract(rows[p], tmp, out=piv[p + 1])
        top, bot = piv[:, 0], piv[::-1, 1]
        up = -c[:-1] / top[:-1]  # negated ratios
        down = -a[1:] / bot[1:]
        mid = top.copy()  # b_p - a_p c_{p-1} / top_{p-1} - c_p a_{p+1} / bot_{p+1}
        mid[:-1] -= ca / bot[1:]
    if not (top.all() and bot.all() and mid.all()):
        raise RuntimeError("zero pivot in a line block of I - dt L: the system is singular")
    # the lines innermost, so that each step is one run over contiguous rows
    inv = np.empty((n, n, L))
    inv[range(n), range(n)] = 1.0 / mid
    for p in range(n - 2, -1, -1):
        np.multiply(up[p], inv[p + 1, p + 1:], out=inv[p, p + 1:])
    for p in range(1, n):
        np.multiply(down[p - 1], inv[p - 1, :p], out=inv[p, :p])
    return inv


class _LinePlan:
    """Exact solve of a BandMatrix system on its line structure (see the
    module docstring), made once per distinct system.

    line_dim is the dimension whose neighbours enter some row on both sides
    (the diffusive one), the last dimension if there is none.  Lines are
    numbered along the other dimension; components lists the lines of each
    strongly connected component of the line graph, an interval, in solve
    order, after every component it reads.  A lattice of three or more
    dimensions raises ValueError.
    """

    def __init__(self, system: BandMatrix):
        nodes, band = system.nodes, system.band
        d = len(nodes)
        if d > 2:
            raise ValueError(
                f"the adjoint's line solve is planar, and this system lies on a lattice of "
                f"{d} dimensions; method = emreg runs in any dimension"
            )
        two_sided = [np.logical_and(band[i], band[2 * d - i]).any() for i in range(d)]
        D = self.line_dim = int(np.argmax(two_sided)) if any(two_sided) else d - 1
        n = nodes[D]
        across = nodes[:D] + nodes[D + 1:]
        # rhs (nodes..., c) -> (lines..., c, n) and back
        self._to_lines = [i for i in range(d) if i != D] + [d, D]
        self._from_lines = list(np.argsort(self._to_lines))
        self._nodes, self._lines = nodes, across + (n,)
        lined = np.moveaxis(band.reshape((2 * d + 1,) + nodes), 1 + D, -1).reshape(2 * d + 1, -1, n)
        inv = _tridiagonal_inverses(lined[D], lined[d], lined[2 * d - D])

        # line l reads line l - 1 through the coefficients down[l] (n,),
        # line l + 1 through up[l]
        if d == 2:
            down, up = lined[1 - D], lined[3 + D]
        else:
            down = up = np.zeros_like(lined[0])
        reads_down, reads_up = down.any(axis=1), up.any(axis=1)
        # adjacent lines that read each other lie in one component, an
        # interval [start, end) of lines
        cuts = np.flatnonzero(~(reads_up[:-1] & reads_down[1:])) + 1
        starts, ends = np.append(0, cuts), np.append(cuts, len(reads_up))
        # Solve each component after those it reads: by a stable sort on the
        # chain of components above it that each read the next one up, counted
        # by one pass from the top.  A component that reads down reads a
        # neighbour that reads nothing up (else the two would be one
        # component), so that neighbour's chain is 0 and its index smaller.
        k = np.arange(starts.size)
        chain_up = (k - np.maximum.accumulate(np.where(reads_up[ends - 1][::-1], 0, k)))[::-1]
        order = np.argsort(chain_up, kind="stable")
        starts, ends = starts.tolist(), ends.tolist()
        self.components = [range(starts[c], ends[c]) for c in order.tolist()]

        # a single line l: (l, its inverse transposed, its reads); a run of
        # lines: its _Run.  The reads of a component's end lines from
        # outside it are (line, coefficients, line read).
        self._steps: list = []
        for lines in self.components:
            a, b = lines[0], lines[-1]
            outside = []
            if reads_down[a]:
                outside.append((a, down[a], a - 1))
            if reads_up[b]:
                outside.append((b, up[b], b + 1))
            if a == b:
                self._steps.append((a, inv[:, :, a].T, outside))
            else:
                self._steps.append(_Run(lines, outside, lined, inv, D, down, up))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of system @ x = rhs, rhs of shape (P,) or (P, c)."""
        c = rhs.size // rhs.shape[0]
        # line l's right-hand sides as the rows of R[l], (c, n)
        R = np.empty(self._lines[:-1] + (c, self._lines[-1]))
        R[...] = rhs.reshape(self._nodes + (c,)).transpose(self._to_lines)
        R = R.reshape(-1, c, self._lines[-1])
        X = np.empty_like(R)
        for step in self._steps:
            if type(step) is _Run:
                step.solve(R, X)
                continue
            line, inverse_t, outside = step
            r = R[line]
            for _, coef, other in outside:
                r -= coef * X[other]
            np.matmul(r, inverse_t, out=X[line])
        X = X.reshape(self._lines[:-1] + (c, self._lines[-1])).transpose(self._from_lines)
        return X.reshape(rhs.shape)


class _Run:
    """Block-tridiagonal LU, without pivoting, of a run of adjacent lines
    that each read their neighbours on both sides.

    Line k's block row holds down[k] in line k - 1's columns, its tridiagonal
    block T_k and up[k] in line k + 1's columns, both diagonal.  The
    elimination keeps per line after the first the multiplier
    down[k] P_{k-1}^{-1} and the inverse pivot P_k^{-1}, P_k = T_k -
    multiplier up[k-1], the first line's pivot being its own block: m - 1
    dense n x n inversions for a run of m lines.  outside lists the reads of
    the end lines from the neighbouring components.

    Accuracy: |(I - dt L)^-1|_inf = 1 (row sums 1, nonnegative inverse).  On
    9000 random planar bands the plan's relative residual stayed below
    1.8 eps |I - dt L|_inf (9.6e-13), largest at the largest dt sigma^2/h^2,
    on single lines as on runs: a run's length does not raise it.
    """

    def __init__(self, lines, outside, lined, inv, D, down, up):
        d, n = lined.shape[0] // 2, lined.shape[2]
        self.lines, self.outside, self.up = lines, outside, up
        self.pivots, self.multipliers = [inv[:, :, lines[0]]], []
        for k in lines[1:]:
            multiplier = down[k][:, None] * self.pivots[-1]
            block = np.zeros((n, n))
            block.flat[:: n + 1] = lined[d, k]
            block.flat[n :: n + 1] = lined[D, k, 1:]
            block.flat[1 :: n + 1] = lined[2 * d - D, k, :-1]
            block -= multiplier * up[k - 1]
            try:
                self.pivots.append(np.linalg.inv(block))
            except np.linalg.LinAlgError as exc:
                raise RuntimeError(f"singular pivot block in I - dt L: {exc}") from exc
            self.multipliers.append(multiplier)

    def solve(self, R: np.ndarray, X: np.ndarray) -> None:
        """Write the solution of the run's lines into X, given those of the
        components it reads; R, the right-hand sides, is overwritten."""
        for line, coef, other in self.outside:
            r = R[line]
            r -= coef * X[other]
        for k, multiplier in zip(self.lines[1:], self.multipliers):
            r = R[k]
            r -= R[k - 1] @ multiplier.T
        last = self.lines[-1]
        np.matmul(R[last], self.pivots[-1].T, out=X[last])
        for k, pivot in zip(self.lines[-2::-1], self.pivots[-2::-1]):
            r = R[k]
            r -= X[k + 1] * self.up[k]
            np.matmul(r, pivot.T, out=X[k])


@dataclass
class MonotoneOperator:
    """Implicit step for the monotone stencil L of one time slice.

    L[phi]_k = sum_q a_qk (phi_q - phi_k) on flattened nodes, with zero rows
    on the Dirichlet boundary; `system` is I - dt*L, whose boundary rows are
    identity rows.
    """

    system: BandMatrix
    _plan: Optional[_LinePlan] = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct solve of (I - dt L) u = rhs with a cached line plan.

        The plan (_LinePlan) splits the lines of a planar system into
        intervals, its strongly connected components, orders them so that
        each comes after those it reads, and eliminates each run of lines
        block-tridiagonally without pivoting.  Skipping the
        pivoting is safe: I - dt L is a nonsingular M-matrix (nonpositive
        off-diagonal entries, row sums 1, hence strictly diagonally
        dominant), every symmetric permutation of an M-matrix is one, and so
        is every Schur complement of one, so each pivot of the elimination
        is positive, whatever the order.  A zero pivot (on a system not
        built by build_operator) or a residual above _SOLVE_TOL * |rhs|_inf
        raises RuntimeError at once; a zero rhs must give a zero residual.
        A system on a lattice of three or more dimensions raises ValueError.
        """
        if self._plan is None:
            self._plan = _LinePlan(self.system)
        sol = self._plan.solve(rhs)
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


def build_operator(
    problem: MfcProblem,
    policy: GridField,
    ensemble: ParticleEnsemble,
    j: int,
) -> MonotoneOperator:
    """Assemble the monotone stencil at time slice j of policy.grid.

    First-order terms are discretized upwind (forward difference weighted by
    b+, backward by b-), the diagonal of sigma sigma^T centrally.  sigma is
    read once per slice, as the (d, n) matrix problem.diffusion(t, eta); a
    wrong shape raises ValueError.  Requires a diagonal diffusion matrix;
    off-diagonal mass above 1e-12 of the largest diagonal entry would
    produce negative stencil weights and is rejected.  So is diffusion in
    more than one dimension, which would join all interior nodes into one
    component of the line solve (see the module docstring).  A non-finite
    drift at an interior node raises FloatingPointError naming the slice and
    the node.

    I - dt*L is kept as the (P, 2d+1) band of the (2d+1)-point stencil
    (BandMatrix): entry for entry, bit for bit, the matrix that assembling L
    from COO triplets and forming I - dt*L with sparse algebra gives.
    """
    grid = policy.grid
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
    if np.count_nonzero(diag > 0) > 1:
        raise ValueError(
            f"sigma sigma^T diffuses in dimensions {np.flatnonzero(diag > 0).tolist()}; "
            "the adjoint's line solve needs at most one diffusive dimension"
        )

    P = grid.num_nodes
    h = grid.h
    boundary = grid.boundary_mask()
    # boundary rows are zeroed below, so only an interior drift must be finite
    bad = ~np.isfinite(b).all(axis=1) & ~boundary
    if bad.any():
        raise FloatingPointError(f"non-finite drift at slice {j}, node {int(np.argmax(bad))}")

    # Entries e = 0 .. 2d of row k lie in columns k - s_0 < ... < k - s_{d-1}
    # < k < k + s_{d-1} < ... < k + s_0 (s_i the stride of dimension i):
    # entry i is the backward neighbour in dimension i, entry 2d - i the
    # forward one, entry d the diagonal.  Boundary rows of L are zero.
    L = np.zeros((2 * d + 1, P))
    for i in range(d):
        half_diffusion = 0.5 * diag[i] / h[i] ** 2
        up = np.maximum(b[:, i], 0.0) / h[i] + half_diffusion
        dn = np.maximum(-b[:, i], 0.0) / h[i] + half_diffusion
        L[2 * d - i] = up
        L[i] = dn
        L[d] -= up + dn
    L[:, boundary] = 0.0

    # 1 - dt*L_kk on the diagonal, -dt*L_kq off it; x * -dt equals
    # 0 - dt*x and 1 + x * -dt equals 1 - dt*x, bit for bit
    system = L * -grid.dt
    system[d] += 1.0
    return MonotoneOperator(BandMatrix(system, grid.nodes))


def assemble_source(
    problem: MfcProblem,
    policy: GridField,
    adjoint: AdjointField,
    j: int,
) -> np.ndarray:
    """Explicit source slice of the fully discrete scheme, (num_nodes, d).

    The x-derivative of the Hamiltonian (MfcProblem.hamiltonian_derivative)
    at the nodes of policy.grid, with the adjoint's slice j, under the
    adjoint's particle law of slice j.  A non-finite entry raises
    FloatingPointError.
    """
    grid = policy.grid
    src = problem.hamiltonian_derivative(
        "x", j * grid.dt, grid.node_coords(), policy.slice_flat(j),
        adjoint.u_at_nodes(j), adjoint, j,
    )
    check_finite_source(src, j, "node")
    return src


def backward_sweep(
    problem: MfcProblem,
    policy: GridField,
    ensemble: ParticleEnsemble,
) -> AdjointField:
    """Solve the adjoint PDE system backward on policy.grid.

    Every slice's stencil and source are assembled at the policy's nodes,
    and the returned field lies on the policy's grid.  It is bound to
    `ensemble`, the law that its sources and the control gradient are
    linearised at, under the ensemble's atom cap.
    Terminal slice is the discretized terminal condition; boundary nodes
    hold the terminal data as Dirichlet data for all times; each interior
    step solves (I - dt L) U^{j-1} = U^j + dt f for all components at once.
    A slice whose system band equals the previous slice's reuses that
    operator and its line plan, so the result is the same, bit for bit, as
    planning every slice: under the zero policy of a first iteration all M
    slices share one plan.
    """
    d, grid = problem.state_dim, policy.grid
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
        new_op = build_operator(problem, policy, ensemble, j - 1)
        if op is None or not np.array_equal(new_op.system.band, op.system.band):
            op = new_op
        src = assemble_source(problem, policy, adjoint, j)
        rhs = U[j] + dt * src
        rhs[boundary] = term[boundary]
        U[j - 1] = op.solve(rhs)
    return adjoint
