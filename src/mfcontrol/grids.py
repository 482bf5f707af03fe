"""Uniform space-time grids, grid fields and monotone multilinear interpolation.

All grid data is evaluated off-grid through one interpolation operator:
multilinear tent-function interpolation in space (clamped to the bounding
box) and, for policies, piecewise-constant evaluation in time on the Euler
partition.  The interpolation weights are nonnegative, sum to one and are
supported on the 2^d corners of the enclosing cell, which makes the
operator monotone.  Its transpose, the cloud-in-cell deposit of points on
the nodes, uses the same cells and weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on [0, T] x prod_i [lo_i, hi_i]."""

    horizon: float
    time_steps: int
    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    nodes: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "nodes", tuple(int(v) for v in self.nodes))
        if self.time_steps < 1:
            raise ValueError("time_steps must be >= 1")
        if not (len(self.lo) == len(self.hi) == len(self.nodes)):
            raise ValueError("lo, hi, nodes must have equal lengths")
        if not self.nodes:
            raise ValueError("need at least one space dimension")
        for lo, hi, n in zip(self.lo, self.hi, self.nodes):
            if n < 2:
                raise ValueError("need at least two nodes per dimension")
            if not lo < hi:
                raise ValueError("need lo < hi per dimension")

    @property
    def state_dim(self) -> int:
        return len(self.nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.time_steps

    # The array-valued geometry below is computed once per grid instance and
    # stored read-only, so every caller shares one copy.

    @cached_property
    def h(self) -> np.ndarray:
        """Mesh width per dimension."""
        lo, hi, n = np.array(self.lo), np.array(self.hi), np.array(self.nodes)
        return _read_only((hi - lo) / (n - 1))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.nodes))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.time_steps + 1) * self.dt

    @cached_property
    def strides(self) -> np.ndarray:
        """Flat-index step of each dimension in C order; shape (d,)."""
        strides = np.ones(self.state_dim, dtype=np.int64)
        for i in range(self.state_dim - 2, -1, -1):
            strides[i] = strides[i + 1] * self.nodes[i + 1]
        return _read_only(strides)

    def node_coords(self) -> np.ndarray:
        """All node coordinates, flattened in C order; shape (num_nodes, d)."""
        return self._node_coords

    def boundary_mask(self) -> np.ndarray:
        """True on nodes lying on the boundary of the box; shape (num_nodes,)."""
        return self._boundary_mask

    @cached_property
    def _node_coords(self) -> np.ndarray:
        idx = np.indices(self.nodes).reshape(self.state_dim, -1).T
        return _read_only(np.array(self.lo) + idx * self.h)

    @cached_property
    def _boundary_mask(self) -> np.ndarray:
        idx = np.indices(self.nodes).reshape(self.state_dim, -1).T
        n = np.array(self.nodes)
        return _read_only(((idx == 0) | (idx == n - 1)).any(axis=1))

    @cached_property
    def _corner_offsets(self) -> tuple[int, ...]:
        """Flat offset of each of the 2^d cell corners from the cell's lowest
        node; bit i of the corner number selects the upper node in dim i."""
        return tuple(
            sum(int(self.strides[i]) for i in range(self.state_dim) if (corner >> i) & 1)
            for corner in range(1 << self.state_dim)
        )


def _finite_points(x) -> np.ndarray:
    """x as a float (P, d) array; ValueError names its first non-finite
    coordinate."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        bad = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"non-finite query coordinate {bad[1]} at point {bad[0]}")
    return x


def _cell_weights(grid: SpaceTimeGrid, x) -> tuple[np.ndarray, list]:
    """Cells and tent weights of query points x, shape (P, d).

    Returns the flat index of the lowest node of each point's cell, shape
    (P,), and the weights of the cell's 2^d corners, a list of (P,) arrays
    in the order of grid._corner_offsets.  Points are clamped componentwise
    to the bounding box first; a point on an upper face lies in the last
    cell.
    """
    x = _finite_points(x)
    for i in range(grid.state_dim):
        # clamp to the box; with the bound as first operand, maximum and
        # minimum resolve ties exactly as np.clip does
        u = np.maximum(grid.lo[i], x[:, i])
        np.minimum(grid.hi[i], u, out=u)
        u -= grid.lo[i]
        u /= grid.h[i]
        # the cell is floored and clamped as a float, so that frac is a
        # float difference (no int64 conversion per dimension); the last
        # cell also holds the upper face
        cell = np.floor(u)
        np.minimum(cell, grid.nodes[i] - 2, out=cell)
        frac = u
        frac -= cell  # >= 0 since cell <= floor(u)
        np.minimum(1.0, frac, out=frac)
        cell *= grid.strides[i]
        # weights[corner] over dimensions 0..i: a running product in
        # dimension order, the order in which np.prod would multiply the
        # per-dimension factors of a corner
        lower = 1.0 - frac
        if i == 0:
            base = cell
            weights = [lower, frac]
        else:
            base += cell
            weights = [w * lower for w in weights] + [w * frac for w in weights]
    # a sum of integers below 2^53 is exact in float64
    return base.astype(np.int64), weights


def multilinear_eval(grid: SpaceTimeGrid, slice_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tent-function interpolation of one time slice at query points.

    slice_values has shape (*grid.nodes, c); x has shape (P, d).  Points are
    clamped componentwise to the bounding box before weights are computed,
    so the field extends constantly outside the domain.  A slice of zeros
    interpolates to +0.0 without computing any weight: the weights are
    finite and nonnegative, so the corner sum, which starts from +0.0, is
    +0.0 too, also for node values of -0.0.
    """
    c = slice_values.shape[-1]
    # c == 1 is evaluated on 1-D arrays; the arithmetic is the same
    flat = slice_values.reshape(-1) if c == 1 else slice_values.reshape(-1, c)
    if not flat.any():  # NaN counts as nonzero
        return np.zeros((_finite_points(x).shape[0], c))
    base, weights = _cell_weights(grid, x)

    out = np.zeros(base.shape + flat.shape[1:])
    # one corner buffer for all corners: a fresh temporary per corner raised
    # the peak RSS of a portfolio solve by about 4 MB
    corner = np.empty_like(out)
    for w, offset in zip(weights, grid._corner_offsets):
        # base indexes the values from the corner's offset on, so no
        # base + offset index array is formed; the indices are in range, and
        # mode="clip" does not buffer the output as the default "raise" does
        flat[offset:].take(base, axis=0, out=corner, mode="clip")
        corner *= w if c == 1 else w[:, None]
        out += corner
    return out if c > 1 else out[:, None]


def deposit(grid: SpaceTimeGrid, x: np.ndarray) -> np.ndarray:
    """Cloud-in-cell deposit of the points x on the nodes, shape (num_nodes,).

    Node k receives the tent weight of node k at every point: the transpose
    of multilinear_eval, so for node values F of shape (num_nodes, c),
    deposit(grid, x) @ F equals multilinear_eval(grid, F, x).sum(axis=0) up
    to summation order.  The entries are nonnegative and sum to len(x).
    """
    base, weights = _cell_weights(grid, x)
    P = grid.num_nodes
    rho = np.zeros(P)
    for w, offset in zip(weights, grid._corner_offsets):
        # base + offset < P, so a corner's deposit is the weight count at
        # the cell's lowest node shifted by the corner's offset; no
        # per-point index array is formed
        rho[offset:] += np.bincount(base, weights=w, minlength=P - offset)
    return rho


@dataclass
class GridField:
    """Values on a space-time grid; shape (M+1, *nodes, c)."""

    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.time_steps + 1,) + self.grid.nodes
        if self.values.shape[:-1] != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expected}+(c,)"
            )

    @classmethod
    def zeros(cls, grid: SpaceTimeGrid, components: int) -> "GridField":
        shape = (grid.time_steps + 1,) + grid.nodes + (components,)
        return cls(grid, np.zeros(shape))

    @property
    def components(self) -> int:
        return self.values.shape[-1]

    def copy(self) -> "GridField":
        return type(self)(self.grid, self.values.copy())

    def slice_flat(self, j: int) -> np.ndarray:
        """Node values of time slice j, shape (num_nodes, c)."""
        return self.values[j].reshape(-1, self.components)

    def eval_slice(self, j: int, x: np.ndarray) -> np.ndarray:
        """Multilinear evaluation of time slice j at points x."""
        return multilinear_eval(self.grid, self.values[j], x)


class PolicyField(GridField):
    """Feedback control on the grid: multilinear in space with clamping,
    piecewise-constant in time on [t_j, t_{j+1})."""


def field_to_csv(field: GridField, path) -> None:
    """Serialize as rows `t, x1..xd, c1..cc` with 17 significant digits.

    The lines end in CRLF.  Each time slice is formatted and written as one
    block, so that the whole file is never held as one string.
    """
    d = field.grid.state_dim
    c = field.components
    coords = field.grid.node_coords()
    header = ["t"] + [f"x{i+1}" for i in range(d)] + [f"c{i+1}" for i in range(c)]
    row = ",".join(["%.17g"] * (1 + d + c))
    block = np.empty((coords.shape[0], 1 + d + c))
    block[:, 1 : 1 + d] = coords
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for j, t in enumerate(field.grid.times):
            block[:, 0] = t
            block[:, 1 + d :] = field.slice_flat(j)
            fh.write("\r\n".join([row % tuple(r) for r in block.tolist()]) + "\r\n")


def field_from_csv(path, policy: bool = False) -> GridField:
    """Reconstruct a GridField written by field_to_csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    d = sum(1 for name in header if name.startswith("x"))
    c = sum(1 for name in header if name.startswith("c"))
    times = np.unique(rows[:, 0])
    axes = [np.unique(rows[:, 1 + i]) for i in range(d)]
    nodes = tuple(len(ax) for ax in axes)
    M = len(times) - 1
    grid = SpaceTimeGrid(
        horizon=float(times[-1]),
        time_steps=M,
        lo=tuple(ax[0] for ax in axes),
        hi=tuple(ax[-1] for ax in axes),
        nodes=nodes,
    )
    expected_rows = (M + 1) * grid.num_nodes
    if rows.shape[0] != expected_rows:
        raise ValueError(f"expected {expected_rows} rows, found {rows.shape[0]}")
    values = rows[:, 1 + d :].reshape((M + 1,) + nodes + (c,))
    cls = PolicyField if policy else GridField
    return cls(grid, values)
