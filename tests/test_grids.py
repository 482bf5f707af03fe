"""Grid geometry, interpolation identities and CSV round-trips."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcontrol import (
    GridField,
    SpaceTimeGrid,
    cs2d_grid,
    field_from_csv,
    field_to_csv,
    multilinear_eval,
    portfolio_grid,
)
from mfcontrol.grids import _cell_weights, cell_index


@pytest.fixture
def grid():
    return SpaceTimeGrid(horizon=1.0, time_steps=4, lo=(-2.0, 0.0), hi=(6.0, 4.0), nodes=(9, 11))


def test_grid_geometry(grid):
    np.testing.assert_allclose(grid.h, [1.0, 0.4])
    assert grid.num_nodes == 99
    assert grid.dt == 0.25
    coords = grid.node_coords()
    assert coords.shape == (99, 2)
    np.testing.assert_allclose(coords[0], [-2.0, 0.0])
    np.testing.assert_allclose(coords[-1], [6.0, 4.0])
    # C order: the last dimension varies fastest
    np.testing.assert_allclose(coords[1], [-2.0, 0.4])
    mask = grid.boundary_mask()
    assert mask.sum() == 99 - 7 * 9


def test_grid_geometry_arrays_are_cached_read_only(grid):
    arrays = (grid.h, grid.strides, grid.node_coords(), grid.boundary_mask())
    for arr in arrays:
        assert not arr.flags.writeable
    assert grid.node_coords() is arrays[2]
    with pytest.raises(ValueError):
        grid.node_coords()[0, 0] = 1.0
    # the caches take no part in equality or hashing
    twin = SpaceTimeGrid(grid.horizon, grid.time_steps, grid.lo, grid.hi, grid.nodes)
    assert twin == grid and hash(twin) == hash(grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpaceTimeGrid(1.0, 0, (0.0,), (1.0,), (5,))
    with pytest.raises(ValueError):
        SpaceTimeGrid(1.0, 2, (0.0,), (1.0,), (1,))
    with pytest.raises(ValueError):
        SpaceTimeGrid(1.0, 2, (1.0,), (0.0,), (5,))
    with pytest.raises(ValueError, match="at least one space dimension"):
        SpaceTimeGrid(1.0, 2, (), (), ())
    for horizon in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="horizon"):
            SpaceTimeGrid(horizon, 3, (0.0,), (1.0,), (5,))
    inf = float("inf")
    for lo, hi in (((0.0,), (inf,)), ((-inf,), (1.0,)), ((-inf,), (inf,))):
        with pytest.raises(ValueError, match="finite lo < hi"):
            SpaceTimeGrid(1.0, 2, lo, hi, (5,))
    for nodes in ((2.7,), (5.0,), (5, 3.5)):
        with pytest.raises(ValueError, match="node count must be an integer"):
            SpaceTimeGrid(1.0, 2, (0.0,) * len(nodes), (1.0,) * len(nodes), nodes)
    for time_steps in (2.5, 3.0):
        with pytest.raises(ValueError, match="time_steps must be an integer"):
            SpaceTimeGrid(1.0, time_steps, (0.0,), (1.0,), (5,))


def test_interpolation_partition_of_unity(grid):
    rng = np.random.default_rng(3)
    const = np.full(grid.nodes + (1,), 2.5)
    pts = rng.uniform([-2.0, 0.0], [6.0, 4.0], (200, 2))
    out = multilinear_eval(grid, const, pts)
    np.testing.assert_allclose(out[:, 0], 2.5, rtol=0, atol=1e-12)


def test_interpolation_affine_exactness(grid):
    rng = np.random.default_rng(4)
    coords = grid.node_coords()
    A = np.array([1.3, -0.7])
    vals = (coords @ A + 0.25).reshape(grid.nodes + (1,))
    pts = rng.uniform([-2.0, 0.0], [6.0, 4.0], (200, 2))
    out = multilinear_eval(grid, vals, pts)
    np.testing.assert_allclose(out[:, 0], pts @ A + 0.25, rtol=0, atol=1e-12)


def test_interpolation_clamps_outside_box(grid):
    coords = grid.node_coords()
    vals = (coords[:, 0] ** 2).reshape(grid.nodes + (1,))
    inside = multilinear_eval(grid, vals, np.array([[6.0, 2.0]]))
    outside = multilinear_eval(grid, vals, np.array([[100.0, 2.0]]))
    np.testing.assert_allclose(outside, inside, rtol=0, atol=1e-12)


def _corner_loop_eval(grid, slice_values, x):
    """Per-corner np.where/np.prod interpolation: the reference that the
    vectorised multilinear_eval must reproduce bit for bit."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = grid.state_dim
    c = slice_values.shape[-1]
    lo = np.array(grid.lo)
    n = np.array(grid.nodes)
    xc = np.clip(x, lo, np.array(grid.hi))
    u = (xc - lo) / grid.h
    i0 = np.floor(u).astype(np.int64)
    np.clip(i0, 0, n - 2, out=i0)
    frac = np.clip(u - i0, 0.0, 1.0)
    strides = np.ones(d, dtype=np.int64)
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * n[i + 1]
    flat = slice_values.reshape(-1, c)
    base = i0 @ strides
    out = np.zeros((x.shape[0], c))
    for corner in range(1 << d):
        bits = np.array([(corner >> i) & 1 for i in range(d)], dtype=np.int64)
        w = np.prod(np.where(bits == 1, frac, 1.0 - frac), axis=1)
        out += w[:, None] * flat[base + bits @ strides]
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 2, 4])
def test_interpolation_matches_corner_loop_bitwise(d, c):
    rng = np.random.default_rng(10 * d + c)
    lo = np.array([-1.5, 0.0, 0.3])[:d]
    hi = np.array([2.5, 3.0, 1.1])[:d]
    grid = SpaceTimeGrid(1.0, 2, tuple(lo), tuple(hi), (7, 5, 4)[:d])
    vals = rng.standard_normal(grid.nodes + (c,))
    inside = rng.uniform(lo, hi, (300, d))
    upper_faces = inside.copy()
    for i in range(d):
        upper_faces[i::d, i] = hi[i]
    outside = rng.uniform(lo - 2.0, hi + 2.0, (300, d))
    for pts in (grid.node_coords(), inside, upper_faces, outside):
        got = multilinear_eval(grid, vals, pts)
        want = _corner_loop_eval(grid, vals, pts)
        assert got.shape == want.shape
        # compare bit patterns, which also tells -0.0 from 0.0
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_slice_interpolates_to_the_corner_loop_bits(d, c, zero):
    # a slice of zeros skips the weights; the corner loop sums products of
    # zeros with nonnegative weights from +0.0, which is +0.0
    rng = np.random.default_rng(d + 3 * c)
    lo = np.array([-1.5, 0.0, 0.3])[:d]
    hi = np.array([2.5, 3.0, 1.1])[:d]
    grid = SpaceTimeGrid(1.0, 2, tuple(lo), tuple(hi), (7, 5, 4)[:d])
    vals = np.full(grid.nodes + (c,), zero)
    pts = np.concatenate([grid.node_coords(), rng.uniform(lo - 2.0, hi + 2.0, (300, d))])
    got = multilinear_eval(grid, vals, pts)
    want = _corner_loop_eval(grid, vals, pts)
    assert got.shape == want.shape == (pts.shape[0], c)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(got.view(np.int64), 0)  # +0.0


def _integer_cell_weights(grid, x):
    """The cell lookup with an int64 cell per dimension: the reference that
    _cell_weights, which floors and clamps the cell as a float, must
    reproduce bit for bit."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    base = 0
    for i in range(grid.state_dim):
        u = np.maximum(grid.lo[i], x[:, i])
        np.minimum(grid.hi[i], u, out=u)
        u -= grid.lo[i]
        u /= grid.h[i]
        cell = u.astype(np.int64)
        np.minimum(cell, grid.nodes[i] - 2, out=cell)
        frac = u - cell
        np.minimum(1.0, frac, out=frac)
        base = base + cell * grid.strides[i]
        lower = 1.0 - frac
        if i == 0:
            weights = [lower, frac]
        else:
            weights = [w * lower for w in weights] + [w * frac for w in weights]
    return base, weights


@settings(max_examples=60, derandomize=True, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
def test_cell_weights_match_integer_cells_bitwise(d, seed, n):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 1.0, d)
    hi = lo + rng.uniform(0.5, 3.0, d)
    grid = SpaceTimeGrid(1.0, 3, tuple(lo), tuple(hi), tuple(int(v) for v in rng.integers(2, 9, d)))
    # points inside the box and outside it, then some coordinates pinned to
    # the box's faces and to the interior node lines, where u is an integer
    x = rng.uniform(lo - 1.0, hi + 1.0, (n, d))
    inside = rng.random(n) < 0.5
    x[inside] = rng.uniform(lo, hi, (int(inside.sum()), d))
    nodes = grid.node_coords()[rng.integers(0, grid.num_nodes, n)]
    pick = rng.random((n, d))
    x = np.where(pick < 0.15, hi, x)
    x = np.where(pick > 0.9, lo, x)
    x = np.where((pick > 0.8) & (pick <= 0.9), nodes, x)
    base, weights = _cell_weights(grid, x)
    want_base, want_weights = _integer_cell_weights(grid, x)
    assert base.dtype == np.int64
    np.testing.assert_array_equal(base, want_base)
    assert len(weights) == len(want_weights) == 1 << d
    for got, want in zip(weights, want_weights):
        # bit patterns, which also tell -0.0 from 0.0
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


CELL_GRIDS = {
    "portfolio": portfolio_grid(),
    "cs2d": cs2d_grid(),
    "portfolio-49": portfolio_grid(cells=49),
    "uneven-7x13": SpaceTimeGrid(1.0, 2, (-1.7, 0.3), (2.9, 5.0 / 3.0), (7, 13)),
}


def _lowest_corner_cell(grid, x):
    """Cell of _cell_weights' lowest corner, numbered as cell_index numbers
    cells: C order over the n_i - 1 cells per dimension."""
    base, _ = _cell_weights(grid, x)
    lowest = np.unravel_index(base, grid.nodes)
    return np.ravel_multi_index(lowest, tuple(n - 1 for n in grid.nodes))


@pytest.mark.parametrize("name", sorted(CELL_GRIDS))
def test_cell_index_is_the_cell_of_the_interpolation(name):
    grid = CELL_GRIDS[name]
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    rng = np.random.default_rng(sorted(CELL_GRIDS).index(name))
    around = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), (20_000, 2))
    nodes = grid.node_coords()
    # every node, and one ulp to either side of it in each coordinate
    near_nodes = [
        np.stack([c if to == 0 else np.nextafter(c, to) for c, to in zip(nodes.T, tos)], axis=1)
        for tos in itertools.product((-np.inf, 0, np.inf), repeat=2)
    ]
    for pts in [around] + near_nodes:
        idx = cell_index(grid, pts)
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, _lowest_corner_cell(grid, pts))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cell_index_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite query coordinate 0 at point 1"):
        cell_index(portfolio_grid(cells=10), np.array([[0.0, 1.0], [bad, 1.0]]))


def test_interpolation_rejects_non_finite(grid):
    vals = np.zeros(grid.nodes + (1,))
    with pytest.raises(ValueError):
        multilinear_eval(grid, vals, np.array([[np.nan, 1.0]]))


def test_interpolation_monotone_bounds(grid):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(grid.nodes + (1,))
    pts = rng.uniform([-2.0, 0.0], [6.0, 4.0], (500, 2))
    out = multilinear_eval(grid, vals, pts)
    assert out.min() >= vals.min() - 1e-12
    assert out.max() <= vals.max() + 1e-12


def test_policy_field_time_is_piecewise_constant(grid):
    vals = np.zeros((5,) + grid.nodes + (1,))
    for j in range(5):
        vals[j] = float(j)
    pol = GridField(grid, vals)
    x = np.array([[0.0, 2.0], [-2.0, 4.0]])
    for j in range(5):
        np.testing.assert_array_equal(pol.eval_slice(j, x), [[float(j)]] * 2)


def test_field_shape_validation(grid):
    with pytest.raises(ValueError):
        GridField(grid, np.zeros((3,) + grid.nodes + (1,)))


def test_csv_round_trip_is_exact(tmp_path, grid):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((5,) + grid.nodes + (2,))
    field = GridField(grid, vals)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    back = field_from_csv(path)
    assert back.grid == grid
    np.testing.assert_array_equal(back.values, vals)


def _row_by_row_csv(field, path):
    """field_to_csv's format, every row formatted whole: the reference."""
    d, c = field.grid.state_dim, field.components
    header = ["t"] + [f"x{i+1}" for i in range(d)] + [f"c{i+1}" for i in range(c)]
    row = ",".join(["%.17g"] * (1 + d + c))
    coords = field.grid.node_coords()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for j, t in enumerate(field.grid.times):
            for x, v in zip(coords.tolist(), field.slice_flat(j).tolist()):
                fh.write(row % tuple([t] + x + v) + "\r\n")


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("c", [1, 2])
def test_csv_matches_row_by_row_formatting_bytewise(tmp_path, d, c):
    rng = np.random.default_rng(d + 2 * c)
    grid = SpaceTimeGrid(0.7, 3, (-1.3, 0.1)[:d], (2.9, 1.0 / 3.0)[:d], (6, 4)[:d])
    vals = rng.standard_normal((4,) + grid.nodes + (c,)) * 10.0 ** rng.integers(-8, 8)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e20, -1e20, -3.0, 0.1]
    vals.reshape(-1)[: len(special)] = special
    field = GridField(grid, vals)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    field_to_csv(field, got)
    _row_by_row_csv(field, want)
    assert got.read_bytes() == want.read_bytes()


def test_csv_rejects_missing_rows(tmp_path, grid):
    field = GridField.zeros(grid, 1)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError):
        field_from_csv(path)


@pytest.mark.parametrize("edit", ["swap", "duplicate"])
def test_csv_rejects_rows_out_of_place(tmp_path, grid, edit):
    field = GridField(grid, np.random.default_rng(8).standard_normal((5,) + grid.nodes + (1,)))
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    lines = path.read_bytes().split(b"\r\n")
    # lines[2] and lines[3] are rows 2 and 3 of slice 0
    if edit == "swap":
        lines[2], lines[3] = lines[3], lines[2]
        bad = 2
    else:
        lines[3] = lines[2]
        bad = 3
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError, match=f"row {bad} after the header .* out of place"):
        field_from_csv(path)
