"""Cucker-Smale alignment kernels against their pairwise definitions.

The oracles below are the (P, L) pairwise formulas the kernels were first
written with.  The kernels now sum over the distinct x-values with matrix
products, so they agree with the oracles up to summation order; with more
distinct x-values than interpolation nodes they interpolate the sums in x,
which agrees to rounding level.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcontrol import (
    CuckerSmaleParams,
    EmpiricalMeasure,
    GridField,
    PortfolioParams,
    cs2d_grid,
    cs2d_problem,
    portfolio_problem,
    simulate,
)
from mfcontrol.problems import _cheb_nodes, _inv_pow, _kernel_sums


def _oracle_align(p, x, v, etas):
    L = etas.size
    dx = x[:, None] - etas.x[None, :, 0]
    np.multiply(dx, dx, out=dx)
    dx += 1.0
    w = _inv_pow(dx, p.beta, consume=True)
    dv = etas.x[None, :, 1] - v[:, None]
    return (p.K / L) * np.einsum("pl,pl->p", w, dv)


def _oracle_dx_drift(p, x, etas):
    out = np.zeros((x.shape[0], 2, 2))
    out[:, 0, 1] = 1.0
    L = etas.size
    dx = x[:, None, 0] - etas.x[None, :, 0]
    dist2 = 1.0 + dx * dx
    wp = _inv_pow(dist2, p.beta + 1.0)
    dv = etas.x[None, :, 1] - x[:, None, 1]
    out[:, 1, 0] = (-2.0 * p.beta * p.K / L) * np.einsum("pl,pl,pl->p", dv, dx, wp)
    out[:, 1, 1] = (-p.K / L) * np.einsum("pl,pl->p", wp, dist2)
    return out


def _oracle_mu_drift_pair(p, cx, ex):
    P, L = ex.shape[0], cx.shape[1]
    dx = cx[:, :, 0] - ex[:, :, 0]
    dist2 = 1.0 + dx * dx
    w = _inv_pow(dist2, p.beta)
    dv = ex[:, :, 1] - cx[:, :, 1]
    out = np.zeros((P, L, 2, 2))
    out[:, :, 1, 0] = (2.0 * p.beta * p.K) * dv * dx * (w / dist2)
    out[:, :, 1, 1] = p.K * w
    return out


def _oracle_mean_contract(p, measure, ex, weights):
    K = _oracle_mu_drift_pair(p, measure.x[None], ex[:, None, :])
    return np.einsum("li,plim->pm", weights, K) / measure.size


def _points(kind, rng):
    if kind == "lattice":
        return cs2d_grid(CuckerSmaleParams()).node_coords()
    if kind == "cloud":
        return rng.uniform((0.0, 0.0), (5.0, 4.0), (700, 2))
    # repeated x-values: 600 points on 37 distinct positions
    x = rng.choice(rng.uniform(0.0, 5.0, 37), 600)
    return np.column_stack([x, rng.uniform(0.0, 4.0, 600)])


def _assert_close(got, want):
    assert got.shape == want.shape
    scale = np.abs(want).max()
    assert scale > 0
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("beta", [0.5, 1.0, 10.0])
@pytest.mark.parametrize("kind", ["lattice", "cloud", "repeated"])
def test_cs_kernels_match_pairwise_oracle(beta, kind):
    p = CuckerSmaleParams(beta=beta, K=1.3)
    prob = cs2d_problem(p)
    rng = np.random.default_rng(int(beta * 10) + len(kind))
    # the drift sums over the atoms under the law's own cap
    x = rng.normal((1.5, 1.5), 0.6, (450, 2))
    eta = EmpiricalMeasure(x, rng.standard_normal((450, 1)).mean(axis=0), 150)
    etas = eta.strided()
    X = _points(kind, rng)
    a = rng.standard_normal((X.shape[0], 1))

    b = prob.drift(0.0, X, a, eta)
    np.testing.assert_array_equal(b[:, 0], X[:, 1])
    _assert_close(b[:, 1] - a[:, 0], _oracle_align(p, X[:, 0], X[:, 1], etas))
    _assert_close(prob.dx_drift(0.0, X, a, eta), _oracle_dx_drift(p, X, etas))

    # the contraction averages over the atoms it is given: the adjoint, not
    # the kernel, strides them
    u = rng.standard_normal((eta.size, 2))
    got = prob.mu_drift.mean_contract(0.0, eta, X, a, weights=u)
    _assert_close(got, _oracle_mean_contract(p, eta, X, u))


def test_the_cap_follows_dataclasses_replace():
    # the drift closures read the cap from the law that simulate hands them,
    # so a replaced cap reaches them as it reaches the adjoints
    params = CuckerSmaleParams(beta=10.0)
    replaced = dataclasses.replace(cs2d_problem(params, kernel_subsample=500), kernel_subsample=50)
    fresh = cs2d_problem(params, kernel_subsample=50)
    policy = GridField.zeros(cs2d_grid(params, cells=10, time_steps=2), 1)
    got = simulate(replaced, policy, 2000, 2, 0)
    want = simulate(fresh, policy, 2000, 2, 0)
    np.testing.assert_array_equal(got.states, want.states)
    assert got.kernel_subsample == want.kernel_subsample == 50
    eta, eta_fresh = got.measure(1), want.measure(1)
    a = policy.eval_slice(1, eta.x)
    for name in ("drift", "dx_drift"):
        np.testing.assert_array_equal(
            getattr(replaced, name)(0.5, eta.x, a, eta),
            getattr(fresh, name)(0.5, eta_fresh.x, a, eta_fresh),
        )
    # the cap matters at N = 2000: 500 atoms give other paths than 50
    other = simulate(cs2d_problem(params, kernel_subsample=500), policy, 2000, 2, 0)
    assert not np.array_equal(other.states, want.states)


@pytest.mark.parametrize("cap", [2.5, "500"])
def test_kernel_subsample_is_none_or_a_positive_integer(cap):
    # caps below 1: tests/test_nag.py
    for make_problem in (portfolio_problem, cs2d_problem):
        with pytest.raises(ValueError, match="kernel_subsample"):
            make_problem(kernel_subsample=cap)
        assert make_problem().kernel_subsample is None
        assert make_problem(kernel_subsample=np.int64(1)).kernel_subsample == 1


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
def test_horizon_is_positive_and_finite(horizon):
    for problem in (portfolio_problem(), cs2d_problem()):
        with pytest.raises(ValueError, match="horizon"):
            dataclasses.replace(problem, horizon=horizon)


@pytest.mark.parametrize(
    "q_lo, q_hi",
    [(3.0, 1.0), (float("nan"), 2.0), (1.0, float("nan")), (-np.inf, 1.0), (1.0, np.inf)],
)
def test_the_inventory_law_needs_finite_ordered_bounds(q_lo, q_hi):
    with pytest.raises(ValueError, match=r"q_lo.*q_hi"):
        portfolio_problem(PortfolioParams(q_lo=q_lo, q_hi=q_hi))
    # a point mass is a law: U(q, q) samples q
    portfolio_problem(PortfolioParams(q_lo=1.5, q_hi=1.5))


def _direct_loop(x, atoms, R, q, dx_moment=False):
    """_kernel_sums as it was before the interpolation: every distinct x
    summed directly over the atoms, in blocks of 64 rows."""
    ux, inverse = np.unique(x, return_inverse=True)
    out = np.empty((ux.size, R.shape[1]))
    for lo in range(0, ux.size, 64):
        dx = ux[lo : lo + 64, None] - atoms
        w = np.multiply(dx, dx)
        w += 1.0
        w = _inv_pow(w, q, consume=True)
        if dx_moment:
            w *= dx
        np.matmul(w, R, out=out[lo : lo + 64])
    return out[inverse]


def _atoms_and_R(rng, L=300):
    atoms = rng.normal(2.0, 0.8, L)
    return atoms, np.column_stack([rng.normal(1.5, 0.5, L), np.ones(L)])


@pytest.mark.parametrize("q", [0.5, 10.0, 11.0])
@pytest.mark.parametrize("kind", ["lattice", "repeated", "one-x", "single"])
def test_kernel_sums_direct_path_is_bitwise_unchanged(kind, q):
    # no more distinct x-values than interpolation nodes: the direct path
    rng = np.random.default_rng(7)
    if kind == "one-x":
        x = np.full(300, 1.7)
    elif kind == "single":
        x = np.array([2.3])
    else:
        x = _points(kind, rng)[:, 0]
    atoms, R = _atoms_and_R(rng)
    for dx_moment in (False, True):
        np.testing.assert_array_equal(
            _kernel_sums(x, atoms, R, q, dx_moment), _direct_loop(x, atoms, R, q, dx_moment)
        )


@pytest.mark.parametrize("q", [0.0, 0.5, 10.0, 11.0, 100.0])
def test_kernel_sums_on_chebyshev_nodes_and_panel_edges(q):
    rng = np.random.default_rng(8)
    nodes = _cheb_nodes(0.0, 5.0, q)
    edges = np.linspace(0.0, 5.0, nodes.shape[0] + 1)
    x = np.concatenate([[0.0, 5.0], rng.uniform(0.0, 5.0, 700), nodes.ravel(), edges])
    assert np.unique(x).size > nodes.size  # the interpolation path
    atoms, R = _atoms_and_R(rng)
    for dx_moment in (False, True):
        got = _kernel_sums(x, atoms, R, q, dx_moment)
        assert np.all(np.isfinite(got))
        _assert_close(got, _direct_loop(x, atoms, R, q, dx_moment))
        # a point exactly on a node takes the node's directly summed value
        on_nodes = got[702 : 702 + nodes.size]
        np.testing.assert_array_equal(
            on_nodes, _direct_loop(nodes.ravel(), atoms, R, q, dx_moment)
        )


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    q=st.floats(0.0, 100.0),
    spread=st.floats(0.05, 2.0),
    n=st.integers(200, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_interpolated_kernel_sums_match_direct_sums(q, spread, n, seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 500))
    x = rng.normal(2.0, spread, n)
    atoms = rng.normal(2.0, spread, L)
    R = rng.standard_normal((L, 2))
    for dx_moment in (False, True):
        want = _direct_loop(x, atoms, R, q, dx_moment)
        got = _kernel_sums(x, atoms, R, q, dx_moment)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
