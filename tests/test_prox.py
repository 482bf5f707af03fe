"""Proximal map correctness against brute-force minimization."""

import numpy as np
import pytest

from mfcontrol import ProxSpec, ell_value, prox_apply


def _objective(spec, tau, a, z):
    base = 0.5 * (z - a) ** 2
    if spec.kind == "l1":
        return base + tau * spec.kappa * np.abs(z)
    return base


@pytest.mark.parametrize(
    "spec",
    [ProxSpec.none(), ProxSpec.l1(0.7), ProxSpec.l1(2.0)],
    ids=["none", "l1_small", "l1_large"],
)
def test_prox_matches_grid_search(spec):
    tau = 1.0 / 6.0
    points = np.linspace(-3.0, 3.0, 41)
    zgrid = np.linspace(-4.0, 4.0, 200_001)
    for a in points:
        z_star = prox_apply(spec, tau, np.array([a]))[0]
        obj_star = _objective(spec, tau, a, np.array([z_star]))[0]
        obj_grid = _objective(spec, tau, a, zgrid).min()
        assert obj_star <= obj_grid + 1e-4


def test_soft_threshold_exact_zeros():
    spec = ProxSpec.l1(1.0)
    tau = 0.25
    a = np.array([-0.25, -0.1, 0.0, 0.1, 0.25])
    out = prox_apply(spec, tau, a)
    assert np.all(out == 0.0)
    out2 = prox_apply(spec, tau, np.array([0.5, -0.5]))
    np.testing.assert_allclose(out2, [0.25, -0.25], rtol=0, atol=1e-15)


def test_soft_threshold_continuous_at_kink():
    spec = ProxSpec.l1(1.0)
    tau = 0.25
    thr = tau * spec.kappa
    lo = prox_apply(spec, tau, np.array([thr - 1e-12]))[0]
    hi = prox_apply(spec, tau, np.array([thr + 1e-12]))[0]
    assert abs(hi - lo) <= 2e-12


def test_l1_value():
    spec = ProxSpec.l1(2.0)
    vals = ell_value(spec, np.array([[1.0, -3.0], [0.0, 0.0]]))
    np.testing.assert_allclose(vals, [8.0, 0.0])


def test_invalid_specs_rejected():
    for kind in ("nonsense", "box"):
        with pytest.raises(ValueError, match="unknown nonsmooth cost kind"):
            ProxSpec(kind)
    with pytest.raises(ValueError):
        ProxSpec.l1(-1.0)
    with pytest.raises(ValueError):
        prox_apply(ProxSpec.none(), 0.0, np.zeros(3))
