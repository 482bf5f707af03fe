"""Empirical measures and measure-derivative kernel contractions."""

import numpy as np
import pytest

from mfcontrol import EmpiricalMeasure, MeasureKernel


@pytest.fixture
def measure():
    rng = np.random.default_rng(0)
    return EmpiricalMeasure(rng.standard_normal((40, 2)), rng.standard_normal((40, 1)))


def test_means_and_expect(measure):
    np.testing.assert_allclose(measure.mean_a, measure.a.mean(axis=0))


def test_atom_count_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((3, 2)), np.zeros((4, 1)))


def test_strided_subsample(measure):
    sub = measure.strided(10)
    assert sub.size == 10
    np.testing.assert_array_equal(sub.x, measure.x[::4])
    assert measure.strided(None) is measure
    assert measure.strided(40) is measure
    # non-divisible count: step = ceil(40/12) = 4 keeps every 4th atom
    assert measure.strided(12).size == 10
    assert [measure.stride(n) for n in (None, 40, 41, 12, 10, 1)] == [1, 1, 1, 4, 4, 40]


@pytest.mark.parametrize("cap", [0, -3])
def test_non_positive_subsample_cap_is_rejected(measure, cap):
    # a negative step would keep atoms in reverse, a zero one divide by zero
    for subsample in (measure.stride, measure.strided):
        with pytest.raises(ValueError, match="positive atom count"):
            subsample(cap)


def test_zero_kernel(measure):
    kern = MeasureKernel.zero((2, 1))
    assert kern.is_zero
    out = kern.mean_contract(0.0, measure, np.zeros((5, 2)), None)
    assert out.shape == (5, 2, 1)
    assert np.all(out == 0.0)
    w = np.ones((measure.size, 2))
    out = kern.mean_contract(0.0, measure, np.zeros((5, 2)), None, weights=w)
    assert out.shape == (5, 1)


def test_constant_kernel_with_weights(measure):
    kern = MeasureKernel.constant([[0.5], [0.0]])
    P = 7
    w = np.random.default_rng(1).standard_normal((measure.size, 2))
    out = kern.mean_contract(0.0, measure, np.zeros((P, 2)), None, weights=w)
    expected = w.mean(axis=0) @ np.array([[0.5], [0.0]])
    np.testing.assert_allclose(out, np.tile(expected, (P, 1)), atol=1e-14)


def test_carrier_kernel_matches_brute_force(measure):
    def carrier(t, cx, ca, eta):
        return np.stack([cx[:, 0], cx[:, 1] * 2.0], axis=1)  # (L, 2)

    kern = MeasureKernel(out_shape=(2,), carrier_fn=carrier)
    P = 5
    out = kern.mean_contract(0.3, measure, np.zeros((P, 2)), None)
    expected = np.stack([measure.x[:, 0], 2.0 * measure.x[:, 1]], axis=1).mean(axis=0)
    np.testing.assert_allclose(out, np.tile(expected, (P, 1)), atol=1e-14)

    w = np.random.default_rng(2).standard_normal((measure.size, 2))
    outw = kern.mean_contract(0.3, measure, np.zeros((P, 2)), None, weights=w)
    K = np.stack([measure.x[:, 0], 2.0 * measure.x[:, 1]], axis=1)
    np.testing.assert_allclose(outw, np.full(P, (w * K).sum(axis=1).mean()), atol=1e-14)

