"""Empirical measures and measure-derivative kernel contractions."""

import numpy as np
import pytest

from mfcontrol import EmpiricalMeasure, MeasureKernel


@pytest.fixture
def measure():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    return EmpiricalMeasure(x, rng.standard_normal((40, 1)).mean(axis=0))


def test_means_and_expect(measure):
    # the law keeps the action mean it was given, and a subsample of its
    # atoms keeps the full law's mean
    assert measure.mean_a.shape == (1,)
    assert measure.strided(10).mean_a is measure.mean_a
    with pytest.raises(ValueError, match="at least one atom"):
        EmpiricalMeasure(np.zeros((0, 2)), np.zeros(1))


def test_strided_subsample(measure):
    sub = measure.strided(10)
    assert sub.size == 10
    np.testing.assert_array_equal(sub.x, measure.x[::4])
    assert measure.strided(None) is measure
    assert measure.strided(40) is measure
    # non-divisible count: step = ceil(40/12) = 4 keeps every 4th atom
    assert measure.strided(12).size == 10
    assert [measure.stride(n) for n in (None, 40, 41, 12, 10, 1)] == [1, 1, 1, 4, 4, 40]
    # the subsample keeps the cap of the law it was taken from
    capped = EmpiricalMeasure(measure.x, measure.mean_a, 12)
    assert capped.strided(10).kernel_subsample == 12


@pytest.mark.parametrize("cap", [0, -3])
def test_non_positive_subsample_cap_is_rejected(measure, cap):
    # a negative step would keep atoms in reverse, a zero one divide by zero
    for subsample in (measure.stride, measure.strided):
        with pytest.raises(ValueError, match="positive atom count"):
            subsample(cap)


def test_zero_kernel(measure):
    kern = MeasureKernel.zero((2, 1))
    assert kern.is_zero
    assert not MeasureKernel.constant([[0.0], [0.0]]).is_zero
    # mean_contract serves contract_fn kernels; a zero kernel adds nothing
    # and a constant one goes through const_contract
    for other in (kern, MeasureKernel.constant([[0.5], [0.0]])):
        with pytest.raises(ValueError, match="contract_fn"):
            other.mean_contract(0.0, measure, np.zeros((5, 2)), None, np.ones((40, 2)))


def test_constant_kernel_with_weights(measure):
    kern = MeasureKernel.constant([[0.5], [0.0]])
    w = np.random.default_rng(1).standard_normal((measure.size, 2))
    out = kern.const_contract(w.mean(axis=0))
    expected = w.mean(axis=0) @ np.array([[0.5], [0.0]])
    np.testing.assert_allclose(out, expected, atol=1e-14)

