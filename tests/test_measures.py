"""Empirical measures and measure-derivative kernel contractions."""

import numpy as np
import pytest

from mfcontrol import EmpiricalMeasure, MeasureKernel


@pytest.fixture
def measure():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    return EmpiricalMeasure(x, rng.standard_normal((40, 1)).mean(axis=0))


def _capped(measure, cap):
    """The same atoms and action mean under the atom cap `cap`."""
    return EmpiricalMeasure(measure.x, measure.mean_a, cap)


def test_means_and_expect(measure):
    # the law keeps the action mean it was given, and a subsample of its
    # atoms keeps the full law's mean
    assert measure.mean_a.shape == (1,)
    assert _capped(measure, 10).strided().mean_a is measure.mean_a
    with pytest.raises(ValueError, match="at least one atom"):
        EmpiricalMeasure(np.zeros((0, 2)), np.zeros(1))


def test_strided_subsample(measure):
    sub = _capped(measure, 10).strided()
    assert sub.size == 10
    np.testing.assert_array_equal(sub.x, measure.x[::4])
    assert measure.strided() is measure
    capped = _capped(measure, 40)
    assert capped.strided() is capped
    # non-divisible count: step = ceil(40/12) = 4 keeps every 4th atom
    assert _capped(measure, 12).strided().size == 10
    caps = (None, 40, 41, 12, 10, 1, np.int64(10))
    assert [_capped(measure, n).stride() for n in caps] == [1, 1, 1, 4, 4, 40, 4]
    # the subsample keeps the cap of the law it was taken from
    assert _capped(measure, 12).strided().kernel_subsample == 12


@pytest.mark.parametrize("cap", [0, -3])
def test_non_positive_subsample_cap_is_rejected(measure, cap):
    # a negative step would keep atoms in reverse, a zero one divide by zero;
    # the measure checks its cap when it is built
    with pytest.raises(ValueError, match="kernel_subsample must be None or a positive integer"):
        _capped(measure, cap)


@pytest.mark.parametrize("cap", [2.5, "500"])
def test_non_integer_subsample_cap_is_rejected(measure, cap):
    # 2.5 would give a stride of ceil(40 / 2.5) = 16
    with pytest.raises(ValueError, match="kernel_subsample must be None or a positive integer"):
        _capped(measure, cap)


def test_zero_kernel(measure):
    kern = MeasureKernel.zero()
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

