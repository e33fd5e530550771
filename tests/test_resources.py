"""Tests (incl. property-based) for ResourceVector arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.resources import AXES, ResourceVector

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
vectors = st.builds(ResourceVector, finite, finite, finite)
nonneg_vectors = st.builds(ResourceVector, nonneg, nonneg, nonneg)


class TestArithmetic:
    def test_add_sub(self):
        a = ResourceVector(1.0, 100.0, 10.0)
        b = ResourceVector(0.5, 50.0, 5.0)
        assert a + b == ResourceVector(1.5, 150.0, 15.0)
        assert a - b == ResourceVector(0.5, 50.0, 5.0)

    def test_scalar_multiply_both_sides(self):
        v = ResourceVector(1.0, 2.0, 3.0)
        assert 2 * v == v * 2 == ResourceVector(2.0, 4.0, 6.0)

    def test_negation(self):
        assert -ResourceVector(1.0, -2.0, 3.0) == ResourceVector(-1.0, 2.0, -3.0)

    def test_iteration_order(self):
        assert list(ResourceVector(1.0, 2.0, 3.0)) == [1.0, 2.0, 3.0]

    def test_sum(self):
        vs = [ResourceVector(1, 1, 1), ResourceVector(2, 2, 2)]
        assert ResourceVector.sum(vs) == ResourceVector(3, 3, 3)

    def test_sum_empty_is_zero(self):
        assert ResourceVector.sum([]) == ResourceVector.zero()

    @given(vectors, vectors)
    def test_add_commutes(self, a, b):
        assert (a + b).cpu == pytest.approx((b + a).cpu)
        assert (a + b).memory == pytest.approx((b + a).memory)

    @given(vectors)
    def test_sub_self_is_zero(self, v):
        assert all(abs(axis) <= 1e-6 for axis in v - v)


class TestCombinators:
    def test_clamp_floor(self):
        v = ResourceVector(-1.0, 5.0, -0.1)
        assert v.clamp_floor() == ResourceVector(0.0, 5.0, 0.0)

    def test_elementwise_min(self):
        a = ResourceVector(1, 5, 3)
        b = ResourceVector(2, 4, 3)
        assert a.elementwise_min(b) == ResourceVector(1, 4, 3)

    def test_axis_lookup(self):
        v = ResourceVector(1, 2, 3)
        assert [v.axis(a) for a in AXES] == [1, 2, 3]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector().axis("disk")

    @given(vectors, vectors)
    def test_min_is_lower_bound(self, a, b):
        low = a.elementwise_min(b)
        assert low.fits_within(a) and low.fits_within(b)


class TestPredicates:
    def test_fits_within(self):
        assert ResourceVector(1, 1, 1).fits_within(ResourceVector(1, 1, 1))
        assert not ResourceVector(1.1, 1, 1).fits_within(ResourceVector(1, 1, 1))

    def test_is_nonnegative(self):
        assert ResourceVector(0, 0, 0).is_nonnegative()
        assert not ResourceVector(-0.1, 0, 0).is_nonnegative()

    @given(nonneg_vectors, nonneg_vectors)
    def test_clamped_difference_fits_in_minuend(self, a, b):
        # (a - b) clamped at zero always fits inside a.
        assert (a - b).clamp_floor().fits_within(a, tolerance=1e-6)
