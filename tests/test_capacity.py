import pytest

from ri1d.capacity import (EquilibriumMeasure, IntervalSet, capacity,
                           capacity_hat, equilibrium_measure)


class TestIntervalSet:
    def test_ordering(self):
        with pytest.raises(ValueError):
            IntervalSet(4, 2)


class TestCapacity:
    def test_diameter_half(self):
        assert capacity(IntervalSet(0, 2)) == 1.0
        assert capacity(IntervalSet(-2, 3)) == 2.5
        assert capacity(IntervalSet(5, 5)) == 0.0

    def test_capacity_hat(self):
        assert capacity_hat(IntervalSet(0, 2)) == 1.0
        assert capacity_hat(IntervalSet(2, 5)) == 2.5  # origin adjoined
        assert capacity_hat(IntervalSet(-3, -1)) == 1.5
        assert capacity_hat(IntervalSet(0, 0)) == 0.0

    def test_translation_invariance_of_plain_capacity(self):
        A = IntervalSet(-2, 3)
        for c in (-5, 1, 10):
            assert capacity(IntervalSet(A.min + c, A.max + c)) == capacity(A)


class TestEquilibriumMeasure:
    def test_straddling_interval(self):
        eq = equilibrium_measure(IntervalSet(-2, 3))
        assert eq.masses == {-2: 1.0, 3: 1.5}
        assert eq.total == capacity_hat(IntervalSet(-2, 3))

    def test_one_sided(self):
        eq = equilibrium_measure(IntervalSet(2, 5))
        assert eq.masses[5] == 2.5
        assert eq.masses[2] == 0.0

    def test_total_equals_capacity_hat_on_grid(self):
        for lo in range(-6, 7):
            for hi in range(lo, 7):
                A = IntervalSet(lo, hi)
                assert equilibrium_measure(A).total == capacity_hat(A)

    def test_single_point(self):
        assert equilibrium_measure(IntervalSet(4, 4)).masses == {4: 2.0}
        assert equilibrium_measure(IntervalSet(0, 0)).total == 0.0

    def test_type(self):
        assert isinstance(equilibrium_measure(IntervalSet(0, 1)),
                          EquilibriumMeasure)
