"""Capacity of finite subsets of Z for the walk conditioned to avoid 0.

In one dimension the potential kernel is a(x) = |x| and the capacity of a
finite set is half its diameter; adjoining the origin gives the capacity that
drives every vacant-set formula. The equilibrium measure of the conditioned
walk lives on the extremes of the set and its total mass recovers the same
capacity, which the tests exercise as an identity between two code paths.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntervalSet:
    """Finite nonempty set of sites, represented by its extremes.

    Capacity depends only on min and max, so a general finite set is given by
    its two extremes.
    """

    min: int
    max: int

    def __post_init__(self):
        if self.min > self.max:
            raise ValueError(f"need min <= max, got [{self.min}, {self.max}]")

    @property
    def diameter(self) -> int:
        return self.max - self.min


@dataclass(frozen=True)
class EquilibriumMeasure:
    """Escape probability times reversible measure, at the set's extremes."""

    masses: dict[int, float]

    @property
    def total(self) -> float:
        return sum(self.masses.values())


def capacity(A: IntervalSet) -> float:
    """Half the diameter of the set."""
    return A.diameter / 2


def capacity_hat(A: IntervalSet) -> float:
    """Capacity of the set with the origin adjoined: cap(A ∪ {0})."""
    return (max(A.max, 0) - min(A.min, 0)) / 2


def equilibrium_measure(A: IntervalSet) -> EquilibriumMeasure:
    """Equilibrium measure of the conditioned walk on A's extremes.

    The lower extreme a carries mass |a|/2 when a <= 0 and the upper extreme b
    carries b/2 when b >= 0 (escape probability 1/(2|site|) times the
    reversible measure site^2); extremes on the wrong side of the origin carry
    no mass because the walk returns to them almost surely. The total mass is
    capacity_hat(A), including for single-point sets ({x} carries |x|/2).
    """
    if A.min == A.max:
        return EquilibriumMeasure({A.min: abs(A.min) / 2})
    masses = {
        A.min: -A.min / 2 if A.min <= 0 else 0.0,
        A.max: A.max / 2 if A.max >= 0 else 0.0,
    }
    return EquilibriumMeasure(masses)
