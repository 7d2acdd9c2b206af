"""Combinatorial action space of the sensitivity-analysis (SA) task and its
feasibility filtering; SA is the only task driftguard runs.

Feasibility has a single path: ``feasibility_bits`` evaluates each catalog
row's rules once per estimator at intake, and ``filter_feasible`` keeps the
actions whose estimator bit is set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import catalog


@dataclass(frozen=True)
class ActionTuple:
    """One point in the combinatorial method space: a complete pipeline.

    ``dims`` is ordered per the dimension catalog, one level per dimension.
    """

    dims: tuple[str, ...]

    def __post_init__(self):
        expected = len(catalog.SA_DIMENSIONS)
        if len(self.dims) != expected:
            raise ValueError(
                f"actions need {expected} dims, got {len(self.dims)}")
        for value, (name, values) in zip(self.dims, catalog.SA_DIMENSIONS):
            if value not in values:
                raise ValueError(f"{value!r} not in catalog for {name}")

    @property
    def estimator(self) -> str:
        return self.dims[1]


def enumerate_actions() -> list[ActionTuple]:
    """Full Cartesian product of the dimension catalog, lexicographic."""
    value_lists = [values for _, values in catalog.SA_DIMENSIONS]
    return [ActionTuple(dims) for dims in itertools.product(*value_lists)]


def feasibility_bits(x) -> tuple[bool, ...]:
    """Bitset over the estimator catalog, in catalog order: an estimator is
    feasible when every rule of its catalog row holds.

    The one place the rules run; intake stores the result on the context
    vector, and everything downstream reads it from there.
    """
    return tuple(info.feasible(x) for info in catalog.SA_ESTIMATORS.values())


def filter_feasible(x) -> list[ActionTuple]:
    """Feasible subset of enumerate_actions(), order preserved: the actions
    whose estimator bit is set in ``x.feasibility_bits``."""
    feasible = {est for est, ok in zip(catalog.SA_ESTIMATORS,
                                       x.feasibility_bits) if ok}
    return [a for a in enumerate_actions() if a.estimator in feasible]
