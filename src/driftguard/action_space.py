"""Combinatorial action space of the sensitivity-analysis (SA) task and its
feasibility filtering; SA is the only task driftguard runs.

Feasibility has a single path: the problem record runs each catalog row's
rules once, into ``ProblemScheme.feasible_sa_estimators``, and
``filter_feasible`` keeps the actions whose estimator is in that set.
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


def filter_feasible(ps) -> list[ActionTuple]:
    """Feasible subset of enumerate_actions(), order preserved: the actions
    whose estimator is in ``ps.feasible_sa_estimators``."""
    feasible = set(ps.feasible_sa_estimators)
    return [a for a in enumerate_actions() if a.estimator in feasible]
