"""Action space of the sensitivity-analysis (SA) task, the only task
driftguard runs: an action names a sampling level of ``SAMPLING_LEVELS``
and an estimator of ``SA_ESTIMATORS``, both in ``catalog``.

Feasibility has a single path: the problem record runs each catalog row's
rules once, into ``ProblemScheme.feasible_sa_estimators``, and
``filter_feasible`` keeps the actions whose estimator is in that set.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog


@dataclass(frozen=True)
class ActionTuple:
    """One point in the method space: a complete pipeline."""

    sampling: str
    estimator: str

    def __post_init__(self):
        if self.sampling not in catalog.SAMPLING_LEVELS \
                or self.estimator not in catalog.SA_ESTIMATORS:
            raise ValueError(f"{self} is not in the catalog")


def enumerate_actions() -> list[ActionTuple]:
    """Every action, sampling-major, each choice in catalog order."""
    return [ActionTuple(s, e) for s in catalog.SAMPLING_LEVELS
            for e in catalog.SA_ESTIMATORS]


def filter_feasible(ps) -> list[ActionTuple]:
    """Feasible subset of enumerate_actions(), order preserved: the actions
    whose estimator is in ``ps.feasible_sa_estimators``."""
    feasible = set(ps.feasible_sa_estimators)
    return [a for a in enumerate_actions() if a.estimator in feasible]
