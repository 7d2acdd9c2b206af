"""Combinatorial action space of the sensitivity-analysis (SA) task and its
feasibility filtering; SA is the only task driftguard runs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import catalog
from .config import DEFAULTS, Settings


@dataclass(frozen=True)
class ActionTuple:
    """One point in the combinatorial method space: a complete pipeline.

    ``dims`` is ordered per the dimension catalog, one level per dimension.
    """

    task: str
    dims: tuple[str, ...]

    def __post_init__(self):
        if self.task != "SA":
            raise ValueError(f"unknown task {self.task!r}")
        expected = len(catalog.SA_DIMENSIONS)
        if len(self.dims) != expected:
            raise ValueError(
                f"{self.task} actions need {expected} dims, got {len(self.dims)}")
        for value, (name, values) in zip(self.dims, catalog.SA_DIMENSIONS):
            if value not in values:
                raise ValueError(f"{value!r} not in catalog for {name}")

    @property
    def estimator(self) -> str:
        return self.dims[1]


@dataclass(frozen=True)
class FeasibilityReport:
    action: ActionTuple
    verdict: bool
    violated: tuple[tuple[str, str, dict], ...]  # (predicate id, reason, values)

    def __post_init__(self):
        assert self.verdict == (len(self.violated) == 0)


def enumerate_actions() -> list[ActionTuple]:
    """Full Cartesian product of the dimension catalog, lexicographic."""
    value_lists = [values for _, values in catalog.SA_DIMENSIONS]
    return [ActionTuple("SA", dims) for dims in itertools.product(*value_lists)]


def validate_action(a: ActionTuple, x, settings: Settings = DEFAULTS) -> FeasibilityReport:
    """Apply every registered feasibility predicate that gates a's estimator."""
    violated = []
    thr = settings.screening_dim_threshold
    for pred in catalog.PREDICATES:
        if a.estimator not in pred.applies_to:
            continue
        ok, reason, values = pred.test(x, thr)
        if not ok:
            violated.append((pred.id, reason, values))
    return FeasibilityReport(a, not violated, tuple(violated))


def filter_feasible(x, settings: Settings = DEFAULTS) -> list[ActionTuple]:
    """Feasible subset of enumerate_actions(), order preserved."""
    return [a for a in enumerate_actions()
            if validate_action(a, x, settings).verdict]


def estimator_feasibility(x, settings: Settings = DEFAULTS) -> dict[str, dict]:
    """Per-estimator feasibility with the constraint that produced each verdict."""
    out: dict[str, dict] = {}
    thr = settings.screening_dim_threshold
    for est in catalog.SA_ESTIMATORS:
        violations = []
        for pred in catalog.PREDICATES:
            if est not in pred.applies_to:
                continue
            ok, reason, values = pred.test(x, thr)
            if not ok:
                violations.append({"predicate": pred.id, "reason": reason,
                                   "values": values})
        out[est] = {"feasible": not violations, "violations": violations}
    return out


def feasibility_bits(x, settings: Settings = DEFAULTS) -> tuple[bool, ...]:
    """Bitset over the estimator catalog, in catalog order."""
    flags = estimator_feasibility(x, settings)
    return tuple(flags[e]["feasible"] for e in catalog.SA_ESTIMATORS)
