"""The problem record, which ``build_problem_scheme``, intake's one step,
admits or refuses, and the structured inter-agent scheme types, all
immutable.  A method scheme holds what a decision chose and reads the rest
from its catalog row, and a diagnosis takes its cause and prescription
from the Advisor.  Nothing reads schemes back from text.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from collections import Counter
from dataclasses import dataclass, fields, replace

from . import catalog
from .action_space import ActionTuple
from .errors import ConfigError, InvalidProblem
from .estimators import get_model

DIST_FAMILIES = ("Uniform", "Normal", "Other")


@functools.cache
def _field_types(cls) -> tuple[tuple[str, tuple[type, ...]], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, typing.get_args(hints[f.name]) or (hints[f.name],))
                 for f in fields(cls))


def check_field_types(obj) -> None:
    """Check every field of the frozen dataclass ``obj`` against its
    annotation, a class or a union of classes; raises TypeError.

    A float field also takes an int, and stores the equal float; an int
    past the float range raises OverflowError. Either error names the
    field. Nothing else is converted, and a bool is never taken as an int."""
    for name, allowed in _field_types(type(obj)):
        value = getattr(obj, name)
        if float in allowed and type(value) is int:
            try:
                object.__setattr__(obj, name, float(value))
            except OverflowError:
                raise OverflowError(f"{name} overflows a float") from None
        elif not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed):
            raise TypeError(f"{name} must be "
                            f"{' or '.join(t.__name__ for t in allowed)}, "
                            f"not {type(value).__name__}")


def to_json(obj) -> str:
    """``obj`` as JSON text, keys sorted, via the C encoder; a dataclass is
    written as its own fields, one level at a time.  Trace rows, archive
    entries and the config digest are all written through it."""
    return json.dumps(obj, sort_keys=True, default=lambda o: {
        f.name: getattr(o, f.name) for f in fields(o)})


@dataclass(frozen=True)
class ProblemScheme:
    """The problem every decision is conditioned on; an SA study, the only
    task driftguard runs."""

    d_in: int
    d_out: int
    n_budget: int
    epsilon: float
    dist_family: tuple                 # one DIST_FAMILIES name per input
    model_id: str | None = ""

    def __post_init__(self):
        try:
            check_field_types(self)
        except (TypeError, OverflowError) as exc:
            raise ConfigError(f"bad problem: {exc}") from exc
        if self.d_in < 1 or self.d_out < 1:
            raise InvalidProblem("dimensionality must be positive")
        if self.n_budget < 1:
            raise InvalidProblem("evaluation budget must be positive")
        if not self.epsilon > 0:
            raise InvalidProblem("target precision epsilon must be positive")
        if not all(d in DIST_FAMILIES for d in self.dist_family):
            raise InvalidProblem(f"a distribution family is not one of "
                                 f"{', '.join(DIST_FAMILIES)}")

    @property
    def dist_family_mode(self) -> str:
        return Counter(self.dist_family).most_common(1)[0][0]

    @functools.cached_property
    def scaled_sizes(self) -> tuple[float, float, float]:
        """d_in, d_out and log10 of the budget, each scaled into [0, 1]: the
        block the policy features and the archive descriptor share."""
        return (min(1.0, self.d_in / 20.0),
                min(1.0, self.d_out / 10.0),
                min(1.0, math.log10(max(self.n_budget, 1)) / 6.0))

    @functools.cached_property
    def feasible_sa_estimators(self) -> tuple[str, ...]:
        """Estimators whose every catalog rule holds, in catalog order; the
        one place the rules run."""
        return tuple(e for e, info in catalog.SA_ESTIMATORS.items()
                     if info.feasible(self))


@dataclass(frozen=True)
class MethodScheme:
    """What a policy decision chose: the action and its sample size; the
    estimator's catalog row, ``info``, describes the rest of the method."""

    action: ActionTuple
    n_samples: int
    n_min_value: int

    @property
    def estimator(self) -> str:
        return self.action.estimator

    @functools.cached_property
    def info(self) -> catalog.EstimatorInfo:
        return catalog.estimator_info(self.estimator)


@dataclass(frozen=True)
class DiagnosticScheme:
    """Machine-readable diagnosis closing each iteration; its status and
    bottleneck are read from the reward the record holds."""

    root_cause: str            # as the Advisor's branch states it
    prescribed_estimator: str | None
    prescribed_n_samples: int | None
    physical_insight: str = ""

    @property
    def block_action(self) -> bool:
        """Whether the next decision avoids the diagnosed estimator: only
        when that estimator cannot produce the outputs its scheme needs."""
        return self.root_cause == "attribute_error"


# ---------------------------------------------------------------------------
# Builders

def build_problem_scheme(desc: dict) -> ProblemScheme:
    """The problem record of a problem description, if intake admits it;
    deterministic, and the one place a problem is admitted or refused.

    The first failed check refuses it: a missing key, a mistyped field
    (ConfigError, as for a session setting), a bad value, a task other than
    SA, a model the catalog lacks (UnknownModel), sizes or stated input
    families that are not the model's, no feasible estimator, and last no
    model.  Every other refusal than the two named is InvalidProblem."""
    try:
        task = desc["task"]
        ps = ProblemScheme(d_in=desc["d_in"], d_out=desc["d_out"],
                           n_budget=desc["n_budget"],
                           epsilon=desc.get("epsilon", 0.05),
                           dist_family=tuple(desc.get("dist_family") or ()),
                           model_id=desc.get("model_id", ""))
    except (KeyError, TypeError) as exc:
        raise InvalidProblem(f"incomplete problem description: {exc}") from exc
    if task != "SA":
        raise InvalidProblem(f"unknown task {task!r}")
    if ps.model_id:
        model = get_model(ps.model_id)
        if (ps.d_in, ps.d_out) != (model.d_in, model.d_out):
            raise InvalidProblem(f"problem states d_in={ps.d_in}, d_out="
                                 f"{ps.d_out} but model {model.id} has d_in="
                                 f"{model.d_in}, d_out={model.d_out}")
        if ps.dist_family and ps.dist_family != model.dist_families():
            raise InvalidProblem(f"problem states dist_family="
                                 f"{list(ps.dist_family)} but model {model.id}"
                                 f" has {list(model.dist_families())}")
    # Without ``dist_family`` every input is Other.
    if not ps.dist_family:
        ps = replace(ps, dist_family=("Other",) * ps.d_in)
    if not ps.feasible_sa_estimators:
        raise InvalidProblem("no feasible estimator for this problem")
    if not ps.model_id:
        raise InvalidProblem("problem description names no model")
    return ps


def build_method_scheme(action: ActionTuple, ps: ProblemScheme,
                        n_samples: int) -> MethodScheme:
    """Method scheme with its floor of evaluations from the estimator catalog."""
    info = catalog.estimator_info(action.estimator)
    return MethodScheme(action=action, n_samples=n_samples,
                        n_min_value=info.n_min(ps.d_in))


def build_diagnostic_scheme(report: str, root_cause: str,
                            prescribed_estimator: str | None = None,
                            prescribed_n_samples: int | None = None
                            ) -> DiagnosticScheme:
    """The diagnosis of a review stating its cause and prescription."""
    return DiagnosticScheme(root_cause, prescribed_estimator,
                            prescribed_n_samples, report)
