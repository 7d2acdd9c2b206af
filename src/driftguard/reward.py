"""Composite reward rubric scoring one iteration's observation.

Four capped components: integrity 35, accuracy 35, details 15,
optimality 15.  The score is computed against the method scheme that was
*decided*, so an execution that silently ran a different estimator loses the
integrity and accuracy mass tied to the scheme's required outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, Settings
from .errors import InvalidReward
from .estimators import BenchmarkModel, SAResult
from .schemes import MethodScheme

_VARIANCE_ATTRS = ("first_order_indices", "total_order_indices")


@dataclass(frozen=True)
class RewardBreakdown:
    integrity: float
    accuracy: float
    details: float
    optimality: float
    warnings: tuple[str, ...]      # critical + unaddressed, post-synthesis
    rank_inversion: bool = False

    @property
    def total(self) -> float:
        return self.integrity + self.accuracy + self.details + self.optimality

    def __post_init__(self):
        for name in ("integrity", "accuracy", "details", "optimality"):
            if getattr(self, name) < 0:
                raise InvalidReward(f"negative component {name}")


def _mae(estimate, reference) -> float:
    a = np.asarray(estimate, dtype=float)
    b = np.asarray(reference, dtype=float)
    return float(np.mean(np.abs(a - b)))


def score(ms: MethodScheme, obs: SAResult | None, *,
          model: BenchmarkModel | None = None,
          epsilon: float = 0.05,
          prev_obs: SAResult | None = None,
          settings: Settings = DEFAULTS) -> RewardBreakdown:
    """Score one observation against its decided method scheme.

    A crashed execution (obs None or executed False) zeroes everything but
    the warning list.  Missing required attributes synthesize critical
    warnings, zero the execution sub-score, and void the vacuous-pass rule
    for consistency checks tied to those attributes.
    """
    r = settings.reward
    executed = obs is not None and obs.executed

    if not executed:
        return RewardBreakdown(0.0, 0.0, 0.0, 0.0, ("execution failed",))

    attrs = obs.attributes()
    required = ms.required_attributes
    missing = tuple(a for a in required if a not in attrs)
    criticals = tuple(f"missing required attribute {a}" for a in missing)
    unaddressed = tuple(obs.warnings) + criticals

    # Integrity: clean execution, attribute completeness, no critical flags.
    exec_pts = r.integrity_execution if not missing else 0.0
    frac = 1.0 if not required else (len(required) - len(missing)) / len(required)
    attr_pts = r.integrity_attributes * frac
    warn_pts = r.integrity_warnings if not criticals else 0.0
    integrity = exec_pts + attr_pts + warn_pts

    # Accuracy: precision against an analytic reference when one exists for
    # the produced index type, else binary self-convergence; plus structural
    # consistency of the index vectors.
    precision = 0.0
    s1 = attrs.get("first_order_indices")
    if s1 is not None and model is not None and model.analytic_s1 is not None:
        mae = _mae(np.nan_to_num(np.asarray(s1), nan=1.0), model.analytic_s1)
        precision = r.accuracy_precision * max(0.0, 1.0 - mae / max(epsilon, 1e-12))
    elif prev_obs is not None and prev_obs.estimator == obs.estimator:
        cur, prev = obs.primary_indices(), prev_obs.primary_indices()
        if cur is not None and prev is not None and len(cur) == len(prev):
            delta = float(np.max(np.abs(np.asarray(cur) - np.asarray(prev))))
            precision = r.accuracy_precision if delta <= r.convergence_tol else 0.0

    st = attrs.get("total_order_indices")
    sum_required = "first_order_indices" in required
    order_required = sum_required and "total_order_indices" in required
    if s1 is not None and not np.any(np.isnan(s1)):
        sum_ok = -0.1 <= float(np.sum(s1)) <= 1.1
    else:
        sum_ok = not sum_required            # vacuous only when not demanded
    if s1 is not None and st is not None and not (
            np.any(np.isnan(s1)) or np.any(np.isnan(st))):
        order_ok = bool(np.all(np.asarray(st) >= np.asarray(s1) - 0.05))
    else:
        order_ok = not order_required
    consistency = (r.accuracy_consistency_sum if sum_ok else 0.0) \
        + (r.accuracy_consistency_order if order_ok else 0.0)
    accuracy = precision + consistency

    # Details: deductions from a full score.
    rank_inversion = False
    ref = model.analytic_s1 if model is not None else None
    est_vec = obs.primary_indices()
    if ref is not None and est_vec is not None and len(est_vec) == len(ref) \
            and not np.any(np.isnan(est_vec)):
        rank_inversion = int(np.argmax(est_vec)) != int(np.argmax(ref))
    details = r.details_cap
    if obs.nan_count > 0:
        details -= r.nan_penalty
    if obs.negative_variance_flag:
        details -= r.negative_variance_penalty
    if rank_inversion:
        details -= r.rank_inversion_penalty
    details -= r.warning_penalty * len(unaddressed)
    details = max(0.0, details)

    # Optimality: evaluation thrift plus a runtime factor. With no runtime
    # baseline to compare against, the runtime factor is always 1: wall time
    # varies between runs and would make rewards irreproducible.
    if obs.evaluations_used > 0:
        eval_part = min(1.0, ms.n_min_value / obs.evaluations_used)
    else:
        eval_part = 0.0
    optimality = (r.optimality_budget_weight * eval_part
                  + r.optimality_runtime_weight) * r.optimality_cap

    return RewardBreakdown(integrity, accuracy, details, optimality,
                           criticals + tuple(w for w in unaddressed
                                             if w not in criticals),
                           rank_inversion)
