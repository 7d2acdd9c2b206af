"""Composite reward rubric scoring one iteration's observation.

Four capped components: integrity 35, accuracy 35, details 15,
optimality 15.  The score is computed against the method scheme that was
*decided*, so an execution that silently ran a different estimator loses the
integrity and accuracy mass tied to the scheme's required outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidReward
from .estimators import BenchmarkModel, SAResult
from .schemes import MethodScheme

# Sub-rubric splits inside the four capped components.
_INTEGRITY_EXECUTION = 20.0
_INTEGRITY_ATTRIBUTES = 10.0
_INTEGRITY_WARNINGS = 5.0
_ACCURACY_PRECISION = 20.0
_ACCURACY_CONSISTENCY_SUM = 8.0
_ACCURACY_CONSISTENCY_ORDER = 7.0
_DETAILS_CAP = 15.0
_OPTIMALITY_CAP = 15.0
_OPTIMALITY_BUDGET_WEIGHT = 0.6
_OPTIMALITY_RUNTIME_WEIGHT = 0.4
_NAN_PENALTY = 5.0
_NEGATIVE_VARIANCE_PENALTY = 5.0
_RANK_INVERSION_PENALTY = 3.0
_WARNING_PENALTY = 2.0
_CONVERGENCE_TOL = 1e-3     # |S_i^n - S_i^{n-1}| criterion


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
          prev_obs: SAResult | None = None) -> RewardBreakdown:
    """Score one observation against its decided method scheme.

    A crashed execution (obs None) zeroes everything but the warning list.
    Missing required attributes synthesize critical warnings, zero the
    execution sub-score, and void the vacuous-pass rule for consistency
    checks tied to those attributes.
    """
    if obs is None:
        return RewardBreakdown(0.0, 0.0, 0.0, 0.0, ("execution failed",))

    required = ms.info.bindings
    missing = tuple(a for a in required if getattr(obs, a) is None)
    criticals = tuple(f"missing required attribute {a}" for a in missing)
    unaddressed = tuple(obs.warnings) + criticals

    # Integrity: clean execution, attribute completeness, no critical flags.
    exec_pts = _INTEGRITY_EXECUTION if not missing else 0.0
    frac = 1.0 if not required else (len(required) - len(missing)) / len(required)
    attr_pts = _INTEGRITY_ATTRIBUTES * frac
    warn_pts = _INTEGRITY_WARNINGS if not criticals else 0.0
    integrity = exec_pts + attr_pts + warn_pts

    # Accuracy: precision against an analytic reference when one exists for
    # the produced index type, else binary self-convergence; plus structural
    # consistency of the index vectors.
    precision = 0.0
    s1 = obs.first_order_indices
    if s1 is not None and model is not None and model.analytic_s1 is not None:
        mae = _mae(np.nan_to_num(np.asarray(s1), nan=1.0), model.analytic_s1)
        precision = _ACCURACY_PRECISION * max(
            0.0, 1.0 - mae / max(epsilon, 1e-12))
    elif prev_obs is not None and prev_obs.estimator == obs.estimator:
        cur, prev = obs.primary_indices(), prev_obs.primary_indices()
        if cur is not None and prev is not None and len(cur) == len(prev):
            delta = float(np.max(np.abs(np.asarray(cur) - np.asarray(prev))))
            precision = _ACCURACY_PRECISION \
                if delta <= _CONVERGENCE_TOL else 0.0

    st = obs.total_order_indices
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
    consistency = (_ACCURACY_CONSISTENCY_SUM if sum_ok else 0.0) \
        + (_ACCURACY_CONSISTENCY_ORDER if order_ok else 0.0)
    accuracy = precision + consistency

    # Details: deductions from a full score.
    rank_inversion = False
    ref = model.analytic_s1 if model is not None else None
    est_vec = obs.primary_indices()
    if ref is not None and est_vec is not None and len(est_vec) == len(ref) \
            and not np.any(np.isnan(est_vec)):
        rank_inversion = int(np.argmax(est_vec)) != int(np.argmax(ref))
    details = _DETAILS_CAP
    if obs.nan_count > 0:
        details -= _NAN_PENALTY
    if obs.negative_variance_flag:
        details -= _NEGATIVE_VARIANCE_PENALTY
    if rank_inversion:
        details -= _RANK_INVERSION_PENALTY
    details -= _WARNING_PENALTY * len(unaddressed)
    details = max(0.0, details)

    # Optimality: evaluation thrift plus a runtime factor. With no runtime
    # baseline to compare against, the runtime factor is always 1: wall time
    # varies between runs and would make rewards irreproducible.
    if obs.evaluations_used > 0:
        eval_part = min(1.0, ms.n_min_value / obs.evaluations_used)
    else:
        eval_part = 0.0
    optimality = (_OPTIMALITY_BUDGET_WEIGHT * eval_part
                  + _OPTIMALITY_RUNTIME_WEIGHT) * _OPTIMALITY_CAP

    return RewardBreakdown(integrity, accuracy, details, optimality,
                           criticals + tuple(w for w in unaddressed
                                             if w not in criticals),
                           rank_inversion)
