"""Semantic checkpoints CP0-CP7: cosine gates with adaptive thresholds.

Each checkpoint compares an embedding similarity against a threshold that
starts at the initial value in ``CHECKPOINT_TABLE`` and adapts to the
observed, drift-free similarity distribution via an exponential moving
average.  The table is the only source of thresholds: a session may only
switch a gate off, which sets its threshold to -1 (unconditional pass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import catalog
from .embedding import NullDistribution

DISABLED = -1.0

# Adaptive thresholds.
_EMA_DECAY = 0.8
_WARMUP = 3
_CAP_BONUS = 0.10           # current never exceeds theta0 + cap_bonus
_STD_MULTIPLIER = 1.0
_NULL_QUANTILE = 0.95

# CP0 archive-match cutoffs: close warm-starts and exploits, weak
# warm-starts at reduced weight.
CP0_CLOSE_CUTOFF = 0.90
_CP0_WEAK_CUTOFF = 0.70

#: cp_id -> (theta0, theta_min, blocking, inverted, action_on_fail)
CHECKPOINT_TABLE = {
    "CP0": (0.70, 0.70, False, False, "fresh_exploration"),
    "CP1": (0.25, 0.15, True, False, "abort_session"),
    "CP2": (0.30, 0.20, True, False, "critic_reject"),
    "CP3": (0.30, 0.20, False, False, "warn_study_agent"),
    "CP4": (0.35, 0.25, True, False, "fail_iteration"),
    "CP5": (0.35, 0.25, True, False, "inspector_reject"),
    "CP6": (0.30, 0.20, False, False, "warn_advisor"),
    "CP7": (0.35, 0.25, False, True, "warn_strategist"),
}


@dataclass(frozen=True)
class CheckpointSpec:
    cp_id: str
    theta0: float
    theta_min: float
    blocking: bool
    inverted: bool
    action_on_fail: str

    @property
    def disabled(self) -> bool:
        return self.theta0 == DISABLED


@dataclass(frozen=True)
class CheckpointResult:
    cp_id: str
    similarity: float
    threshold: float
    verdict: str                 # pass | block | warn
    failure_action: str = ""     # "" on pass

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class CP0Result:
    similarity: float
    match: str                   # close | weak | none
    warm_start: object | None
    exploration_mode: str
    screening_first: bool


@dataclass
class AdaptiveThreshold:
    """EMA-tracked threshold for one checkpoint.

    Until ``warmup`` passing observations have accumulated the initial
    threshold is used verbatim.  After warmup the threshold is
    mean - k*std, clamped to [floor, theta0 + cap_bonus] where the floor is
    the larger of theta_min and the null-distribution's upper quantile.
    """

    spec: CheckpointSpec
    floor: float
    mean: float = 0.0
    var: float = 0.0
    count: int = 0

    def current(self) -> float:
        if self.count < _WARMUP:
            return self.spec.theta0
        value = self.mean - _STD_MULTIPLIER * math.sqrt(max(self.var, 0.0))
        ceiling = self.spec.theta0 + _CAP_BONUS
        # The floor is a safety invariant and dominates the cap: a gate may
        # never relax below the null distribution's upper quantile.
        return max(min(value, ceiling), self.floor)

    def observe(self, similarity: float) -> None:
        if self.count == 0:
            self.mean = similarity
            self.var = 0.0
        else:
            lam = _EMA_DECAY
            delta = similarity - self.mean
            self.mean = lam * self.mean + (1.0 - lam) * similarity
            self.var = lam * self.var + (1.0 - lam) * delta * delta
        self.count += 1


class CheckpointManager:
    """All eight gates plus their adaptive state."""

    def __init__(self, null_dist: NullDistribution,
                 disabled: frozenset[str] = frozenset()):
        self.specs: dict[str, CheckpointSpec] = {}
        self.state: dict[str, AdaptiveThreshold] = {}
        null_floor = null_dist.quantile(_NULL_QUANTILE)
        for cp_id, (t0, tmin, blocking, inverted, action) in CHECKPOINT_TABLE.items():
            theta0 = DISABLED if cp_id in disabled else t0
            spec = CheckpointSpec(cp_id, theta0, tmin, blocking, inverted, action)
            self.specs[cp_id] = spec
            self.state[cp_id] = AdaptiveThreshold(
                spec=spec, floor=max(tmin, null_floor))

    def evaluate(self, cp_id: str, similarity: float) -> CheckpointResult:
        """Gate one similarity value; adapts the threshold on passes."""
        spec = self.specs[cp_id]
        if spec.disabled:
            return CheckpointResult(cp_id, similarity, DISABLED, "pass")
        threshold = self.state[cp_id].current()
        if spec.inverted:
            passed = similarity < threshold
        else:
            passed = similarity >= threshold
        if passed and not spec.inverted:
            self.state[cp_id].observe(similarity)
        if passed:
            verdict, action = "pass", ""
        else:
            verdict = "block" if spec.blocking else "warn"
            action = spec.action_on_fail
        return CheckpointResult(cp_id, similarity, threshold, verdict,
                                action)

    def evaluate_cp0(self, ps, archive) -> CP0Result:
        """Match the new problem against the archive and pick an
        exploration mode (close -> exploit, weak -> neutral, else
        explore_max plus screening-first for high-dimensional inputs)."""
        spec = self.specs["CP0"]
        best_entry, best_sim = None, 0.0
        if not spec.disabled and archive is not None:
            best_entry, best_sim = archive.lookup(ps)
        if best_sim >= CP0_CLOSE_CUTOFF:
            match, mode = "close", "exploit"
        elif best_sim >= _CP0_WEAK_CUTOFF:
            match, mode = "weak", "neutral"
        else:
            match, mode, best_entry = "none", "explore_max", None
        screening_first = (match == "none"
                           and ps.context.d_in
                           >= catalog.SCREENING_DIM_THRESHOLD)
        return CP0Result(best_sim, match, best_entry, mode, screening_first)
