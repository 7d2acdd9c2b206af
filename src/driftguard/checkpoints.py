"""Semantic checkpoints CP0-CP7: cosine gates with warmup thresholds.

Each checkpoint compares an embedding similarity against a threshold.  A
gate starts at its ``theta0`` in ``CHECKPOINT_TABLE``; once it has passed
``_WARMUP`` times its threshold is ``max(theta0, null floor)``, where the
null floor is the exact 95th percentile of the cosines of all pairs of
null-corpus lines (``embedding.calibrate_null``), the same for every
session.  The inverted novelty gate CP7 never counts its passes, so it
keeps ``theta0``.  The table is the only source of thresholds: a session
may only switch a gate off, and a switched-off gate passes unconditionally
and reports the threshold -1.

CP1 is intake: ``SessionConfig``'s typed admission of the problem, with no
cosine; a refusal aborts the session with ``coordinator failed: ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog

DISABLED = -1.0

# Passes a gate keeps its theta0 for.
_WARMUP = 3

# CP0 archive-match cutoffs: close warm-starts and exploits, weak (the CP0
# row's theta0) warm-starts at reduced weight.
CP0_CLOSE_CUTOFF = 0.90

#: cp_id -> (theta0, blocking, inverted, action_on_fail); a gate event
#: that did not pass names its action through this table
CHECKPOINT_TABLE = {
    "CP0": (0.70, False, False, "fresh_exploration"),
    # Never evaluated; the row stays only so overrides naming CP1 load.
    "CP1": (0.25, True, False, "abort_session"),
    "CP2": (0.30, True, False, "critic_reject"),
    "CP3": (0.30, False, False, "warn_study_agent"),
    "CP4": (0.35, True, False, "fail_iteration"),
    "CP5": (0.35, True, False, "inspector_reject"),
    "CP6": (0.30, False, False, "warn_advisor"),
    "CP7": (0.35, False, True, "warn_strategist"),
}


@dataclass(frozen=True)
class CheckpointResult:
    cp_id: str
    similarity: float
    threshold: float
    verdict: str                 # pass | block | warn
    # The Inspector's reasons when it blocks CP5; a cosine block has none.
    reasons: tuple[str, ...] = ()

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


class CheckpointManager:
    """The table's gates plus their pass counts."""

    def __init__(self, null_floor: float,
                 disabled: frozenset[str] = frozenset()):
        self.null_floor = null_floor
        self.disabled = disabled
        self.passes = dict.fromkeys(CHECKPOINT_TABLE, 0)

    def evaluate(self, cp_id: str, similarity: float) -> CheckpointResult:
        """Gate one similarity value; a pass of a non-inverted gate counts
        towards its warmup."""
        if cp_id in self.disabled:
            return CheckpointResult(cp_id, similarity, DISABLED, "pass")
        theta0, blocking, inverted, _ = CHECKPOINT_TABLE[cp_id]
        threshold = theta0 if self.passes[cp_id] < _WARMUP \
            else max(theta0, self.null_floor)
        if inverted:
            passed = similarity < threshold
        else:
            passed = similarity >= threshold
        if passed:
            if not inverted:
                self.passes[cp_id] += 1
            return CheckpointResult(cp_id, similarity, threshold, "pass")
        return CheckpointResult(cp_id, similarity, threshold,
                                "block" if blocking else "warn")

    def evaluate_cp0(self, ps, archive) -> CP0Result:
        """Match the new problem against the archive and pick an
        exploration mode (close -> exploit, weak -> neutral, else
        explore_max plus screening-first for high-dimensional inputs)."""
        best_entry, best_sim = None, 0.0
        if "CP0" not in self.disabled and archive is not None:
            best_entry, best_sim = archive.lookup(ps)
        if best_sim >= CP0_CLOSE_CUTOFF:
            match, mode = "close", "exploit"
        elif best_sim >= CHECKPOINT_TABLE["CP0"][0]:
            match, mode = "weak", "neutral"
        else:
            match, mode, best_entry = "none", "explore_max", None
        screening_first = (match == "none"
                           and ps.d_in
                           >= catalog.SCREENING_DIM_THRESHOLD)
        return CP0Result(best_sim, match, best_entry, mode, screening_first)
