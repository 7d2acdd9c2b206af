"""Cross-session archive backing warm-starts and anomaly recognition.

Each entry stores its problem, and the archive holds the latest entry per
problem key ``(problem_features, d_in)``. The key is all that ``similarity``
reads, and a lookup returns the most recent of equally similar entries, so
an entry with a later twin could never be returned: recording a session
replaces its problem's entry, and the list order is recency order.

The file is a versioned JSON object (schema 4) holding that list. Loading
rebuilds each problem, arm and policy snapshot through its own constructor,
which checks it; a file of any other schema, or with a record its
constructor refuses, is rejected with ``LoadError``. Entries are immutable
and each encodes itself once, on its first write; the file itself is still
rewritten whole and atomically (temp file + rename), so a crash never leaves
a torn archive.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import bandit, catalog
from .errors import DriftguardError, LoadError, PersistError
from .schemes import DIST_FAMILIES, ProblemScheme, check_field_types, to_json

SCHEMA_VERSION = 4

# Weights of the composite similarity: feature cosine, task match and a
# kernel on the input-dimension gap.
_FEATURE_WEIGHT = 0.5
_TASK_WEIGHT = 0.3
_DIM_WEIGHT = 0.2
_DIM_KERNEL_WIDTH = 4.0


def problem_features(ps: ProblemScheme) -> tuple[float, ...]:
    """Normalized descriptor used for archive similarity.  Three slots are
    constants; dropping them would change every descriptor's cosine."""
    hist = [0.0] * len(DIST_FAMILIES)
    for d in ps.dist_family:
        hist[DIST_FAMILIES.index(d)] += 1
    total = max(sum(hist), 1.0)
    return (*ps.scaled_sizes,
            1.0,                # task: every problem is SA
            *(h / total for h in hist),
            0.0,                # dependent inputs: none
            1.0 if ps.d_in >= catalog.SCREENING_DIM_THRESHOLD else 0.0,
            0.0)                # field output: none


@dataclass(frozen=True)
class ArmStats:
    count: int
    mean_reward: float
    phi: tuple                     # feature vector replayed on warm-start

    def __post_init__(self):
        check_field_types(self)
        # NaN fails isfinite; a non-number raises TypeError.
        if self.count < 1 or len(self.phi) != bandit.feature_dim() or not \
                all(map(math.isfinite, (self.mean_reward, *self.phi))):
            raise ValueError("an arm needs a count of at least 1, a finite "
                             "mean reward and finite features of the "
                             "policy's dimension")


@dataclass(frozen=True)
class ArchiveEntry:
    """One finished (or seeded) session."""

    session_id: str
    problem: ProblemScheme
    per_arm_stats: tuple               # (estimator, ArmStats) pairs
    policy_snapshot: dict | None = None

    def __post_init__(self):
        check_field_types(self)

    @functools.cached_property
    def json_text(self) -> str:
        """The entry as JSON text, computed on the first write and reused
        by every later one."""
        return to_json(self)


def similarity(a: ProblemScheme, b: ProblemScheme) -> float:
    """Composite similarity of two problems in [0, 1]. Every problem is an
    SA study, so the task term always adds its full weight."""
    f1 = np.asarray(problem_features(a))
    f2 = np.asarray(problem_features(b))
    denom = float(np.linalg.norm(f1) * np.linalg.norm(f2))
    cos = float(f1 @ f2) / denom if denom > 0 else 0.0
    kernel = math.exp(-abs(a.d_in - b.d_in) / _DIM_KERNEL_WIDTH)
    score = _FEATURE_WEIGHT * cos + _TASK_WEIGHT + _DIM_WEIGHT * kernel
    return min(1.0, max(0.0, score))


class Archive:
    def __init__(self, path: str | None = None):
        self.path = path
        self.entries: list[ArchiveEntry] = []
        if path and os.path.exists(path):
            self.entries = _load_entries(path)

    def lookup(self, current: ProblemScheme
               ) -> tuple[ArchiveEntry | None, float]:
        """Best entry by composite similarity; ties go to the most recent."""
        best, best_sim = None, 0.0
        for entry in self.entries:   # recency order, later wins ties
            sim = similarity(current, entry.problem)
            if best is None or sim >= best_sim:
                best, best_sim = entry, sim
        return best, best_sim

    def record_session(self, trace) -> ArchiveEntry | None:
        """Store an entry aggregated from a finished session and persist.

        Only the iterations the policy learned from count: the policy saw
        no reward of a failed record. A session without
        such an iteration has nothing to store, so it records and persists
        nothing and returns None; its problem's entry stays as it was."""
        learned = [r for r in trace.records if not r.failed]
        if not learned:
            return None
        ps = trace.problem_scheme
        arms: dict[str, list[tuple[tuple[float, ...], float]]] = {}
        for rec in learned:
            arms.setdefault(rec.method.estimator, []).append(
                (bandit.encode_features(ps, rec.method.action),
                 rec.reward_total))
        per_arm = []
        for est, obs_list in sorted(arms.items()):
            phis = np.asarray([phi for phi, _ in obs_list], dtype=float)
            rewards = [r for _, r in obs_list]
            per_arm.append((est, ArmStats(
                count=len(obs_list),
                mean_reward=float(np.mean(rewards)),
                phi=tuple(float(v) for v in phis.mean(axis=0)))))
        return self._add(ArchiveEntry(
            session_id=trace.session_id, problem=ps,
            per_arm_stats=tuple(per_arm),
            policy_snapshot=trace.policy_snapshot))

    def seed_entry(self, ps: ProblemScheme, action, mean_reward: float,
                   count: int, session_id: str = "seed") -> ArchiveEntry:
        """Insert a synthetic single-arm entry, e.g. to hand a fresh policy
        a known-good method for a previously solved problem."""
        stats = ArmStats(count=count, mean_reward=mean_reward,
                         phi=bandit.encode_features(ps, action))
        return self._add(ArchiveEntry(
            session_id=session_id, problem=ps,
            per_arm_stats=((action.estimator, stats),)))

    def _add(self, entry: ArchiveEntry) -> ArchiveEntry:
        """Replace the entry of the same problem, append and persist; a
        failed write restores the previous list, replaced entry included."""
        key = problem_features(entry.problem), entry.problem.d_in
        previous = self.entries
        self.entries = [e for e in previous if key != (
            problem_features(e.problem), e.problem.d_in)]
        self.entries.append(entry)
        if self.path:
            try:
                self.persist()
            except PersistError:
                self.entries = previous
                raise
        return entry

    def persist(self) -> None:
        """Atomic rewrite: encode, write a temp file, then rename over.

        The bytes equal ``json.dump(payload, fh, sort_keys=True)`` of the
        whole payload; each entry's text is its cached ``json_text``.
        """
        text = '{"entries": [%s], "schema_version": %d}' % (
            ", ".join(e.json_text for e in self.entries), SCHEMA_VERSION)
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self.path)
        except OSError as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise PersistError(f"archive write failed: {exc}") from exc


def _tuple_arrays(obj: dict) -> dict:
    """A JSON object with its array values as tuples, as the records
    annotate their sequence fields."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}


def _load_entries(path: str) -> list[ArchiveEntry]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, object_hook=_tuple_arrays)
        if not isinstance(payload, dict) \
                or payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported archive schema")
        entries = []
        for raw in payload["entries"]:
            arms = tuple((est, ArmStats(**s))
                         for est, s in raw["per_arm_stats"])
            snapshot = raw["policy_snapshot"]
            if snapshot:
                bandit.PolicyState.from_snapshot(snapshot)   # checks it
            entries.append(ArchiveEntry(
                session_id=raw["session_id"],
                problem=ProblemScheme(**raw["problem"]),
                per_arm_stats=arms, policy_snapshot=snapshot))
        return entries
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            DriftguardError) as exc:
        raise LoadError(f"cannot load archive {path}: {exc}") from exc
