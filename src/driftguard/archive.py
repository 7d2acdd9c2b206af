"""Cross-session archive backing warm-starts and anomaly recognition.

The archive holds the latest entry per problem key ``(problem_features,
d_in)``. Those two fields are all that ``similarity`` reads, and a lookup
returns the most recent of equally similar entries, so an entry with a
later twin could never be returned: recording a session replaces its
problem's entry, and the list order is recency order.

The file is a versioned JSON object (schema 3) holding that list; a file of
any other schema, or whose stored feature vectors or policy snapshot do not
match ``bandit.feature_dim()``, or whose problem features are not as long
as ``problem_features`` makes them, is rejected with ``LoadError``. Entries are
immutable and each encodes itself once, on its first write; the file itself
is still rewritten whole and atomically (temp file + rename), so a crash
never leaves a torn archive.
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
from .errors import LoadError, PersistError
from .schemes import DIST_FAMILIES, ProblemScheme, to_json

SCHEMA_VERSION = 3

# Weights of the composite similarity: feature cosine, task match and a
# kernel on the input-dimension gap.
_FEATURE_WEIGHT = 0.5
_TASK_WEIGHT = 0.3
_DIM_WEIGHT = 0.2
_DIM_KERNEL_WIDTH = 4.0


def problem_features(ps: ProblemScheme) -> tuple[float, ...]:
    """Normalized descriptor used for archive similarity.  Three slots are
    constants; schema 3 stores them, and dropping them would change every
    stored descriptor's cosine."""
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


_N_PROBLEM_FEATURES = 7 + len(DIST_FAMILIES)   # len(problem_features(ps))


@dataclass(frozen=True)
class ArmStats:
    count: int
    mean_reward: float
    phi: tuple[float, ...]         # feature vector replayed on warm-start


@dataclass(frozen=True)
class ArchiveEntry:
    """One finished (or seeded) session."""

    session_id: str
    d_in: int
    problem_features: tuple[float, ...]
    best_action: tuple[str, ...]
    best_reward: float
    per_arm_stats: tuple[tuple[str, ArmStats], ...]
    policy_snapshot: dict | None = None

    def arm_stats_list(self):
        """(phi, mean reward, count) triples for PolicyState.warm_start."""
        return [(stats.phi, stats.mean_reward, stats.count)
                for _, stats in self.per_arm_stats]

    @functools.cached_property
    def json_text(self) -> str:
        """The entry as JSON text, computed on the first write and reused
        by every later one."""
        return to_json(self)


def similarity(current: ProblemScheme, entry: ArchiveEntry) -> float:
    """Composite problem similarity in [0, 1]. Every entry is an SA study,
    as every problem is, so the task term always adds its full weight."""
    f1 = np.asarray(problem_features(current))
    f2 = np.asarray(entry.problem_features)
    denom = float(np.linalg.norm(f1) * np.linalg.norm(f2))
    cos = float(f1 @ f2) / denom if denom > 0 else 0.0
    kernel = math.exp(-abs(current.d_in - entry.d_in)
                      / _DIM_KERNEL_WIDTH)
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
            sim = similarity(current, entry)
            if best is None or sim >= best_sim:
                best, best_sim = entry, sim
        return (best, best_sim) if best is not None else (None, 0.0)

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
        best_reward, best_action = 0.0, ()
        for rec in learned:
            est = rec.action.estimator
            arms.setdefault(est, []).append(
                (bandit.encode_features(ps, rec.action), rec.reward_total))
            if rec.reward_total >= best_reward:
                best_reward, best_action = rec.reward_total, rec.action.dims
        per_arm = []
        for est, obs_list in sorted(arms.items()):
            phis = np.asarray([phi for phi, _ in obs_list], dtype=float)
            rewards = [r for _, r in obs_list]
            per_arm.append((est, ArmStats(
                count=len(obs_list),
                mean_reward=float(np.mean(rewards)),
                phi=tuple(float(v) for v in phis.mean(axis=0)))))
        entry = ArchiveEntry(
            session_id=trace.session_id,
            d_in=ps.d_in,
            problem_features=problem_features(ps),
            best_action=tuple(best_action),
            best_reward=best_reward,
            per_arm_stats=tuple(per_arm),
            policy_snapshot=trace.policy_snapshot)
        return self._add(entry)

    def seed_entry(self, ps: ProblemScheme, action, mean_reward: float,
                   count: int, session_id: str = "seed") -> ArchiveEntry:
        """Insert a synthetic single-arm entry, e.g. to hand a fresh policy
        a known-good method for a previously solved problem."""
        stats = ArmStats(count=count, mean_reward=mean_reward,
                         phi=bandit.encode_features(ps, action))
        entry = ArchiveEntry(
            session_id=session_id,
            d_in=ps.d_in,
            problem_features=problem_features(ps),
            best_action=tuple(action.dims),
            best_reward=mean_reward,
            per_arm_stats=((action.estimator, stats),))
        return self._add(entry)

    def _add(self, entry: ArchiveEntry) -> ArchiveEntry:
        """Replace the entry of the same problem, append and persist; a
        failed write restores the previous list, replaced entry included."""
        key = (entry.problem_features, entry.d_in)
        previous = self.entries
        self.entries = [e for e in previous
                        if (e.problem_features, e.d_in) != key]
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


def _load_entries(path: str) -> list[ArchiveEntry]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) \
                or payload.get("schema_version") != SCHEMA_VERSION:
            raise LoadError(f"unsupported archive schema in {path}")
        dim = bandit.feature_dim()
        entries = []
        for raw in payload["entries"]:
            arms = tuple((est, ArmStats(count=int(s["count"]),
                                        mean_reward=float(s["mean_reward"]),
                                        phi=tuple(s["phi"])))
                         for est, s in raw["per_arm_stats"])
            snapshot = raw.get("policy_snapshot")
            if any(len(s.phi) != dim for _, s in arms) or (snapshot and (
                    np.shape(snapshot["precision"]) != (dim, dim)
                    or np.shape(snapshot["b_vector"]) != (dim,))):
                raise LoadError(f"archive {path} holds features of another "
                                f"dimension than the policy's {dim}")
            if len(raw["problem_features"]) != _N_PROBLEM_FEATURES:
                raise LoadError(f"archive {path} holds problem features of "
                                f"another dimension than "
                                f"{_N_PROBLEM_FEATURES}")
            entries.append(ArchiveEntry(
                session_id=raw["session_id"],
                d_in=int(raw["d_in"]),
                problem_features=tuple(raw["problem_features"]),
                best_action=tuple(raw["best_action"]),
                best_reward=float(raw["best_reward"]),
                per_arm_stats=arms,
                policy_snapshot=snapshot))
        return entries
    except LoadError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise LoadError(f"cannot load archive {path}: {exc}") from exc
