"""Cross-session archive backing warm-starts and anomaly recognition.

The file format is a versioned JSON object holding an entry list, ordered by
each entry's sequence stamp. Entries are immutable, so each one is encoded
once, on its first write, and its text is reused by every later write; the
file itself is still rewritten whole and atomically (temp file + rename), so
a crash never leaves a torn archive.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .config import DEFAULTS, Settings
from .errors import LoadError, PersistError
from .schemes import ProblemScheme

SCHEMA_VERSION = 1

_DIST_FAMILIES = ("Uniform", "Normal", "Other")


def problem_features(ps: ProblemScheme) -> tuple[float, ...]:
    """Normalized descriptor used for archive similarity."""
    ctx = ps.context
    hist = [0.0, 0.0, 0.0]
    for d in ctx.dist_family:
        hist[_DIST_FAMILIES.index(d if d in _DIST_FAMILIES else "Other")] += 1
    total = max(sum(hist), 1.0)
    hist = [h / total for h in hist]
    return (min(1.0, ctx.d_in / 20.0),
            min(1.0, ctx.d_out / 10.0),
            min(1.0, math.log10(max(ctx.n_budget, 1)) / 6.0),
            1.0 if ctx.task == "SA" else 0.0,
            1.0 if ctx.task == "UQ" else 0.0,
            *hist,
            1.0 if ps.has_dependence else 0.0,
            1.0 if ps.high_d_in_flag else 0.0,
            1.0 if ps.field_out_flag else 0.0)


@dataclass(frozen=True)
class ArmStats:
    count: int
    mean_reward: float
    phi: tuple[float, ...]         # feature vector replayed on warm-start
    feature_digest: str = ""


@dataclass(frozen=True)
class ArchiveEntry:
    """One finished (or seeded) session.

    ``timestamp`` is a sequence stamp, not a clock time: a new entry gets the
    previous last entry's stamp + 1 (0 in an empty archive), so entries sort
    in insertion order and archive bytes are reproducible. Files written with
    clock-time stamps load and sort unchanged.
    """

    session_id: str
    timestamp: float
    task: str
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


def similarity(current: ProblemScheme, entry: ArchiveEntry,
               settings: Settings = DEFAULTS) -> float:
    """Composite problem similarity in [0, 1]."""
    a = settings.archive
    f1 = np.asarray(problem_features(current))
    f2 = np.asarray(entry.problem_features)
    denom = float(np.linalg.norm(f1) * np.linalg.norm(f2))
    cos = float(f1 @ f2) / denom if denom > 0 else 0.0
    task_eq = 1.0 if current.context.task == entry.task else 0.0
    kernel = math.exp(-abs(current.context.d_in - entry.d_in)
                      / a.dim_kernel_width)
    score = a.feature_weight * cos + a.task_weight * task_eq \
        + a.dim_weight * kernel
    return min(1.0, max(0.0, score))


class Archive:
    def __init__(self, path: str | None = None,
                 settings: Settings = DEFAULTS):
        self.path = path
        self.settings = settings
        self.entries: list[ArchiveEntry] = []
        # id(entry) -> (entry, JSON text). Holding the entry keeps its id
        # from being reused, so a hit is always the same object, wherever
        # it now sits in self.entries.
        self._encoded: dict[int, tuple[ArchiveEntry, str]] = {}
        if path and os.path.exists(path):
            self.entries = _load_entries(path)

    def lookup(self, current: ProblemScheme
               ) -> tuple[ArchiveEntry | None, float]:
        """Best entry by composite similarity; ties go to the most recent."""
        best, best_sim = None, 0.0
        for entry in self.entries:   # sorted by timestamp, later wins ties
            sim = similarity(current, entry, self.settings)
            if best is None or sim >= best_sim:
                best, best_sim = entry, sim
        return (best, best_sim) if best is not None else (None, 0.0)

    def best_match(self, current: ProblemScheme) -> tuple[float, object]:
        entry, sim = self.lookup(current)
        return sim, entry

    def record_session(self, trace) -> ArchiveEntry:
        """Append an entry aggregated from a finished session and persist."""
        ps = trace.problem_scheme
        arms: dict[str, list[tuple[tuple[float, ...], float]]] = {}
        best_reward, best_action = 0.0, ()
        for rec in trace.records:
            est = rec.action.estimator
            arms.setdefault(est, []).append((rec.features, rec.reward_total))
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
            timestamp=self._next_stamp(),
            task=ps.context.task,
            d_in=ps.context.d_in,
            problem_features=problem_features(ps),
            best_action=tuple(best_action),
            best_reward=best_reward,
            per_arm_stats=tuple(per_arm),
            policy_snapshot=trace.policy_snapshot)
        return self._add(entry)

    def seed_entry(self, ps: ProblemScheme, action, mean_reward: float,
                   count: int = 3, session_id: str = "seed") -> ArchiveEntry:
        """Insert a synthetic single-arm entry, e.g. to hand a fresh policy
        a known-good method for a previously solved problem."""
        from . import bandit   # local import keeps the module graph acyclic
        phi = bandit.encode_features(ps.context, action)
        entry = ArchiveEntry(
            session_id=session_id,
            timestamp=self._next_stamp(),
            task=ps.context.task,
            d_in=ps.context.d_in,
            problem_features=problem_features(ps),
            best_action=tuple(action.dims),
            best_reward=mean_reward,
            per_arm_stats=((action.estimator,
                            ArmStats(count=count, mean_reward=mean_reward,
                                     phi=tuple(phi.values))),))
        return self._add(entry)

    def _next_stamp(self) -> float:
        return self.entries[-1].timestamp + 1.0 if self.entries else 0.0

    def _add(self, entry: ArchiveEntry) -> ArchiveEntry:
        """Append and persist; a failed write leaves no trace of the entry."""
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.timestamp)
        if self.path:
            try:
                self.persist()
            except PersistError:
                self.entries[:] = [e for e in self.entries if e is not entry]
                self._encoded.pop(id(entry), None)
                raise
        return entry

    def persist(self) -> None:
        """Atomic rewrite: encode, write a temp file, then rename over.

        Only entries not written before are encoded; the rest reuse their
        cached text. The bytes equal ``json.dump(payload, fh,
        sort_keys=True)`` of the whole payload.
        """
        encoded, parts = {}, []
        for e in self.entries:
            hit = self._encoded.get(id(e))
            text = hit[1] if hit is not None else _entry_to_json(e)
            encoded[id(e)] = (e, text)
            parts.append(text)
        self._encoded = encoded
        text = '{"entries": [%s], "schema_version": %d}' % (
            ", ".join(parts), SCHEMA_VERSION)
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


def _entry_to_json(entry: ArchiveEntry) -> str:
    """One entry as JSON text, keys sorted, via the C encoder."""
    data = {f.name: getattr(entry, f.name) for f in fields(entry)}
    data["per_arm_stats"] = [
        [est, {f.name: getattr(stats, f.name) for f in fields(stats)}]
        for est, stats in entry.per_arm_stats]
    return json.dumps(data, sort_keys=True)


def _load_entries(path: str) -> list[ArchiveEntry]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise LoadError(f"unsupported archive schema in {path}")
        entries = []
        for raw in payload["entries"]:
            arms = tuple((est, ArmStats(count=int(s["count"]),
                                        mean_reward=float(s["mean_reward"]),
                                        phi=tuple(s["phi"]),
                                        feature_digest=s.get("feature_digest",
                                                             "")))
                         for est, s in raw["per_arm_stats"])
            entries.append(ArchiveEntry(
                session_id=raw["session_id"],
                timestamp=float(raw["timestamp"]),
                task=raw["task"],
                d_in=int(raw["d_in"]),
                problem_features=tuple(raw["problem_features"]),
                best_action=tuple(raw["best_action"]),
                best_reward=float(raw["best_reward"]),
                per_arm_stats=arms,
                policy_snapshot=raw.get("policy_snapshot")))
        entries.sort(key=lambda e: e.timestamp)
        return entries
    except LoadError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise LoadError(f"cannot load archive {path}: {exc}") from exc
