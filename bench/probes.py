"""Wrappers that the benchmark installs around driftguard's public
functions, from outside the package: ``src/`` is never edited.

Two hooks are always on, because the end-to-end metrics and the output
checks need them: a clock on ``pipeline.run_session`` (one read per session)
and a counter on ``agents.execution_runner`` (one per executed plan). Just
before and after each session the clock also times ``reference_kernel``,
so that the end-to-end timings can be taken at a fixed host speed. A
traced pass adds a span around every function in ``SPANNED`` and a counter
on every function in ``COUNTED``. A span is (name, start, end, parent span,
session id); spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

ESTIMATORS = ("sobol_saltelli", "chatterjee", "cvm", "morris",
              "pce_sa_simulated", "generalized_sobol_simulated")

# (span name, module, class or "", attribute)
SPANNED = tuple(
    [(f"estimators.{fn}", "estimators", "", fn) for fn in ESTIMATORS] + [
        ("embedding.calibrate_null", "embedding", "", "calibrate_null"),
        ("embedding.similarity", "embedding", "", "similarity"),
        ("embedding.embed", "embedding", "", "embed"),
        ("checkpoints.evaluate", "checkpoints", "CheckpointManager",
         "evaluate"),
        ("checkpoints.evaluate_cp0", "checkpoints", "CheckpointManager",
         "evaluate_cp0"),
        ("bandit.select_action", "bandit", "", "select_action"),
        ("reward.score", "reward", "", "score"),
        ("schemes.build_diagnostic_scheme", "schemes", "",
         "build_diagnostic_scheme"),
        ("action_space.filter_feasible", "action_space", "",
         "filter_feasible"),
        ("archive.Archive.persist", "archive", "Archive", "persist"),
        ("archive.Archive.lookup", "archive", "Archive", "lookup"),
        ("pipeline.write_trace", "pipeline", "", "write_trace"),
    ])

# Called too often, or too cheap, for a span: counted only.
COUNTED = (
    ("estimators.transform", "estimators", "BenchmarkModel", "transform"),
    ("pipeline.run_iteration", "pipeline", "", "run_iteration"),
    ("agents.debugger_fix", "agents", "", "debugger_fix"),
    ("agents.refactor_agent", "agents", "", "refactor_agent"),
)

# Modules whose self time is reported as a layer. ``metrics`` and ``simenv``
# are post-hoc analysis and a test environment; no CLI run reaches them.
LAYERS = ("estimators", "embedding", "checkpoints", "bandit", "agents",
          "reward", "schemes", "action_space", "archive", "pipeline")

REAL_ESTIMATORS = ("Sobol", "Morris", "Chatterjee", "CVM")


_REFERENCE_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_REFERENCE_DOC = {f"k{i}": [i, i * 0.5, str(i)] for i in range(150)}


def reference_kernel() -> float:
    """Seconds for a fixed piece of work, about a millisecond, of the kinds
    driftguard spends its time on: JSON encoding, hashing, small matrix
    products and sorting. Nothing in driftguard changes its cost, so its
    time measures only how fast the host runs at that moment."""
    a = _REFERENCE_MATRIX
    start = time.perf_counter()
    for _ in range(4):
        text = json.dumps(_REFERENCE_DOC, sort_keys=True)
        hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        a = np.tanh(a @ a.T / 48.0)
        sorted(_REFERENCE_DOC, key=lambda k: (len(k), k))
    return time.perf_counter() - start


def _replace(module: str, owner: str, attr: str, make_wrapper) -> None:
    """Swap ``attr`` for its wrapper on the class, or on every driftguard
    module that bound the function by name (``from .x import f``)."""
    mod = sys.modules[f"driftguard.{module}"]
    if owner:
        cls = getattr(mod, owner)
        setattr(cls, attr, make_wrapper(vars(cls)[attr]))
        return
    original = getattr(mod, attr)
    wrapped = make_wrapper(original)
    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] != "driftguard":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


class Recorder:
    """Session clock, evaluation counter and (when traced) span recorder."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list = []
        self.counts: Counter = Counter()
        self.sessions: list[dict] = []
        self.estimates: list[dict] = []   # real estimators on g_function_15d
        self.texts: set = set()
        self._stack: list[int] = []
        self._session: str | None = None
        self._budget = 0

    # -- wrapping -------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._session])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, after=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.traced:
                    out = fn(*args, **kwargs)
                else:
                    index = self._open(name)
                    try:
                        out = fn(*args, **kwargs)
                    finally:
                        self._close(index)
                if after is not None:
                    after(out, *args, **kwargs)
                return out
            return wrapper
        return make

    def _counted(self, name: str, after=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.counts[f"{name}.calls"] += 1
                if after is not None:
                    after(out, *args, **kwargs)
                return out
            return wrapper
        return make

    def install(self) -> None:
        """Wrap the package's functions; call after importing driftguard."""
        _replace("pipeline", "", "run_session", self._session_clock)
        _replace("agents", "", "execution_runner",
                 self._spanned("agents.execution_runner",
                               self._after_execution))
        if not self.traced:
            return
        after = {"embedding.embed": self._after_embed,
                 "checkpoints.evaluate": self._after_checkpoint,
                 "archive.Archive.persist": self._after_persist,
                 "pipeline.write_trace": self._after_write_trace}
        for name, module, owner, attr in SPANNED:
            hook = after.get(name)
            if name.startswith("estimators."):
                hook = functools.partial(self._after_estimator, name)
            _replace(module, owner, attr, self._spanned(name, hook))
        rows = {"estimators.transform": self._after_transform}
        for name, module, owner, attr in COUNTED:
            _replace(module, owner, attr, self._counted(name, rows.get(name)))

    def _session_clock(self, fn):
        @functools.wraps(fn)
        def wrapper(cfg, *args, **kwargs):
            before = reference_kernel()
            self._session = cfg.session_id
            self._budget = int(cfg.problem.get("n_budget", 0))
            index = self._open("pipeline.run_session") if self.traced else -1
            start = time.perf_counter()
            try:
                trace = fn(cfg, *args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                if self.traced:
                    self._close(index)
                self._session = None
            after = reference_kernel()
            self.sessions.append({"id": cfg.session_id, "seconds": seconds,
                                  "reference_s": (before + after) / 2,
                                  "outcome": trace.outcome})
            return trace
        return wrapper

    # -- per-call bookkeeping --------------------------------------------

    def _after_execution(self, result, plan, *args, **kwargs):
        self.counts["model_evals"] += result.evaluations_used
        if result.evaluations_used > self._budget:
            self.counts["agents.over_budget.count"] += 1
        if plan.model_id == "g_function_15d" \
                and result.estimator in REAL_ESTIMATORS:
            indices = result.primary_indices() or ()
            self.estimates.append({
                "session": self._session, "estimator": result.estimator,
                "nan_count": result.nan_count,
                "largest_input": max(range(len(indices)),
                                     key=indices.__getitem__,
                                     default=None)})

    def _after_estimator(self, name, result, *args, **kwargs):
        self.counts[f"{name}.evals"] += result.evaluations_used

    def _after_transform(self, out, model, u):
        self.counts["estimators.transform.rows"] += len(u)

    def _after_embed(self, out, text):
        self.texts.add(text)

    def _after_checkpoint(self, result, *args, **kwargs):
        if result.verdict != "pass":
            self.counts["checkpoints.blocked_or_warned"] += 1

    def _after_persist(self, out, archive):
        self.counts["archive.Archive.persist.bytes"] += \
            os.path.getsize(archive.path)
        self.counts["archive.entries"] = len(archive.entries)

    def _after_write_trace(self, out, trace, path):
        self.counts["pipeline.write_trace.bytes"] += os.path.getsize(path)

    # -- summaries ---------------------------------------------------------

    def span_totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds (the span
        minus the time its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0,
                                             "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of a traced pass, by their benchmark
        names; a function that never ran reads 0."""
        totals = self.span_totals()
        counts = self.counts

        def span(name):
            return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        evals = seconds = 0.0
        for fn in ESTIMATORS:
            name = f"estimators.{fn}"
            out[f"{name}.s"] = span(name)["s"]
            out[f"{name}.calls"] = span(name)["calls"]
            out[f"{name}.evals"] = counts[f"{name}.evals"]
            evals += counts[f"{name}.evals"]
            seconds += span(name)["s"]
        out["estimators.evals_per_s"] = ratio(evals, seconds)
        out["estimators.transform.calls"] = counts["estimators.transform.calls"]
        out["estimators.transform.rows"] = counts["estimators.transform.rows"]
        out["estimators.rows_per_transform"] = ratio(
            counts["estimators.transform.rows"],
            counts["estimators.transform.calls"])
        for name in ("embedding.calibrate_null", "embedding.similarity",
                     "embedding.embed", "checkpoints.evaluate",
                     "bandit.select_action", "agents.execution_runner",
                     "archive.Archive.persist", "archive.Archive.lookup",
                     "pipeline.write_trace"):
            out[f"{name}.s"] = span(name)["s"]
            out[f"{name}.calls"] = span(name)["calls"]
        out["embedding.embed.distinct_ratio"] = ratio(
            len(self.texts), span("embedding.embed")["calls"])
        out["checkpoints.block_ratio"] = ratio(
            counts["checkpoints.blocked_or_warned"],
            span("checkpoints.evaluate")["calls"])
        out["checkpoints.evaluate_cp0.s"] = span("checkpoints.evaluate_cp0")["s"]
        out["bandit.reselect_ratio"] = ratio(
            span("bandit.select_action")["calls"],
            counts["pipeline.run_iteration.calls"])
        out["agents.debugger_fix.calls"] = counts["agents.debugger_fix.calls"]
        out["agents.refactor_agent.calls"] = \
            counts["agents.refactor_agent.calls"]
        out["agents.refactor_per_plan"] = ratio(
            counts["agents.refactor_agent.calls"],
            span("agents.execution_runner")["calls"])
        out["agents.over_budget.count"] = counts["agents.over_budget.count"]
        for name in ("reward.score", "schemes.build_diagnostic_scheme",
                     "action_space.filter_feasible"):
            out[f"{name}.s"] = span(name)["s"]
        out["archive.Archive.persist.bytes"] = \
            counts["archive.Archive.persist.bytes"]
        out["archive.entries"] = counts["archive.entries"]
        out["pipeline.run_session.self_s"] = span("pipeline.run_session")["self_s"]
        out["pipeline.write_trace.bytes"] = counts["pipeline.write_trace.bytes"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t["self_s"] for name, t in totals.items()
                if name.split(".")[0] == layer)
        return out
