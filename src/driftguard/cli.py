"""Command-line entry point.

Subcommands: ``run`` (one session), ``ablate`` (condition suite over seeds),
``sessions`` (consecutive sessions sharing an archive and a persisted
policy).  Every command takes the same path: config -> ``_archive_for`` ->
``run_session`` -> ``write_trace`` -> the command's summary or table, so
each session leaves a ``<session_id>.trace.jsonl``.  Configuration is a
single JSON document; every command is reproducible from (config, seeds).
A config and each of its nested blocks hold only the keys ``_KEYS`` lists
for them; any other key (a typo, or a ``settings`` block) is a bad
configuration.  Tunables are not configurable: each is a constant in the
module that uses it, and ``checkpoint_overrides`` may only switch gates off.

Exit codes: 0 converged or budget exhausted, 1 bad configuration,
2 session aborted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import fields

from . import action_space
from .agents import DriftSpec
from .archive import Archive
from .errors import ConfigError, DriftguardError, InvalidProblem
from .estimators import benchmark_catalog
from .pipeline import SessionConfig, SessionTrace, run_session, write_trace
from .schemes import build_problem_scheme

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_ABORTED = 2

SESSION_COLUMNS = ("session_id", "seed", "outcome", "best_reward",
                   "iterations_to_best", "iterations_to_converge",
                   "best_estimator", "cp0_match", "cp0_similarity",
                   "cp0_mode", "cp0_screening_first")
ABLATION_COLUMNS = ("condition", "seed", "outcome", "mismatch_count",
                    "n_iterations", "best_reward", "first_reward",
                    "iterations_to_converge", "cp_failure_events")

# The keys a config and each of its nested blocks may hold; any other is a
# bad configuration. A config holds the session settings, the fields of
# ``SessionConfig``, plus the command-level keys; ``problem`` holds the keys
# intake reads.
_KEYS = {
    "config": frozenset(f.name for f in fields(SessionConfig)) | {
        "seeds", "archive_path", "warm_start", "output_name", "conditions",
        "sessions"},
    "problem": frozenset({"task", "d_in", "d_out", "n_budget", "epsilon",
                          "model_id", "dist_family"}),
    "drift": frozenset(f.name for f in fields(DriftSpec)),
    "warm_start": frozenset({"estimator", "mean_reward", "count"}),
    "condition": frozenset({"name", "checkpoint_overrides", "drift"}),
}
# The archive is built once per command from the top-level block, so a
# ``sessions`` entry may not say where it lives or what it starts with.
_KEYS["session"] = _KEYS["config"] - {"archive_path", "warm_start"}


def _check_keys(block: str, doc) -> None:
    """Reject a ``block`` that is not a JSON object or holds a key that
    ``_KEYS[block]`` does not list."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{block} must be a JSON object")
    unknown = sorted(set(doc) - _KEYS[block])
    if unknown:
        raise ConfigError(f"a {block} block may not hold {', '.join(unknown)}")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _drift_from(doc: dict | None) -> DriftSpec:
    if not doc:
        return DriftSpec()
    _check_keys("drift", doc)
    try:
        return DriftSpec(**doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad drift spec: {exc}") from exc


def _session_config(doc: dict, seed_override: int | None) -> SessionConfig:
    """The session settings ``doc`` states, passed through as they are;
    ``SessionConfig`` supplies the defaults and checks the types."""
    _check_keys("config", doc)
    if "problem" not in doc:
        raise ConfigError("config lacks a 'problem' object")
    _check_keys("problem", doc["problem"])
    model_id = doc["problem"].get("model_id", "")
    if not isinstance(model_id, (str, type(None))) or \
            (model_id and model_id not in benchmark_catalog()):
        raise ConfigError(f"unknown problem model {model_id!r}")
    settings = {f.name: doc[f.name] for f in fields(SessionConfig)
                if f.name in doc}
    if "drift" in doc:
        settings["drift"] = _drift_from(doc["drift"])
    if seed_override is not None:
        settings["seed"] = seed_override
    try:
        return SessionConfig(**settings)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad session config: {exc}") from exc


def _archive_for(doc: dict, cfg: SessionConfig) -> Archive | None:
    """The archive of the config's top-level ``archive_path``, pre-seeded
    with one arm of ``cfg``'s problem when ``warm_start`` is set; None when
    neither is.  The only place an archive is built from a config."""
    path, warm = doc.get("archive_path"), doc.get("warm_start")
    if not isinstance(path, (str, type(None))):
        raise ConfigError("archive_path must be a string")
    archive = Archive(path) if path or warm else None
    if warm:
        _check_keys("warm_start", warm)
        try:
            estimator, mean_reward = warm["estimator"], warm["mean_reward"]
        except KeyError as exc:
            raise ConfigError(f"bad warm_start block: no {exc}") from exc
        count = warm.get("count", 3)
        if type(mean_reward) not in (int, float) or type(count) is not int:
            raise ConfigError("bad warm_start block: mean_reward must be a "
                              "number and count an integer")
        # NaN fails the comparison; so do infinities and integers too large
        # for a float.
        if not abs(mean_reward) <= sys.float_info.max or count < 1:
            raise ConfigError("bad warm_start block: mean_reward must be "
                              "finite and count at least 1")
        try:
            ps = build_problem_scheme(cfg.problem)
        except InvalidProblem:
            return archive   # intake rejects the problem: the session aborts
        arm = next((a for a in action_space.filter_feasible(ps)
                    if a.estimator == estimator), None)
        if arm is None:
            raise ConfigError(f"bad warm_start block: no feasible action "
                              f"runs {estimator!r}")
        archive.seed_entry(ps, arm, mean_reward=float(mean_reward),
                           count=count)
    return archive


def _output_name(doc: dict, default: str) -> str:
    name = doc.get("output_name", default)
    if not isinstance(name, str):
        raise ConfigError("output_name must be a string")
    return name


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _trace_summary(trace: SessionTrace) -> dict:
    best = max(trace.records, key=lambda r: r.reward_total, default=None)
    cp_counts: dict[str, int] = {}
    for rec in trace.records:
        for e in rec.checkpoint_events:
            key = f"{e.cp_id}_{e.verdict}"
            cp_counts[key] = cp_counts.get(key, 0) + 1
    return {"session_id": trace.session_id,
            "outcome": trace.outcome,
            "best_reward": trace.best_reward,
            "best_estimator": best.action.estimator if best else None,
            "iterations": len(trace.records),
            "iterations_to_converge": trace.iterations_to_converge,
            "mismatches": sum(1 for r in trace.records if r.mismatch),
            "checkpoint_events": dict(sorted(cp_counts.items())),
            "cp0": {"match": trace.cp0.match,
                    "similarity": trace.cp0.similarity,
                    "exploration_mode": trace.cp0.exploration_mode,
                    "screening_first": trace.cp0.screening_first},
            "abort_reason": trace.abort_reason}


def _run(cfg: SessionConfig, archive: Archive | None,
         out: str) -> SessionTrace:
    """Run one session and write ``<session_id>.trace.jsonl`` under
    ``out``."""
    trace = run_session(cfg, archive=archive)
    write_trace(trace, os.path.join(out, f"{cfg.session_id}.trace.jsonl"))
    return trace


def _write_table(path: str, columns: tuple[str, ...], rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


def cmd_run(args) -> int:
    doc = _load_config(args.config)
    cfg = _session_config(doc, args.seed_override)
    out = _out_dir(args)
    trace = _run(cfg, _archive_for(doc, cfg), out)
    summary = _trace_summary(trace)
    with open(os.path.join(out, f"{cfg.session_id}.summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _say(args, f"{trace.outcome}: best reward "
               f"{trace.best_reward:.1f} in {len(trace.records)} iterations "
               f"-> {os.path.join(out, cfg.session_id)}.trace.jsonl")
    return EXIT_ABORTED if trace.outcome == "aborted" else EXIT_OK


def cmd_ablate(args) -> int:
    """Each (condition, seed) runs on its own fresh archive from
    ``_archive_for``, so a warm start seeds every session alike. An
    ``archive_path`` would chain the runs through one file, so it is a bad
    configuration here."""
    doc = _load_config(args.config)
    if "archive_path" in doc:
        raise ConfigError("ablate runs every session on a fresh archive; "
                          "it does not take an archive_path")
    base_cfg = _session_config(doc, None)
    seeds = [args.seed_override] if args.seed_override is not None \
        else doc.get("seeds", [base_cfg.seed])
    if not isinstance(seeds, list):
        raise ConfigError("seeds must be a list")
    conditions = doc.get("conditions", [])
    if not isinstance(conditions, list):
        raise ConfigError("conditions must be a list")
    # A condition states its own drift and gate switches; what it leaves
    # out takes the SessionConfig default, not the top level's value.
    shared = {k: v for k, v in doc.items()
              if k not in ("drift", "checkpoint_overrides")}
    runs = []
    for cond in conditions:
        _check_keys("condition", cond)
        if "name" not in cond:
            raise ConfigError("bad condition: no 'name'")
        name = cond["name"]
        own = {k: v for k, v in cond.items() if k != "name"}
        runs += [(name, _session_config(
            {**shared, **own, "seed": seed,
             "session_id": f"{base_cfg.session_id}-{name}-s{seed}"}, None))
            for seed in seeds]
    out = _out_dir(args)
    table = os.path.join(out, _output_name(doc, "ablation") + ".csv")
    rows, aborted = [], False
    for name, cfg in runs:
        trace = _run(cfg, _archive_for(doc, cfg), out)
        aborted = aborted or trace.outcome == "aborted"
        row = {"condition": name, "seed": cfg.seed,
               "outcome": trace.outcome,
               "mismatch_count": sum(1 for r in trace.records
                                     if r.mismatch),
               "n_iterations": len(trace.records),
               "best_reward": round(trace.best_reward, 2),
               "first_reward": round(trace.records[0].reward_total, 2)
               if trace.records else 0.0,
               "iterations_to_converge": trace.iterations_to_converge,
               "cp_failure_events": sum(1 for r in trace.records
                                        for e in r.checkpoint_events
                                        if e.verdict != "pass")}
        rows.append(row)
        _say(args, f"{name} seed {cfg.seed}: {trace.outcome}, mismatches "
                   f"{row['mismatch_count']}, best {row['best_reward']}")
    _write_table(table, ABLATION_COLUMNS, rows)
    _say(args, f"wrote {table}")
    return EXIT_ABORTED if aborted else EXIT_OK


def cmd_sessions(args) -> int:
    doc = _load_config(args.config)
    session_docs = doc.get("sessions")
    if not session_docs or not isinstance(session_docs, list):
        raise ConfigError("sessions command needs a non-empty 'sessions' "
                          "list")
    shared = {k: v for k, v in doc.items() if k != "sessions"}
    cfgs = []
    for k, sdoc in enumerate(session_docs, start=1):
        _check_keys("session", sdoc)
        merged = {**shared, **sdoc}
        merged.setdefault("session_id", f"session-{k}")
        merged.setdefault("persist_policy", True)
        cfgs.append(_session_config(merged, args.seed_override))
    out = _out_dir(args)
    table = os.path.join(out, _output_name(doc, "sessions") + ".csv")
    archive = _archive_for(doc, cfgs[0]) or Archive()
    rows, aborted = [], False
    for cfg in cfgs:
        trace = _run(cfg, archive, out)
        aborted = aborted or trace.outcome == "aborted"
        best = max(trace.records, key=lambda r: r.reward_total, default=None)
        rows.append({"session_id": cfg.session_id, "seed": cfg.seed,
                     "outcome": trace.outcome,
                     "best_reward": round(trace.best_reward, 2),
                     "iterations_to_best": best.n if best else None,
                     "iterations_to_converge": trace.iterations_to_converge,
                     "best_estimator": best.action.estimator if best
                     else None,
                     "cp0_match": trace.cp0.match,
                     "cp0_similarity": round(trace.cp0.similarity, 3),
                     "cp0_mode": trace.cp0.exploration_mode,
                     "cp0_screening_first": trace.cp0.screening_first})
        _say(args, f"{cfg.session_id}: {trace.outcome}, best "
                   f"{trace.best_reward:.1f}, cp0 {trace.cp0.match}/"
                   f"{trace.cp0.exploration_mode}")
    _write_table(table, SESSION_COLUMNS, rows)
    _say(args, f"wrote {table}")
    return EXIT_ABORTED if aborted else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged,
    so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="driftguard",
        description="Checkpoint-guarded sensitivity-analysis orchestrator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", cmd_run), ("ablate", cmd_ablate),
                          ("sessions", cmd_sessions)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
        p.add_argument("--out", help="output directory (default: .)")
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DriftguardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
