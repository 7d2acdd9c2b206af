"""Command-line entry point.

Every command runs a slice of one experiment grid: a config expands into
cells, one per (condition, seed), each holding a chain of sessions that
share the cell's archive.  ``run`` is the 1 x 1 x 1 case, ``ablate`` is
conditions x seeds x 1 and ``sessions`` is 1 x 1 x K.  Each session goes
through ``run_session`` and ``write_trace``, so it leaves a
``<session_id>.trace.jsonl`` whose header holds the session's facts. ``run``
writes that header as its summary, and a table row holds the header's
unrounded values on the table's columns.
Configuration is a single JSON document; every command is reproducible from
(config, seeds).  ``_COMMANDS`` lists the keys each command's config may hold
and ``_KEYS`` those of each nested block; any other key (a typo, a ``settings``
block, a grid key the command does not run) is a bad configuration, as are a
repeated session id, an id or ``output_name`` that is not a plain file name,
an ``--out`` that is not a directory, and a mistyped problem field or an
unknown model, which ``SessionConfig`` refuses as it admits the problem.
Tunables are not configurable: each is a constant in its module, and
``checkpoint_overrides`` may only switch gates off.

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
from collections import Counter
from dataclasses import dataclass, fields

from . import action_space
from .agents import DriftSpec
from .archive import Archive
from .errors import ConfigError, DriftguardError
from .pipeline import SessionConfig, run_session, write_trace
from .schemes import ProblemScheme, check_field_types

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_ABORTED = 2

# Each table's columns: session facts, as ``write_trace`` returns them, and
# ``condition``, the name of the session's grid cell, which no trace holds.
SESSION_COLUMNS = ("session_id", "seed", "outcome", "best_reward",
                   "iterations_to_best", "iterations_to_converge",
                   "best_estimator", "cp0_match", "cp0_similarity",
                   "cp0_mode", "cp0_screening_first")
ABLATION_COLUMNS = ("condition", "seed", "outcome", "mismatch_count",
                    "n_iterations", "best_reward", "first_reward",
                    "iterations_to_converge", "cp_failure_events")


@dataclass(frozen=True)
class _WarmStart:
    """A ``warm_start`` block: the one arm of the first session's problem
    that a cell's archive is seeded with."""

    estimator: str
    mean_reward: float
    count: int = 3

    def __post_init__(self):
        check_field_types(self)
        # NaN fails the comparison; so do infinities.
        if not abs(self.mean_reward) <= sys.float_info.max or self.count < 1:
            raise ValueError("mean_reward must be finite and count at least 1")


# The keys each nested block may hold; any other is a bad configuration. A
# ``sessions`` entry holds only session settings, the fields of
# ``SessionConfig``; ``problem`` holds the fields of ``ProblemScheme`` and
# the task, the keys intake reads.
_KEYS = {
    "session": frozenset(f.name for f in fields(SessionConfig)),
    "problem": frozenset(f.name for f in fields(ProblemScheme)) | {"task"},
    "drift": frozenset(f.name for f in fields(DriftSpec)),
    "warm_start": frozenset(f.name for f in fields(_WarmStart)),
    "condition": frozenset({"name", "checkpoint_overrides", "drift"}),
}
# Per command: the keys its config may hold at the top level, the grid list
# it requires, and its output, a table's default name and columns or (None)
# a summary per session. Beside the session settings, ``archive_path`` and
# ``warm_start`` say what each cell's archive holds; ``conditions``,
# ``seeds`` and ``sessions`` are the grid's axes. An ablate condition states
# its own drift and gate switches, and each ablate cell runs on a fresh
# archive, so no file may chain them.
_COMMANDS = {
    "run": (_KEYS["session"] | {"archive_path", "warm_start"},
            None, None, ()),
    "ablate": ((_KEYS["session"] - {"drift", "checkpoint_overrides"})
               | {"warm_start", "conditions", "seeds", "output_name"},
               "conditions", "ablation", ABLATION_COLUMNS),
    "sessions": (_KEYS["session"] | {"archive_path", "warm_start",
                                     "sessions", "output_name"},
                 "sessions", "sessions", SESSION_COLUMNS),
}


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


def _record(block: str, cls, doc):
    """The ``cls`` record a ``block`` object states, or a ConfigError."""
    _check_keys(block, doc)
    try:
        return cls(**doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {block} block: {exc}") from exc


def _session_config(settings: dict) -> SessionConfig:
    """The session ``settings`` state, passed through as they are; the
    config supplies the defaults, checks them and admits the problem."""
    if "problem" not in settings:
        raise ConfigError("config lacks a 'problem' object")
    _check_keys("problem", settings["problem"])
    if "drift" in settings:   # ``{}`` states no drift
        settings["drift"] = _record("drift", DriftSpec, settings["drift"])
    return _record("session", SessionConfig, settings)


def _axis(doc: dict, key: str, default: list) -> list:
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list")
    return value


def _grid(command: str, doc: dict,
          seed_override: int | None) -> list[tuple]:
    """Expand ``doc`` into its cells, one per (condition, seed), each as
    (condition name, archive, chain of session configs).

    A session takes the top-level settings, then its condition's, its
    cell's seed and its ``sessions`` entry's, each over the one before.
    ``--seed-override`` stands for ``"seeds": [n]`` and is every session's
    seed.  Every check runs here, before any session."""
    keys, axis, _, _ = _COMMANDS[command]
    refused = sorted(set(doc) - keys)
    if refused:
        raise ConfigError(f"{command} does not take {', '.join(refused)}")
    if axis and axis not in doc:
        raise ConfigError(f"{command} needs a '{axis}' list")
    if not isinstance(doc.get("output_name", ""), str):
        raise ConfigError("output_name must be a string")
    pinned = {} if seed_override is None else {"seed": seed_override}
    seeds = [seed_override] if pinned else \
        _axis(doc, "seeds", [doc.get("seed", SessionConfig.seed)])
    entries = _axis(doc, "sessions", [{}])
    shared = {k: v for k, v in doc.items() if k in _KEYS["session"]}
    if "problem" in shared:   # checked even when an empty grid runs nothing
        _session_config({**shared, **pinned})
    chains = []
    for cond in _axis(doc, "conditions", [{}]):
        _check_keys("condition", cond)
        if "conditions" in doc and "name" not in cond:
            raise ConfigError("bad condition: no 'name'")
        own = {k: v for k, v in cond.items() if k != "name"}
        for seed in seeds:
            chain = []
            for k, entry in enumerate(entries, start=1):
                _check_keys("session", entry)
                settings = {"session_id": f"session-{k}" if "sessions" in doc
                            else SessionConfig.session_id,
                            **shared, **own, "seed": seed, **entry, **pinned}
                if "conditions" in doc:   # its id names its cell
                    settings["session_id"] = f"{settings['session_id']}-" \
                        f"{cond['name']}-s{settings['seed']}"
                chain.append(_session_config(settings))
            chains.append((cond.get("name"), chain))
    ids = Counter(cfg.session_id for _, chain in chains for cfg in chain)
    repeated = sorted(i for i, n in ids.items() if n > 1)
    if repeated:
        raise ConfigError(f"session id {', '.join(repeated)} names more than "
                          "one session; each session writes its own trace")
    # Each session id, and a table's output_name, names a file under --out.
    output_name = [doc["output_name"]] if "output_name" in doc else []
    for what, names in (("session id", ids), ("output_name", output_name)):
        unplain = sorted(n for n in names
                         if not n or {"/", "\0", os.sep, os.altsep} & set(n))
        if unplain:
            raise ConfigError(f"{what} {', '.join(map(repr, unplain))} is "
                              "not a plain file name under --out")
    return [(name, _archive_for(doc, chain), chain)
            for name, chain in chains if chain]


def _archive_for(doc: dict, chain: list) -> Archive | None:
    """The archive a cell's chain of sessions shares: the config's
    top-level ``archive_path``, pre-seeded with one arm of the first
    session's problem when ``warm_start`` is set. Without either, a chain of
    more than one session shares an in-memory archive and a single session
    runs with none.  The only place an archive is built from a config."""
    path, warm = doc.get("archive_path"), doc.get("warm_start")
    if not isinstance(path, (str, type(None))):
        raise ConfigError("archive_path must be a string")
    archive = Archive(path) if path or warm or len(chain) > 1 else None
    if warm:
        warm = _record("warm_start", _WarmStart, warm)
        if (ps := chain[0].problem_scheme) is None:
            return archive   # intake refused the problem: the session aborts
        arm = next((a for a in action_space.filter_feasible(ps)
                    if a.estimator == warm.estimator), None)
        if arm is None:
            raise ConfigError(f"bad warm_start block: no feasible action "
                              f"runs {warm.estimator!r}")
        archive.seed_entry(ps, arm, mean_reward=warm.mean_reward,
                           count=warm.count)
    return archive


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _run(cfg: SessionConfig, archive: Archive | None, out: str) -> dict:
    """Run one session and write ``<session_id>.trace.jsonl`` under
    ``out``; returns the session's facts, the trace header."""
    return write_trace(run_session(cfg, archive=archive),
                       os.path.join(out, f"{cfg.session_id}.trace.jsonl"))


def _command(args) -> int:
    """Run every session of the config's grid, cell by cell, and write the
    command's output."""
    doc = _load_config(args.config)
    _, _, table, columns = _COMMANDS[args.command]
    cells = _grid(args.command, doc, args.seed_override)
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:   # a file, or a path under one
        raise ConfigError(f"--out cannot be a directory: {exc}") from exc
    rows, aborted = [], False
    for condition, archive, chain in cells:
        for cfg in chain:
            facts = _run(cfg, archive, out)
            aborted = aborted or facts["outcome"] == "aborted"
            _say(args, f"{cfg.session_id}: {facts['outcome']}, best reward "
                       f"{facts['best_reward']:.1f} in "
                       f"{facts['n_iterations']} iterations")
            if table:
                rows.append({c: condition if c == "condition" else facts[c]
                             for c in columns})
            else:
                with open(os.path.join(out, f"{cfg.session_id}.summary.json"),
                          "w", encoding="utf-8") as fh:
                    json.dump(facts, fh, sort_keys=True, indent=2)
                    fh.write("\n")
    if table:
        path = os.path.join(out, f"{doc.get('output_name', table)}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(columns))
            writer.writeheader()
            writer.writerows(rows)
        _say(args, f"wrote {path}")
    return EXIT_ABORTED if aborted else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged,
    so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="driftguard",
        description="Checkpoint-guarded sensitivity-analysis orchestrator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
        p.add_argument("--out", help="output directory (default: .)")
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _command(args)
    except DriftguardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
