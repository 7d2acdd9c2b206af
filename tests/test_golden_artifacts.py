"""Golden artifacts: the shipped configs must keep writing the same bytes.

Each of the five ``configs/`` runs (plus ``gfunction_sessions`` with an
archive file) is run in-process, must exit 0, and every file it writes is
hashed. The sha256 table lives next to this file, so any change to an
emitted byte shows up in the diff of ``golden_artifacts.json``.

To regenerate the table after an intended output change:

    PYTHONPATH=src python tests/test_golden_artifacts.py

rewrites it in place and lists on stderr every key that was added, removed
or changed against the table it replaced.
"""

import hashlib
import json
import os
import sys
import tempfile


HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")
TABLE = os.path.join(HERE, "golden_artifacts.json")


def _command(doc: dict) -> str:
    if "sessions" in doc:
        return "sessions"
    return "ablate" if "conditions" in doc else "run"


def _runs() -> list[tuple[str, dict]]:
    runs = []
    for name in sorted(os.listdir(CONFIGS)):
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            runs.append((name[:-len(".json")], json.load(fh)))
    with open(os.path.join(CONFIGS, "gfunction_sessions.json"),
              encoding="utf-8") as fh:
        runs.append(("gfunction_sessions+archive", json.load(fh)))
    return runs


def artifact_digests(work: str) -> dict[str, str]:
    """Run every shipped config under ``work``; sha256 of each output file,
    keyed ``<run>/<file>``."""
    from driftguard.cli import main
    digests = {}
    for run, doc in _runs():
        out = os.path.join(work, run)
        os.makedirs(out)
        if run.endswith("+archive"):
            doc = {**doc, "archive_path": os.path.join(out, "archive.json")}
        config = os.path.join(work, f"{run}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main([_command(doc), "--config", config, "--out", out,
                     "--quiet"])
        assert code == 0, f"{run} exited {code}"
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[f"{run}/{name}"] = hashlib.sha256(
                    fh.read()).hexdigest()
    return digests


def test_shipped_configs_write_golden_bytes(tmp_path):
    with open(TABLE, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert artifact_digests(str(tmp_path)) == expected


def changed_keys(old: dict, new: dict) -> list[str]:
    """One line per key that ``new`` adds, removes or changes."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"added {key}")
        elif key not in new:
            lines.append(f"removed {key}")
        elif old[key] != new[key]:
            lines.append(f"changed {key}")
    return lines


def test_changed_keys_names_each_difference():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "9", "d": "4"}
    assert changed_keys(old, new) == ["changed b", "removed c", "added d"]


if __name__ == "__main__":
    with open(TABLE, encoding="utf-8") as fh:
        checked_in = json.load(fh)
    with tempfile.TemporaryDirectory() as work:
        digests = artifact_digests(work)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in changed_keys(checked_in, digests):
        print(line, file=sys.stderr)
