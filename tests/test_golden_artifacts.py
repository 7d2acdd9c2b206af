"""Golden artifacts: the shipped configs must keep writing the same bytes.

Each of the five ``configs/`` runs (plus ``gfunction_sessions`` with an
archive file) is run in-process, must exit 0, and every file it writes is
hashed. The sha256 table lives next to this file, so any change to an
emitted byte shows up in the diff of ``golden_artifacts.json``.

To regenerate the table after an intended output change:

    PYTHONPATH=src python tests/test_golden_artifacts.py > tests/golden_artifacts.json
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        json.dump(artifact_digests(work), sys.stdout, indent=2,
                  sort_keys=True)
    sys.stdout.write("\n")
