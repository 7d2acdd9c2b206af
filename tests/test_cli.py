import csv
import json
import os
import subprocess
import sys

import pytest

from driftguard.cli import (EXIT_ABORTED, EXIT_BAD_CONFIG, EXIT_OK,
                            build_parser, main)

from conftest import EQ3_PROBLEM, G8_PROBLEM

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv("DRIFTGUARD_OUT", raising=False)


BASE_RUN = {"problem": EQ3_PROBLEM, "n_max": 2, "seed": 1,
            "session_id": "cli-test"}


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE_RUN)
        code = main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_OK
        trace = tmp_path / "cli-test.trace.jsonl"
        summary = tmp_path / "cli-test.summary.json"
        assert trace.exists() and summary.exists()
        doc = json.loads(summary.read_text())
        assert doc["outcome"] in ("converged", "budget_exhausted")
        assert doc["iterations"] >= 1
        assert "best reward" in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        cfg = _write(tmp_path, BASE_RUN)
        blobs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            main(["run", "--config", cfg, "--out", str(out), "--quiet"])
            blobs.append((out / "cli-test.trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_seed(self, tmp_path):
        cfg = _write(tmp_path, BASE_RUN)
        out = tmp_path / "ovr"
        main(["run", "--config", cfg, "--out", str(out), "--quiet",
              "--seed-override", "99"])
        assert (out / "cli-test.trace.jsonl").exists()

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, BASE_RUN)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("DRIFTGUARD_OUT", str(env_dir))
        main(["run", "--config", cfg, "--out", str(tmp_path / "ignored"),
              "--quiet"])
        assert (env_dir / "cli-test.trace.jsonl").exists()
        assert not (tmp_path / "ignored").exists()

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE_RUN)
        main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_aborted_session_exits_2(self, tmp_path):
        doc = {**BASE_RUN, "problem": {**EQ3_PROBLEM, "d_out": 0}}
        # d_out = 0 passes config parsing but fails problem validation,
        # aborting the session at intake.
        cfg = _write(tmp_path, doc)
        code = main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_ABORTED


class TestBadConfig:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_BAD_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG

    def test_missing_problem(self, tmp_path):
        cfg = _write(tmp_path, {"n_max": 2})
        assert main(["run", "--config", cfg]) == EXIT_BAD_CONFIG

    def test_unknown_model_id(self, tmp_path):
        doc = {**BASE_RUN, "problem": {**EQ3_PROBLEM, "model_id": "ghost"}}
        cfg = _write(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_BAD_CONFIG

    def test_bad_drift_spec(self, tmp_path):
        doc = {**BASE_RUN, "drift": {"kind": "method_swap",
                                     "probability": 2.0}}
        cfg = _write(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_BAD_CONFIG

    def test_sessions_requires_session_list(self, tmp_path):
        cfg = _write(tmp_path, BASE_RUN)
        assert main(["sessions", "--config", cfg]) == EXIT_BAD_CONFIG


class TestAblate:
    def test_writes_condition_csv(self, tmp_path):
        doc = {"problem": EQ3_PROBLEM, "n_max": 2, "seeds": [1, 2],
               "output_name": "suite", "record_to_archive": False,
               "conditions": [
                   {"name": "baseline"},
                   {"name": "drifted",
                    "drift": {"kind": "method_swap",
                              "replacement_value": "Morris",
                              "probability": 1.0}}]}
        cfg = _write(tmp_path, doc)
        code = main(["ablate", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        with open(tmp_path / "suite.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["condition"] for r in rows} == {"baseline", "drifted"}

    def test_seed_override_restricts_to_one_seed(self, tmp_path):
        doc = {"problem": EQ3_PROBLEM, "n_max": 1, "seeds": [1, 2, 3],
               "conditions": [{"name": "only"}],
               "record_to_archive": False}
        cfg = _write(tmp_path, doc)
        main(["ablate", "--config", cfg, "--out", str(tmp_path), "--quiet",
              "--seed-override", "7"])
        with open(tmp_path / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["7"]


class TestSessions:
    def test_shared_archive_produces_cp0_match(self, tmp_path):
        doc = {"problem": G8_PROBLEM, "n_max": 2, "persist_policy": True,
               "output_name": "runs",
               "sessions": [{"session_id": "s1", "seed": 11},
                            {"session_id": "s2", "seed": 12}]}
        cfg = _write(tmp_path, doc)
        code = main(["sessions", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        with open(tmp_path / "runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["session_id"] for r in rows] == ["s1", "s2"]
        assert rows[0]["cp0_match"] == "none"
        assert rows[1]["cp0_match"] == "close"
        assert rows[1]["cp0_mode"] == "exploit"
        assert (tmp_path / "s1.trace.jsonl").exists()
        assert (tmp_path / "s2.trace.jsonl").exists()

    def test_archive_bytes_are_reproducible(self, tmp_path):
        with open(os.path.join(CONFIGS, "gfunction_sessions.json")) as fh:
            doc = json.load(fh)
        blobs = []
        for k in range(2):
            run_dir = tmp_path / f"run{k}"
            cfg = _write(tmp_path, {**doc, "archive_path":
                                    str(run_dir / "archive.json")},
                         name=f"config{k}.json")
            assert main(["sessions", "--config", cfg, "--out", str(run_dir),
                         "--quiet"]) == EXIT_OK
            blobs.append((run_dir / "archive.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestParser:
    def test_subcommands_and_flags(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--config", "x.json",
                                  "--seed-override", "5", "--quiet"])
        assert args.command == "run" and args.seed_override == 5
        for cmd in ("run", "ablate", "sessions"):
            parsed = parser.parse_args([cmd, "--config", "c.json"])
            assert parsed.command == cmd

    def test_config_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


def _src_env(**extra) -> dict:
    import driftguard
    src = os.path.dirname(os.path.dirname(driftguard.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]), **extra)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second at start-up; keep it off the CLI's
    # import path.
    env = _src_env()
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, driftguard.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_trace_bytes_do_not_depend_on_hash_seed(tmp_path):
    # Simulated PCE_SA/Generalized_Sobol references are seeded from the
    # model id; that seed must be the same in every interpreter.
    blobs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        subprocess.run(
            [sys.executable, "-m", "driftguard.cli", "run", "--config",
             os.path.join(CONFIGS, "beam.json"), "--out", str(out),
             "--quiet"],
            env=_src_env(PYTHONHASHSEED=hash_seed), capture_output=True,
            timeout=120, check=True)
        blobs.append((out / "beam.trace.jsonl").read_bytes())
    assert blobs[0] == blobs[1]
