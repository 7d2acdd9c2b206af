import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from driftguard import catalog
from driftguard.cli import (_COMMANDS, _KEYS, EXIT_ABORTED, EXIT_BAD_CONFIG,
                            EXIT_OK, SESSION_COLUMNS, build_parser, main)

from conftest import EQ3_PROBLEM, G8_PROBLEM
from test_golden_artifacts import TABLE as GOLDEN_TABLE

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_RUN = {"problem": EQ3_PROBLEM, "n_max": 2, "seed": 1,
            "session_id": "cli-test"}

# A valid config per command, and a well-formed value for each key that some
# command takes, so a refusal can only be for the key itself.
VALID = {"run": BASE_RUN,
         "ablate": {**BASE_RUN, "n_max": 1, "conditions": [{"name": "only"}]},
         "sessions": {**BASE_RUN, "n_max": 1,
                      "sessions": [{"session_id": "s1"}]}}
VALUES = {"seeds": [1, 2], "conditions": [{"name": "only"}],
          "sessions": [{"session_id": "s2"}], "output_name": "table",
          "archive_path": "archive.json",
          "warm_start": {"estimator": "Sobol", "mean_reward": 91.0},
          "checkpoint_overrides": {"CP5": -1.0},
          "drift": {"kind": "method_swap", "replacement_value": "Morris"}}
ALL_KEYS = frozenset().union(*(keys for keys, *_ in _COMMANDS.values()))
# Every (command, key it does not honour, where the key sits): the top level
# of the command's config, or a ``sessions`` entry, which holds only session
# settings.
REFUSED = sorted(
    [(command, key, "top") for command, (keys, *_) in _COMMANDS.items()
     for key in ALL_KEYS - keys]
    + [("sessions", key, "entry") for key in ALL_KEYS - _KEYS["session"]])


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
        assert doc["n_iterations"] >= 1
        assert "best reward" in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        cfg = _write(tmp_path, BASE_RUN)
        blobs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            main(["run", "--config", cfg, "--out", str(out), "--quiet"])
            blobs.append((out / "cli-test.trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_integer_float_settings_write_the_same_trace(self, tmp_path):
        # A float setting stores a JSON integer as the equal float, so the
        # config digest in the trace header does not change.
        drift = {"kind": "method_swap", "replacement_value": "Morris"}
        blobs = []
        for k, (threshold, probability) in enumerate(((85.0, 1.0), (85, 1))):
            doc = {**BASE_RUN, "r_threshold": threshold,
                   "drift": {**drift, "probability": probability}}
            out = tmp_path / f"out{k}"
            assert main(["run", "--config", _write(tmp_path, doc), "--out",
                         str(out), "--quiet"]) == EXIT_OK
            blobs.append((out / "cli-test.trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_seed(self, tmp_path):
        cfg = _write(tmp_path, BASE_RUN)
        out = tmp_path / "ovr"
        main(["run", "--config", cfg, "--out", str(out), "--quiet",
              "--seed-override", "99"])
        assert (out / "cli-test.trace.jsonl").exists()

    def test_empty_out_writes_to_the_working_directory(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, BASE_RUN)
        assert main(["run", "--config", cfg, "--out", "", "--quiet"]) \
            == EXIT_OK
        assert (tmp_path / "cli-test.trace.jsonl").exists()

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE_RUN)
        main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_aborted_session_exits_2(self, tmp_path):
        # Every problem passes config parsing but fails problem validation,
        # aborting the session at intake.
        for change, reason in (({"d_out": 0}, "dimensionality"),
                               ({"task": "UQ"}, "unknown task 'UQ'"),
                               ({"d_in": 9}, "d_in=9"),
                               ({"d_out": 2}, "d_out=2"),
                               ({"n_budget": -5}, "budget"),
                               # Under every row's minimum (Chatterjee's 10)
                               ({"n_budget": 9}, "no feasible estimator"),
                               ({"epsilon": 0}, "epsilon"),
                               ({"dist_family": 5}, "incomplete problem"),
                               ({"dist_family": ["Uniform"]},
                                "dist_family=['Uniform'] but")):
            doc = {**BASE_RUN, "problem": {**EQ3_PROBLEM, **change}}
            cfg = _write(tmp_path, doc)
            code = main(["run", "--config", cfg, "--out", str(tmp_path),
                         "--quiet"])
            assert code == EXIT_ABORTED
            summary = json.loads(
                (tmp_path / "cli-test.summary.json").read_text())
            assert reason in summary["abort_reason"]
        # ablate exits 2 as well when one of its sessions aborts.
        doc = {**BASE_RUN, "problem": {**EQ3_PROBLEM, "d_in": 9},
               "conditions": [{"name": "only"}]}
        code = main(["ablate", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path), "--quiet"])
        assert code == EXIT_ABORTED
        header = (tmp_path / "cli-test-only-s1.trace.jsonl").read_text()
        assert json.loads(header.splitlines()[0])["outcome"] == "aborted"

    @pytest.mark.parametrize("warm_start", [
        None, {"estimator": "Sobol", "mean_reward": 91.0}])
    def test_invalid_problem_exits_2_with_or_without_warm_start(
            self, tmp_path, warm_start):
        # The warm start is seeded from the problem only when intake could
        # build it; an invalid problem is left for intake to reject.
        with open(os.path.join(CONFIGS, "beam.json")) as fh:
            doc = json.load(fh)
        doc["problem"]["n_budget"] = 0
        if warm_start:
            doc["warm_start"] = warm_start
        code = main(["run", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path), "--quiet"])
        assert code == EXIT_ABORTED
        summary = json.loads((tmp_path / "beam.summary.json").read_text())
        assert "budget must be positive" in summary["abort_reason"]

    def test_infeasible_problem_with_warm_start_exits_2(self, tmp_path,
                                                        monkeypatch):
        # Intake refuses a problem no estimator can run, so its warm start
        # seeds nothing and the session aborts, as any refused problem's.
        monkeypatch.setattr(catalog, "SA_ESTIMATORS", {
            e: dataclasses.replace(info, high_d_only=True)
            for e, info in catalog.SA_ESTIMATORS.items()})
        doc = {**BASE_RUN, "warm_start": {"estimator": "Sobol",
                                          "mean_reward": 91.0}}
        code = main(["run", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path), "--quiet"])
        assert code == EXIT_ABORTED
        summary = json.loads((tmp_path / "cli-test.summary.json").read_text())
        assert summary["abort_reason"] == ("coordinator failed: no feasible "
                                           "estimator for this problem")


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
        # A drift that is not an object, or that writes what no plan can
        # read back, is refused before any session, as a non-object
        # checkpoint_overrides is; only {} states no drift.
        out = tmp_path / "out"
        for value in (False, 0, "", [], None,
                      {"kind": "method_swap", "replacement_value": "Sobl",
                       "probability": 1.0},
                      {"kind": "method_swap", "source_value": "Sobl",
                       "probability": 1.0},
                      {"kind": "field_corruption", "target_field": "n_samples",
                       "replacement_value": "lots", "probability": 1.0}):
            cfg = _write(tmp_path, {**BASE_RUN, "drift": value})
            assert main(["run", "--config", cfg, "--out", str(out),
                         "--quiet"]) == EXIT_BAD_CONFIG, value
            assert not out.exists(), value
        traces = []
        for k, extra in enumerate(({}, {"drift": {}})):
            cfg = _write(tmp_path, {**BASE_RUN, **extra})
            assert main(["run", "--config", cfg, "--out", str(out / str(k)),
                         "--quiet"]) == EXIT_OK
            traces.append((out / str(k) / "cli-test.trace.jsonl").read_bytes())
        assert traces[0] == traces[1]

    def test_sessions_requires_session_list(self, tmp_path):
        cfg = _write(tmp_path, BASE_RUN)
        assert main(["sessions", "--config", cfg]) == EXIT_BAD_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        # Tunables are constants: a settings block, like a typo, is refused
        # before any session runs.
        for command, doc, key in (
                ("run", {**BASE_RUN, "settings": {"retry_budget": 2}},
                 "settings"),
                ("run", {**BASE_RUN, "n_maxx": 3}, "n_maxx"),
                ("sessions", {**BASE_RUN, "sessions": [
                    {"session_id": "cli-test"}, {"n_maxx": 3}]}, "n_maxx"),
                # Nested blocks are checked too.
                ("run", {**BASE_RUN, "problem": {**EQ3_PROBLEM,
                                                 "epsilom": 0.1}},
                 "epsilom"),
                ("ablate", {**BASE_RUN, "conditions": [
                    {"name": "on"},
                    {"name": "cp5_ablated",
                     "checkpoints_overrides": {"CP5": -1.0}}]},
                 "checkpoints_overrides"),
                ("run", {**BASE_RUN, "drift": {"kind": "method_swap",
                                               "probabilty": 1.0}},
                 "probabilty"),
                ("run", {**BASE_RUN, "warm_start": {
                    "estimator": "Sobol", "mean_reward": 91.0, "cnt": 3}},
                 "cnt")):
            cfg = _write(tmp_path, doc)
            assert main([command, "--config", cfg, "--out", str(tmp_path),
                         "--quiet"]) == EXIT_BAD_CONFIG
            assert key in capsys.readouterr().err
            assert not list(tmp_path.glob("*.trace.jsonl"))

    @pytest.mark.parametrize("command", sorted(VALID))
    def test_each_command_runs_its_valid_config(self, tmp_path, command):
        assert main([command, "--config", _write(tmp_path, VALID[command]),
                     "--out", str(tmp_path), "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("command,key,where", REFUSED)
    def test_key_a_command_does_not_honour(self, tmp_path, monkeypatch,
                                           capsys, command, key, where):
        # A key means one thing in every command that takes it; a command
        # that would not act on it refuses it before any session runs.
        monkeypatch.chdir(tmp_path)
        doc = VALID[command]
        value = VALUES.get(key, 1)
        if where == "top":
            doc = {**doc, key: value}
        else:
            doc = {**doc, "sessions": [{"session_id": "s1", key: value}]}
        assert main([command, "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path), "--quiet"]) == EXIT_BAD_CONFIG
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("*.trace.jsonl"))
        assert not (tmp_path / "archive.json").exists()

    def test_duplicate_session_ids_are_bad_config(self, tmp_path, capsys):
        # A second session with one id would overwrite the first's trace.
        sessions = {"problem": G8_PROBLEM, "n_max": 1}
        for command, doc, repeated in (
                ("sessions", {**sessions, "session_id": "x",
                              "sessions": [{"seed": 1}, {"seed": 2}]}, "x"),
                ("sessions", {**sessions, "sessions": [
                    {"session_id": "a"}, {"session_id": "b"},
                    {"session_id": "a"}]}, "a"),
                ("ablate", {**sessions, "session_id": "y", "seeds": [1, 1],
                            "conditions": [{"name": "only"}]}, "y-only-s1"),
                ("ablate", {**sessions, "session_id": "y", "seeds": [1],
                            "conditions": [{"name": "c"}, {"name": "c"}]},
                 "y-c-s1")):
            assert main([command, "--config", _write(tmp_path, doc), "--out",
                         str(tmp_path), "--quiet"]) == EXIT_BAD_CONFIG, doc
            assert f"session id {repeated} " in capsys.readouterr().err
            assert not list(tmp_path.glob("*.trace.jsonl")), doc
            assert not list(tmp_path.glob("*.csv")), doc

    @pytest.mark.parametrize("session_id", ["../escaped", "sub/x", "",
                                            "nul\0id"])
    def test_session_id_must_be_a_plain_file_name(self, tmp_path, capsys,
                                                  session_id):
        # The id names the session's trace and summary under --out, so an
        # id with a separator would write outside it, or fail only after
        # the session ran.
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path, {
            **BASE_RUN, "session_id": session_id}), "--out", str(out),
            "--quiet"]) == EXIT_BAD_CONFIG
        assert f"session id {session_id!r} is not a plain file name" \
            in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.rglob("*.trace.jsonl"))
        assert not list(tmp_path.rglob("*.summary.json"))

    @pytest.mark.parametrize("output_name", ["../escaped_table", "sub/x", ""])
    def test_output_name_must_be_a_plain_file_name(self, tmp_path, capsys,
                                                   output_name):
        # The name names the table under --out, so it takes the session
        # id's check, and nothing runs or is written in --out or beside it.
        out = tmp_path / "out"
        config = _write(tmp_path, {**VALID["ablate"],
                                   "output_name": output_name})
        assert main(["ablate", "--config", config, "--out", str(out),
                     "--quiet"]) == EXIT_BAD_CONFIG
        assert f"output_name {output_name!r} is not a plain file name" \
            in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_must_be_a_directory(self, tmp_path, capsys, under):
        # An --out that is a file, or a path under one, is a bad
        # configuration: no session runs and nothing is written.
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        config = _write(tmp_path, VALID["run"])
        out = taken / under if under else taken
        assert main(["run", "--config", config, "--out", str(out),
                     "--quiet"]) == EXIT_BAD_CONFIG
        assert "cannot be a directory" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "config.json",
                                               taken]

    def test_config_shape_errors(self, tmp_path):
        ablate = {"problem": EQ3_PROBLEM, "n_max": 1,
                  "conditions": [{"name": "only"}]}
        for command, doc in (
                ("run", {**BASE_RUN, "seed": "one"}),
                ("run", {**BASE_RUN, "settings": {"retry_budget": "x"}}),
                ("run", {**BASE_RUN, "settings": {"bandit": {
                    "novelty_rho": [5.0]}}}),
                ("ablate", {**ablate, "seeds": ["x"]}),
                ("ablate", {**ablate, "conditions": [{}]}),
                ("ablate", {**ablate, "conditions": ["only"]}),
                ("ablate", {**ablate, "output_name": 5}),
                ("ablate", {**ablate, "conditions": [], "problem": {
                    **EQ3_PROBLEM, "model_id": "ghost"}}),
                ("sessions", {**BASE_RUN, "sessions": [1, 2]}),
                ("sessions", {**BASE_RUN, "sessions": {"s1": {}}}),
                ("run", {**BASE_RUN, "warm_start": {"estimator": "Sobol"}}),
                ("run", {**BASE_RUN, "checkpoint_overrides": {"CP3": "x"}}),
                ("run", {**BASE_RUN, "checkpoint_overrides": {"CP9": 0.5}}),
                ("run", {**BASE_RUN, "drift": "method_swap"}),
                ("run", {**BASE_RUN, "drift": {"kind": "method_swap",
                                               "activation_iteration": "2"}}),
                # A drift spec names the field its kind rewrites.
                ("run", {**BASE_RUN, "drift": {"kind": "field_corruption",
                                               "replacement_value": "1",
                                               "probability": 1.0}}),
                ("run", {**BASE_RUN, "archive_path": 5}),
                ("run", {**BASE_RUN, "problem": {**EQ3_PROBLEM,
                                                 "model_id": ["x"]}}),
                ("run", {**BASE_RUN, "warm_start": {
                    "estimator": "Morris", "mean_reward": 90.0}}),
                ("run", {**BASE_RUN, "warm_start": "Sobol"}),
                ("run", {**BASE_RUN, "problem": "structural_eq3"}),
                ("ablate", {**ablate, "conditions": {"name": "only"}}),
                ("ablate", {**ablate, "conditions": [
                    {"name": "only", "drift": ["method_swap"]}]}),
                # The gate table is the only source of thresholds: an
                # override may only switch a gate off.
                ("run", {**BASE_RUN, "checkpoint_overrides": {"CP2": 0.6}}),
                ("run", {**BASE_RUN, "checkpoint_overrides": None}),
                ("ablate", {**ablate, "conditions": [
                    {"name": "on"},
                    {"name": "strict", "checkpoint_overrides": {
                        "CP5": -1.0, "CP2": 0.6}}]}),
                # A setting holds its own type: nothing is converted, except
                # that a float setting takes a JSON integer.
                ("ablate", {**ablate, "seeds": "12"}),
                ("run", {**BASE_RUN, "n_max": 1.9}),
                ("run", {**BASE_RUN, "persist_policy": "false"}),
                ("run", {**BASE_RUN, "drift": {"kind": "method_swap",
                                               "probability": "1"}}),
                ("run", {**BASE_RUN, "warm_start": {
                    "estimator": "Sobol", "mean_reward": 91.0,
                    "count": 2.7}}),
                ("run", {**BASE_RUN, "seed": True}),
                # So does a problem's number: nothing is truncated or parsed.
                # A well-typed but inconsistent problem aborts its session.
                *(("run", {**BASE_RUN, "problem": {**EQ3_PROBLEM, **bad}})
                  for bad in ({"d_in": 4.7}, {"d_in": "4"}, {"d_in": True},
                              {"n_budget": 8000.9}, {"epsilon": "0.05"})),
                ("ablate", {**ablate, "problem": {**EQ3_PROBLEM,
                                                  "d_out": 1.0}}),
                ("sessions", {**BASE_RUN, "sessions": [
                    {"session_id": "s1"}, {"session_id": "s2", "problem": {
                        **EQ3_PROBLEM, "n_budget": "8000"}}]})):
            cfg = _write(tmp_path, doc)
            assert main([command, "--config", cfg, "--out", str(tmp_path),
                         "--quiet"]) == EXIT_BAD_CONFIG, doc
            assert not list(tmp_path.glob("*.trace.jsonl")), doc

    def test_problem_class_keys_are_bad_config(self, tmp_path, capsys):
        # Intake reads exactly these problem keys; the class descriptors it
        # once took changed nothing that executes.
        for key, value in (("output_class", "field"),
                           ("model_class", "additive"),
                           ("has_dependence", True)):
            cfg = _write(tmp_path, {**BASE_RUN, "problem": {
                **EQ3_PROBLEM, key: value}})
            assert main(["run", "--config", cfg, "--out", str(tmp_path),
                         "--quiet"]) == EXIT_BAD_CONFIG
            assert key in capsys.readouterr().err
            assert not list(tmp_path.glob("*.trace.jsonl"))

    def test_negative_seed_is_bad_config(self, tmp_path, capsys):
        # Seeds feed numpy generators, which take none below zero; every
        # command refuses one before its first session.
        ablate = {**BASE_RUN, "conditions": [{"name": "only"}]}
        sessions = {**BASE_RUN, "sessions": [{"session_id": "s1"},
                                             {"session_id": "s2"}]}
        for command, doc, override in (
                ("run", BASE_RUN, ["--seed-override", "-1"]),
                ("run", {**BASE_RUN, "seed": -1099511627776}, []),
                ("ablate", ablate, ["--seed-override", "-1"]),
                ("ablate", {**ablate, "seeds": [1, -2]}, []),
                ("sessions", sessions, ["--seed-override", "-1"]),
                ("sessions", {**sessions, "sessions": [
                    {"session_id": "s1"}, {"session_id": "s2", "seed": -3}]},
                 [])):
            cfg = _write(tmp_path, doc)
            assert main([command, "--config", cfg, "--out", str(tmp_path),
                         "--quiet", *override]) == EXIT_BAD_CONFIG, doc
            assert "seed must be >= 0" in capsys.readouterr().err
            assert not list(tmp_path.glob("*.trace.jsonl")), doc

    def test_internal_error_is_not_a_config_error(self, tmp_path,
                                                  monkeypatch):
        # A KeyError raised inside a session is a bug, not a bad config.
        def broken(cfg, archive=None):
            raise KeyError("mean")
        monkeypatch.setattr("driftguard.cli.run_session", broken)
        cfg = _write(tmp_path, BASE_RUN)
        with pytest.raises(KeyError, match="mean"):
            main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"])


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

    def test_archive_path_is_a_bad_config(self, tmp_path, capsys):
        # Each run gets a fresh archive; a file would hand every run the
        # entries the previous one wrote.
        doc = {"problem": G8_PROBLEM, "n_max": 1, "seeds": [1, 2],
               "conditions": [{"name": "only"}],
               "archive_path": str(tmp_path / "archive.json")}
        cfg = _write(tmp_path, doc)
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == EXIT_BAD_CONFIG
        assert "archive_path" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.trace.jsonl"))
        assert not (tmp_path / "archive.json").exists()

    def test_a_cell_writes_the_bytes_of_its_own_run(self, tmp_path):
        # Designs live and die with their session: a grid whose two
        # conditions run the same session at one seed writes, for the
        # later cell, the bytes that session writes alone.
        grid = {"problem": EQ3_PROBLEM, "n_max": 5, "seeds": [1],
                "session_id": "iso", "record_to_archive": False,
                "conditions": [{"name": "first"}, {"name": "later"}]}
        assert main(["ablate", "--config", _write(tmp_path, grid), "--out",
                     str(tmp_path / "grid"), "--quiet"]) == EXIT_OK
        alone = {"problem": EQ3_PROBLEM, "n_max": 5, "seed": 1,
                 "session_id": "iso-later-s1", "record_to_archive": False}
        assert main(["run", "--config", _write(tmp_path, alone, "run.json"),
                     "--out", str(tmp_path / "run"), "--quiet"]) == EXIT_OK
        name = "iso-later-s1.trace.jsonl"
        cell = (tmp_path / "grid" / name).read_bytes()
        assert cell == (tmp_path / "run" / name).read_bytes()
        assert cell.replace(b"later", b"first") \
            == (tmp_path / "grid" / "iso-first-s1.trace.jsonl").read_bytes()
        # The session reruns a design: one run executes fewer evaluations
        # than its plan costs.
        rows = [json.loads(line) for line in cell.splitlines()[1:]]
        assert any(row["observation"]["evaluations_used"]
                   < catalog.estimator_info(row["plan"]["estimator"]).cost(
                       row["plan"]["n_samples"], EQ3_PROBLEM["d_in"])
                   for row in rows if row["observation"])

    def test_one_trace_per_row(self, tmp_path):
        with open(os.path.join(CONFIGS, "cp5_swap.json")) as fh:
            doc = json.load(fh)
        cfg = _write(tmp_path, {**doc, "seeds": [0, 1]})
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == EXIT_OK
        with open(tmp_path / "cp5_swap.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        names = {f"cp5-{r['condition']}-s{r['seed']}.trace.jsonl"
                 for r in rows}
        assert {p.name for p in tmp_path.glob("*.trace.jsonl")} == names
        for r in rows:
            path = tmp_path / f"cp5-{r['condition']}-s{r['seed']}.trace.jsonl"
            lines = path.read_text().splitlines()
            assert json.loads(lines[0])["outcome"] == r["outcome"]
            assert len(lines) == 1 + int(r["n_iterations"])


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

    def test_empty_session_list_writes_header_only_csv(self, tmp_path):
        # An empty grid list runs nothing, as an empty ablate condition
        # list does.
        doc = {"problem": G8_PROBLEM, "sessions": []}
        assert main(["sessions", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path), "--quiet"]) == EXIT_OK
        assert (tmp_path / "sessions.csv").read_text().splitlines() == [
            ",".join(SESSION_COLUMNS)]
        assert not list(tmp_path.glob("*.trace.jsonl"))

    def test_persist_policy_defaults_to_false(self, tmp_path):
        # A policy carries over only when a config says so.
        digests = []
        for k, flag in enumerate(({}, {"persist_policy": False})):
            out = tmp_path / f"out{k}"
            doc = {"problem": G8_PROBLEM, "n_max": 1, **flag,
                   "sessions": [{"session_id": "s1", "seed": 1}]}
            assert main(["sessions", "--config",
                         _write(tmp_path, doc, name=f"config{k}.json"),
                         "--out", str(out), "--quiet"]) == EXIT_OK
            header = (out / "s1.trace.jsonl").read_text().splitlines()[0]
            digests.append(json.loads(header)["config_digest"])
        assert digests[0] == digests[1]

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

    def test_top_level_warm_start_reaches_first_session(self, tmp_path):
        with open(os.path.join(CONFIGS, "gfunction_sessions.json")) as fh:
            doc = json.load(fh)
        cfg = _write(tmp_path, {**doc, "warm_start": {
            "estimator": "Sobol", "mean_reward": 91.0, "count": 3}})
        assert main(["sessions", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == EXIT_OK
        with open(tmp_path / "gfunction_sessions.csv") as fh:
            first = next(csv.DictReader(fh))
        assert first["session_id"] == "gfn-1"
        assert (first["cp0_match"], first["cp0_mode"]) == ("close", "exploit")

    def test_warm_start_out_of_range_is_bad_config(self, tmp_path, capsys):
        # A non-finite mean reward would write NaN into the policy, and a
        # count below 1 would act as a negative- or zero-weight prior.
        for mean_reward, count in (("1e400", "3"), ("-1e400", "3"),
                                   ("NaN", "3"), ("1" + "0" * 400, "3"),
                                   ("91.0", "-3"), ("91.0", "0")):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(BASE_RUN)[:-1] + (
                ', "warm_start": {"estimator": "Sobol", "mean_reward": '
                f'{mean_reward}, "count": {count}}}}}'))
            assert main(["run", "--config", str(path), "--out",
                         str(tmp_path), "--quiet"]) == EXIT_BAD_CONFIG
            assert "warm_start" in capsys.readouterr().err
            assert not list(tmp_path.glob("*.trace.jsonl"))

    def test_archive_keys_in_a_session_entry_are_bad_config(self, tmp_path,
                                                            capsys):
        # The archive is shared by every session, so only the top level
        # may say where it lives and what it starts with.
        for entry in ({"archive_path": str(tmp_path / "archive.json")},
                      {"warm_start": {"estimator": "Sobol",
                                      "mean_reward": 91.0}}):
            doc = {"problem": G8_PROBLEM, "n_max": 1, "sessions": [
                {"session_id": "s1", "seed": 1},
                {"session_id": "s2", "seed": 2, **entry}]}
            cfg = _write(tmp_path, doc)
            assert main(["sessions", "--config", cfg, "--out", str(tmp_path),
                         "--quiet"]) == EXIT_BAD_CONFIG
            assert next(iter(entry)) in capsys.readouterr().err
            assert not list(tmp_path.glob("*.trace.jsonl"))
            assert not (tmp_path / "archive.json").exists()

    def test_schema_2_archive_is_a_bad_config(self, tmp_path, capsys):
        # A schema-2 archive, with its 32-long feature vectors, is refused
        # before any session runs and is left as it was.
        archive = tmp_path / "archive.json"
        archive.write_text(json.dumps({"schema_version": 2, "entries": [{
            "session_id": "old", "d_in": 8, "best_action":
                ["MonteCarlo", "Sobol", "Fixed_N", "Scalar"],
            "best_reward": 91.0, "policy_snapshot": None,
            "problem_features": [0.4, 0.1, 0.69, 1.0, 1.0, 0.0, 0.0,
                                 0.0, 1.0, 0.0],
            "per_arm_stats": [["Sobol", {"count": 3, "mean_reward": 91.0,
                                         "phi": [0.0] * 32}]]}]}))
        before = archive.read_bytes()
        doc = {"problem": G8_PROBLEM, "n_max": 1, "output_name": "runs",
               "archive_path": str(archive),
               "sessions": [{"session_id": "s1", "seed": 1}]}
        cfg = _write(tmp_path, doc)
        assert main(["sessions", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == EXIT_BAD_CONFIG
        assert "schema" in capsys.readouterr().err
        assert archive.read_bytes() == before
        assert not (tmp_path / "s1.trace.jsonl").exists()


# A field of an archive entry, as a path into its JSON, a bad value for it,
# and whether the next session restores the policy snapshot. Without the
# check on load, each would crash that session, skew its scores or run on a
# corrupt policy.
BAD_RECORDS = {
    "negative count": (("per_arm_stats", 0, 1, "count"), -300, False),
    "NaN mean reward": (("per_arm_stats", 0, 1, "mean_reward"), math.nan,
                        False),
    "NaN precision": (("policy_snapshot", "precision", 0, 0), math.nan,
                      True),
    "precision not positive definite": (
        ("policy_snapshot", "precision", 0, 0), -1.0, True),
    "unknown distribution family": (("problem", "dist_family", 0),
                                    "LogNormal", False),
    "negative policy iteration": (("policy_snapshot", "iteration"), -100,
                                  True),
    "bool policy iteration": (("policy_snapshot", "iteration"), True, True),
    "zero arm count": (("policy_snapshot", "estimator_counts", "Sobol"), 0,
                       True),
    "float arm count": (("policy_snapshot", "estimator_counts", "Sobol"),
                        2.0, True),
    "numeric session id": (("session_id",), 5, False),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_bad_archive_record_is_a_bad_config(tmp_path, capsys, case):
    # One g8 session writes an entry with a policy snapshot; the entry,
    # with one bad value, is refused before the next session runs and the
    # file is left as it was.
    archive = tmp_path / "archive.json"
    doc = {**BASE_RUN, "problem": G8_PROBLEM, "n_max": 1,
           "persist_policy": True, "archive_path": str(archive)}
    assert main(["run", "--config", _write(tmp_path, doc), "--out",
                 str(tmp_path / "first"), "--quiet"]) == EXIT_OK
    payload = json.loads(archive.read_text())
    (*where, last), value, persist = BAD_RECORDS[case]
    target = payload["entries"][0]
    for key in where:
        target = target[key]
    target[last] = value
    archive.write_text(json.dumps(payload))
    before = archive.read_bytes()
    cfg = _write(tmp_path, {**doc, "persist_policy": persist})
    out = tmp_path / "second"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--quiet"]) == EXIT_BAD_CONFIG
    assert "cannot load archive" in capsys.readouterr().err
    assert archive.read_bytes() == before
    assert not out.exists()


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

    def test_built_once_per_process(self):
        assert build_parser() is build_parser()


def _src_env(**extra) -> dict:
    import driftguard
    src = os.path.dirname(os.path.dirname(driftguard.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]), **extra)


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency, and importing it would cost a
    # quarter of a second or more at every start-up.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, driftguard.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
        check=True)
    assert out.stdout.strip() == "[]"


def test_session_imports_no_numpy_or_scipy_module(tmp_path):
    # Whatever numpy loads lazily (np.random, np.ma) is loaded with the
    # package, so no session pays for an import.
    script = (
        "import sys, driftguard.cli as cli\n"
        "before = set(sys.modules)\n"
        "code = cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2],"
        " '--quiet'])\n"
        "print(code, sorted(m for m in set(sys.modules) - before\n"
        "      if m.startswith(('numpy.', 'scipy'))))\n")
    out = subprocess.run(
        [sys.executable, "-c", script, os.path.join(CONFIGS, "beam.json"),
         str(tmp_path)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
        check=True)
    assert out.stdout.strip() == f"{EXIT_OK} []"


def test_trace_bytes_do_not_depend_on_hash_seed(tmp_path):
    # Every artifact of the shipped configs, traces, summaries, tables and
    # the archive, must be the golden bytes in every interpreter: simulated
    # PCE_SA/Generalized_Sobol references are seeded from the model id, and
    # nothing written may follow a set's hash order.
    with open(GOLDEN_TABLE, encoding="utf-8") as fh:
        golden = json.load(fh)
    script = ("import json, sys, test_golden_artifacts as g\n"
              "print(json.dumps(g.artifact_digests(sys.argv[1])))\n")
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / f"hash{hash_seed}")],
            cwd=os.path.dirname(GOLDEN_TABLE),
            env=_src_env(PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=120, check=True)
        assert json.loads(out.stdout) == golden, hash_seed


def _command_of(doc: dict) -> str:
    if "sessions" in doc:
        return "sessions"
    return "ablate" if "conditions" in doc else "run"


def _header(path) -> dict:
    return json.loads(path.read_text().splitlines()[0])


class TestSessionFacts:
    """A trace header holds every fact of its session; ``run``'s summary
    and every table row are read from it."""

    @pytest.mark.parametrize("name", sorted(
        n[:-len(".json")] for n in os.listdir(CONFIGS)))
    def test_outputs_are_the_trace_header(self, tmp_path, name):
        with open(os.path.join(CONFIGS, f"{name}.json")) as fh:
            doc = json.load(fh)
        command = _command_of(doc)
        assert main([command, "--config", os.path.join(CONFIGS,
                                                       f"{name}.json"),
                     "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        if command == "run":
            summary = json.loads(
                (tmp_path / f"{doc['session_id']}.summary.json").read_text())
            assert summary == _header(
                tmp_path / f"{doc['session_id']}.trace.jsonl")
            return
        with open(tmp_path / f"{doc['output_name']}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(list(tmp_path.glob("*.trace.jsonl")))
        for row in rows:
            sid = row.get("session_id") or \
                f"{doc['session_id']}-{row['condition']}-s{row['seed']}"
            header = _header(tmp_path / f"{sid}.trace.jsonl")
            # A cell holds the header's value as the csv module writes it:
            # str(), unrounded, and empty for null.
            assert {c: v for c, v in row.items() if c != "condition"} == {
                c: "" if header[c] is None else str(header[c])
                for c in row if c != "condition"}

    def test_aborted_session_header_holds_its_reason(self, tmp_path):
        problem = {**EQ3_PROBLEM, "n_budget": 0}
        for command, doc, sid in (
                ("sessions", {**BASE_RUN, "output_name": "runs",
                              "sessions": [{"session_id": "s1",
                                            "problem": problem}]}, "s1"),
                ("ablate", {**BASE_RUN, "problem": problem,
                            "conditions": [{"name": "only"}]},
                 "cli-test-only-s1")):
            assert main([command, "--config", _write(tmp_path, doc),
                         "--out", str(tmp_path), "--quiet"]) == EXIT_ABORTED
            header = _header(tmp_path / f"{sid}.trace.jsonl")
            assert header["outcome"] == "aborted"
            assert "budget must be positive" in header["abort_reason"]

    def test_warm_start_shows_as_cp0_source(self, tmp_path):
        # The header names the archive entry CP0 matched; a configured warm
        # start is the entry "seed".
        with open(os.path.join(CONFIGS, "beam.json")) as fh:
            doc = json.load(fh)
        sources = []
        for k, extra in enumerate(({}, {"warm_start": {
                "estimator": "Sobol", "mean_reward": 91.0}})):
            out = tmp_path / f"out{k}"
            assert main(["run", "--config",
                         _write(tmp_path, {**doc, **extra}), "--out",
                         str(out), "--quiet"]) == EXIT_OK
            sources.append(_header(out / "beam.trace.jsonl")["cp0_source"])
        assert sources == [None, "seed"]
