"""Every config the benchmark writes must pass the CLI's config checks, and
the benchmark must be able to read what the CLI writes.

``bench/workloads.py`` writes the JSON configs the benchmark feeds to
``driftguard.cli.main``. A gate id, problem key or drift key that the CLI
stops accepting would only surface when ``bench/run.py`` runs; the first
test parses every config of every workload up to its first session, so the
change fails here instead. ``bench/run.py``'s ``read_sessions`` parses the
trace headers, summaries and CSV columns the CLI writes; the second test
runs each workload's ``"tiny"`` plan and reads its output back. The last
test runs those plans and every shipped config and holds each executed plan
to its problem's ``n_budget``. All import the ``bench/`` modules and change
nothing under ``bench/``.
"""

import importlib
import json
import os
import sys

import pytest

from driftguard import agents, cli, pipeline

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "configs")

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(BENCH)


@pytest.fixture(scope="module")
def bench_run(workloads):
    # run.py imports workloads, which the fixture above has loaded.
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("run")
    finally:
        sys.path.remove(BENCH)


class _FirstSession(Exception):
    pass


@pytest.mark.parametrize("workload", ["screening_ablation", "gate_sweep",
                                      "archive_chain"])
def test_every_benchmark_config_reaches_its_first_session(
        workloads, workload, tmp_path, monkeypatch):
    assert workload in workloads.WORKLOADS
    started = []

    def first_session(cfg, archive, out):
        started.append(cfg.session_id)
        raise _FirstSession

    monkeypatch.setattr(cli, "_run", first_session)
    monkeypatch.chdir(tmp_path)
    calls = workloads.plan(workload, 1, "full")
    workloads.write_configs(calls, str(tmp_path))
    for call in calls:
        # ablate and sessions build every session's config before the first
        # runs, so one session checks them all.
        with pytest.raises(_FirstSession):
            cli.main([call["command"], "--config", call["config"], "--out",
                      "out", "--quiet"])
    assert started == [call["sessions"][0] for call in calls]


@pytest.mark.parametrize("workload", ["screening_ablation", "gate_sweep",
                                      "archive_chain"])
def test_benchmark_reads_every_planned_session(workloads, bench_run,
                                               workload, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = workloads.plan(workload, 1, "tiny")
    workloads.write_configs(calls, str(tmp_path))
    for call in calls:
        assert cli.main([call["command"], "--config", call["config"],
                         "--out", "out", "--quiet"]) \
            == bench_run.EXPECTED_EXIT
        sessions = bench_run.read_sessions("out", call)
        assert sorted(sessions) == sorted(call["sessions"])
        assert all(s["outcome"] != "aborted" for s in sessions.values())


def _wrap(monkeypatch, module, attr: str, make) -> None:
    """Swap ``attr`` for its wrapper on every driftguard module that bound
    it by name, as ``bench/probes.py`` does, for this test only."""
    original = getattr(module, attr)
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] == "driftguard":
            for key, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, key, wrapped)


def test_no_executed_plan_spends_over_its_budget(workloads, tmp_path,
                                                 monkeypatch):
    # Real traffic: each workload's "tiny" plan and every shipped config,
    # through the CLI. Every run the runner makes is held to the
    # n_budget of the session's problem.
    budget, runs = [0], []

    def session_budget(run_session):
        def wrapper(cfg, *args, **kwargs):
            budget[0] = cfg.problem["n_budget"]
            return run_session(cfg, *args, **kwargs)
        return wrapper

    def counted(execution_runner):
        def wrapper(plan, *args, **kwargs):
            obs = execution_runner(plan, *args, **kwargs)
            runs.append((plan, obs.evaluations_used, budget[0]))
            return obs
        return wrapper

    _wrap(monkeypatch, pipeline, "run_session", session_budget)
    _wrap(monkeypatch, agents, "execution_runner", counted)
    monkeypatch.chdir(tmp_path)
    calls = [call for workload in workloads.WORKLOADS
             for call in workloads.plan(workload, 1, "tiny")]
    workloads.write_configs(calls, str(tmp_path))
    argvs = [[call["command"], "--config", call["config"]]
             for call in calls]
    for name in sorted(os.listdir(CONFIGS)):
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        command = "sessions" if "sessions" in doc else \
            "ablate" if "conditions" in doc else "run"
        argvs.append([command, "--config", os.path.join(CONFIGS, name)])
    for argv in argvs:
        assert cli.main(argv + ["--out", "out", "--quiet"]) == cli.EXIT_OK
    assert len(runs) > len(argvs)
    over = [(plan, used, limit) for plan, used, limit in runs
            if used > limit]
    assert not over
