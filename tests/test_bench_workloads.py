"""Every config the benchmark writes must pass the CLI's config checks, and
the benchmark must be able to read what the CLI writes.

``bench/workloads.py`` writes the JSON configs the benchmark feeds to
``driftguard.cli.main``. A gate id, problem key or drift key that the CLI
stops accepting would only surface when ``bench/run.py`` runs; the first
test parses every config of every workload up to its first session, so the
change fails here instead. ``bench/run.py``'s ``read_sessions`` parses the
trace headers, summaries and CSV columns the CLI writes; the second test
runs each workload's ``"tiny"`` plan and reads its output back. Both import
the ``bench/`` modules and change nothing under ``bench/``.
"""

import importlib
import os
import sys

import pytest

from driftguard import cli

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
