"""The workload process of a benchmark run, started by ``run.py``.

It imports driftguard, writes the workload's configs into the current
directory and prints ``READY``; the parent takes the time from its own
spawn call to that line as the set-up time. With ``--setup-only`` it stops
there. Otherwise it runs *passes* until ``--seconds`` would be exceeded, at
least two of them. Each pass is a process forked from this one after the
imports, so every pass starts from the same fresh state and nothing one
pass computes can serve another. A pass runs every CLI call of the
workload through ``driftguard.cli.main`` with ``--out out`` in its own
directory ``pass-<k>`` and writes ``result.json`` there (and, when traced,
``spans.json``). With ``--trace 1`` every second pass is traced. The list
of passes and their exit codes goes to ``passes.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
import traceback


def run_pass(cli, probes, calls: list[dict], traced: bool,
             import_s: float) -> None:
    """One pass in the current directory; writes ``result.json``."""
    recorder = probes.Recorder(traced=traced)
    recorder.install()
    results = []
    begin = time.perf_counter()
    for call in calls:
        argv = [call["command"], "--config", call["config"], "--out", "out",
                "--quiet"]
        error = ""
        try:
            code = cli.main(argv)
        except Exception:   # one bad call must not hide the others' results
            code, error = None, traceback.format_exc()
        results.append({"config": call["config"], "exit": code,
                        "error": error})
    workload_s = time.perf_counter() - begin

    report = {
        "workload_s": workload_s,
        "calls": results,
        "sessions": recorder.sessions,
        "model_evals": recorder.counts["model_evals"],
        "estimates": recorder.estimates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "threads": threading.active_count(),
    }
    if traced:
        report["layers"] = recorder.layer_metrics()
        report["layers"]["cli.import.s"] = import_s
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def fork_pass(cli, probes, workloads, calls: list[dict], directory: str,
              traced: bool, import_s: float) -> int:
    """Run one pass in a forked process; return its exit code."""
    os.mkdir(directory)
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.chdir(directory)
            workloads.write_configs(calls, ".")
            run_pass(cli, probes, calls, traced, import_s)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def main() -> int:
    start = time.perf_counter()
    from driftguard import cli
    import_s = time.perf_counter() - start

    import probes
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    calls = workloads.plan(args.workload, args.seed, args.size)
    workloads.write_configs(calls, ".")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = []
    longest = 0.0
    measuring = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        directory = f"pass-{len(passes)}"
        began = time.perf_counter()
        code = fork_pass(cli, probes, workloads, calls, directory, traced,
                         import_s)
        longest = max(longest, time.perf_counter() - began)
        passes.append({"dir": directory, "traced": traced, "exit": code})
        now = time.perf_counter()
        if code != 0 or (len(passes) >= 2
                         and now - measuring + longest > args.seconds):
            break
    with open("passes.json", "w", encoding="utf-8") as fh:
        json.dump(passes, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
