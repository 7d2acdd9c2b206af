"""driftguard benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload gate_sweep --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it reads ``src/`` and writes only under
``.bench_work/`` and ``.bench_build/``. It first times the set-up of a few
fresh, single-threaded interpreters (``child.py``). Then one more of them
runs *passes* of the workload until ``--seconds`` would be exceeded, at
least two of them; each pass is a process forked from it after the imports,
and calls ``driftguard.cli.main`` on configs generated from ``--seed``.
A session's time is its median over the passes, scaled to a fixed host
speed with a reference kernel timed beside every session (``host_scale``).
With ``--trace 1`` the passes alternate untraced and traced, and the
metrics are the per-layer ones from the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
repeat every metric with its unit, the session percentile behind
``session_s.tail``, ``failed_share`` and the artifact digest. The exit code
is 0 when every check passed, 1 when one failed and 2 when the checkout
holds no driftguard sources.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2          # set-up-only spawns per run, after one warm-up
RUN_DEADLINE_S = 165.0    # a run must end within 180 s
E2E_UNITS = {"setup_s": "s", "workload_s": "s", "session_s.p50": "s",
             "session_s.tail": "s", "model_evals": "count",
             "peak_rss_mb": "MB", "converged_share": "ratio"}
# The reference kernel's median time on the 2-vCPU host the baseline was
# measured on; timings are reported as at a host of that speed.
REFERENCE_S = 0.00085
TAIL_MARGIN = 10          # sessions that must lie beyond the tail percentile
# Every workload session converges or exhausts its budget: CLI exit code 0.
EXPECTED_EXIT = 0


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last == "bytes":
        return "bytes"
    if last == "evals_per_s":
        return "1/s"
    if "ratio" in last or "share" in last or "_per_" in last:
        return "ratio"
    return "count"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("DRIFTGUARD_OUT", None)   # it would override --out
    # Bytecode is cached under .bench_build, never beside src/, so set-up
    # time measures imports from cached bytecode whatever the caller's
    # PYTHONDONTWRITEBYTECODE says; the warm-up probe fills the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        # estimators seed a reference RNG from hash(model id): without a
        # pinned hash seed, artifacts differ between processes.
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": os.path.join(root, ".bench_build", "pycache"),
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1"})
    return env


def spawn(directory: str, env: dict, args, extra: list[str],
          timeout: float) -> dict:
    """Start child.py in ``directory`` and wait for it and every pass it
    forked. Returns its set-up time and its passes, each with its report
    (None when it failed, with the reason in ``error``)."""
    os.makedirs(directory)
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, *extra]
    with open(os.path.join(directory, "stderr.txt"), "w") as err:
        start = time.perf_counter()
        # A session of its own, so that a timeout ends the forked passes too.
        proc = subprocess.Popen(argv, cwd=directory, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - start
            proc.communicate(timeout=max(1.0, timeout - setup_s))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"setup_s": None, "passes": [],
                    "error": f"timed out after {timeout:.0f} s"}
    if line != "READY\n" or proc.returncode != 0:
        with open(os.path.join(directory, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        return {"setup_s": None, "passes": [],
                "error": f"child exited {proc.returncode}: {tail}"}
    passes = []
    if "--setup-only" not in extra:
        with open(os.path.join(directory, "passes.json")) as fh:
            passes = json.load(fh)
    for p in passes:
        p["dir"] = os.path.join(directory, p["dir"])
        p["report"], p["error"] = None, ""
        if p["exit"] != 0:
            p["error"] = f"pass exited {p['exit']}"
            continue
        with open(os.path.join(p["dir"], "result.json")) as fh:
            p["report"] = json.load(fh)
    return {"setup_s": setup_s, "passes": passes, "error": ""}


# ---------------------------------------------------------------------------
# Output checks


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _read_csv(path: str, columns: tuple[str, ...]) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if any(row.get(c) in (None, "") for c in columns):
            raise ValueError(f"{os.path.basename(path)} lacks {columns}")
    return rows


def read_sessions(out: str, call: dict) -> dict[str, dict]:
    """session id -> {"outcome", and for ablations "condition" and
    "mismatches"}, from the artifacts one CLI call wrote."""
    doc = call["doc"]
    if call["command"] == "run":
        sid = doc["session_id"]
        header = _read_jsonl(os.path.join(out, f"{sid}.trace.jsonl"))[0]
        with open(os.path.join(out, f"{sid}.summary.json")) as fh:
            summary = json.load(fh)
        if header["outcome"] != summary["outcome"]:
            raise ValueError(f"{sid}: trace and summary disagree")
        return {sid: {"outcome": summary["outcome"]}}
    table = os.path.join(out, doc["output_name"] + ".csv")
    if call["command"] == "ablate":
        rows = _read_csv(table, ("condition", "seed", "outcome",
                                 "mismatch_count"))
        return {f"{doc['session_id']}-{r['condition']}-s{r['seed']}":
                {"outcome": r["outcome"], "condition": r["condition"],
                 "mismatches": int(r["mismatch_count"])} for r in rows}
    rows = _read_csv(table, ("session_id", "outcome"))
    for r in rows:
        _read_jsonl(os.path.join(out, f"{r['session_id']}.trace.jsonl"))
    return {r["session_id"]: {"outcome": r["outcome"]} for r in rows}


def inspect(directory: str, calls: list[dict], report: dict):
    """Check one pass. Returns (sessions by id, failed ids, problems)."""
    out = os.path.join(directory, "out")
    sessions, failed, problems = {}, set(), []
    for call, res in zip(calls, report["calls"]):
        if res["exit"] != EXPECTED_EXIT:
            problems.append(f"{call['config']}: exit {res['exit']}, expected "
                            f"{EXPECTED_EXIT} {res['error']}")
            failed.update(call["sessions"])
            continue
        try:
            sessions.update(read_sessions(out, call))
        except (OSError, ValueError, KeyError, IndexError, csv.Error) as exc:
            problems.append(f"{call['config']}: unreadable output: {exc!r}")
            failed.update(call["sessions"])
    planned = [sid for call in calls for sid in call["sessions"]]
    for sid in planned:
        if sid not in sessions:
            failed.add(sid)
        elif sessions[sid]["outcome"] == "aborted":
            problems.append(f"{sid}: session aborted")
            failed.add(sid)
    if len(report["sessions"]) != len(planned):
        problems.append(f"{len(report['sessions'])} sessions ran, "
                        f"{len(planned)} planned")
    if report["threads"] != 1:
        problems.append(f"workload process ran {report['threads']} threads")
    # Analytic g-function indices put the largest effect on input 1 (a=0).
    for est in report["estimates"]:
        if est["nan_count"] or est["largest_input"] != 0:
            problems.append(f"{est['session']}: {est['estimator']} on "
                            f"g_function_15d gave nan_count "
                            f"{est['nan_count']}, largest input "
                            f"{est['largest_input']}")
            failed.add(est["session"])
    ablated = {sid: s for sid, s in sessions.items() if "condition" in s}
    if ablated:
        for sid, s in ablated.items():
            if s["condition"] == "full_checkpoints" and s["mismatches"]:
                problems.append(f"{sid}: drifted plan executed under full "
                                "checkpoints")
                failed.add(sid)
        undefended = [sid for sid, s in ablated.items()
                      if s["condition"] == "no_checkpoints"]
        if not sum(ablated[sid]["mismatches"] for sid in undefended):
            problems.append("no drifted plan executed without checkpoints")
            failed.update(undefended)
    return sessions, failed, problems


def digest(out: str) -> str:
    """sha256 over the names and bytes of every artifact in ``out``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    TAIL_MARGIN values beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MARGIN:
        return ordered[-1], 100.0
    return ordered[n - TAIL_MARGIN - 1], 100.0 * (n - TAIL_MARGIN) / n


def typical(passes) -> tuple[dict[str, float], float]:
    """Each session's median wall time over ``passes``, and the median
    pass wall time spent outside sessions (CLI parsing, config and artifact
    I/O, the reference kernel excluded)."""
    times: dict[str, list[float]] = {}
    outside = []
    for p in passes:
        report = p["report"]
        for s in report["sessions"]:
            times.setdefault(s["id"], []).append(s["seconds"])
        outside.append(report["workload_s"] - sum(
            s["seconds"] + 2 * s["reference_s"] for s in report["sessions"]))
    return ({sid: statistics.median(v) for sid, v in times.items()},
            statistics.median(outside))


def host_scale(passes) -> float:
    """REFERENCE_S over the reference kernel's time, taken the way the
    session times are: for each session the median over ``passes`` of the
    mean of its timings just before and just after the session, averaged
    over the sessions. The host's speed drifts by tens of percent over
    minutes; multiplied by this, a time reads as it would on a host where
    the kernel takes REFERENCE_S, and the drift cancels."""
    kernel: dict[str, list[float]] = {}
    for p in passes:
        for s in p["report"]["sessions"]:
            kernel.setdefault(s["id"], []).append(s["reference_s"])
    return REFERENCE_S / statistics.fmean(
        statistics.median(v) for v in kernel.values())


def pass_s(passes) -> float:
    """Wall time of a pass, every session at its median."""
    sessions, outside = typical(passes)
    return sum(sessions.values()) + outside


def end_to_end(setups, untraced, sessions) -> tuple[dict, dict, str]:
    """The end-to-end metrics, the raw wall times behind the scaled ones,
    and a note on the tail percentile."""
    times = list(typical(untraced)[0].values())
    tail_s, pct = tail(times)
    raw = {"workload_s": pass_s(untraced),
           "session_s.p50": statistics.median(times),
           "session_s.tail": tail_s}
    scale = host_scale(untraced)
    first = untraced[0]["report"]
    converged = sum(1 for s in sessions.values()
                    if s["outcome"] == "converged")
    values = {
        "setup_s": statistics.median(setups),
        **{name: value * scale for name, value in raw.items()},
        "model_evals": first["model_evals"],
        "peak_rss_mb": statistics.median(p["report"]["peak_rss_mb"]
                                         for p in untraced),
        "converged_share": converged / len(times),
    }
    note = (f"session_s.tail is p{pct:.1f} of {len(times)} sessions "
            f"(each its median over {len(untraced)} passes)")
    return values, {**raw, "host_scale": scale}, note


def per_layer(untraced, traced) -> dict:
    names = traced[0]["report"]["layers"]
    values = {n: statistics.median(p["report"]["layers"][n] for p in traced)
              for n in names}
    plain = pass_s(untraced) * host_scale(untraced)
    with_spans = pass_s(traced) * host_scale(traced)
    values["trace.overhead_s"] = with_spans - plain
    values["trace.overhead_share"] = (with_spans - plain) / plain
    return values


def layer_shares(values: dict, workload_s: float) -> str:
    from probes import LAYERS
    parts = sorted(((values[f"{m}.self_s"] / workload_s, m) for m in LAYERS),
                   reverse=True)
    return ", ".join(f"{m} {share:.1%}" for share, m in parts)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=workloads.SIZES,
                        help="'tiny' is for the smoke check")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "driftguard", "cli.py")):
        print("error: run from a driftguard checkout (no src/driftguard)",
              file=sys.stderr)
        return 2
    began = time.perf_counter()
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    env = child_env(root)
    calls = workloads.plan(args.workload, args.seed, args.size)
    n_sessions = sum(len(c["sessions"]) for c in calls)

    problems: list[str] = []
    setups = []
    for k in range(SETUP_PROBES + 1):   # probe 0 warms caches, not counted
        probe = spawn(os.path.join(work, f"setup-{k}"), env, args,
                      ["--setup-only"], timeout=60.0)
        if probe["error"]:
            problems.append(f"set-up probe: {probe['error']}")
            break
        if k:
            setups.append(probe["setup_s"])

    passes = []
    if not problems:
        left = RUN_DEADLINE_S - (time.perf_counter() - began)
        server = spawn(os.path.join(work, "passes"), env, args,
                       ["--seconds", str(min(args.seconds, left - 10.0)),
                        "--trace", str(args.trace)], timeout=left)
        passes = server["passes"]
        if server["error"]:
            problems.append(f"workload process: {server['error']}")
        else:
            setups.append(server["setup_s"])
        problems += [f"{p['dir']}: {p['error']}" for p in passes
                     if p["error"]]

    # A run that failed before any pass counts its whole first pass.
    attempted = n_sessions * max(1, len(passes))
    failed = n_sessions * (sum(1 for p in passes if p["error"])
                           if passes else 1)
    checked = [p for p in passes if not p["error"]]
    sessions, digests = {}, []
    for i, p in enumerate(checked):
        found, bad, faults = inspect(p["dir"], calls, p["report"])
        sessions = sessions or found
        failed += len(bad)
        problems += [f"pass {i}: {msg}" for msg in faults]
        digests.append(digest(os.path.join(p["dir"], "out")))
        same = (digests[-1] == digests[0] and p["report"]["model_evals"]
                == checked[0]["report"]["model_evals"])
        if not same:
            problems.append(f"pass {i}: artifacts or model_evals differ "
                            "from pass 0")
            failed += n_sessions - len(bad)

    metrics = {}
    untraced = [p for p in checked if not p["traced"]]
    traced = [p for p in checked if p["traced"]]
    if untraced and (traced or not args.trace) and sessions:
        e2e, raw, note = end_to_end(setups, untraced, sessions)
        print(f"workload {args.workload}, seed {args.seed}: {n_sessions} "
              f"sessions per pass, {len(passes)} passes "
              f"({len(traced)} traced)")
        for name, value in e2e.items():
            print(f"  {name:<18} {value:>14.6g} {E2E_UNITS[name]}")
        print(f"  {'failed_share':<18} {failed / attempted:>14.6g} ratio")
        print(f"  {note}")
        print("  raw wall times: " + ", ".join(
            f"{name} {value:.6g} s" for name, value in raw.items()
            if name != "host_scale")
            + f"; host scale {raw['host_scale']:.4f}")
        print(f"  artifacts sha256 {digests[0]} (traces, summaries and CSVs;"
              " the archive file is left out: its entries carry time.time()"
              " stamps)")
        if args.trace:
            layers = per_layer(untraced, traced)
            for name, value in layers.items():
                print(f"  {name:<46} {value:>14.6g} {layer_unit(name)}")
            print("  self-time share of traced workload_s: "
                  + layer_shares(layers, workload_s=statistics.median(
                      p["report"]["workload_s"] for p in traced)))
            metrics = {n: {"value": v, "unit": layer_unit(n)}
                       for n, v in layers.items()}
        else:
            metrics = {n: {"value": v, "unit": E2E_UNITS[n]}
                       for n, v in e2e.items()}
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
