"""The benchmark's workloads, generated from a workload seed.

A workload is a list of CLI calls. Each call names a ``driftguard``
subcommand, the JSON config it reads and the sessions it runs. The seed only
chooses session seeds; the mix of models, drift kinds and checkpoint settings
is fixed per workload, so two seeds do the same kind of work.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("screening_ablation", "gate_sweep", "archive_chain")

# Session counts per pass. "tiny" serves the smoke check only.
SIZES = {
    "full": {"ablation_seeds": 3, "g15": 2, "thermal": 1,
             "gate_sessions": 48, "chain_sessions": 40},
    "tiny": {"ablation_seeds": 1, "g15": 1, "thermal": 1,
             "gate_sessions": 4, "chain_sessions": 3},
}

ALL_CHECKPOINTS_OFF = {f"CP{i}": -1.0 for i in range(8)}


def _problem(model_id: str, d_in: int, n_budget: int, family: str) -> dict:
    return {"task": "SA", "d_in": d_in, "d_out": 1, "n_budget": n_budget,
            "epsilon": 0.05, "model_id": model_id,
            "dist_family": [family] * d_in}


# Budgets follow the shipped configs where one exists. Two choices keep
# a pass's cost steady from seed to seed. The ablation runs structural_eq3
# at n_budget=1000 with drift firing on every iteration, so each ablated
# session executes a fixed number of Morris evaluations. thermal_stub runs
# at n_budget=20000 with n_max=2: at n_max=5 its later iterations escalate
# the sample size, and single sessions ran from about 1 s to over 15 s.
PROBLEMS = {
    "ablation_eq3": _problem("structural_eq3", 4, 1000, "Uniform"),
    "structural_eq3": _problem("structural_eq3", 4, 8000, "Uniform"),
    "ishigami": _problem("ishigami", 3, 6000, "Uniform"),
    "cantilever_beam": _problem("cantilever_beam", 4, 12000, "Normal"),
    "g_function_15d": _problem("g_function_15d", 15, 20000, "Uniform"),
    "thermal_stub": _problem("thermal_stub", 20, 20000, "Uniform"),
}

MORRIS_SWAP = {"kind": "method_swap", "replacement_value": "Morris",
               "probability": 1.0}
# n_samples=5000 puts Sobol on cantilever_beam at 30 000 evaluations against
# a 12 000 budget. The Inspector checks only the lower bound, so the overrun
# executes and shows in model_evals.
OVERSIZED_N = {"kind": "field_corruption", "target_field": "n_samples",
               "replacement_value": "5000", "probability": 1.0}
GATE_DRIFTS = (None, None, MORRIS_SWAP, OVERSIZED_N)
LOW_DIM_MODELS = ("ishigami", "cantilever_beam", "structural_eq3")


def _call(command: str, name: str, doc: dict, sessions: list[str]) -> dict:
    return {"command": command, "config": f"{name}.json", "doc": doc,
            "sessions": sessions}


def _single(session_id: str, problem: str, seed: int,
            drift: dict | None = None, n_max: int = 5) -> dict:
    doc = {"session_id": session_id, "problem": PROBLEMS[problem],
           "n_max": n_max, "r_threshold": 85.0, "seed": seed}
    if drift:
        doc["drift"] = drift
    return _call("run", session_id, doc, [session_id])


def _screening_ablation(rng: random.Random, size: dict) -> list[dict]:
    seeds = rng.sample(range(1, 100_000), size["ablation_seeds"])
    conditions = [
        {"name": "no_checkpoints", "checkpoint_overrides": ALL_CHECKPOINTS_OFF,
         "drift": MORRIS_SWAP},
        {"name": "full_checkpoints", "checkpoint_overrides": {},
         "drift": MORRIS_SWAP},
    ]
    ablation = {"session_id": "eq3", "output_name": "eq3_ablation",
                "problem": PROBLEMS["ablation_eq3"], "n_max": 5,
                "r_threshold": 85.0, "record_to_archive": False,
                "seeds": seeds, "conditions": conditions}
    calls = [_call("ablate", "eq3_ablation", ablation,
                   [f"eq3-{c['name']}-s{s}" for c in conditions
                    for s in seeds])]
    for model, count, n_max in (("g_function_15d", size["g15"], 5),
                                ("thermal_stub", size["thermal"], 2)):
        for k in range(count):
            calls.append(_single(f"{model}-{k}", model,
                                 rng.randrange(1, 100_000), n_max=n_max))
    return calls


def _gate_sweep(rng: random.Random, size: dict) -> list[dict]:
    calls = []
    for k in range(size["gate_sessions"]):
        model = LOW_DIM_MODELS[k % len(LOW_DIM_MODELS)]
        drift = GATE_DRIFTS[(k // len(LOW_DIM_MODELS)) % len(GATE_DRIFTS)]
        calls.append(_single(f"gate-{k:03d}", model,
                             rng.randrange(1, 100_000), drift))
    return calls


def _archive_chain(rng: random.Random, size: dict) -> list[dict]:
    sessions = [{"session_id": f"chain-{k:03d}",
                 "seed": rng.randrange(1, 100_000),
                 "problem": PROBLEMS[LOW_DIM_MODELS[k % len(LOW_DIM_MODELS)]]}
                for k in range(size["chain_sessions"])]
    # The archive file lives beside out/, not in it: its entries carry
    # time.time() stamps, so it is left out of the artifact digest.
    doc = {"output_name": "chain", "archive_path": "archive.json",
           "persist_policy": True, "n_max": 5, "r_threshold": 85.0,
           "sessions": sessions}
    return [_call("sessions", "chain", doc,
                  [s["session_id"] for s in sessions])]


_PLANNERS = {"screening_ablation": _screening_ablation,
             "gate_sweep": _gate_sweep,
             "archive_chain": _archive_chain}


def plan(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The CLI calls of one pass of ``workload``; same seed, same calls."""
    rng = random.Random(f"{workload}:{seed}")
    return _PLANNERS[workload](rng, SIZES[size])


def write_configs(calls: list[dict], directory: str) -> None:
    for call in calls:
        with open(os.path.join(directory, call["config"]), "w",
                  encoding="utf-8") as fh:
            json.dump(call["doc"], fh, sort_keys=True, indent=1)
