"""Deterministic simulated environment for policy-level experiments.

Replaces the numerical estimators with scripted per-arm reward draws so the
selection policy, the novelty gate, action replacement (full drift), and
cross-session persistence can be studied in isolation at negligible cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from driftguard import bandit
from driftguard.action_space import ActionTuple
from driftguard.archive import Archive
from driftguard.checkpoints import CP0_CLOSE_CUTOFF
from driftguard.errors import InvalidProblem
from driftguard.schemes import MethodScheme, ProblemScheme, \
    build_method_scheme, build_problem_scheme

# Canonical problem descriptor: the simulated arms are attached to a real
# problem scheme so feature encoding and archive similarity work unchanged.
SIM_PROBLEM = {"task": "SA", "d_in": 8, "d_out": 1, "n_budget": 15000,
               "epsilon": 0.05, "model_id": "g_function_8d",
               "dist_family": ["Uniform"] * 8}


def canonical_action(estimator: str) -> ActionTuple:
    """One representative action tuple per estimator."""
    return ActionTuple("MonteCarlo", estimator)


def canonical_method(estimator: str, ps: ProblemScheme) -> MethodScheme:
    """The method scheme of ``canonical_action(estimator)`` on ``ps`` at
    the policy's default sample size."""
    return build_method_scheme(canonical_action(estimator), ps,
                               bandit.default_n_samples(estimator, ps))


@dataclass(frozen=True)
class SimConfig:
    """Scripted two-or-more-arm environment description."""

    arm_means: tuple[tuple[str, float], ...] = (("Sobol", 90.0),
                                                ("Morris", 40.0))
    sigma: float = 5.0
    iterations: int = 500
    replace_prob: float = 0.0      # 1.0 = full drift: executed arm is uniform
    novelty_gate: bool = True      # repeat-selection gate (CP7 stand-in)
    exploration_mode: str = "neutral"

    def __post_init__(self):
        if len(self.arm_means) < 1:
            raise InvalidProblem("simulated environment needs >= 1 arm")
        if not 0.0 <= self.replace_prob <= 1.0:
            raise InvalidProblem("replace_prob must lie in [0, 1]")


@dataclass(frozen=True)
class SimRecord:
    """One simulated iteration; field names mirror IterationRecord so the
    analysis helpers and the archive accept either."""

    n: int
    method: MethodScheme           # the policy's selection
    executed_estimator: str        # after any replacement
    reward_total: float
    failed: bool = False           # the policy always learns from a draw


@dataclass
class SimTrace:
    session_id: str
    problem_scheme: object
    records: list = field(default_factory=list)
    policy_snapshot: dict | None = None

    @property
    def best_reward(self) -> float:
        return max((r.reward_total for r in self.records), default=0.0)

    @property
    def iterations_to_best(self) -> int:
        best = self.best_reward
        return next(r.n for r in self.records if r.reward_total == best)


def _draw_reward(means: dict[str, float], estimator: str, sigma: float,
                 rng: np.random.Generator) -> float:
    return float(np.clip(rng.normal(means[estimator], sigma), 0.0, 100.0))


def run_sim_session(cfg: SimConfig, seed: int,
                    policy: bandit.PolicyState | None = None,
                    session_id: str = "sim") -> SimTrace:
    """One scripted session driven by the real selection policy."""
    ps = build_problem_scheme(SIM_PROBLEM)
    means = dict(cfg.arm_means)
    arms = [canonical_action(est) for est, _ in cfg.arm_means]
    if policy is None:
        policy = bandit.PolicyState(exploration_mode=cfg.exploration_mode)
    rng = np.random.default_rng(seed)
    trace = SimTrace(session_id=session_id, problem_scheme=ps)
    prev_estimator = ""
    for n in range(1, cfg.iterations + 1):
        ms = bandit.select_action(policy, ps, arms,
                                  rng_seed=seed * 100_003 + n)
        if cfg.novelty_gate and ms.estimator == prev_estimator:
            # Repeat selection: re-decide once under the novelty penalty,
            # mirroring the inverted-novelty checkpoint in the real loop.
            ms = bandit.select_action(policy, ps, arms, novelty_warning=True,
                                      rng_seed=seed * 100_003 + n + 1)
        executed = ms.estimator
        if cfg.replace_prob > 0 and rng.random() < cfg.replace_prob:
            executed = arms[int(rng.integers(len(arms)))].estimator
        reward = _draw_reward(means, executed, cfg.sigma, rng)
        policy.update(bandit.encode_features(ps, ms.action), reward,
                      ms.estimator)
        trace.records.append(SimRecord(n=n, method=ms,
                                       executed_estimator=executed,
                                       reward_total=reward))
        prev_estimator = ms.estimator
    trace.policy_snapshot = policy.snapshot()
    return trace


def run_sim_sessions(cfg: SimConfig, seed: int, n_sessions: int = 3,
                     archive: Archive | None = None) -> list[SimTrace]:
    """Consecutive sessions sharing an archive and a persisted policy.

    Session 1 starts cold in maximal exploration; later sessions find a
    close archive match, restore the policy snapshot, and exploit.
    """
    if archive is None:
        archive = Archive()
    ps = build_problem_scheme(SIM_PROBLEM)
    traces = []
    for k in range(1, n_sessions + 1):
        entry, sim = archive.lookup(ps)
        if entry is not None and sim >= CP0_CLOSE_CUTOFF \
                and entry.policy_snapshot:
            policy = bandit.PolicyState.from_snapshot(entry.policy_snapshot,
                                                      "exploit")
        else:
            policy = bandit.PolicyState(exploration_mode="explore_max")
        trace = run_sim_session(cfg, seed=seed * 7919 + k, policy=policy,
                                session_id=f"sim-{k}")
        archive.record_session(trace)
        traces.append(trace)
    return traces
