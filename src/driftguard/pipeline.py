"""Session orchestrator: a config that admits its problem once (intake; a
refusal aborts the session), the decision loop with every checkpoint wired
at its boundary, and the trace writer.

Every gate of an iteration goes through one call, which records its event; a
switched-off gate passes and reports the threshold -1 like any other, and
CP5's Inspector is off with CP5; an Inspector block records its reasons. One
rule heals a blocked step: gate, remedy, gate again. A CP2 block re-selects,
a CP5 block rebuilds the plan from the uncorrupted strategy text, and a
failed execution gets one Debugger patch; a CP4 block has no remedy. A
second CP2 or CP5 block, or a CP4 block, ends the iteration with a failed
record; a second failed execution scores a crash. A CP7 novelty warning
re-selects once.

``n_budget`` limits each executed plan: the policy clamps a sample size
between the estimator's floor and the budget's cap, the Inspector holds the
plan to it, and the runner refuses a costlier plan before any model
evaluation, which the Debugger patches to the cap.  A session keeps one
Monte Carlo sample that Chatterjee, CVM and Sobol read, and nested Latin
hypercubes, so a run evaluates only the rows its design lacks;
``observation.evaluations_used`` counts the evaluations executed, and the
reward, the Advisor and CP6 read the plan's cost.

The Advisor hands over the diagnosis, whose prose CP6 reads. Each fact has
one home: a record holds its method scheme and reward breakdown, and a trace
its records. Totals, failures, the outcome and the earlier decisions that
the loop reads are all read from the records.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, fields, replace

from . import action_space, agents, bandit, catalog, reward as reward_mod
from .agents import DriftSpec, ExecutionPlan
from .archive import Archive
from .checkpoints import CHECKPOINT_TABLE, DISABLED, CheckpointManager, \
    CheckpointResult, CP0Result
from .embedding import calibrate_null, shipped_corpus, similarity
from .errors import DriftguardError, InvalidProblem
from .estimators import SAResult, get_model
from .schemes import DiagnosticScheme, MethodScheme, ProblemScheme, \
    build_problem_scheme, check_field_types, to_json


@dataclass(frozen=True)
class SessionConfig:
    """Every session setting with its default and type, which
    ``__post_init__`` checks; the CLI's config keys are these fields.  It
    admits the problem once, refusing the config for a mistyped field or an
    unknown model; ``problem_scheme`` is the record, or ``refusal`` the
    InvalidProblem that aborts the session, and neither is a field."""

    problem: dict
    n_max: int = 5
    r_threshold: float = 85.0
    checkpoint_overrides: dict = field(default_factory=dict)  # cp_id -> -1
    drift: DriftSpec = field(default_factory=DriftSpec)
    seed: int = 0
    session_id: str = "session"
    record_to_archive: bool = True
    persist_policy: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:    # numpy generators take no negative seed
            raise ValueError("seed must be >= 0")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not 0.0 < self.r_threshold <= 100.0:
            raise ValueError("r_threshold must lie in (0, 100]")
        # The gate table is the only source of thresholds.
        if any(cp not in CHECKPOINT_TABLE or value != DISABLED
               for cp, value in self.checkpoint_overrides.items()):
            raise ValueError("checkpoint_overrides may only map a gate id "
                             "to -1, which switches the gate off")
        try:
            scheme, refusal = build_problem_scheme(self.problem), None
        except InvalidProblem as exc:
            scheme, refusal = None, exc
        object.__setattr__(self, "problem_scheme", scheme)
        object.__setattr__(self, "refusal", refusal)

    def digest(self) -> str:
        """Hash of every field but the session id, which names the session.
        The problem counts as its admitted record, which two spellings of it
        share, or if refused as written, under a key no record has."""
        body = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "session_id"}
        body["problem"] = self.problem_scheme or {"unbuilt": self.problem}
        return hashlib.sha256(to_json(body).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class IterationRecord:
    n: int
    method: MethodScheme
    plan: ExecutionPlan | None
    observation: SAResult | None
    reward: reward_mod.RewardBreakdown
    checkpoint_events: tuple[CheckpointResult, ...]
    drift_events: tuple
    diagnostic: DiagnosticScheme
    strategy_text: str

    @property
    def reward_total(self) -> float:
        return self.reward.total

    @property
    def failed(self) -> bool:
        """A gate ended the iteration; the policy saw no reward."""
        return self.plan is None

    @property
    def mismatch(self) -> bool:
        """Action-plan estimator divergence at execution time; derived."""
        return (self.plan is not None
                and self.plan.estimator != self.method.estimator)


@dataclass
class SessionTrace:
    config: SessionConfig
    records: list
    cp0: CP0Result = CP0Result(0.0, "none", None, "explore_max", False)
    policy_snapshot: dict | None = None
    abort_reason: str = ""
    # The session's designs: its one Monte Carlo sample, Morris's
    # trajectories and its nested Latin hypercubes; never written.
    designs: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def session_id(self) -> str:
        return self.config.session_id

    @property
    def problem_scheme(self) -> ProblemScheme | None:
        return self.config.problem_scheme

    @property
    def outcome(self) -> str:
        """converged | budget_exhausted | aborted; a session stops at its
        first record that reaches the threshold."""
        if self.abort_reason:
            return "aborted"
        if self.records and \
                self.records[-1].reward_total >= self.config.r_threshold:
            return "converged"
        return "budget_exhausted"

    @property
    def best_reward(self) -> float:
        return max((r.reward_total for r in self.records), default=0.0)

    @property
    def iterations_to_converge(self) -> int | None:
        return len(self.records) if self.outcome == "converged" else None


def submartingale_flags(prev_reward: float | None, total: float,
                        obs: SAResult | None) -> tuple[str, ...]:
    """Violation flags of the last learned reward: the loop expects rewards
    to be non-decreasing in expectation, so any drop is surfaced to the next
    strategy prompt together with numerical red flags."""
    flags = []
    if prev_reward is not None and total < prev_reward:
        flags.append(f"reward regressed from {prev_reward:.1f} to "
                     f"{total:.1f}")
    if obs is not None and obs.negative_variance_flag:
        flags.append("negative variance contribution observed")
    return tuple(flags)


def _at_plan_cost(plan: ExecutionPlan,
                  obs: SAResult | None) -> SAResult | None:
    """``obs`` counting the evaluations its estimate rests on, the plan's
    cost: a run a design served scores what the same estimate scores fresh."""
    return obs and replace(obs, evaluations_used=catalog.estimator_info(
        plan.estimator).cost(plan.n_samples, get_model(plan.model_id).d_in))


def run_iteration(trace: SessionTrace, policy: bandit.PolicyState,
                  manager: CheckpointManager,
                  feasible: list) -> IterationRecord:
    """One loop pass: policy, implementation, execution, evaluation; returns
    the complete record. What earlier passes decided is read from the
    trace's records that the policy learned from, those no gate ended."""
    cfg, ps = trace.config, trace.problem_scheme
    n = len(trace.records) + 1
    learned = [r for r in trace.records if not r.failed]
    last = learned[-1] if learned else None
    events: list[CheckpointResult] = []
    drift_events: list = []
    iter_seed = cfg.seed * 1000 + n

    screeners = [a for a in feasible if a.estimator == "Morris"] \
        if trace.cp0.screening_first and n == 1 else []
    candidates = screeners or feasible
    flags = submartingale_flags(
        learned[-2].reward_total if len(learned) > 1 else None,
        last.reward_total, last.observation) if last else ()

    def select(seed_offset: int):
        """The Strategist's pick; a re-selection adds the repeat penalty."""
        ms = bandit.select_action(
            policy, ps, candidates, diag=last.diagnostic if last else None,
            novelty_warning=seed_offset > 0, rng_seed=iter_seed + seed_offset,
            prev=last.method if last else None)
        return ms, agents.render_strategy_text(ms, flags)

    def gate(cp_id: str, sim: float,
             plan: ExecutionPlan | None = None) -> bool:
        """Evaluate one hand-off and record its event; whether it passed.
        CP5 hands over its plan for the Inspector, who is off with CP5."""
        result = manager.evaluate(cp_id, sim)
        if plan is not None and result.passed and \
                result.threshold != DISABLED and \
                (reasons := agents.inspector_check(plan, ms)):
            result = replace(result, verdict="block", reasons=reasons)
        events.append(result)
        return result.passed

    def failed(why: str) -> IterationRecord:
        """The record of an iteration that a gate ended before execution."""
        return IterationRecord(
            n=n, method=ms, plan=None, observation=None,
            reward=reward_mod.RewardBreakdown(0.0, 0.0, 0.0, 0.0, ()),
            checkpoint_events=tuple(events),
            drift_events=tuple(drift_events),
            diagnostic=DiagnosticScheme("none", None, None, why),
            strategy_text=strategy_text)

    # (policy) Strategist + CP7 novelty (inverted) + CP2 critic gate. A
    # novelty warning re-selects once, and so does a critic block.
    ms, strategy_text = select(0)
    if not gate("CP7", similarity(strategy_text,
                                  last.strategy_text if last else "")):
        ms, strategy_text = select(500_000)
    if not gate("CP2", similarity(strategy_text,
                                  agents.render_critic_text(ms))):
        ms, strategy_text = select(900_000)
        if not gate("CP2", similarity(strategy_text,
                                      agents.render_critic_text(ms))):
            return failed("critic rejected the re-selection")

    # (implementation) Study Agent with CP3 advisory and CP4 blocking gates.
    # Both gates read the same strategy/study similarity. The Study Agent is
    # deterministic, so a CP4 block has no remedy.
    study_text = agents.render_study_text(strategy_text)
    sim_study = similarity(strategy_text, study_text)
    gate("CP3", sim_study)
    if not gate("CP4", sim_study):
        return failed("study comprehension gate blocked")

    # The Refactor Agent reads the Study Agent's output; drift corrupts its
    # copy only, after CP2-CP4 and CP7 have run.
    drifted_text, event = agents.inject_drift(study_text, cfg.drift,
                                              rng_seed=iter_seed + 77,
                                              iteration=n)
    if event is not None:
        drift_events.append(event)

    # CP5: cosine gate against the original strategy plus the Inspector's
    # structural checklist; one bundle, one toggle. A block rebuilds the
    # plan once from the uncorrupted strategy text.
    plan = agents.refactor_agent(drifted_text, ps.model_id, seed=iter_seed)
    if not gate("CP5", similarity(strategy_text,
                                  agents.render_plan_text(plan)), plan):
        plan = agents.refactor_agent(strategy_text, ps.model_id,
                                     seed=iter_seed)
        if not gate("CP5", similarity(strategy_text,
                                      agents.render_plan_text(plan)), plan):
            return failed("inspector rejected the rebuilt plan")

    # (execution) Runner; a failed run gets one Debugger patch and one more
    # try. A second failure or an unpatchable error is scored as a crash.
    try:
        obs = agents.execution_runner(plan, ms.action.sampling, ps.n_budget,
                                      trace.designs)
    except DriftguardError as exc:
        try:
            plan = agents.debugger_fix(plan, exc)
            obs = agents.execution_runner(plan, ms.action.sampling,
                                          ps.n_budget, trace.designs)
        except DriftguardError:
            obs = None

    # (evaluation) Reward, Advisor, CP6, on the estimate at its plan's cost.
    estimate = _at_plan_cost(plan, obs)
    breakdown = reward_mod.score(
        ms, estimate, model=get_model(ps.model_id), epsilon=ps.epsilon,
        prev_obs=next((_at_plan_cost(r.plan, r.observation)
                       for r in reversed(learned)
                       if r.observation is not None
                       and r.plan.estimator == plan.estimator), None))
    diag = agents.advisor_report(
        ms, plan, estimate, breakdown, ps, cfg.r_threshold,
        avoid=frozenset(r.method.estimator for r in learned
                        if r.diagnostic.block_action))
    if obs is not None:
        gate("CP6", similarity(agents.render_observation_text(estimate),
                               diag.physical_insight))

    policy.update(bandit.encode_features(ps, ms.action), breakdown.total,
                  ms.estimator)
    return IterationRecord(
        n=n, method=ms, plan=plan, observation=obs,
        reward=breakdown, checkpoint_events=tuple(events),
        drift_events=tuple(drift_events), diagnostic=diag,
        strategy_text=strategy_text)


def run_session(cfg: SessionConfig,
                archive: Archive | None = None) -> SessionTrace:
    """Full session: CP0, then the bounded decision loop; a refused problem
    aborts."""
    if (ps := cfg.problem_scheme) is None:
        return SessionTrace(cfg, [], abort_reason="coordinator failed: "
                            f"{cfg.refusal}")
    manager = CheckpointManager(calibrate_null(shipped_corpus()),
                                frozenset(cfg.checkpoint_overrides))

    # CP0: archive match, warm-start, exploration mode.
    cp0 = manager.evaluate_cp0(ps, archive)
    policy = bandit.PolicyState(exploration_mode=cp0.exploration_mode)
    if cp0.warm_start is not None:
        entry = cp0.warm_start
        if cfg.persist_policy and entry.policy_snapshot:
            policy = bandit.PolicyState.from_snapshot(entry.policy_snapshot,
                                                      cp0.exploration_mode)
        else:
            policy.warm_start(entry.per_arm_stats, cp0.match)

    trace = SessionTrace(config=cfg, records=[], cp0=cp0)
    feasible = action_space.filter_feasible(ps)
    for _ in range(cfg.n_max):
        trace.records.append(run_iteration(trace, policy, manager, feasible))
        if trace.outcome == "converged":
            break
    if cfg.persist_policy:
        trace.policy_snapshot = policy.snapshot()

    if archive is not None and cfg.record_to_archive:
        archive.record_session(trace)
    return trace


# ---------------------------------------------------------------------------
# Trace serialization (JSONL: a header line of the session's facts, then
# one line per record, its fields under their own names plus the derived
# ``mismatch`` and ``reward_total``). Each fact is a function of the trace;
# this one table feeds the header, and through it the CLI's summary and
# every CSV row.
_FACTS = {
    "session_id": lambda t: t.session_id,
    "config_digest": lambda t: t.config.digest(),
    "seed": lambda t: t.config.seed,
    "outcome": lambda t: t.outcome,
    "abort_reason": lambda t: t.abort_reason,
    "best_reward": lambda t: t.best_reward,
    "first_reward": lambda t: t.records[0].reward_total if t.records
    else 0.0,
    "n_iterations": lambda t: len(t.records),
    "iterations_to_best": lambda t: next(
        (r.n for r in t.records if r.reward_total == t.best_reward), None),
    "iterations_to_converge": lambda t: t.iterations_to_converge,
    "best_estimator": lambda t: next(
        (r.method.estimator for r in t.records
         if r.reward_total == t.best_reward), None),
    "mismatch_count": lambda t: sum(r.mismatch for r in t.records),
    "cp_failure_events": lambda t: sum(e.verdict != "pass" for r in t.records
                                       for e in r.checkpoint_events),
    "checkpoint_events": lambda t: dict(sorted(Counter(
        f"{e.cp_id}_{e.verdict}" for r in t.records
        for e in r.checkpoint_events).items())),
    "cp0_match": lambda t: t.cp0.match,
    "cp0_similarity": lambda t: t.cp0.similarity,
    "cp0_mode": lambda t: t.cp0.exploration_mode,
    "cp0_screening_first": lambda t: t.cp0.screening_first,
    # The archive entry CP0 matched, if any; a configured warm start's is
    # "seed".
    "cp0_source": lambda t: getattr(t.cp0.warm_start, "session_id", None),
}


def write_trace(trace: SessionTrace, path: str) -> dict:
    """Write ``trace`` to ``path``; returns its header of session facts."""
    header = {name: fact(trace) for name, fact in _FACTS.items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(header) + "\n")
        for rec in trace.records:
            fh.write(to_json({**vars(rec), "mismatch": rec.mismatch,
                              "reward_total": rec.reward_total}) + "\n")
    return header
