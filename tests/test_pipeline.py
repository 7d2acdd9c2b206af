import csv
import json
import os
from dataclasses import fields, replace

import pytest

from driftguard import action_space, agents, bandit, catalog, cli, pipeline, \
    reward
from driftguard.agents import DriftSpec, ExecutionPlan
from driftguard.archive import Archive
from driftguard.checkpoints import CHECKPOINT_TABLE, DISABLED, \
    CheckpointManager, CheckpointResult
from driftguard.errors import ConfigError, InsufficientSamples, \
    OverBudget, UnknownModel
from driftguard.estimators import SAResult
from driftguard.pipeline import (IterationRecord, SessionConfig,
                                 SessionTrace, run_iteration, run_session,
                                 submartingale_flags, write_trace)
from driftguard.schemes import DiagnosticScheme, build_problem_scheme

from conftest import BEAM_PROBLEM, EQ3_PROBLEM, G8_PROBLEM
from simenv import canonical_action

ALL_OFF = {f"CP{i}": DISABLED for i in range(8)}
NO_SAMPLES = DriftSpec(kind="field_corruption", target_field="n_samples",
                       replacement_value="1", probability=1.0)
OVERSIZED = replace(NO_SAMPLES, replacement_value="100000")


def _cfg(problem=EQ3_PROBLEM, **kw):
    kw.setdefault("n_max", 3)
    return SessionConfig(problem=problem, **kw)


def _eq3_full_checkpoints():
    """``configs/eq3_ablation.json``'s full_checkpoints session at seed 1,
    as the CLI builds it."""
    doc = cli._load_config(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs",
        "eq3_ablation.json"))
    (cfg,), = (chain for name, _, chain in cli._grid("ablate", doc, 1)
               if name == "full_checkpoints")
    return cfg


class TestSessionBasics:
    def test_generic_session_produces_records(self):
        trace = run_session(_cfg(seed=1))
        assert trace.outcome in ("converged", "budget_exhausted")
        assert 1 <= len(trace.records) <= 3
        rec = trace.records[0]
        assert rec.n == 1
        assert rec.method.estimator in trace.problem_scheme.feasible_sa_estimators

    def test_deterministic_given_seed(self, tmp_path):
        paths = []
        for k in range(2):
            trace = run_session(_cfg(seed=5))
            p = tmp_path / f"t{k}.jsonl"
            write_trace(trace, str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_budget_exhausted_caps_iterations(self):
        cfg = _cfg(n_max=2, r_threshold=100.0, seed=3)
        trace = run_session(cfg)
        assert trace.outcome == "budget_exhausted"
        assert len(trace.records) == 2

    def test_converged_stops_early(self):
        cfg = _cfg(n_max=5, r_threshold=50.0, seed=1)
        trace = run_session(cfg)
        assert trace.outcome == "converged"
        assert trace.iterations_to_converge == len(trace.records)
        assert trace.records[-1].reward_total >= 50.0
        assert trace.best_reward == trace.records[-1].reward_total
        # The advisor judges against the session's threshold, not a
        # default one.
        assert "meets the precision target" \
            in trace.records[-1].diagnostic.physical_insight

    def test_aborted_on_unknown_model(self):
        # An unknown model refuses the config itself, before any session.
        with pytest.raises(UnknownModel,
                           match="unknown benchmark model 'ghost'"):
            _cfg(problem={**EQ3_PROBLEM, "model_id": "ghost"})

    def test_aborted_on_bad_problem(self):
        cfg = _cfg(problem={"task": "SA", "d_in": 4})
        assert cfg.problem_scheme is None
        trace = run_session(cfg)
        assert trace.outcome == "aborted"
        assert trace.abort_reason == f"coordinator failed: {cfg.refusal}"
        assert "incomplete problem description" in trace.abort_reason
        assert trace.records == [] and trace.problem_scheme is None
        assert (trace.cp0.match, trace.cp0.exploration_mode) \
            == ("none", "explore_max")

    def test_aborted_on_a_mistyped_problem_number(self):
        # Intake converts no number: a float d_in refuses the config rather
        # than running a truncated problem.
        with pytest.raises(ConfigError, match="d_in must be int, not float"):
            _cfg(problem={**EQ3_PROBLEM, "d_in": 4.7})

    def test_config_holds_its_admitted_problem(self):
        # The record is admitted once, when the config is built; it is not
        # a field, so no setting, comparison or digest sees it twice.
        cfg = _cfg()
        assert cfg.problem_scheme == build_problem_scheme(EQ3_PROBLEM)
        assert cfg.refusal is None
        assert {"problem_scheme", "refusal"}.isdisjoint(
            f.name for f in fields(cfg))
        assert run_session(cfg).problem_scheme is cfg.problem_scheme

    def test_digest_tells_drift_and_archive_flags_apart(self):
        # A trace header must show which drift ran and whether the
        # session recorded to, or restored its policy from, the archive.
        base = _cfg(seed=1)
        drift = DriftSpec(kind="method_swap", replacement_value="Morris",
                          probability=1.0)
        variants = [base, replace(base, drift=drift),
                    replace(base, persist_policy=True),
                    replace(base, record_to_archive=False)]
        assert len({c.digest() for c in variants}) == len(variants)
        assert replace(base, session_id="other").digest() == base.digest()

    def test_digest_hashes_the_built_problem(self):
        # Two ways of writing one problem build one record and run one
        # session, so they share a digest; a problem that does not build
        # is hashed as written, and its aborted session still gets one.
        def without(key):
            return {k: v for k, v in EQ3_PROBLEM.items() if k != key}

        for a, b in (({**EQ3_PROBLEM, "epsilon": 1},
                      {**EQ3_PROBLEM, "epsilon": 1.0}),
                     (without("epsilon"), {**EQ3_PROBLEM, "epsilon": 0.05}),
                     (without("dist_family"),
                      {**EQ3_PROBLEM, "dist_family": []})):
            assert _cfg(problem=a).digest() == _cfg(problem=b).digest()
        # Stating Other on every input is not leaving the families out:
        # intake refuses families the model lacks, so that spelling is
        # hashed as written.
        other = {**EQ3_PROBLEM, "dist_family": ["Other"] * 4}
        assert _cfg(problem=other).digest() \
            != _cfg(problem=without("dist_family")).digest()
        aborted = [_cfg(problem={**EQ3_PROBLEM, **bad}).digest()
                   for bad in ({"n_budget": 5}, {"d_in": 0}, {})]
        assert len(set(aborted)) == 3
        # Without its task the same keys do not build, and hash apart.
        assert _cfg(problem=without("task")).digest() != _cfg().digest()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(problem=EQ3_PROBLEM, n_max=0)
        with pytest.raises(ValueError):
            SessionConfig(problem=EQ3_PROBLEM, r_threshold=0.0)

    def test_settings_hold_their_annotated_types(self):
        # A float setting stores an int as the equal float, so the digest
        # does not change; nothing else is converted.
        cfg = SessionConfig(problem=EQ3_PROBLEM, r_threshold=85,
                            drift=DriftSpec(probability=1))
        assert type(cfg.r_threshold) is float
        assert type(cfg.drift.probability) is float
        assert cfg.digest() == SessionConfig(
            problem=EQ3_PROBLEM, r_threshold=85.0,
            drift=DriftSpec(probability=1.0)).digest()
        for bad in ({"seed": True}, {"n_max": 2.0}, {"session_id": 5},
                    {"persist_policy": 1}, {"r_threshold": "85"},
                    {"drift": {}}, {"problem": None}):
            with pytest.raises(TypeError):
                SessionConfig(**{"problem": EQ3_PROBLEM, **bad})
        for bad in ({"probability": True}, {"replacement_value": 5},
                    {"activation_iteration": 2.0},
                    {"activation_iteration": False}):
            with pytest.raises(TypeError):
                DriftSpec(**bad)
        assert DriftSpec(activation_iteration=None).activation_iteration \
            is None


class TestCheckpointWiring:
    def test_all_disabled_still_runs_and_passes(self):
        cfg = _cfg(checkpoint_overrides=dict(ALL_OFF), seed=2)
        trace = run_session(cfg)
        assert trace.outcome != "aborted"
        for rec in trace.records:
            assert all(e.verdict == "pass" for e in rec.checkpoint_events)

    def test_every_iteration_hits_the_expected_gates(self):
        trace = run_session(_cfg(seed=1))
        for rec in trace.records:
            cps = [e.cp_id for e in rec.checkpoint_events]
            for expected in ("CP7", "CP2", "CP3", "CP4", "CP5"):
                assert expected in cps
            if rec.observation is not None:
                assert "CP6" in cps

    @pytest.mark.parametrize("overrides", [ALL_OFF, {"CP5": DISABLED}],
                             ids=["all_off", "cp5_off"])
    def test_switched_off_gates_report(self, overrides, monkeypatch):
        # A switched-off gate, CP5 included, passes once per hand-off and
        # reports -1 with the cosine it saw; the Inspector is off with CP5.
        def inspector(plan, ms):
            raise AssertionError("the Inspector ran with CP5 off")
        monkeypatch.setattr(agents, "inspector_check", inspector)
        trace = run_session(_cfg(checkpoint_overrides=dict(overrides),
                                 seed=1, n_max=5,
                                 drift=DriftSpec(kind="method_swap",
                                                 replacement_value="Morris",
                                                 probability=1.0)))
        assert trace.records
        for rec in trace.records:
            assert not rec.failed
            gates = ["CP7", "CP2", "CP3", "CP4", "CP5"] \
                + ["CP6"] * (rec.observation is not None)
            off = [e for e in rec.checkpoint_events if e.cp_id in overrides]
            assert [e.cp_id for e in off] == \
                [cp for cp in gates if cp in overrides]
            assert all(e.passed and e.threshold == DISABLED for e in off)
            cp5, = (e for e in off if e.cp_id == "CP5")
            if rec.mismatch:   # the drifted plan ran undefended
                assert cp5.similarity < CHECKPOINT_TABLE["CP5"][0]

    def test_intake_evaluates_no_gate(self, monkeypatch):
        # Intake is the config's admission of its problem: a session's
        # first evaluated gate is iteration 1's CP7, and every evaluated
        # gate is a record's event.
        seen = []
        evaluate = CheckpointManager.evaluate

        def spy(self, cp_id, sim):
            seen.append(cp_id)
            return evaluate(self, cp_id, sim)
        monkeypatch.setattr(CheckpointManager, "evaluate", spy)
        trace = run_session(_cfg(seed=1))
        assert seen[0] == "CP7"
        assert seen == [e.cp_id for r in trace.records
                        for e in r.checkpoint_events]

    def test_cp1_override_changes_no_byte(self, tmp_path):
        # Switching CP1 off, as eq3_ablation's no_checkpoints condition
        # does, still loads and writes the same trace; only the header's
        # config digest, which hashes the overrides, differs.
        cfg = _eq3_full_checkpoints()
        path = tmp_path / "trace.jsonl"

        def written(overrides):
            run = replace(cfg, checkpoint_overrides=overrides)
            write_trace(run_session(run), str(path))
            return path.read_text().replace(run.digest(), "<digest>")
        assert written({"CP1": DISABLED}) == written({})

    def test_every_gate_row_writes_an_event(self, tmp_path):
        # A full-checkpoint session writes an event for every gate table
        # row but CP0, whose facts the header holds, and CP1, the config's
        # admission; a gate the loop stops evaluating fails here.
        path = tmp_path / "trace.jsonl"
        write_trace(run_session(_eq3_full_checkpoints()), str(path))
        _, *rows = path.read_text().splitlines()
        assert {e["cp_id"] for row in rows
                for e in json.loads(row)["checkpoint_events"]} \
            == CHECKPOINT_TABLE.keys() - {"CP0", "CP1"}

    def test_screening_first_on_high_dim_cold_start(self):
        trace = run_session(_cfg(problem=G8_PROBLEM, seed=4))
        assert trace.cp0.screening_first
        assert trace.records[0].method.estimator == "Morris"

    def test_warm_start_skips_screening(self, ps_g8):
        archive = Archive()
        archive.seed_entry(ps_g8, canonical_action("Sobol"), 91.0, 3)
        trace = run_session(_cfg(problem=G8_PROBLEM, seed=4,
                                 record_to_archive=False), archive=archive)
        assert trace.cp0.match == "close"
        assert trace.cp0.exploration_mode == "exploit"
        assert not trace.cp0.screening_first
        assert trace.records[0].method.estimator == "Sobol"


class TestCausalChain:
    def test_no_drift_means_no_mismatch(self):
        for seed in (1, 2, 3):
            trace = run_session(_cfg(seed=seed))
            assert all(not r.mismatch for r in trace.records)

    def test_drift_with_cp5_disabled_produces_mismatch(self):
        cfg = _cfg(checkpoint_overrides=dict(ALL_OFF), seed=1, n_max=5,
                   drift=DriftSpec(kind="method_swap",
                                   replacement_value="Morris",
                                   probability=1.0))
        trace = run_session(cfg)
        mismatched = [r for r in trace.records if r.mismatch]
        assert mismatched
        rec = mismatched[0]
        assert rec.plan.estimator == "Morris"
        assert rec.method.estimator != "Morris"
        assert rec.drift_events                      # cause recorded
        assert rec.reward_total < 50                 # outcome corrupted

    def test_drift_with_cp5_enabled_is_caught(self):
        cfg = _cfg(seed=1, n_max=5,
                   drift=DriftSpec(kind="method_swap",
                                   replacement_value="Morris",
                                   probability=1.0))
        trace = run_session(cfg)
        assert all(not r.mismatch for r in trace.records)
        blocked = [e for r in trace.records for e in r.checkpoint_events
                   if e.cp_id == "CP5" and e.verdict == "block"]
        drifted = [r for r in trace.records if r.drift_events]
        assert drifted and blocked

    def test_refactor_agent_reads_the_study_text(self, monkeypatch):
        # The chain runs strategy -> study -> refactor: the Refactor Agent
        # builds its plan from the Study Agent's rendering.
        received = []
        real = agents.refactor_agent

        def refactor(report_text, *args, **kwargs):
            received.append(report_text)
            return real(report_text, *args, **kwargs)

        monkeypatch.setattr(agents, "refactor_agent", refactor)
        trace = run_session(_cfg(seed=1, n_max=1))
        study_text = agents.render_study_text(trace.records[0].strategy_text)
        assert received[0] == study_text != trace.records[0].strategy_text


def _block_always(monkeypatch, cp_id):
    """Raise ``cp_id``'s table threshold above any cosine similarity."""
    row = CHECKPOINT_TABLE[cp_id]
    monkeypatch.setitem(CHECKPOINT_TABLE, cp_id, (2.0, *row[1:]))


class TestBlockedSteps:
    """Every exit of ``run_iteration``: a blocked step gets one remedy and
    one more try; a second block ends the iteration with a failed record."""

    @staticmethod
    def _first(**kw):
        kw.setdefault("seed", 1)
        return run_session(_cfg(n_max=1, **kw)).records[0]

    @staticmethod
    def _cps(rec, cp_id):
        return [e for e in rec.checkpoint_events if e.cp_id == cp_id]

    def test_cp2_reselects_once_then_fails(self, monkeypatch):
        _block_always(monkeypatch, "CP2")
        rec = self._first()
        assert [e.verdict for e in self._cps(rec, "CP2")] == ["block"] * 2
        assert rec.failed and rec.plan is None
        assert rec.diagnostic.physical_insight \
            == "critic rejected the re-selection"
        assert not self._cps(rec, "CP4")

    def test_cp4_block_has_no_remedy(self, monkeypatch):
        _block_always(monkeypatch, "CP4")
        rec = self._first()
        assert [(e.verdict, e.reasons) for e in self._cps(rec, "CP4")] \
            == [("block", ())]
        assert rec.failed and rec.plan is None
        assert rec.diagnostic.physical_insight \
            == "study comprehension gate blocked"

    def test_cp5_rebuilds_once_then_fails(self, monkeypatch):
        _block_always(monkeypatch, "CP5")
        rec = self._first()
        assert [e.verdict for e in self._cps(rec, "CP5")] == ["block"] * 2
        assert rec.failed and rec.plan is None
        assert rec.diagnostic.physical_insight \
            == "inspector rejected the rebuilt plan"

    def test_inspector_rejects_a_plan_the_cosine_passes(self):
        # n_samples=1 reads close to the strategy, but the Inspector finds
        # it off the decided size; the rebuilt plan restores the strategy's.
        rec = self._first(drift=NO_SAMPLES)
        first, second = self._cps(rec, "CP5")
        assert first.verdict == "block" and first.similarity >= \
            first.threshold
        assert first.reasons == (
            "n_samples mismatch: plan runs 1, scheme decides 6000",)
        assert second.passed
        assert f"n_samples={rec.plan.n_samples} " in rec.strategy_text
        assert not rec.failed and rec.observation is not None

    def test_debugger_patches_once(self, monkeypatch):
        patches = []
        fix = agents.debugger_fix

        def counted_fix(plan, exc):
            patches.append(exc)
            return fix(plan, exc)
        monkeypatch.setattr(agents, "debugger_fix", counted_fix)
        rec = self._first(drift=NO_SAMPLES,
                          checkpoint_overrides={"CP5": DISABLED})
        assert [type(e) for e in patches] == [InsufficientSamples]
        assert (rec.plan.estimator, rec.plan.n_samples) == ("CVM", 3000)
        assert rec.observation.evaluations_used == 3000
        assert not rec.failed

    def test_inspector_blocks_an_oversized_plan(self):
        # CVM on eq3 decides 6000 samples; a corruption to 100 000 is
        # blocked at CP5 and the rebuilt plan runs the decided size.
        rec = self._first(drift=OVERSIZED)
        first, second = self._cps(rec, "CP5")
        assert first.reasons == (
            "n_samples mismatch: plan runs 100000, scheme decides 6000",)
        assert second.passed
        assert (rec.plan.estimator, rec.plan.n_samples) == ("CVM", 6000)
        assert rec.observation.evaluations_used == 6000

    def test_debugger_patches_an_oversized_plan_to_the_budget(
            self, monkeypatch):
        # With CP5 off the oversized plan reaches the runner, which refuses
        # it before any evaluation; the Debugger's patch spends the whole
        # budget and no more.
        patches = []
        fix = agents.debugger_fix

        def counted_fix(plan, exc):
            patches.append(exc)
            return fix(plan, exc)
        monkeypatch.setattr(agents, "debugger_fix", counted_fix)
        rec = self._first(drift=OVERSIZED,
                          checkpoint_overrides={"CP5": DISABLED})
        assert [type(e) for e in patches] == [OverBudget]
        assert (rec.plan.estimator, rec.plan.n_samples) == ("CVM", 8000)
        assert rec.observation.evaluations_used == 8000
        assert not rec.failed

    def test_debugger_patches_a_morris_plan_below_two_trajectories(
            self, monkeypatch):
        # Morris runs the plan's trajectories as they are: one trajectory
        # fails like any undersized plan and gets the Debugger's patch to
        # the floor, 10 trajectories, not a silent second trajectory.
        patches = []
        fix = agents.debugger_fix

        def counted_fix(plan, exc):
            patches.append(exc)
            return fix(plan, exc)
        monkeypatch.setattr(agents, "debugger_fix", counted_fix)
        rec = self._first(problem=G8_PROBLEM, drift=NO_SAMPLES,
                          checkpoint_overrides={"CP5": DISABLED})
        assert rec.method.estimator == "Morris"
        assert [type(e) for e in patches] == [InsufficientSamples]
        assert rec.plan.n_samples == 10
        assert rec.observation.evaluations_used == 10 * (8 + 1)

    @pytest.mark.parametrize("error, runs", [
        (UnknownModel("gone"), 1),           # no patch rule: raised again
        (InsufficientSamples("n=1"), 2)])    # patched, then fails again
    def test_failed_execution_is_scored_as_a_crash(self, monkeypatch,
                                                   error, runs):
        calls = []

        def crash(plan, scheme, n_budget, designs):
            calls.append(plan)
            raise error
        monkeypatch.setattr(agents, "execution_runner", crash)
        rec = self._first()
        assert len(calls) == runs
        assert rec.observation is None and not rec.failed
        assert rec.diagnostic.physical_insight.startswith(
            "execution crashed")
        assert rec.reward_total == 0.0

    def test_problem_without_model_aborts(self):
        problem = {k: v for k, v in EQ3_PROBLEM.items() if k != "model_id"}
        trace = run_session(_cfg(problem=problem, seed=1))
        assert trace.outcome == "aborted"
        assert "names no model" in trace.abort_reason

    def test_overrides_only_switch_gates_off(self):
        for overrides in ({"CP2": 0.6}, {"CP9": DISABLED}, {"CP3": "x"},
                          {"CP5": True}):
            with pytest.raises(ValueError, match="switches the gate off"):
                _cfg(checkpoint_overrides=overrides)
        with pytest.raises(TypeError, match="checkpoint_overrides must be"):
            _cfg(checkpoint_overrides=["CP5"])


class TestLoopReadsItsRecords:
    """``run_iteration`` reads what earlier iterations decided from the
    trace's records that the policy learned from, not from its last one."""

    @staticmethod
    def _next(records, ps, manager, feasible=None):
        """The record ``run_iteration`` appends to a trace of ``records``."""
        trace = SessionTrace(_cfg(seed=1), list(records))
        return run_iteration(trace, bandit.PolicyState(), manager,
                             feasible or action_space.filter_feasible(ps))

    def test_a_failed_record_hands_over_nothing(self, monkeypatch, ps_eq3,
                                                manager):
        # The Debugger's patch runs CVM at 3000 samples where the scheme
        # decided 6000; a CP4 block then ends the next iteration.
        learned = run_session(_cfg(seed=1, n_max=1, drift=NO_SAMPLES,
                                   checkpoint_overrides={"CP5": DISABLED})
                              ).records[0]
        assert (learned.method.n_samples, learned.plan.n_samples) \
            == (6000, 3000)
        _block_always(monkeypatch, "CP4")
        failed = replace(run_session(_cfg(seed=2, n_max=1)).records[0], n=2)
        assert failed.failed
        assert failed.strategy_text != learned.strategy_text
        assert failed.method != learned.method
        assert failed.diagnostic != learned.diagnostic

        compared, decided = [], []
        real_similarity, real_select = pipeline.similarity, \
            bandit.select_action

        def spy_similarity(a, b):
            compared.append(b)
            return real_similarity(a, b)

        def spy_select(*args, **kwargs):
            decided.append(kwargs)
            return real_select(*args, **kwargs)

        monkeypatch.setattr(pipeline, "similarity", spy_similarity)
        monkeypatch.setattr(bandit, "select_action", spy_select)
        self._next([learned, failed], ps_eq3, manager)
        # CP7 compares the new strategy with the learned record's text.
        assert compared[0] == learned.strategy_text
        assert decided[0]["diag"] == learned.diagnostic
        assert decided[0]["prev"] == learned.method
        assert decided[0]["prev"].n_samples == 6000

    def test_the_advisor_prescribes_from_the_plan_that_ran(self):
        # The Debugger's patch runs CVM at 3000 samples where the scheme
        # decided 6000, and the estimate falls short: the diagnosis states
        # the size that ran and doubles it.
        [rec] = run_session(_cfg(seed=1, n_max=1, drift=NO_SAMPLES,
                                 checkpoint_overrides={"CP5": DISABLED})
                            ).records
        assert (rec.method.n_samples, rec.plan.n_samples) == (6000, 3000)
        assert rec.diagnostic.root_cause == "insufficient_N"
        assert "insufficient at n_samples=3000" \
            in rec.diagnostic.physical_insight
        assert rec.diagnostic.prescribed_n_samples == 6000

    def test_a_crash_keeps_the_earlier_reward_reference(self, monkeypatch,
                                                        ps_eq3, manager):
        # A crashed run is learned from (plan set, observation None) but
        # has nothing to compare with, so the reward's reference stays the
        # last observation of the executed estimator.
        cfg = _cfg(seed=1, n_max=1)
        observed = run_session(cfg).records[0]

        def crash(plan, scheme, n_budget, designs):
            raise UnknownModel("gone")
        with monkeypatch.context() as m:
            m.setattr(agents, "execution_runner", crash)
            crashed = replace(run_session(cfg).records[0], n=2)
        assert not crashed.failed and crashed.observation is None
        estimator = observed.plan.estimator
        assert crashed.plan.estimator == estimator

        references = []
        real_score = reward.score

        def spy_score(*args, prev_obs, **kwargs):
            references.append(prev_obs)
            return real_score(*args, prev_obs=prev_obs, **kwargs)

        monkeypatch.setattr(reward, "score", spy_score)
        same = [a for a in action_space.filter_feasible(ps_eq3)
                if a.estimator == estimator]
        rec = self._next([observed, crashed], ps_eq3, manager, same)
        assert rec.plan.estimator == estimator
        assert references == [observed.observation]


class TestSessionDesigns:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("problem", [BEAM_PROBLEM, EQ3_PROBLEM],
                             ids=["beam", "eq3"])
    def test_evaluations_used_are_the_rows_evaluated(self, monkeypatch,
                                                     problem, seed):
        # A session evaluates each row of a design once: the real
        # estimators' evaluations_used add up to the rows its model
        # evaluated, and every plan costs at most the budget.
        rows = []
        real_model = agents.get_model

        def counted(model_id):
            model = real_model(model_id)

            def evaluate(x):
                rows.append(len(x))
                return model.evaluate(x)
            return replace(model, evaluate=evaluate)
        monkeypatch.setattr(agents, "get_model", counted)
        trace = run_session(_cfg(problem, n_max=5, seed=seed))
        executed = [(catalog.estimator_info(r.plan.estimator), r)
                    for r in trace.records if r.observation is not None]
        assert sum(r.observation.evaluations_used for info, r in executed
                   if not info.simulated) == sum(rows)
        costs = [info.cost(r.plan.n_samples, problem["d_in"])
                 for info, r in executed]
        assert max(costs) <= problem["n_budget"]
        assert all(r.observation.evaluations_used <= cost
                   for (_, r), cost in zip(executed, costs))


    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("problem", [BEAM_PROBLEM, EQ3_PROBLEM],
                             ids=["beam", "eq3"])
    def test_a_rerun_on_held_rows_earns_no_precision_credit(self, problem,
                                                            seed):
        # Nested samples correlate consecutive estimates, so a run-to-run
        # check could pass on shared rows alone.  Neither model has analytic
        # indices, so an accuracy above the 15 consistency points would be
        # run-to-run precision credit.
        trace = run_session(_cfg(problem, n_max=5, seed=seed))
        assert trace.records
        assert all(r.reward.accuracy <= 15.0 for r in trace.records)

    def test_a_served_run_scores_its_estimate_at_the_plan_cost(self):
        # eq3 at seed 1 reruns Sobol at 1000 samples on the 1333 pairs the
        # session's Monte Carlo sample holds, and then Chatterjee at 2000
        # on the 2666 rows those pairs took: neither run executes anything,
        # and the reward's thrift reads the evaluations its estimate rests
        # on, 6000 and 2000.
        trace = run_session(_cfg(n_max=5, seed=1))
        served = [r for r in trace.records if r.observation is not None
                  and r.observation.evaluations_used == 0]
        assert [(r.plan.estimator, r.plan.n_samples) for r in served] \
            == [("Sobol", 1000), ("Chatterjee", 2000)]
        for rec, cost in zip(served, (6000, 2000)):
            fresh = reward.score(rec.method, replace(rec.observation,
                                                     evaluations_used=cost))
            assert rec.reward.optimality == fresh.optimality > 0.4 * 15
            assert "0 evaluations" not in rec.diagnostic.physical_insight


class TestSubmartingaleFlags:
    def test_regression_flagged(self):
        flags = submartingale_flags(64.2, 60.8, None)
        assert flags == ("reward regressed from 64.2 to 60.8",)

    def test_improvement_not_flagged(self):
        assert submartingale_flags(60.8, 64.2, None) == ()
        assert submartingale_flags(None, 10.0, None) == ()

    def test_negative_variance_flagged(self):
        obs = SAResult(estimator="Sobol", first_order_indices=(-0.2,),
                       negative_variance_flag=True)
        flags = submartingale_flags(None, 70.0, obs)
        assert "negative variance contribution observed" in flags

    def test_flag_reaches_next_strategy_text(self):
        # Force a reward drop via drift with every gate off, then check the
        # following iteration's strategy prompt carries the violation.
        cfg = _cfg(checkpoint_overrides=dict(ALL_OFF), seed=1, n_max=5,
                   drift=DriftSpec(kind="method_swap",
                                   replacement_value="Morris",
                                   probability=1.0,
                                   activation_iteration=2))
        trace = run_session(cfg)
        drops = [i for i in range(1, len(trace.records))
                 if trace.records[i].reward_total
                 < trace.records[i - 1].reward_total]
        assert drops
        i = drops[0]
        if i + 1 < len(trace.records):
            assert "reward regressed" in trace.records[i + 1].strategy_text


class TestTraceSerialization:
    def test_jsonl_layout(self, tmp_path):
        trace = run_session(_cfg(seed=1))
        path = tmp_path / "trace.jsonl"
        write_trace(trace, str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["session_id"] == trace.session_id
        assert header["outcome"] == trace.outcome
        assert len(lines) == 1 + len(trace.records)
        row = json.loads(lines[1])
        assert {"n", "method", "mismatch", "reward_total", "checkpoint_events",
                "diagnostic"} <= set(row)
        assert row["diagnostic"]["physical_insight"] \
            == trace.records[0].diagnostic.physical_insight

    def test_row_is_the_record(self, tmp_path, monkeypatch):
        # A row is its record's fields under their own names plus the
        # derived mismatch and reward total, so the decided and the planned
        # sample count, the plan's seed, the evaluations used and the
        # reward's warnings reach the trace without a second schema.
        path = tmp_path / "trace.jsonl"

        def rows(trace):
            write_trace(trace, str(path))
            return [json.loads(line)
                    for line in path.read_text().splitlines()[1:]]

        names = {f.name for f in fields(IterationRecord)} \
            | {"mismatch", "reward_total"}
        trace = run_session(_cfg(seed=1))
        opened = set()
        for rec, row in zip(trace.records, rows(trace), strict=True):
            assert set(row) == names
            assert row["method"]["n_samples"] == rec.method.n_samples
            assert row["method"]["action"] == {
                "sampling": rec.method.action.sampling,
                "estimator": rec.method.action.estimator}
            assert row["plan"]["n_samples"] == rec.plan.n_samples
            assert row["plan"]["seed"] == rec.plan.seed == 1 * 1000 + rec.n
            assert row["observation"]["evaluations_used"] \
                == rec.observation.evaluations_used
            # A run that a design served executes none; the first run on
            # each design (the one Monte Carlo sample, Morris's walk, the
            # Latin hypercubes of a sampling scheme) executes its plan.
            scheme = catalog.estimator_info(rec.plan.estimator) \
                .sampling_scheme
            sampling = rec.method.action.sampling
            design = (scheme if scheme == "trajectories"
                      else sampling if sampling == "MonteCarlo"
                      else (scheme, sampling))
            if design not in opened:
                assert rec.observation.evaluations_used > 0
            opened.add(design)
            assert row["reward"]["warnings"] == list(rec.reward.warnings)
            assert row["reward_total"] == rec.reward_total
        _block_always(monkeypatch, "CP4")
        [row] = rows(run_session(_cfg(seed=1, n_max=1)))
        # A failed record is one without a plan, and it scores nothing; it
        # still writes the method scheme its iteration decided, the action
        # included.
        assert set(row) == names and row["reward_total"] == 0.0
        assert row["plan"] is None and row["observation"] is None
        assert set(row["method"]) == {"action", "n_samples", "n_min_value"}

    def test_records_hold_each_fact_once(self):
        # Derived facts are properties, not fields: a plan's bindings come
        # from its catalog row, a trace's id, problem, outcome and best
        # reward from its config and records, a record's total and failure
        # from its reward and plan, a diagnosis's block from its cause, and
        # a gate event's failure action from the gate table.
        assert [f.name for f in fields(ExecutionPlan)] \
            == ["estimator", "n_samples", "model_id", "seed"]
        assert [f.name for f in fields(IterationRecord)] == [
            "n", "method", "plan", "observation", "reward",
            "checkpoint_events", "drift_events", "diagnostic",
            "strategy_text"]
        assert [f.name for f in fields(SessionTrace)] == [
            "config", "records", "cp0", "policy_snapshot", "abort_reason",
            "designs"]
        cfg = _cfg(seed=1)
        trace = SessionTrace(cfg, [])
        assert trace.problem_scheme is cfg.problem_scheme
        assert [f.name for f in fields(DiagnosticScheme)] == [
            "root_cause", "prescribed_estimator", "prescribed_n_samples",
            "physical_insight"]
        assert [f.name for f in fields(CheckpointResult)] == [
            "cp_id", "similarity", "threshold", "verdict", "reasons"]

    def test_cp5_events_carry_the_inspectors_reasons(self, tmp_path,
                                                      monkeypatch):
        # The Inspector's block writes its reasons into the trace event; a
        # cosine block has none.
        path = tmp_path / "trace.jsonl"

        def cp5_events(cfg):
            write_trace(run_session(cfg), str(path))
            row = json.loads(path.read_text().splitlines()[1])
            return [(e["verdict"], e["reasons"])
                    for e in row["checkpoint_events"] if e["cp_id"] == "CP5"]

        assert cp5_events(_cfg(seed=1, n_max=1, drift=NO_SAMPLES)) == [
            ("block",
             ["n_samples mismatch: plan runs 1, scheme decides 6000"]),
            ("pass", [])]
        _block_always(monkeypatch, "CP5")
        assert cp5_events(_cfg(seed=1, n_max=1)) == [("block", [])] * 2


class TestAblationSuite:
    """The ablation grid runs through ``driftguard ablate``."""

    @staticmethod
    def _ablate(tmp_path, conditions, seeds, **doc):
        doc = {"problem": EQ3_PROBLEM, "n_max": 3, "output_name": "suite",
               "seeds": seeds, "conditions": conditions, **doc}
        config = tmp_path / "suite.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["ablate", "--config", str(config), "--out",
                         str(tmp_path), "--quiet"]) == cli.EXIT_OK
        return tmp_path / "suite.csv"

    def test_empty_condition_list_writes_header_only_csv(self, tmp_path):
        path = self._ablate(tmp_path, [], [1])
        content = path.read_text().strip().splitlines()
        assert len(content) == 1
        assert tuple(content[0].split(",")) == cli.ABLATION_COLUMNS
        assert not list(tmp_path.glob("*.trace.jsonl"))

    def test_rows_cover_conditions_times_seeds(self, tmp_path):
        drift = {"kind": "method_swap", "replacement_value": "Morris",
                 "probability": 1.0}
        conditions = [{"name": "off", "checkpoint_overrides": ALL_OFF,
                       "drift": drift},
                      {"name": "on", "drift": drift}]
        path = self._ablate(tmp_path, conditions, [1, 2], n_max=2)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {(r["condition"], r["seed"]) for r in rows} == {
            ("off", "1"), ("off", "2"), ("on", "1"), ("on", "2")}
        assert rows[0]["condition"] == "off"

    def test_fresh_archive_per_session(self, tmp_path, monkeypatch):
        calls = []

        def archive_for(doc, cfg):
            archive = build(doc, cfg)
            calls.append(archive)
            return archive

        build = cli._archive_for
        monkeypatch.setattr(cli, "_archive_for", archive_for)
        self._ablate(tmp_path, [{"name": "warm"}], [1, 2],
                     problem=G8_PROBLEM, n_max=1, record_to_archive=False,
                     warm_start={"estimator": "Sobol", "mean_reward": 91.0})
        assert len(calls) == 2 and calls[0] is not calls[1]
        assert all(a.entries[0].session_id == "seed" for a in calls)
