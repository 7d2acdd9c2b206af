import inspect
import re
from dataclasses import replace

import pytest

from driftguard import agents, catalog, estimators
from driftguard.action_space import ActionTuple
from driftguard.agents import DriftSpec, ExecutionPlan
from driftguard.errors import InsufficientSamples, OverBudget
from driftguard.estimators import SAResult
from driftguard.reward import RewardBreakdown
from driftguard.schemes import (build_diagnostic_scheme, build_method_scheme,
                                build_problem_scheme)

from conftest import EQ3_PROBLEM, G8_PROBLEM


def _ms(ps, estimator="Sobol", n=1000):
    action = ActionTuple("MonteCarlo", estimator)
    return build_method_scheme(action, ps, n)


class TestGroupA:
    def test_coordinator_builds_problem_scheme(self):
        ps = build_problem_scheme(EQ3_PROBLEM)
        assert ps.model_id == "structural_eq3"
        assert ps.d_in == 4


class TestRenderers:
    def test_strategy_text_carries_decision_fields(self, ps_eq3):
        ms = _ms(ps_eq3)
        text = agents.render_strategy_text(ms)
        assert "Sobol" in text and "n_samples=1000" in text
        assert "first_order_indices" in text

    def test_strategy_and_critic_texts_are_similar(self, ps_eq3):
        from driftguard.embedding import similarity
        ms = _ms(ps_eq3)
        sim = similarity(agents.render_strategy_text(ms),
                         agents.render_critic_text(ms))
        assert sim > 0.5                       # passes CP2's initial gate

    def test_flags_surface_in_strategy_text(self, ps_eq3):
        text = agents.render_strategy_text(
            _ms(ps_eq3), flags=("reward regressed from 64.2 to 60.8",))
        assert "reward regressed from 64.2 to 60.8" in text


class TestRefactorAgent:
    def test_parses_estimator_and_n(self, ps_eq3):
        ms = _ms(ps_eq3)
        plan = agents.refactor_agent(
            "strategy: apply CVM with n_samples=2500.", "structural_eq3",
            seed=7)
        assert plan == ExecutionPlan("CVM", 2500, "structural_eq3", 7)
        # The plan's bindings are its estimator's catalog row.
        assert "binding first_order_indices." \
            in agents.render_plan_text(plan)

    def test_corrupted_text_yields_wrong_plan(self, ps_eq3):
        # The causal link: corrupt prose becomes a concretely wrong plan.
        ms = _ms(ps_eq3)
        text = agents.render_strategy_text(ms).replace("Sobol", "Morris")
        plan = agents.refactor_agent(text, "structural_eq3", seed=0)
        assert plan.estimator == "Morris"


class TestInspector:
    def test_approves_faithful_plan(self, ps_eq3):
        ms = _ms(ps_eq3)
        plan = agents.refactor_agent(agents.render_strategy_text(ms),
                                     "structural_eq3", seed=0)
        assert agents.inspector_check(plan, ms) == ()

    def test_estimator_mismatch_reason(self, ps_eq3):
        ms = _ms(ps_eq3)
        plan = ExecutionPlan("Morris", 100, "structural_eq3", 0)
        # The bindings follow from the estimator: a mismatch is one reason.
        assert agents.inspector_check(plan, ms) == (
            "estimator mismatch: plan runs Morris, scheme requires Sobol",)

    def test_undersized_plan_rejected(self, ps_eq3):
        ms = _ms(ps_eq3)
        plan = ExecutionPlan("Sobol", 50, "structural_eq3", 0)
        assert agents.inspector_check(plan, ms) == (
            "n_samples mismatch: plan runs 50, scheme decides 1000",)

    @pytest.mark.parametrize("n_samples", [999, 1001, 100_000])
    def test_plan_off_the_decided_size_rejected(self, ps_eq3, n_samples):
        # The decided size lies between the floor and the budget's cap, so
        # the plan must run it: any other size, oversized or within that
        # range, is a mismatch.
        ms = _ms(ps_eq3)
        plan = ExecutionPlan("Sobol", n_samples, "structural_eq3", 0)
        assert agents.inspector_check(plan, ms) == (
            f"n_samples mismatch: plan runs {n_samples}, scheme decides 1000",)


class TestExecutionAndDebugger:
    def test_runner_executes_plan(self):
        plan = ExecutionPlan("Chatterjee", 200, "structural_eq3", 3)
        obs = agents.execution_runner(plan, "MonteCarlo", 10_000, {})
        assert obs.estimator == "Chatterjee"
        assert obs.evaluations_used == 200

    @pytest.mark.parametrize("estimator, function", [
        ("Sobol", "sobol_saltelli"), ("Chatterjee", "chatterjee"),
        ("CVM", "cvm"), ("Morris", "morris")])
    def test_runner_reaches_a_swapped_estimator(self, estimator, function,
                                                monkeypatch):
        # A catalog row looks its function up on the estimators module when
        # it runs, so a function swapped there is the one that executes.
        calls = []
        real = getattr(estimators, function)

        def spy(*args, **kwargs):
            calls.append(function)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, function, spy)
        plan = ExecutionPlan(estimator, 200, "g_function_8d", 3)
        obs = agents.execution_runner(plan, "MonteCarlo", 10_000, {})
        assert obs.estimator == estimator
        assert calls == [function]

    @pytest.mark.parametrize("estimator, reached", [
        ("Sobol", True), ("Chatterjee", True), ("CVM", True),
        ("Morris", False), ("PCE_SA", False), ("Generalized_Sobol", False)])
    def test_sampling_dimension_reaches_estimator(self, estimator, reached):
        # The sampling level changes what executes only for the estimators
        # that draw their own design; the rest ignore it.
        plan = ExecutionPlan(estimator, 200, "g_function_8d", 3)
        mc, lhs = (agents.execution_runner(plan, s, 10_000, {}).attributes()
                   for s in catalog.SAMPLING_LEVELS)
        assert (mc != lhs) == reached

    def test_debugger_patches_sample_size(self):
        plan = ExecutionPlan("Chatterjee", 2, "structural_eq3", 0)
        with pytest.raises(InsufficientSamples) as err:
            agents.execution_runner(plan, "MonteCarlo", 10_000, {})
        patched = agents.debugger_fix(plan, err.value)
        assert patched.n_samples >= 10
        obs = agents.execution_runner(patched, "MonteCarlo", 10_000, {})
        assert obs.evaluations_used == patched.n_samples

    @pytest.mark.parametrize("estimator", sorted(catalog.SA_ESTIMATORS))
    def test_debugger_patch_passes_the_inspector(self, estimator):
        # The Debugger patches to the one floor that a decision clamps up
        # to and the Inspector then holds the plan to.
        for model in estimators.benchmark_catalog().values():
            ps = build_problem_scheme({"task": "SA", "model_id": model.id,
                                       "d_in": model.d_in,
                                       "d_out": model.d_out,
                                       "n_budget": 10_000})
            floor = catalog.estimator_info(estimator).min_samples(model.d_in)
            ms = _ms(ps, estimator, n=floor)
            plan = ExecutionPlan(estimator, 2, model.id, 0)
            patched = agents.debugger_fix(plan, InsufficientSamples("low"))
            assert agents.inspector_check(plan, ms)
            assert agents.inspector_check(patched, ms) == ()
            assert patched.n_samples == floor

    def test_runner_takes_the_budget_with_no_default(self):
        budget = inspect.signature(agents.execution_runner).parameters[
            "n_budget"]
        assert budget.default is inspect.Parameter.empty

    @pytest.mark.parametrize("estimator", sorted(catalog.SA_ESTIMATORS))
    def test_runner_refuses_an_oversized_plan_before_evaluating(
            self, estimator, monkeypatch):
        # One sample over the cap is refused before the model sees a
        # single row; the cap itself runs within the budget.
        model = estimators.get_model("g_function_8d")
        rows = []

        def evaluate(x):
            rows.append(len(x))
            return model.evaluate(x)
        monkeypatch.setattr(agents, "get_model", lambda model_id: replace(
            model, evaluate=evaluate))
        info = catalog.estimator_info(estimator)
        cap = info.max_samples(8, 10_000)
        plan = ExecutionPlan(estimator, cap + 1, model.id, 0)
        with pytest.raises(OverBudget) as err:
            agents.execution_runner(plan, "MonteCarlo", 10_000, {})
        assert err.value.n_budget == 10_000
        assert rows == []
        obs = agents.execution_runner(replace(plan, n_samples=cap),
                                      "MonteCarlo", 10_000, {})
        assert obs.evaluations_used == info.cost(cap, 8) <= 10_000

    @pytest.mark.parametrize("estimator", sorted(catalog.SA_ESTIMATORS))
    def test_debugger_patches_an_oversized_plan_to_the_budget(self,
                                                              estimator):
        # The patch is the largest size the budget pays for, and on a
        # budget that makes the row feasible it is at least the floor.
        info = catalog.estimator_info(estimator)
        for model in estimators.benchmark_catalog().values():
            plan = ExecutionPlan(estimator, 10**9, model.id, 0)
            for budget in (info.n_min(model.d_in), 8000, 12_345):
                patched = agents.debugger_fix(plan,
                                              OverBudget("over", budget))
                n = patched.n_samples
                assert info.cost(n, model.d_in) <= budget \
                    < info.cost(n + 1, model.d_in)
                if budget >= info.n_min(model.d_in):
                    assert n >= info.min_samples(model.d_in)

    def test_debugger_unknown_error_unrecoverable(self):
        # An error with no patch rule is raised again as it is.
        plan = ExecutionPlan("Sobol", 100, "structural_eq3", 0)
        error = RuntimeError("boom")
        with pytest.raises(RuntimeError) as raised:
            agents.debugger_fix(plan, error)
        assert raised.value is error


# The keyword parse that once read the diagnosis back out of the Advisor's
# prose, kept as an oracle: every branch must state what it would find.
_ROOT_CAUSE_RULES = (
    ("crashed", "execution_failed"),
    ("attribute", "attribute_error"),
    ("wrong estimator", "wrong_estimator"),
    ("insufficient", "insufficient_N"),
    ("degenerate", "numerical_degeneracy"),
    ("nan", "numerical_degeneracy"),
    ("numerical", "numerical_degeneracy"),
)


def _keyword_diagnosis(report):
    text = report.lower()
    cause = next((c for k, c in _ROOT_CAUSE_RULES if k in text), "none")
    match = re.search(r"prescribe estimator (\w+)", report, re.IGNORECASE)
    estimator = None
    if match and match.group(1) in catalog.SA_ESTIMATORS:
        estimator = match.group(1)
    n_match = re.search(r"n_samples\s*[=:]\s*(\d+)", text)
    n_samples = 2 * int(n_match.group(1)) \
        if cause == "insufficient_N" and n_match else None
    return build_diagnostic_scheme(report, cause, estimator, n_samples)


def _breakdown(total):
    return RewardBreakdown(min(total, 35.0), max(0.0, min(total - 35.0, 35.0)),
                           max(0.0, min(total - 70.0, 15.0)),
                           max(0.0, total - 85.0), ())


_SOBOL_OBS = SAResult(estimator="Sobol",
                      first_order_indices=(0.5, 0.3, 0.1, 0.05),
                      total_order_indices=(0.6, 0.35, 0.12, 0.06),
                      evaluations_used=6000)
_RANK_OBS = SAResult(estimator="Chatterjee",
                     chatterjee_indices=(0.5, 0.3, 0.1, 0.05),
                     evaluations_used=1000)
_MORRIS_OBS = SAResult(estimator="Morris", mu_star=(1.0,) * 4,
                       sigma_effects=(0.1,) * 4, evaluations_used=500)
_NAN_OBS = SAResult(estimator="Sobol",
                    first_order_indices=(float("nan"),) * 4,
                    total_order_indices=(float("nan"),) * 4,
                    evaluations_used=6000, nan_count=8)

# name -> (estimator, observation, total, avoid)
_ADVISOR_BRANCHES = {
    "crash": ("Sobol", None, 0.0, ()),
    "missing_attribute": ("Sobol", _MORRIS_OBS, 20.0, ()),
    "nan": ("Sobol", _NAN_OBS, 30.0, ()),
    "converged": ("Sobol", _SOBOL_OBS, 92.0, ()),
    "swap": ("Chatterjee", _RANK_OBS, 60.0, ()),
    "swap_with_avoid": ("Chatterjee", _RANK_OBS, 60.0, ("Sobol",)),
    "insufficient_samples": ("Sobol", _SOBOL_OBS, 60.0, ()),
}


def _produced_obs(estimator):
    bindings = catalog.estimator_info(estimator).bindings
    return SAResult(estimator=estimator, evaluations_used=1000,
                    **{f: (0.5, 0.3, 0.1, 0.05) for f in bindings})


def _plan(ps, estimator="Sobol", n=1000):
    return ExecutionPlan(estimator, n, ps.model_id, 0)


class TestAdvisor:
    def _diagnose(self, ps, name):
        estimator, obs, total, avoid = _ADVISOR_BRANCHES[name]
        return agents.advisor_report(_ms(ps, estimator), _plan(ps, estimator),
                                     obs, _breakdown(total), ps, 85.0,
                                     avoid=frozenset(avoid))

    def test_crash_report(self, ps_eq3):
        diag = self._diagnose(ps_eq3, "crash")
        assert "unrecoverable" in diag.physical_insight
        assert diag.root_cause == "execution_failed"

    def test_missing_attribute_report(self, ps_eq3):
        diag = self._diagnose(ps_eq3, "missing_attribute")  # Sobol needs s1
        assert "required attribute" in diag.physical_insight
        assert diag.root_cause == "attribute_error"
        assert diag.block_action

    def test_converged_report(self, ps_eq3):
        diag = self._diagnose(ps_eq3, "converged")
        assert "successfully computed" in diag.physical_insight
        assert diag.root_cause == "none"
        assert diag.prescribed_estimator is diag.prescribed_n_samples is None

    def test_partial_rank_method_prescribes_swap(self, ps_eq3):
        diag = self._diagnose(ps_eq3, "swap")               # no s1 output
        assert "wrong estimator" in diag.physical_insight
        assert "prescribe estimator Sobol" in diag.physical_insight
        assert diag.root_cause == "wrong_estimator"
        assert diag.prescribed_estimator == "Sobol"
        assert not diag.block_action

    def test_avoid_list_redirects_prescription(self, ps_eq3):
        diag = self._diagnose(ps_eq3, "swap_with_avoid")
        assert "prescribe estimator CVM" in diag.physical_insight
        assert diag.prescribed_estimator == "CVM"

    def test_partial_real_s1_method_asks_for_more_samples(self, ps_eq3):
        diag = self._diagnose(ps_eq3, "insufficient_samples")
        assert "insufficient at n_samples=1000" in diag.physical_insight
        assert diag.root_cause == "insufficient_N"
        assert diag.prescribed_n_samples == 2000
        assert diag.prescribed_estimator is None

    def test_prescribes_from_the_plan_that_ran(self, ps_eq3):
        # A Debugger patch ran 3000 samples where the scheme decided 6000:
        # the prescription doubles the run's size, not the decided one.
        diag = agents.advisor_report(_ms(ps_eq3, "Sobol", 6000),
                                     _plan(ps_eq3, "Sobol", 3000), _SOBOL_OBS,
                                     _breakdown(60.0), ps_eq3, 85.0)
        assert "insufficient at n_samples=3000" in diag.physical_insight
        assert diag.prescribed_n_samples == 6000
        assert diag == _keyword_diagnosis(diag.physical_insight)

    def test_attribute_check_reads_the_decided_scheme(self, ps_eq3):
        # The scheme decided Sobol; a swapped plan ran Chatterjee, whose
        # observation lacks the first-order indices the scheme demands.
        diag = agents.advisor_report(_ms(ps_eq3, "Sobol"),
                                     _plan(ps_eq3, "Chatterjee"), _RANK_OBS,
                                     _breakdown(60.0), ps_eq3, 85.0)
        assert diag.root_cause == "attribute_error"

    @pytest.mark.parametrize("name", sorted(_ADVISOR_BRANCHES))
    def test_branch_states_what_its_prose_says(self, ps_eq3, name):
        diag = self._diagnose(ps_eq3, name)
        assert diag == _keyword_diagnosis(diag.physical_insight)

    @pytest.mark.parametrize("total", [60.0, 92.0])
    @pytest.mark.parametrize("estimator", sorted(catalog.SA_ESTIMATORS))
    def test_estimator_review_states_what_its_prose_says(
            self, ps_eq3, estimator, total):
        diag = agents.advisor_report(_ms(ps_eq3, estimator),
                                     _plan(ps_eq3, estimator),
                                     _produced_obs(estimator),
                                     _breakdown(total), ps_eq3, 85.0)
        assert diag == _keyword_diagnosis(diag.physical_insight)


class TestDriftInjection:
    def _text(self, ps):
        return agents.render_strategy_text(_ms(ps))

    def test_zero_probability_is_identity(self, ps_eq3):
        text = self._text(ps_eq3)
        spec = DriftSpec(kind="method_swap", replacement_value="Morris",
                         probability=0.0)
        out, event = agents.inject_drift(text, spec, rng_seed=0)
        assert out is text and event is None

    def test_method_swap_rewrites_tokens_and_vocabulary(self, ps_eq3):
        text = self._text(ps_eq3)
        spec = DriftSpec(kind="method_swap", replacement_value="Morris",
                         probability=1.0)
        out, event = agents.inject_drift(text, spec, rng_seed=0)
        assert event == {"kind": "method_swap", "field": "estimator",
                         "from": "Sobol", "to": "Morris"}
        import re
        # Standalone name tokens are swapped; compound identifiers like the
        # library class name are left alone.
        assert not re.search(r"\bSobol\b", out)
        assert "Morris" in out
        assert "elementary effects" in out           # swapped rationale
        assert text != out                           # original untouched

    def test_source_filter_spares_other_estimators(self, ps_eq3):
        text = self._text(ps_eq3)                    # a Sobol strategy
        spec = DriftSpec(kind="method_swap", source_value="CVM",
                         replacement_value="Morris", probability=1.0)
        out, event = agents.inject_drift(text, spec, rng_seed=0)
        assert event is None and out == text

    def test_deterministic_given_seed(self, ps_eq3):
        text = self._text(ps_eq3)
        spec = DriftSpec(kind="method_swap", replacement_value="Morris",
                         probability=0.5)
        results = {agents.inject_drift(text, spec, rng_seed=9)[0]
                   for _ in range(5)}
        assert len(results) == 1

    def test_activation_iteration_delays_drift(self, ps_eq3):
        text = self._text(ps_eq3)
        spec = DriftSpec(kind="method_swap", replacement_value="Morris",
                         probability=1.0, activation_iteration=3)
        _, early = agents.inject_drift(text, spec, rng_seed=0, iteration=2)
        _, late = agents.inject_drift(text, spec, rng_seed=0, iteration=3)
        assert early is None and late is not None

    def test_field_corruption_rewrites_n_samples(self, ps_eq3):
        text = self._text(ps_eq3)
        spec = DriftSpec(kind="field_corruption", target_field="n_samples",
                         replacement_value="37", probability=1.0)
        out, event = agents.inject_drift(text, spec, rng_seed=0)
        assert "n_samples=37" in out
        assert event == {"kind": "field_corruption", "field": "n_samples",
                         "to": "37"}

    @pytest.mark.parametrize("kind, field", [
        ("field_corruption", "estimator"), ("method_swap", "n_samples"),
        ("method_swap", "seed")])
    def test_target_field_must_name_the_rewritten_field(self, kind, field):
        with pytest.raises(ValueError, match="rewrites"):
            DriftSpec(kind=kind, target_field=field, probability=1.0)

    @pytest.mark.parametrize("kind, value", [
        ("method_swap", "Sobl"), ("method_swap", "sobol"),
        ("field_corruption", "lots"), ("field_corruption", ""),
        ("field_corruption", "0"), ("field_corruption", "-5"),
        ("field_corruption", "1.5"), ("field_corruption", " 7"),
        ("field_corruption", "\u0663")])     # an Arabic-Indic three
    def test_drift_writes_only_what_a_plan_reads(self, kind, value):
        # A swap names a catalog estimator and a corruption a positive
        # sample size, so the Refactor Agent always reads a plan back.
        field = agents.DRIFT_KINDS[kind]
        with pytest.raises(ValueError, match="a (method swap|field corr)"):
            DriftSpec(kind=kind, target_field=field, replacement_value=value,
                      probability=1.0)
        if kind == "method_swap":
            with pytest.raises(ValueError, match="catalog estimators"):
                DriftSpec(kind=kind, source_value=value, probability=1.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(kind="method_swap", probability=1.5)
        with pytest.raises(ValueError):
            DriftSpec(kind="gremlins", probability=0.5)
