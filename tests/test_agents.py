import pytest

from driftguard import agents, catalog, estimators
from driftguard.action_space import ActionTuple
from driftguard.agents import DriftSpec, ExecutionPlan
from driftguard.errors import InsufficientSamples, Unrecoverable
from driftguard.estimators import SAResult
from driftguard.reward import RewardBreakdown
from driftguard.schemes import build_method_scheme, build_problem_scheme

from conftest import EQ3_PROBLEM, G8_PROBLEM


def _ms(ps, estimator="Sobol", n=1000):
    action = ActionTuple(("MonteCarlo", estimator))
    return build_method_scheme(action, ps, n)


class TestGroupA:
    def test_coordinator_builds_problem_scheme(self):
        ps = build_problem_scheme(EQ3_PROBLEM)
        assert ps.model_id == "structural_eq3"
        assert ps.d_in == 4

    def test_gatekeeper_admits_known_problem(self, ps_eq3):
        ok, why = agents.gatekeeper(ps_eq3, EQ3_PROBLEM)
        assert ok and why == "admitted"

    def test_gatekeeper_rejects_unknown_model(self):
        desc = {**EQ3_PROBLEM, "model_id": "ghost"}
        ok, why = agents.gatekeeper(build_problem_scheme(desc), desc)
        assert not ok and "ghost" in why

    def test_gatekeeper_rejects_infeasible_problem(self, monkeypatch):
        # Every row screening-only: no estimator is feasible at d_in = 4.
        import dataclasses
        monkeypatch.setattr(catalog, "SA_ESTIMATORS", {
            e: dataclasses.replace(info, high_d_only=True)
            for e, info in catalog.SA_ESTIMATORS.items()})
        ps = build_problem_scheme(EQ3_PROBLEM)
        assert ps.feasible_sa_estimators == ()
        ok, why = agents.gatekeeper(ps, EQ3_PROBLEM)
        assert not ok and "no feasible estimator" in why

    def test_gatekeeper_rejects_dimensions_the_model_lacks(self):
        for change, stated in (({"d_in": 9, "dist_family": ["Uniform"] * 9},
                                "d_in=9"),
                               ({"d_out": 2}, "d_out=2")):
            desc = {**EQ3_PROBLEM, **change}
            ok, why = agents.gatekeeper(build_problem_scheme(desc), desc)
            assert not ok and stated in why and "d_in=4, d_out=1" in why

    def test_gatekeeper_rejects_problem_naming_no_model(self):
        desc = {k: v for k, v in EQ3_PROBLEM.items() if k != "model_id"}
        ok, why = agents.gatekeeper(build_problem_scheme(desc), desc)
        assert not ok and why == "problem description names no model"

    def test_gatekeeper_checks_feasibility_before_the_model(self,
                                                            monkeypatch):
        import dataclasses
        monkeypatch.setattr(catalog, "SA_ESTIMATORS", {
            e: dataclasses.replace(info, high_d_only=True)
            for e, info in catalog.SA_ESTIMATORS.items()})
        desc = {k: v for k, v in EQ3_PROBLEM.items() if k != "model_id"}
        ok, why = agents.gatekeeper(build_problem_scheme(desc), desc)
        assert not ok and why == "no feasible estimator for this problem"


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
            seed=7, fallback=ms)
        assert plan.estimator == "CVM"
        assert plan.n_samples == 2500
        assert plan.output_bindings == ("first_order_indices",)
        assert plan.seed == 7

    def test_falls_back_to_scheme(self, ps_eq3):
        ms = _ms(ps_eq3)
        plan = agents.refactor_agent("nothing parseable here",
                                     "structural_eq3", seed=0, fallback=ms)
        assert plan.estimator == "Sobol"
        assert plan.n_samples == 1000

    def test_corrupted_text_yields_wrong_plan(self, ps_eq3):
        # The causal link: corrupt prose becomes a concretely wrong plan.
        ms = _ms(ps_eq3)
        text = agents.render_strategy_text(ms).replace("Sobol", "Morris")
        plan = agents.refactor_agent(text, "structural_eq3", seed=0,
                                     fallback=ms)
        assert plan.estimator == "Morris"


class TestInspector:
    def test_approves_faithful_plan(self, ps_eq3):
        ms = _ms(ps_eq3)
        plan = agents.refactor_agent(agents.render_strategy_text(ms),
                                     "structural_eq3", seed=0, fallback=ms)
        assert agents.inspector_check(plan, ms).approved

    def test_estimator_mismatch_reason(self, ps_eq3):
        ms = _ms(ps_eq3)
        plan = ExecutionPlan("Morris", 100, "structural_eq3", 0)
        verdict = agents.inspector_check(plan, ms)
        assert not verdict.approved
        assert any("estimator mismatch" in r for r in verdict.reasons)
        assert any("missing required bindings" in r for r in verdict.reasons)

    def test_undersized_plan_rejected(self, ps_eq3):
        ms = _ms(ps_eq3)
        plan = ExecutionPlan("Sobol", 50, "structural_eq3", 0)
        verdict = agents.inspector_check(plan, ms)
        assert any("below the estimator minimum" in r
                   for r in verdict.reasons)


class TestExecutionAndDebugger:
    def test_runner_executes_plan(self):
        plan = ExecutionPlan("Chatterjee", 200, "structural_eq3", 3)
        obs = agents.execution_runner(plan)
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
        assert agents.execution_runner(plan).estimator == estimator
        assert calls == [function]

    @pytest.mark.parametrize("estimator, reached", [
        ("Sobol", True), ("Chatterjee", True), ("CVM", True),
        ("Morris", False), ("PCE_SA", False), ("Generalized_Sobol", False)])
    def test_sampling_dimension_reaches_estimator(self, estimator, reached):
        # The sampling level changes what executes only for the estimators
        # that draw their own design; the rest ignore it.
        plan = ExecutionPlan(estimator, 200, "g_function_8d", 3)
        mc, lhs = (agents.execution_runner(plan, scheme).attributes()
                   for scheme in dict(catalog.SA_DIMENSIONS)["D1_sampling"])
        assert (mc != lhs) == reached

    def test_debugger_patches_sample_size(self):
        plan = ExecutionPlan("Chatterjee", 2, "structural_eq3", 0)
        with pytest.raises(InsufficientSamples) as err:
            agents.execution_runner(plan)
        patched = agents.debugger_fix(plan, err.value)
        assert patched.n_samples >= 10
        assert agents.execution_runner(patched).evaluations_used \
            == patched.n_samples

    def test_debugger_unknown_error_unrecoverable(self):
        plan = ExecutionPlan("Sobol", 100, "structural_eq3", 0)
        with pytest.raises(Unrecoverable):
            agents.debugger_fix(plan, RuntimeError("boom"))


class TestAdvisor:
    def _breakdown(self, total):
        return RewardBreakdown(min(total, 35.0),
                               max(0.0, min(total - 35.0, 35.0)),
                               max(0.0, min(total - 70.0, 15.0)),
                               max(0.0, total - 85.0), ())

    def test_crash_report(self, ps_eq3):
        text = agents.advisor_report(_ms(ps_eq3), None,
                                     self._breakdown(0), ps_eq3, 85.0)
        assert "unrecoverable" in text

    def test_missing_attribute_report(self, ps_eq3):
        ms = _ms(ps_eq3)                                # requires s1 and st
        obs = SAResult(estimator="Morris", mu_star=(1.0,) * 4,
                       sigma=(0.1,) * 4, evaluations_used=500)
        text = agents.advisor_report(ms, obs, self._breakdown(20),
                                     ps_eq3, 85.0)
        assert "required attribute" in text

    def test_converged_report(self, ps_eq3):
        obs = SAResult(estimator="Sobol", s1=(0.5, 0.3, 0.1, 0.05),
                       st=(0.6, 0.35, 0.12, 0.06), evaluations_used=6000)
        text = agents.advisor_report(_ms(ps_eq3), obs,
                                     self._breakdown(92), ps_eq3, 85.0)
        assert "successfully computed" in text

    def test_partial_rank_method_prescribes_swap(self, ps_eq3):
        ms = _ms(ps_eq3, estimator="Chatterjee")        # no s1 output
        obs = SAResult(estimator="Chatterjee",
                       rank_indices=(0.5, 0.3, 0.1, 0.05),
                       evaluations_used=1000)
        text = agents.advisor_report(ms, obs, self._breakdown(60),
                                     ps_eq3, 85.0)
        assert "wrong estimator" in text
        assert "prescribe estimator Sobol" in text

    def test_avoid_list_redirects_prescription(self, ps_eq3):
        ms = _ms(ps_eq3, estimator="Chatterjee")
        obs = SAResult(estimator="Chatterjee",
                       rank_indices=(0.5, 0.3, 0.1, 0.05),
                       evaluations_used=1000)
        text = agents.advisor_report(ms, obs, self._breakdown(60), ps_eq3,
                                     85.0, avoid=frozenset({"Sobol"}))
        assert "prescribe estimator CVM" in text

    def test_partial_real_s1_method_asks_for_more_samples(self, ps_eq3):
        ms = _ms(ps_eq3, estimator="Sobol", n=1000)
        obs = SAResult(estimator="Sobol", s1=(0.5, 0.3, 0.1, 0.05),
                       st=(0.6, 0.35, 0.12, 0.06), evaluations_used=6000)
        text = agents.advisor_report(ms, obs, self._breakdown(60),
                                     ps_eq3, 85.0)
        assert "insufficient at n_samples=1000" in text


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

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(kind="method_swap", probability=1.5)
        with pytest.raises(ValueError):
            DriftSpec(kind="gremlins", probability=0.5)
