
import dataclasses

import pytest

from driftguard import action_space, catalog
from driftguard.errors import ConfigError, InvalidProblem, UnknownModel
from driftguard.pipeline import SessionConfig
from driftguard.schemes import (build_diagnostic_scheme, build_method_scheme,
                                build_problem_scheme, DiagnosticScheme,
                                MethodScheme, ProblemScheme)
from conftest import EQ3_PROBLEM, G8_PROBLEM


# The problem record's intake checks.
class TestContextVector:
    def test_happy_path(self):
        ps = build_problem_scheme(EQ3_PROBLEM)
        assert (ps.d_in, ps.d_out, ps.n_budget, ps.epsilon) == \
            (4, 1, 8000, 0.05)
        assert ps.dist_family == ("Uniform",) * 4
        assert ps.model_id == "structural_eq3"

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidProblem):
            build_problem_scheme({"task": "SA", "d_in": 4})
        without_task = {k: v for k, v in EQ3_PROBLEM.items() if k != "task"}
        with pytest.raises(InvalidProblem, match="incomplete"):
            build_problem_scheme(without_task)

    def test_bad_task_rejected(self):
        # UQ has no executor, so intake rejects it like any unknown task.
        for task in ("XX", "UQ"):
            with pytest.raises(InvalidProblem, match="unknown task"):
                build_problem_scheme({**EQ3_PROBLEM, "task": task})

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(InvalidProblem):
            build_problem_scheme({**EQ3_PROBLEM, "d_in": 0})

    def test_nonpositive_budget_or_epsilon_rejected(self):
        for change, reason in (({"n_budget": 0}, "budget"),
                               ({"n_budget": -5}, "budget"),
                               ({"epsilon": 0.0}, "epsilon"),
                               ({"epsilon": -0.1}, "epsilon"),
                               ({"epsilon": float("nan")}, "epsilon")):
            with pytest.raises(InvalidProblem, match=reason):
                build_problem_scheme({**EQ3_PROBLEM, **change})

    def test_numbers_hold_their_own_types(self):
        # Nothing is converted: an int field takes no bool, float or str,
        # and a float field takes an int as the equal float.
        for change in ({"d_in": 4.7}, {"d_in": 4.0}, {"d_in": "4"},
                       {"d_in": True}, {"d_out": 1.0}, {"n_budget": 8000.9},
                       {"epsilon": "0.05"}, {"epsilon": True},
                       {"epsilon": 10 ** 400}):
            with pytest.raises(ConfigError, match="bad problem"):
                build_problem_scheme({**EQ3_PROBLEM, **change})
        ps = build_problem_scheme({**EQ3_PROBLEM, "epsilon": 1})
        assert ps.epsilon == 1.0 and type(ps.epsilon) is float
        # An int past the float range is refused under its field's name.
        with pytest.raises(ConfigError, match="epsilon overflows a float"):
            build_problem_scheme({**EQ3_PROBLEM, "epsilon": 10 ** 400})
        with pytest.raises(OverflowError, match="r_threshold"):
            SessionConfig(problem=EQ3_PROBLEM, r_threshold=10 ** 400)

    def test_missing_dist_family_is_other_per_input(self):
        ps = build_problem_scheme({k: v for k, v in EQ3_PROBLEM.items()
                                   if k != "dist_family"})
        assert ps.dist_family == ("Other",) * 4

    def test_unknown_dist_family_refused(self):
        # A family name outside DIST_FAMILIES is refused, not read as Other,
        # and the record itself takes none either.
        with pytest.raises(InvalidProblem, match="distribution family"):
            build_problem_scheme({**EQ3_PROBLEM,
                                  "dist_family": ["Exotic"] * 4})
        with pytest.raises(InvalidProblem, match="distribution family"):
            ProblemScheme(d_in=4, d_out=1, n_budget=8000, epsilon=0.05,
                          dist_family=("Exotic",) * 4,
                          model_id="structural_eq3")


def _screening_only(monkeypatch):
    """Make every catalog row screening-only: at d_in = 4 no estimator is
    feasible."""
    monkeypatch.setattr(catalog, "SA_ESTIMATORS", {
        e: dataclasses.replace(info, high_d_only=True)
        for e, info in catalog.SA_ESTIMATORS.items()})


# Intake admits a problem only when it binds to a catalog model with the
# model's sizes (and input families, when it states them) and admits at
# least one feasible estimator; a problem naming no model is refused last.
class TestAdmission:
    def test_admits_known_problem(self, ps_eq3):
        assert build_problem_scheme(EQ3_PROBLEM) == ps_eq3

    def test_refuses_unknown_model(self):
        with pytest.raises(UnknownModel, match="'ghost'"):
            build_problem_scheme({**EQ3_PROBLEM, "model_id": "ghost"})

    def test_refuses_infeasible_problem(self, monkeypatch):
        _screening_only(monkeypatch)
        with pytest.raises(InvalidProblem, match="no feasible estimator"):
            build_problem_scheme(EQ3_PROBLEM)

    def test_refuses_dimensions_the_model_lacks(self):
        for change, stated in (({"d_in": 9, "dist_family": ["Uniform"] * 9},
                                "d_in=9"),
                               ({"d_out": 2}, "d_out=2")):
            with pytest.raises(InvalidProblem) as refused:
                build_problem_scheme({**EQ3_PROBLEM, **change})
            assert stated in str(refused.value)
            assert "d_in=4, d_out=1" in str(refused.value)

    def test_refuses_input_families_the_model_lacks(self):
        # A stated family list is compared with the model's as it is; only
        # an unstated one stands for Other on every input.
        for families in (["Other"] * 4, ["Normal"] * 4, ["Uniform"] * 3):
            with pytest.raises(InvalidProblem,
                               match=r"but model structural_eq3 has "
                                     r"\['Uniform', 'Uniform'"):
                build_problem_scheme({**EQ3_PROBLEM,
                                      "dist_family": families})

    def test_refuses_problem_naming_no_model(self):
        for model_id in ("", None):
            with pytest.raises(InvalidProblem,
                               match="^problem description names no model$"):
                build_problem_scheme({**EQ3_PROBLEM, "model_id": model_id})
        without = {k: v for k, v in EQ3_PROBLEM.items() if k != "model_id"}
        with pytest.raises(InvalidProblem, match="names no model"):
            build_problem_scheme(without)

    def test_checks_feasibility_before_the_model(self, monkeypatch):
        _screening_only(monkeypatch)
        without = {k: v for k, v in EQ3_PROBLEM.items() if k != "model_id"}
        with pytest.raises(InvalidProblem,
                           match="^no feasible estimator for this problem$"):
            build_problem_scheme(without)


class TestProblemScheme:
    def test_low_dim_blocks_morris(self):
        ps = build_problem_scheme(EQ3_PROBLEM)
        assert "Morris" not in ps.feasible_sa_estimators
        assert "Sobol" in ps.feasible_sa_estimators

    def test_high_dim_allows_morris(self):
        ps = build_problem_scheme(G8_PROBLEM)
        assert "Morris" in ps.feasible_sa_estimators

    def test_generalized_sobol_needs_vector_output(self):
        ps = build_problem_scheme(EQ3_PROBLEM)
        assert "Generalized_Sobol" not in ps.feasible_sa_estimators

    def test_tiny_budget_starves_variance_estimators(self):
        ps = build_problem_scheme({**EQ3_PROBLEM, "n_budget": 100})
        assert "Sobol" not in ps.feasible_sa_estimators


class TestMethodScheme:
    def _action(self, estimator):
        return action_space.ActionTuple("MonteCarlo", estimator)

    def test_required_attributes_follow_catalog(self, ps_eq3):
        ms = build_method_scheme(self._action("Sobol"), ps_eq3, 500)
        # Sobol pick-freeze's floor: 500 samples at d + 2 = 6 evaluations.
        assert ms.n_min_value == 3000
        assert set(ms.info.bindings) == {"first_order_indices",
                                         "total_order_indices"}

    def test_holds_only_the_decision(self, ps_eq3):
        # The rest of the method is its catalog row, read, not copied.
        assert [f.name for f in dataclasses.fields(MethodScheme)] == [
            "action", "n_samples", "n_min_value"]
        ms = build_method_scheme(self._action("CVM"), ps_eq3, 500)
        assert ms.action == self._action("CVM") and ms.estimator == "CVM"
        assert ms.info is catalog.SA_ESTIMATORS["CVM"]
        assert ms.info.bindings is ms.info.bindings


class TestDiagnosticScheme:
    def test_attribute_error_blocks(self):
        diag = build_diagnostic_scheme(
            "required attribute first_order_indices absent from the "
            "observation", "attribute_error")
        assert diag.root_cause == "attribute_error"
        assert diag.block_action

    def test_wrong_estimator_prescribes(self):
        diag = build_diagnostic_scheme(
            "this looks like a wrong estimator. prescribe estimator CVM.",
            "wrong_estimator", prescribed_estimator="CVM")
        assert diag.root_cause == "wrong_estimator"
        assert diag.prescribed_estimator == "CVM"
        assert not diag.block_action

    def test_insufficient_doubles_samples(self):
        diag = build_diagnostic_scheme(
            "sampling appears insufficient at n_samples=1000.",
            "insufficient_N", prescribed_n_samples=2000)
        assert diag.root_cause == "insufficient_N"
        assert diag.prescribed_n_samples == 2000
        # The builder reads nothing out of the prose: a size it states is
        # no prescription.
        diag = build_diagnostic_scheme(
            "sobol indices successfully computed at n_samples=1000.",
            "none")
        assert diag.prescribed_n_samples is None

    def test_block_follows_the_cause(self):
        # Only an estimator that cannot bind its scheme's outputs is
        # blocked; the flag is read from the cause, not stored beside it.
        assert [f.name for f in dataclasses.fields(DiagnosticScheme)] == [
            "root_cause", "prescribed_estimator", "prescribed_n_samples",
            "physical_insight"]
        for cause in ("attribute_error", "wrong_estimator", "insufficient_N",
                      "numerical_degeneracy", "execution_failed", "none"):
            diag = DiagnosticScheme(cause, None, None)
            assert diag.block_action == (cause == "attribute_error")
