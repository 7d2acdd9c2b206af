import dataclasses
import importlib
import json
import os
import sys
import types
from unittest import mock

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from driftguard import action_space, bandit, catalog
from driftguard.action_space import ActionTuple
from driftguard.errors import DriftguardError, InvalidProblem, \
    UnknownEstimator
from driftguard.schemes import DIST_FAMILIES, ProblemScheme, \
    build_problem_scheme

from conftest import EQ3_PROBLEM, G8_PROBLEM


class TestCatalog:
    def test_sa_estimator_ids(self):
        assert tuple(catalog.SA_ESTIMATORS) == (
            "Sobol", "Chatterjee", "CVM", "Morris", "PCE_SA",
            "Generalized_Sobol")

    def test_unknown_estimator_raises(self):
        with pytest.raises(UnknownEstimator):
            catalog.estimator_info("Nope")

    def test_cost_arithmetic(self):
        sobol = catalog.estimator_info("Sobol")
        assert sobol.cost(1000, 8) == 10000          # n * (d + 2)
        assert sobol.cost_multiplier(8) == 10
        morris = catalog.estimator_info("Morris")
        assert morris.cost(200, 15) == 3200          # n * (d + 1)
        chat = catalog.estimator_info("Chatterjee")
        assert chat.cost(1234, 8) == 1234            # single loop

    def test_n_min_formulas(self):
        assert catalog.estimator_info("Sobol").n_min(4) == 3000
        assert catalog.estimator_info("PCE_SA").n_min(4) == 2000
        assert catalog.estimator_info("Morris").n_min(15) == 160
        assert catalog.estimator_info("Chatterjee").n_min(99) == 10

    def test_simulated_flags(self):
        simulated = {e for e in catalog.SA_ESTIMATORS
                     if catalog.estimator_info(e).simulated}
        assert simulated == {"PCE_SA", "Generalized_Sobol"}


# The two choice lists in catalog order, restated for the oracles below.
_LEVELS = ("MonteCarlo", "LatinHypercube")
_ESTIMATORS = ("Sobol", "Chatterjee", "CVM", "Morris", "PCE_SA",
               "Generalized_Sobol")


class TestActionSpace:
    def test_sa_enumeration_size(self):
        # 2 sampling levels x 6 estimators: the two choices that change
        # what executes.
        assert catalog.SAMPLING_LEVELS == ("MonteCarlo", "LatinHypercube")
        actions = action_space.enumerate_actions()
        assert len(actions) == 12
        assert len(set(actions)) == 12

    def test_enumeration_is_sampling_major_in_catalog_order(self):
        # The epsilon draw indexes this list, so its order is part of every
        # session's outcome.
        pairs = [(s, e) for s in _LEVELS for e in _ESTIMATORS]
        assert [(a.sampling, a.estimator)
                for a in action_space.enumerate_actions()] == pairs

    def test_dims_validated(self):
        for sampling, estimator in (("Stratified", "Sobol"),
                                    ("MonteCarlo", "NotAnEstimator"),
                                    ("Sobol", "MonteCarlo")):
            with pytest.raises(ValueError, match="not in the catalog"):
                ActionTuple(sampling, estimator)
        with pytest.raises(TypeError):
            ActionTuple("MonteCarlo", "Sobol", "Fixed_N")

    def test_estimator_property(self):
        a = ActionTuple("LatinHypercube", "CVM")
        assert (a.sampling, a.estimator) == ("LatinHypercube", "CVM")
        assert a == ActionTuple(sampling="LatinHypercube", estimator="CVM")
        assert [f.name for f in dataclasses.fields(a)] == [
            "sampling", "estimator"]


def _features_oracle(ps, a):
    """The feature map as the policy first stated it: bias, the problem
    block, then one-hots over the sampling levels and the estimators, then
    two interactions per estimator, every list in catalog order."""
    scaled_d, scaled_out, scaled_logn = ps.scaled_sizes
    phi = [1.0, scaled_d, scaled_out, scaled_logn, min(1.0, ps.epsilon)]
    phi += [1.0 if ps.dist_family_mode == m else 0.0 for m in DIST_FAMILIES]
    phi += [1.0 if a.sampling == s else 0.0 for s in _LEVELS]
    phi += [1.0 if a.estimator == e else 0.0 for e in _ESTIMATORS]
    for e in _ESTIMATORS:
        hit = 1.0 if a.estimator == e else 0.0
        phi += [hit * scaled_d, hit * scaled_logn]
    return tuple(phi)


class TestFeatures:
    @pytest.mark.parametrize("problem", [EQ3_PROBLEM, G8_PROBLEM],
                             ids=["eq3", "g8"])
    def test_every_action_encodes_as_the_oracle(self, problem):
        ps = build_problem_scheme(problem)
        for a in action_space.enumerate_actions():
            phi = bandit.encode_features(ps, a)
            assert phi == _features_oracle(ps, a), a
            assert len(phi) == bandit.feature_dim()


def _feasible(desc) -> dict[str, bool]:
    """Estimator -> feasible, read from a freshly built problem record."""
    ps = build_problem_scheme(desc)
    return {e: e in ps.feasible_sa_estimators for e in catalog.SA_ESTIMATORS}


# The feasibility rules written out, one per estimator; the oracle below
# applies them action by action.  Every row is budget-gated.
_RULES = {
    "Sobol": lambda ps, thr: ps.n_budget >= 500 * (ps.d_in + 2),
    "Chatterjee": lambda ps, thr: ps.n_budget >= 10,
    "CVM": lambda ps, thr: ps.n_budget >= 500 * (ps.d_in + 2),
    "Morris": lambda ps, thr:
        ps.d_in >= thr and ps.n_budget >= 10 * (ps.d_in + 1),
    "PCE_SA": lambda ps, thr: ps.n_budget >= 500 * ps.d_in,
    "Generalized_Sobol": lambda ps, thr:
        ps.d_out > 1 and ps.n_budget >= 500 * (ps.d_in + 2),
}


def _walk_feasible(ps, thr):
    """The per-action walk: the rule of an action's estimator must hold,
    checked for each of the 12 actions."""
    return [a for a in action_space.enumerate_actions()
            if _RULES[a.estimator](ps, thr)]


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")
BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


def _shipped_problems() -> dict[str, dict]:
    """Every problem block of the shipped configs and of the configs each
    benchmark workload writes, by where it comes from."""
    docs = {}
    for name in sorted(os.listdir(CONFIGS)):
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    sys.path.insert(0, BENCH)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(BENCH)
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for call in workloads.plan(workload, seed):
                docs[f"bench:{workload}:{seed}:{call['config']}"] = \
                    call["doc"]
    return {f"{name}[{k}]": block["problem"] for name, doc in docs.items()
            for k, block in enumerate([doc, *doc.get("sessions", [])])
            if "problem" in block}


class TestFeasibility:
    def test_morris_needs_high_dimension(self):
        assert not _feasible(EQ3_PROBLEM)["Morris"]     # d_in = 4
        assert _feasible(G8_PROBLEM)["Morris"]          # d_in = 8

    def test_generalized_sobol_needs_vector_output(self):
        assert not _feasible(G8_PROBLEM)["Generalized_Sobol"]
        # No catalog model has a vector output, so intake refuses d_out = 3
        # on g8; the record is built directly.
        vector = ProblemScheme(d_in=8, d_out=3, n_budget=15000, epsilon=0.1,
                               dist_family=("Uniform",) * 8,
                               model_id="g_function_8d")
        assert "Generalized_Sobol" in vector.feasible_sa_estimators

    def test_budget_gates(self):
        flags = _feasible({**EQ3_PROBLEM, "n_budget": 1500})
        assert not flags["Sobol"]        # needs 500*(4+2)=3000
        assert not flags["PCE_SA"]       # needs 500*4=2000
        assert flags["Chatterjee"]

    def test_eq3_feasible_set(self, ps_eq3):
        assert set(ps_eq3.feasible_sa_estimators) == {
            "Sobol", "Chatterjee", "CVM", "PCE_SA"}

    def test_g8_feasible_set(self, ps_g8):
        assert set(ps_g8.feasible_sa_estimators) == {
            "Sobol", "Chatterjee", "CVM", "PCE_SA", "Morris"}

    def test_filter_preserves_order_and_subset(self, ps_g8):
        everything = action_space.enumerate_actions()
        feasible = action_space.filter_feasible(ps_g8)
        assert [a for a in everything if a in set(feasible)] == feasible

    def test_budget_under_every_minimum_is_refused(self):
        # Chatterjee's ten runs are the smallest minimum of any row.
        assert _feasible({**EQ3_PROBLEM, "n_budget": 10}) == {
            e: e == "Chatterjee" for e in catalog.SA_ESTIMATORS}
        with pytest.raises(InvalidProblem,
                           match="no feasible estimator for this problem"):
            build_problem_scheme({**EQ3_PROBLEM, "n_budget": 9})

    @pytest.mark.parametrize("estimator", catalog.SA_ESTIMATORS)
    def test_n_min_is_a_multiple_of_the_cost(self, estimator):
        # So on a feasible row the budget's sample cap is never below the
        # floor.
        info = catalog.SA_ESTIMATORS[estimator]
        for d_in in range(1, 30):
            assert info.n_min(d_in) % info.cost_multiplier(d_in) == 0
            assert info.max_samples(d_in, info.n_min(d_in)) \
                == info.min_samples(d_in)

    @pytest.mark.parametrize("estimator", ["Sobol", "Chatterjee", "CVM",
                                           "PCE_SA"])
    def test_budget_gate_reads_n_min(self, estimator, monkeypatch):
        # The budget rule holds no minimum of its own: raising an
        # estimator's n_min makes it, and only it, infeasible.
        before = _feasible(EQ3_PROBLEM)
        assert before[estimator]
        monkeypatch.setitem(catalog.SA_ESTIMATORS, estimator,
                            dataclasses.replace(
                                catalog.SA_ESTIMATORS[estimator],
                                n_min=lambda d: EQ3_PROBLEM["n_budget"] + 1))
        assert _feasible(EQ3_PROBLEM) == {**before, estimator: False}

    def test_filter_reads_only_the_bits(self):
        # filter_feasible reads the problem's feasible estimators and
        # nothing else of it.
        only_cvm = types.SimpleNamespace(feasible_sa_estimators=("CVM",))
        assert action_space.filter_feasible(only_cvm) == [
            ActionTuple("MonteCarlo", "CVM"),
            ActionTuple("LatinHypercube", "CVM")]

    def test_shipped_problems_are_admitted(self):
        # Intake refuses a problem with a typed error; no problem that a
        # shipped config or a benchmark workload runs may be refused.
        for where, desc in _shipped_problems().items():
            try:
                build_problem_scheme(desc)
            except DriftguardError as exc:
                pytest.fail(f"{where}: {exc}")

    def test_shipped_problems_feasible_set_is_the_rules(self):
        problems = _shipped_problems()
        assert len(problems) >= 10
        for where, desc in problems.items():
            ps = build_problem_scheme(desc)
            rules = tuple(e for e, info in catalog.SA_ESTIMATORS.items()
                          if info.feasible(ps))
            assert ps.feasible_sa_estimators == rules, where
            walked = _walk_feasible(ps, catalog.SCREENING_DIM_THRESHOLD)
            assert {a.estimator for a in walked} == set(rules), where
            assert action_space.filter_feasible(ps) == [
                a for a in action_space.enumerate_actions()
                if a.estimator in rules], where

    @hyp_settings(max_examples=60, deadline=None)
    @given(d_in=st.integers(1, 25), budget=st.integers(1, 200000),
           d_out=st.integers(1, 5), thr=st.integers(1, 12),
           edge=st.sampled_from((None, "pce", "pick_freeze", "chatterjee",
                                 "morris")),
           shift=st.integers(-1, 1))
    def test_bits_agree_with_reports(self, d_in, budget, d_out, thr, edge,
                                     shift):
        # Oracle: the per-action rule walk gives the same feasible
        # actions as filter_feasible, and the same estimators as the
        # problem record.  ``edge`` puts the budget next to the PCE (500 d),
        # pick-freeze (500 (d + 2)), Chatterjee (10) or Morris (10 (d + 1))
        # minimum, where an off-by-one would show.
        if edge is not None:
            budget = {"pce": 500 * d_in, "pick_freeze": 500 * (d_in + 2),
                      "chatterjee": 10, "morris": 10 * (d_in + 1)}[edge] \
                + shift
        # Most of these problems bind no catalog model, so intake would
        # refuse them; the record is built directly.
        with mock.patch.object(catalog, "SCREENING_DIM_THRESHOLD", thr):
            ps = ProblemScheme(d_in=d_in, d_out=d_out, n_budget=budget,
                               epsilon=0.05, dist_family=("Uniform",) * d_in)
            walked = _walk_feasible(ps, thr)
            assert action_space.filter_feasible(ps) == walked
            walked_estimators = {a.estimator for a in walked}
            assert ps.feasible_sa_estimators == tuple(
                e for e in catalog.SA_ESTIMATORS if e in walked_estimators)
