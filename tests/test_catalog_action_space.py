import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from driftguard import action_space, catalog
from driftguard.action_space import ActionTuple
from driftguard.errors import UnknownEstimator
from driftguard.schemes import build_context_vector

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


class TestActionSpace:
    def test_sa_enumeration_size(self):
        # 2 sampling x 6 estimators x 2 budget modes x 2 output modes.
        actions = action_space.enumerate_actions()
        assert len(actions) == 48
        assert len(set(actions)) == 48

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            ActionTuple("SA", ("MonteCarlo", "Sobol", "Fixed_N"))
        with pytest.raises(ValueError):
            ActionTuple("SA", ("MonteCarlo", "NotAnEstimator",
                               "Fixed_N", "Scalar"))
        with pytest.raises(ValueError, match="unknown task"):
            ActionTuple("UQ", ("MonteCarlo", "Sobol", "Fixed_N", "Scalar"))

    def test_estimator_property(self):
        a = ActionTuple("SA", ("LatinHypercube", "CVM", "Staged", "Scalar"))
        assert a.estimator == "CVM"


class TestFeasibility:
    def test_morris_needs_high_dimension(self):
        low = build_context_vector(EQ3_PROBLEM)     # d_in = 4
        high = build_context_vector(G8_PROBLEM)     # d_in = 8
        a = ActionTuple("SA", ("MonteCarlo", "Morris", "Fixed_N", "Scalar"))
        low_report = action_space.validate_action(a, low)
        assert not low_report.verdict
        assert low_report.violated[0][0] == "morris_screening_high_dim"
        assert action_space.validate_action(a, high).verdict

    def test_generalized_sobol_needs_vector_output(self):
        scalar = build_context_vector(G8_PROBLEM)
        vector = build_context_vector({**G8_PROBLEM, "d_out": 3})
        a = ActionTuple("SA", ("MonteCarlo", "Generalized_Sobol",
                               "Fixed_N", "Scalar"))
        assert not action_space.validate_action(a, scalar).verdict
        assert action_space.validate_action(a, vector).verdict

    def test_budget_gates(self):
        starved = build_context_vector({**EQ3_PROBLEM, "n_budget": 1500})
        flags = action_space.estimator_feasibility(starved)
        assert not flags["Sobol"]["feasible"]        # needs 500*(4+2)=3000
        assert not flags["PCE_SA"]["feasible"]       # needs 500*4=2000
        assert flags["Chatterjee"]["feasible"]

    def test_eq3_feasible_set(self, ps_eq3):
        assert set(ps_eq3.feasible_sa_estimators) == {
            "Sobol", "Chatterjee", "CVM", "PCE_SA"}

    def test_g8_feasible_set(self, ps_g8):
        assert set(ps_g8.feasible_sa_estimators) == {
            "Sobol", "Chatterjee", "CVM", "PCE_SA", "Morris"}

    def test_filter_preserves_order_and_subset(self):
        ctx = build_context_vector(G8_PROBLEM)
        everything = action_space.enumerate_actions()
        feasible = action_space.filter_feasible(ctx)
        assert [a for a in everything if a in set(feasible)] == feasible

    @hyp_settings(max_examples=30, deadline=None)
    @given(d_in=st.integers(1, 25), budget=st.integers(10, 200000),
           d_out=st.integers(1, 5))
    def test_bits_agree_with_reports(self, d_in, budget, d_out):
        ctx = build_context_vector(
            {"task": "SA", "d_in": d_in, "d_out": d_out, "n_budget": budget,
             "dist_family": ["Uniform"] * d_in})
        flags = action_space.estimator_feasibility(ctx)
        bits = action_space.feasibility_bits(ctx)
        assert bits == tuple(flags[e]["feasible"]
                             for e in catalog.SA_ESTIMATORS)
        for est, info in flags.items():
            assert info["feasible"] == (not info["violations"])
