import dataclasses
from unittest import mock

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
        # 2 sampling schemes x 6 estimators: the two dimensions that change
        # what executes.
        assert [name for name, _ in catalog.SA_DIMENSIONS] == [
            "D1_sampling", "D2_estimator"]
        actions = action_space.enumerate_actions()
        assert len(actions) == 12
        assert len(set(actions)) == 12

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            ActionTuple(("MonteCarlo",))
        with pytest.raises(ValueError):
            ActionTuple(("MonteCarlo", "NotAnEstimator"))
        with pytest.raises(ValueError):
            ActionTuple(("Sobol", "MonteCarlo"))
        with pytest.raises(ValueError):
            ActionTuple(("MonteCarlo", "Sobol", "Fixed_N", "Scalar"))

    def test_estimator_property(self):
        a = ActionTuple(("LatinHypercube", "CVM"))
        assert a.estimator == "CVM"
        assert a.dims == ("LatinHypercube", "CVM")


def _bits(ctx) -> dict[str, bool]:
    return dict(zip(catalog.SA_ESTIMATORS, action_space.feasibility_bits(ctx)))


# The feasibility rules as the catalog first stated them, one per
# estimator; the oracle below applies them action by action.
_RULES = {
    "Sobol": lambda ctx, thr: ctx.n_budget >= 500 * (ctx.d_in + 2),
    "Chatterjee": lambda ctx, thr: True,
    "CVM": lambda ctx, thr: ctx.n_budget >= 500 * (ctx.d_in + 2),
    "Morris": lambda ctx, thr: ctx.d_in >= thr,
    "PCE_SA": lambda ctx, thr: ctx.n_budget >= 500 * ctx.d_in,
    "Generalized_Sobol": lambda ctx, thr:
        ctx.d_out > 1 and ctx.n_budget >= 500 * (ctx.d_in + 2),
}


def _walk_feasible(ctx, thr):
    """The per-action walk: the rule of an action's estimator must hold,
    checked for each of the 12 actions."""
    return [a for a in action_space.enumerate_actions()
            if _RULES[a.estimator](ctx, thr)]


class TestFeasibility:
    def test_morris_needs_high_dimension(self):
        low = build_context_vector(EQ3_PROBLEM)     # d_in = 4
        high = build_context_vector(G8_PROBLEM)     # d_in = 8
        assert not _bits(low)["Morris"]
        assert _bits(high)["Morris"]

    def test_generalized_sobol_needs_vector_output(self):
        scalar = build_context_vector(G8_PROBLEM)
        vector = build_context_vector({**G8_PROBLEM, "d_out": 3})
        assert not _bits(scalar)["Generalized_Sobol"]
        assert _bits(vector)["Generalized_Sobol"]

    def test_budget_gates(self):
        starved = build_context_vector({**EQ3_PROBLEM, "n_budget": 1500})
        flags = _bits(starved)
        assert not flags["Sobol"]        # needs 500*(4+2)=3000
        assert not flags["PCE_SA"]       # needs 500*4=2000
        assert flags["Chatterjee"]

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

    @pytest.mark.parametrize("estimator", ["Sobol", "CVM", "PCE_SA"])
    def test_budget_gate_reads_n_min(self, estimator, monkeypatch):
        # The budget rule holds no minimum of its own: raising an
        # estimator's n_min makes it, and only it, infeasible.
        ctx = build_context_vector(EQ3_PROBLEM)
        before = _bits(ctx)
        assert before[estimator]
        monkeypatch.setitem(catalog.SA_ESTIMATORS, estimator,
                            dataclasses.replace(
                                catalog.SA_ESTIMATORS[estimator],
                                n_min=lambda d: ctx.n_budget + 1))
        assert _bits(ctx) == {**before, estimator: False}

    def test_filter_reads_only_the_bits(self):
        ctx = build_context_vector(G8_PROBLEM)
        only_cvm = tuple(e == "CVM" for e in catalog.SA_ESTIMATORS)
        feasible = action_space.filter_feasible(
            dataclasses.replace(ctx, feasibility_bits=only_cvm))
        assert feasible == [ActionTuple(("MonteCarlo", "CVM")),
                            ActionTuple(("LatinHypercube", "CVM"))]

    @hyp_settings(max_examples=60, deadline=None)
    @given(d_in=st.integers(1, 25), budget=st.integers(10, 200000),
           d_out=st.integers(1, 5), thr=st.integers(1, 12),
           edge=st.sampled_from((None, 0, 2)), shift=st.integers(-1, 1))
    def test_bits_agree_with_reports(self, d_in, budget, d_out, thr, edge,
                                     shift):
        # Oracle: the per-action rule walk gives the same feasible
        # actions as filter_feasible, and the same estimators as the bits.
        # ``edge`` puts the budget next to the PCE (500 d) or pick-freeze
        # (500 (d + 2)) minimum, where an off-by-one would show.
        if edge is not None:
            budget = 500 * (d_in + edge) + shift
        with mock.patch.object(catalog, "SCREENING_DIM_THRESHOLD", thr):
            ctx = build_context_vector(
                {"task": "SA", "d_in": d_in, "d_out": d_out,
                 "n_budget": budget, "dist_family": ["Uniform"] * d_in})
            walked = _walk_feasible(ctx, thr)
            assert action_space.filter_feasible(ctx) == walked
            walked_estimators = {a.estimator for a in walked}
            assert ctx.feasibility_bits == tuple(
                e in walked_estimators for e in catalog.SA_ESTIMATORS)
            assert ctx.feasibility_bits == action_space.feasibility_bits(ctx)
