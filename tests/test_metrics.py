import math

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from driftguard import metrics
from driftguard.errors import NoData

from driftguard.schemes import build_problem_scheme

from simenv import SIM_PROBLEM, SimRecord, SimTrace, canonical_method


def _trace(pairs):
    """SimTrace from (estimator, reward) tuples."""
    ps = build_problem_scheme(SIM_PROBLEM)
    t = SimTrace(session_id="t", problem_scheme=None)
    for n, (est, r) in enumerate(pairs, start=1):
        t.records.append(SimRecord(n=n, method=canonical_method(est, ps),
                                   executed_estimator=est, reward_total=r))
    return t


class TestMutualInformation:
    def test_bijection_is_one_bit(self):
        pairs = [(0, 0), (1, 1)] * 50
        assert metrics.mutual_information_bits(pairs) == pytest.approx(1.0)

    def test_independence_is_zero(self):
        pairs = [(a, o) for a in (0, 1) for o in (0, 1)] * 25
        assert metrics.mutual_information_bits(pairs) == pytest.approx(0.0)

    def test_constant_action_is_zero(self):
        pairs = [(0, o % 3) for o in range(60)]
        assert metrics.mutual_information_bits(pairs) == pytest.approx(0.0)

    @hyp_settings(max_examples=50, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=1, max_size=100))
    def test_nonnegative_and_bounded_by_action_entropy(self, pairs):
        mi = metrics.mutual_information_bits(pairs)
        n = len(pairs)
        counts = {}
        for a, _ in pairs:
            counts[a] = counts.get(a, 0) + 1
        h_a = -sum(c / n * math.log2(c / n) for c in counts.values())
        assert 0.0 <= mi <= h_a + 1e-9

    def test_bin_merge_cannot_increase_mi(self):
        # Data-processing: coarsening the outcome never adds information.
        pairs = [(a, o) for a in (0, 1) for o in range(4)
                 for _ in range(3 + 5 * a * o)]
        merged = [(a, o // 2) for a, o in pairs]
        assert metrics.mutual_information_bits(merged) \
            <= metrics.mutual_information_bits(pairs) + 1e-9


class TestEmpowerment:
    def test_separable_arms_give_high_mi(self):
        t = _trace([("Sobol", 90.0), ("Morris", 40.0)] * 40)
        est = metrics.estimate_empowerment([t])
        assert est.mi_bits == pytest.approx(1.0)
        assert est.action_support == 2

    def test_reward_decoupled_action_gives_low_mi(self):
        rewards = [90.0, 40.0] * 40
        actions = ["Sobol", "Morris", "Morris", "Sobol"] * 20
        t = _trace(list(zip(actions, rewards)))
        assert metrics.estimate_empowerment([t]).mi_bits < 0.05

    def test_single_action_zero_mi(self):
        t = _trace([("Sobol", r) for r in (10.0, 50.0, 90.0) * 10])
        assert metrics.estimate_empowerment([t]).mi_bits == 0.0

    def test_pooling_across_traces(self):
        a = _trace([("Sobol", 90.0)] * 10)
        b = _trace([("Morris", 40.0)] * 10)
        est = metrics.estimate_empowerment([a, b])
        assert est.n_traces == 2 and est.mi_bits == pytest.approx(1.0)

    def test_empty_traces_raise(self):
        with pytest.raises(NoData):
            metrics.estimate_empowerment(
                [SimTrace(session_id="x", problem_scheme=None)])
