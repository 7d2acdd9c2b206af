import numpy as np
import pytest

from driftguard import reward
from driftguard.action_space import ActionTuple
from driftguard.errors import InvalidReward
from driftguard.estimators import SAResult, get_model
from driftguard.schemes import build_method_scheme


def _ms(ps, estimator="Sobol", n_samples=500):
    action = ActionTuple("MonteCarlo", estimator)
    return build_method_scheme(action, ps, n_samples)


def _obs(model, estimator="Sobol", evals=3000, **kw):
    fields = dict(estimator=estimator,
                  first_order_indices=model.analytic_s1,
                  total_order_indices=model.analytic_st,
                  evaluations_used=evals)
    fields.update(kw)
    return SAResult(**fields)


@pytest.fixture(scope="module")
def g8():
    return get_model("g_function_8d")


@pytest.fixture()
def ms_g8(ps_g8):
    return _ms(ps_g8)


class TestCapsAndPerfectRun:
    def test_perfect_run_scores_100(self, ms_g8, g8):
        # Exact indices at exactly n_min evaluations with no warnings.
        obs = _obs(g8, evals=ms_g8.n_min_value)
        b = reward.score(ms_g8, obs, model=g8, epsilon=0.1)
        assert (b.integrity, b.accuracy, b.details, b.optimality) == \
            (35.0, 35.0, 15.0, 15.0)
        assert b.total == 100.0

    def test_component_caps(self, ms_g8, g8):
        obs = _obs(g8, evals=ms_g8.n_min_value // 2)   # cannot exceed caps
        b = reward.score(ms_g8, obs, model=g8, epsilon=0.1)
        assert b.integrity <= 35 and b.accuracy <= 35
        assert b.details <= 15 and b.optimality <= 15


class TestIntegrity:
    def test_crash_zeroes_everything(self, ms_g8):
        b = reward.score(ms_g8, None)
        assert b.total == 0.0
        assert "execution failed" in b.warnings

    def test_missing_attribute_synthesizes_warning(self, ps_g8, g8):
        ms = _ms(ps_g8)                                 # requires s1 and st
        obs = SAResult(estimator="Morris", mu_star=(1.0,) * 8,
                       sigma_effects=(0.1,) * 8, evaluations_used=900)
        b = reward.score(ms, obs, model=g8, epsilon=0.1)
        assert b.integrity == 0.0                       # exec+attrs+warn all lost
        assert any("missing required attribute" in w for w in b.warnings)

    def test_partial_attributes_prorated(self, ps_g8, g8):
        ms = _ms(ps_g8)
        # first-order indices present, total-order missing
        obs = _obs(g8, total_order_indices=None, evals=ms.n_min_value)
        b = reward.score(ms, obs, model=g8, epsilon=0.1)
        assert b.integrity == pytest.approx(5.0)        # 10 * 1/2 attr credit


class TestAccuracy:
    def test_precision_scales_with_mae(self, ms_g8, g8):
        perfect = reward.score(ms_g8, _obs(g8), model=g8, epsilon=0.1)
        off = np.asarray(g8.analytic_s1) + 0.02
        biased = reward.score(ms_g8, _obs(g8, first_order_indices=tuple(off)),
                              model=g8, epsilon=0.1)
        assert perfect.accuracy > biased.accuracy
        # MAE 0.02 against epsilon 0.1 costs 20% of the 20-point block.
        assert biased.accuracy == pytest.approx(perfect.accuracy - 4.0)

    def test_binary_precision_without_reference(self, ps_g8, g8):
        # No analytic reference: same-estimator repeat within tolerance
        # earns the full precision block.
        ms = _ms(ps_g8)
        prev = _obs(g8)
        same = reward.score(ms, _obs(g8), model=None, prev_obs=prev)
        drifted = reward.score(
            ms, _obs(g8, first_order_indices=tuple(
                np.asarray(g8.analytic_s1) + 0.01)),
            model=None, prev_obs=prev)
        assert same.accuracy - drifted.accuracy == pytest.approx(20.0)

    def test_consistency_sum_band(self, ms_g8, g8):
        bad = _obs(g8, first_order_indices=(0.5,) * 8)  # sums to 4.0
        b = reward.score(ms_g8, bad, model=g8, epsilon=0.1)
        good = reward.score(ms_g8, _obs(g8), model=g8, epsilon=0.1)
        assert good.accuracy - b.accuracy >= 8.0

    def test_consistency_order_check(self, ms_g8, g8):
        inverted = _obs(g8, total_order_indices=tuple(
            s - 0.2 for s in g8.analytic_s1))
        b = reward.score(ms_g8, inverted, model=g8, epsilon=0.1)
        good = reward.score(ms_g8, _obs(g8), model=g8, epsilon=0.1)
        assert good.accuracy - b.accuracy == pytest.approx(7.0)


class TestDetails:
    def test_itemized_penalties(self, ms_g8, g8):
        clean = reward.score(ms_g8, _obs(g8), model=g8, epsilon=0.1)
        assert clean.details == 15.0
        nan = reward.score(ms_g8, _obs(g8, nan_count=2), model=g8,
                           epsilon=0.1)
        assert clean.details - nan.details == pytest.approx(5.0)
        negvar = reward.score(ms_g8, _obs(g8, negative_variance_flag=True),
                              model=g8, epsilon=0.1)
        assert clean.details - negvar.details == pytest.approx(5.0)

    def test_rank_inversion_penalty(self, ms_g8, g8):
        swapped = list(g8.analytic_s1)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        b = reward.score(ms_g8, _obs(g8, first_order_indices=tuple(swapped)),
                         model=g8, epsilon=0.1)
        assert b.rank_inversion
        assert b.details == pytest.approx(15.0 - 3.0)

    def test_unaddressed_warning_penalty(self, ms_g8, g8):
        one = reward.score(ms_g8, _obs(g8, warnings=("slow convergence",)),
                           model=g8, epsilon=0.1)
        two = reward.score(ms_g8, _obs(g8, warnings=("slow convergence",
                                                     "cache miss")),
                           model=g8, epsilon=0.1)
        assert one.details - two.details == pytest.approx(2.0)

    def test_details_floor_at_zero(self, ms_g8, g8):
        horror = _obs(g8, nan_count=3, negative_variance_flag=True,
                      warnings=("w1", "w2", "w3", "w4"))
        b = reward.score(ms_g8, horror, model=g8, epsilon=0.1)
        assert b.details == 0.0


class TestOptimality:
    def test_thrift_ratio(self, ms_g8, g8):
        at_min = reward.score(ms_g8, _obs(g8, evals=ms_g8.n_min_value),
                              model=g8, epsilon=0.1)
        double = reward.score(ms_g8, _obs(g8, evals=2 * ms_g8.n_min_value),
                              model=g8, epsilon=0.1)
        assert at_min.optimality == pytest.approx(15.0)
        # Budget part halves (0.6 * 0.5), runtime part stays full (0.4).
        assert double.optimality == pytest.approx((0.6 * 0.5 + 0.4) * 15.0)


class TestBreakdownInvariants:
    def test_negative_component_rejected(self):
        with pytest.raises(InvalidReward):
            reward.RewardBreakdown(-1.0, 0.0, 0.0, 0.0, ())

    def test_total_is_sum(self):
        b = reward.RewardBreakdown(10.0, 20.0, 5.0, 7.5, ())
        assert b.total == 42.5
