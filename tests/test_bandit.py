import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from driftguard import action_space, bandit, catalog
from driftguard.archive import Archive
from driftguard.errors import InvalidReward
from driftguard.estimators import benchmark_catalog, get_model
from driftguard.schemes import build_diagnostic_scheme, build_method_scheme, \
    build_problem_scheme

from simenv import canonical_action


class TestFeatures:
    def test_injective_over_sa_actions(self, ps_eq3):
        actions = action_space.enumerate_actions()
        vectors = {bandit.encode_features(ps_eq3, a)
                   for a in actions}
        assert len(vectors) == len(actions)

    def test_dimension_matches(self, ps_eq3):
        phi = bandit.encode_features(ps_eq3,
                                     canonical_action("Sobol"))
        assert len(phi) == bandit.feature_dim()

    def test_deterministic(self, ps_eq3):
        a = canonical_action("CVM")
        assert bandit.encode_features(ps_eq3, a) \
            == bandit.encode_features(ps_eq3, a)

    def test_context_sensitivity(self, ps_eq3, ps_g8):
        a = canonical_action("Sobol")
        assert bandit.encode_features(ps_eq3, a) \
            != bandit.encode_features(ps_g8, a)

    def test_selection_encodes_each_candidate_once(self, ps_eq3):
        feasible = action_space.filter_feasible(ps_eq3)
        bandit._feature_array.cache_clear()
        st_ = bandit.PolicyState()
        for seed in range(5):
            bandit.select_action(st_, ps_eq3, feasible, rng_seed=seed)
        assert bandit._feature_array.cache_info().misses == len(feasible)
        phi = bandit._feature_array(ps_eq3, feasible[0])
        assert tuple(phi.tolist()) == \
            bandit.encode_features(ps_eq3, feasible[0])
        with pytest.raises(ValueError):
            phi[0] = 0.0


class TestExplorationSchedule:
    def test_explore_max_starts_at_one(self):
        assert bandit.exploration_schedule(1, "explore_max") == 1.0

    def test_neutral_third_iteration(self):
        assert bandit.exploration_schedule(3, "neutral") \
            == pytest.approx(0.5 * 0.6 ** 2)   # 0.18

    def test_exploit_hits_floor(self):
        assert bandit.exploration_schedule(10, "exploit") == 0.02

    def test_monotone_decay(self):
        eps = [bandit.exploration_schedule(n, "explore_max")
               for n in range(1, 30)]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
        assert eps[-1] == 0.02


class TestPosterior:
    def test_closed_form_single_update(self):
        # One observation on the first basis direction: the posterior mean
        # along it is the centered reward shrunk by the ridge prior,
        # ((r - 50)/sigma^2) / (lambda + 1/sigma^2).
        st_ = bandit.PolicyState()
        phi = np.zeros(st_.dim)
        phi[3] = 1.0
        r = 80.0
        st_.update(tuple(phi), r)
        expected = ((r - 50.0) / 25.0) / (1.0 + 1.0 / 25.0)
        assert st_.posterior_mean[3] == pytest.approx(expected)
        assert st_.posterior_mean[0] == 0.0

    def test_update_commutes_with_weighted_batch(self, ps_g8):
        # Three unit-weight updates equal one weight-3 pseudo-observation.
        phi = bandit.encode_features(ps_g8, canonical_action("Sobol"))
        a = bandit.PolicyState()
        for _ in range(3):
            a.update(phi, 91.0)
        b = bandit.PolicyState()
        b._absorb(np.asarray(phi), 91.0, 3.0)
        np.testing.assert_allclose(a.precision, b.precision)
        np.testing.assert_allclose(a.b_vector, b.b_vector)

    def test_nonfinite_reward_rejected(self, ps_g8):
        phi = bandit.encode_features(ps_g8, canonical_action("CVM"))
        st_ = bandit.PolicyState()
        with pytest.raises(InvalidReward):
            st_.update(phi, float("nan"))

    @hyp_settings(max_examples=30, deadline=None)
    @given(rewards=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
    def test_precision_stays_positive_definite(self, ps_g8, rewards):
        st_ = bandit.PolicyState()
        phi = bandit.encode_features(ps_g8,
                                     canonical_action("Chatterjee"))
        for r in rewards:
            st_.update(phi, r, "Chatterjee")
        eigvals = np.linalg.eigvalsh(st_.precision)
        assert np.all(eigvals > 0)
        assert st_.iteration == len(rewards)
        assert st_.estimator_counts["Chatterjee"] == len(rewards)

    def test_snapshot_round_trip(self, ps_g8):
        st_ = bandit.PolicyState(exploration_mode="neutral")
        phi = bandit.encode_features(ps_g8, canonical_action("Sobol"))
        st_.update(phi, 77.0, "Sobol")
        # The snapshot holds no exploration mode: the restoring session
        # sets its own.
        assert "exploration_mode" not in st_.snapshot()
        again = bandit.PolicyState.from_snapshot(st_.snapshot(), "exploit")
        np.testing.assert_allclose(again.precision, st_.precision)
        np.testing.assert_allclose(again.b_vector, st_.b_vector)
        assert again.exploration_mode == "exploit"
        assert again.estimator_counts == {"Sobol": 1}


class TestSelectAction:
    def _arms(self, ps):
        return [canonical_action(e) for e in ps.feasible_sa_estimators]

    def test_single_candidate(self, ps_eq3):
        arm = canonical_action("Sobol")
        ms = bandit.select_action(bandit.PolicyState(), ps_eq3, [arm],
                                  rng_seed=0)
        assert ms.action == arm
        assert ms.estimator == "Sobol"

    def test_warm_start_close_exploits_known_arm(self, ps_g8):
        # A close-match warm start with one strong arm should make the
        # policy pick that arm almost always in exploit mode.
        archive = Archive()
        entry = archive.seed_entry(ps_g8, canonical_action("Sobol"), 91.0, 3)
        hits = 0
        for seed in range(40):
            st_ = bandit.PolicyState(exploration_mode="exploit")
            st_.warm_start(entry.per_arm_stats, "close")
            assert st_.exploration_mode == "exploit"
            ms = bandit.select_action(st_, ps_g8, self._arms(ps_g8),
                                      rng_seed=seed)
            hits += ms.estimator == "Sobol"
        # Exploit mode still carries a 10% epsilon at iteration 1, so allow
        # a handful of exploratory picks.
        assert hits >= 30

    def test_weak_warm_start_carries_lower_weight(self, ps_g8):
        archive = Archive()
        entry = archive.seed_entry(ps_g8, canonical_action("Sobol"), 91.0, 3)
        close = bandit.PolicyState()
        close.warm_start(entry.per_arm_stats, "close")
        weak = bandit.PolicyState()
        weak.warm_start(entry.per_arm_stats, "weak")
        # The replay leaves the exploration mode as the caller set it.
        assert weak.exploration_mode == close.exploration_mode \
            == "explore_max"
        phi = np.asarray(bandit.encode_features(ps_g8,
                                                canonical_action("Sobol")))
        assert float(weak.posterior_mean @ phi) \
            < float(close.posterior_mean @ phi)
        with pytest.raises(ValueError):
            bandit.PolicyState().warm_start(entry.per_arm_stats, "none")

    def _prev(self, ps, estimator, n_samples):
        return build_method_scheme(canonical_action(estimator), ps,
                                   n_samples)

    def test_blocked_estimator_avoided(self, ps_eq3):
        # The diagnosis blocks the estimator of the scheme it diagnosed.
        # Exploiting at iteration 11, epsilon sits at its 0.02 floor, so
        # the uniform pick, which ignores the block, fires on none of the
        # seeds; without the block some of them pick Sobol.
        st_ = bandit.PolicyState("exploit")
        st_.iteration = 10
        diag = build_diagnostic_scheme(
            "required attribute first_order_indices absent",
            "attribute_error")
        prev = self._prev(ps_eq3, "Sobol", 500)

        def picks(diag):
            return [bandit.select_action(st_, ps_eq3, self._arms(ps_eq3),
                                         diag=diag, prev=prev,
                                         rng_seed=seed).estimator
                    for seed in range(20)]

        assert "Sobol" in picks(None)
        assert "Sobol" not in picks(diag)

    def test_prescribed_estimator_dominates(self, ps_eq3):
        diag = build_diagnostic_scheme(
            "wrong estimator. prescribe estimator CVM.", "wrong_estimator",
            prescribed_estimator="CVM")
        ms = bandit.select_action(bandit.PolicyState(), ps_eq3,
                                  self._arms(ps_eq3), diag=diag, rng_seed=0)
        assert ms.estimator == "CVM"

    def _n_samples(self, ps, estimator, diag=None, prev=None):
        return bandit.select_action(
            bandit.PolicyState(), ps, [canonical_action(estimator)],
            diag=diag, rng_seed=0, prev=prev).n_samples

    def test_prescribed_n_samples_dominates_and_clamps(self, ps_eq3):
        diag = build_diagnostic_scheme(
            "sampling insufficient at n_samples=1000.", "insufficient_N",
            prescribed_n_samples=2000)
        prev = self._prev(ps_eq3, "CVM", 1000)
        # Prescribed 2000 is below CVM's single-loop floor 500*(4+2)=3000.
        assert self._n_samples(ps_eq3, "CVM", diag, prev) == 3000
        # Above the floor, the prescription beats the carried-over size.
        diag = build_diagnostic_scheme(
            "sampling insufficient at n_samples=2500.", "insufficient_N",
            prescribed_n_samples=5000)
        prev = self._prev(ps_eq3, "CVM", 4000)
        assert self._n_samples(ps_eq3, "CVM", diag, prev) == 5000

    def test_n_samples_only_carries_over_same_estimator(self, ps_eq3):
        default = bandit.default_n_samples("Sobol", ps_eq3)
        other = self._prev(ps_eq3, "CVM", 1200)
        assert self._n_samples(ps_eq3, "Sobol", prev=other) == default
        same = self._prev(ps_eq3, "Sobol", 1200)
        assert self._n_samples(ps_eq3, "Sobol", prev=same) == 1200
        # Below the floor, a carried-over size is clamped up to it.
        same = self._prev(ps_eq3, "Sobol", 1)
        assert self._n_samples(ps_eq3, "Sobol", prev=same) == 500

    def test_sizes_above_the_budget_decide_the_cap(self, ps_eq3):
        # eq3's budget 8000 pays for 8000 // (4 + 2) = 1333 Sobol samples
        # and 8000 CVM samples; a carried-over or prescribed size above
        # that is decided at the cap.
        same = self._prev(ps_eq3, "Sobol", 999999)
        assert self._n_samples(ps_eq3, "Sobol", prev=same) == 1333
        diag = build_diagnostic_scheme(
            "sampling insufficient at n_samples=5000.", "insufficient_N",
            prescribed_n_samples=10_000)
        assert self._n_samples(ps_eq3, "Sobol", diag, same) == 1333
        assert self._n_samples(ps_eq3, "CVM", diag) == 8000

    @hyp_settings(max_examples=80, deadline=None)
    @given(model_id=st.sampled_from(sorted(benchmark_catalog())),
           budget=st.integers(10, 10**7), size=st.integers(1, 10**9))
    def test_decided_size_lies_within_floor_and_budget(self, model_id,
                                                       budget, size):
        # Whatever the source of the size, default, carried over or
        # prescribed, a decision on any feasible estimator lies between
        # its floor and the budget's cap, and so costs at most the budget.
        model = get_model(model_id)
        ps = build_problem_scheme({"task": "SA", "model_id": model_id,
                                   "d_in": model.d_in, "d_out": model.d_out,
                                   "n_budget": budget})
        diag = build_diagnostic_scheme("sampling insufficient.",
                                       "insufficient_N",
                                       prescribed_n_samples=size)
        for estimator in ps.feasible_sa_estimators:
            info = catalog.estimator_info(estimator)
            prev = self._prev(ps, estimator, size)
            for n in (self._n_samples(ps, estimator),
                      self._n_samples(ps, estimator, prev=prev),
                      self._n_samples(ps, estimator, diag, prev)):
                assert info.min_samples(model.d_in) <= n \
                    <= budget // info.cost_multiplier(model.d_in)
                assert info.cost(n, model.d_in) <= budget

    def test_novelty_penalty_flagged(self, ps_eq3):
        st_ = bandit.PolicyState()
        phi = bandit.encode_features(ps_eq3,
                                     canonical_action("Sobol"))
        for _ in range(5):
            st_.update(phi, 90.0, "Sobol")
        # Five Sobol picks make Sobol the greedy choice; under a novelty
        # warning their count outweighs its lead, and epsilon fires on
        # neither call.
        def pick(warning):
            return bandit.select_action(st_, ps_eq3, self._arms(ps_eq3),
                                        novelty_warning=warning,
                                        rng_seed=1).estimator

        assert pick(False) == "Sobol"
        assert pick(True) != "Sobol"

    def test_deterministic_given_seed(self, ps_eq3):
        st_ = bandit.PolicyState()
        a = bandit.select_action(st_, ps_eq3, self._arms(ps_eq3), rng_seed=42)
        b = bandit.select_action(st_, ps_eq3, self._arms(ps_eq3), rng_seed=42)
        assert a == b


class TestDefaultNSamples:
    def test_targets_safety_scaled_minimum(self, ps_eq3):
        # Sobol on d=4, budget 8000: target min(8000, max(2*3000, 4000)) =
        # 6000 total evaluations -> 1000 per loop.
        assert bandit.default_n_samples("Sobol", ps_eq3) == 1000

    def test_morris_uses_trajectory_cost(self, ps_g8):
        n = bandit.default_n_samples("Morris", ps_g8)
        info_cost = n * (ps_g8.d_in + 1)
        assert info_cost <= ps_g8.n_budget
