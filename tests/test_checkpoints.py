import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from driftguard import checkpoints
from driftguard.archive import Archive
from driftguard.checkpoints import (CHECKPOINT_TABLE, DISABLED,
                                    CheckpointManager)


NON_INVERTED = [cp for cp, row in CHECKPOINT_TABLE.items() if not row[3]]

EXPECTED_TABLE = {
    "CP0": (0.70, 0.70, False, False, "fresh_exploration"),
    "CP1": (0.25, 0.15, True, False, "abort_session"),
    "CP2": (0.30, 0.20, True, False, "critic_reject"),
    "CP3": (0.30, 0.20, False, False, "warn_study_agent"),
    "CP4": (0.35, 0.25, True, False, "fail_iteration"),
    "CP5": (0.35, 0.25, True, False, "inspector_reject"),
    "CP6": (0.30, 0.20, False, False, "warn_advisor"),
    "CP7": (0.35, 0.25, False, True, "warn_strategist"),
}


class TestTable:
    def test_full_table(self):
        assert CHECKPOINT_TABLE == EXPECTED_TABLE

    def test_blocking_set(self):
        blocking = {cp for cp, row in CHECKPOINT_TABLE.items() if row[2]}
        assert blocking == {"CP1", "CP2", "CP4", "CP5"}

    def test_only_novelty_gate_inverted(self):
        inverted = {cp for cp, row in CHECKPOINT_TABLE.items() if row[3]}
        assert inverted == {"CP7"}


class TestEvaluate:
    def test_pass_above_threshold(self, manager):
        res = manager.evaluate("CP2", 0.9)
        assert res.verdict == "pass" and res.failure_action == ""

    def test_block_below_threshold(self, manager):
        res = manager.evaluate("CP2", 0.05)
        assert res.verdict == "block"
        assert res.failure_action == "critic_reject"

    def test_warn_for_nonblocking(self, manager):
        res = manager.evaluate("CP3", 0.05)
        assert res.verdict == "warn"
        assert res.failure_action == "warn_study_agent"

    def test_inverted_gate_passes_low_similarity(self, manager):
        low = manager.evaluate("CP7", 0.05)
        high = manager.evaluate("CP7", 0.99)
        assert low.passed and not high.passed
        assert high.verdict == "warn"

    def test_disabled_always_passes(self, null_floor):
        mgr = CheckpointManager(null_floor, disabled=frozenset({"CP2"}))
        res = mgr.evaluate("CP2", 0.0)
        assert res.passed and res.threshold == DISABLED


class TestAdaptiveThreshold:
    def test_initial_value_until_warmup(self, manager):
        assert manager.state["CP2"].current() == 0.30
        manager.evaluate("CP2", 0.9)
        manager.evaluate("CP2", 0.9)
        assert manager.state["CP2"].current() == 0.30   # still inside warmup

    def test_adapts_after_warmup(self, manager, null_floor):
        for _ in range(5):
            manager.evaluate("CP2", 0.95)
        # After warmup the gate tightens to theta0 + bonus, unless the null
        # floor sits higher.
        floor = max(0.20, null_floor)
        assert manager.state["CP2"].current() == pytest.approx(
            max(0.30 + checkpoints._CAP_BONUS, floor))

    def test_floor_respects_null_quantile(self, manager, null_floor):
        floor = max(CHECKPOINT_TABLE["CP2"][1], null_floor)
        for sim in (0.31, 0.30, 0.32, 0.31, 0.30, 0.31, 0.30):
            manager.evaluate("CP2", sim)
        assert manager.state["CP2"].current() >= floor

    def test_failures_do_not_adapt(self, manager):
        before = manager.state["CP2"].current()
        for _ in range(10):
            manager.evaluate("CP2", 0.01)
        assert manager.state["CP2"].current() == before

    @hyp_settings(max_examples=50, deadline=None)
    @given(sims=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_threshold_never_below_safety_floor(self, null_floor, sims):
        # Adversarial similarity streams can never drag a gate below
        # max(theta_min, null 95th percentile) nor above theta0 + cap.
        mgr = CheckpointManager(null_floor)
        for cp_id in NON_INVERTED:
            theta0, theta_min = CHECKPOINT_TABLE[cp_id][:2]
            floor = max(theta_min, null_floor)
            ceiling = theta0 + checkpoints._CAP_BONUS
            for sim in sims:
                mgr.evaluate(cp_id, sim)
                if mgr.state[cp_id].count >= checkpoints._WARMUP:
                    assert floor <= mgr.state[cp_id].current() \
                        <= max(ceiling, floor)

    @pytest.mark.parametrize("cp_id", NON_INVERTED)
    def test_post_warmup_threshold_is_the_rule(self, cp_id):
        # A null floor below every cap: passes just above theta0 still
        # tighten the gate to theta0 + bonus, not to the passes' level.
        mgr = CheckpointManager(0.1)
        theta0, theta_min = CHECKPOINT_TABLE[cp_id][:2]
        for _ in range(checkpoints._WARMUP):
            assert mgr.evaluate(cp_id, theta0 + 0.05).passed
        assert mgr.state[cp_id].current() == \
            max(theta0 + checkpoints._CAP_BONUS, theta_min)

    def test_inverted_gate_keeps_theta0(self, manager):
        for _ in range(10):
            assert manager.evaluate("CP7", 0.0).passed
        assert manager.state["CP7"].count == 0
        assert manager.state["CP7"].current() == CHECKPOINT_TABLE["CP7"][0]


class TestCP0:
    def test_no_archive_explores(self, manager, ps_g8):
        res = manager.evaluate_cp0(ps_g8, None)
        assert res.match == "none"
        assert res.exploration_mode == "explore_max"
        assert res.screening_first                   # d_in = 8 >= threshold

    def test_low_dim_cold_start_skips_screening(self, manager, ps_eq3):
        res = manager.evaluate_cp0(ps_eq3, Archive())
        assert res.match == "none" and not res.screening_first

    def test_close_match_exploits(self, manager, ps_beam):
        from driftguard.simenv import canonical_action
        archive = Archive()
        archive.seed_entry(ps_beam, canonical_action("Sobol"), 90.0)
        res = manager.evaluate_cp0(ps_beam, archive)
        assert res.similarity == pytest.approx(1.0)
        assert res.match == "close" and res.exploration_mode == "exploit"
        assert res.warm_start is not None

    def test_related_problem_is_weak_match(self, manager, ps_eq3, ps_beam):
        # Same task/dimension but Normal vs Uniform inputs: weak similarity.
        from driftguard.simenv import canonical_action
        archive = Archive()
        archive.seed_entry(ps_beam, canonical_action("Sobol"), 90.0)
        res = manager.evaluate_cp0(ps_eq3, archive)
        assert CHECKPOINT_TABLE["CP0"][0] <= res.similarity \
            < checkpoints.CP0_CLOSE_CUTOFF
        assert res.match == "weak" and res.exploration_mode == "neutral"

    def test_disabled_cp0_ignores_archive(self, null_floor, ps_beam):
        from driftguard.simenv import canonical_action
        archive = Archive()
        archive.seed_entry(ps_beam, canonical_action("Sobol"), 90.0)
        mgr = CheckpointManager(null_floor, disabled=frozenset({"CP0"}))
        res = mgr.evaluate_cp0(ps_beam, archive)
        assert res.match == "none" and res.warm_start is None
