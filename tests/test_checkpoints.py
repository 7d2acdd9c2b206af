import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from driftguard import checkpoints
from driftguard.archive import Archive
from driftguard.checkpoints import (CHECKPOINT_TABLE, DISABLED,
                                    CheckpointManager)


NON_INVERTED = [cp for cp, row in CHECKPOINT_TABLE.items() if not row[2]]

EXPECTED_TABLE = {
    "CP0": (0.70, False, False, "fresh_exploration"),
    "CP1": (0.25, True, False, "abort_session"),
    "CP2": (0.30, True, False, "critic_reject"),
    "CP3": (0.30, False, False, "warn_study_agent"),
    "CP4": (0.35, True, False, "fail_iteration"),
    "CP5": (0.35, True, False, "inspector_reject"),
    "CP6": (0.30, False, False, "warn_advisor"),
    "CP7": (0.35, False, True, "warn_strategist"),
}


class TestTable:
    def test_full_table(self):
        assert CHECKPOINT_TABLE == EXPECTED_TABLE

    def test_blocking_set(self):
        blocking = {cp for cp, row in CHECKPOINT_TABLE.items() if row[1]}
        assert blocking == {"CP1", "CP2", "CP4", "CP5"}

    def test_only_novelty_gate_inverted(self):
        inverted = {cp for cp, row in CHECKPOINT_TABLE.items() if row[2]}
        assert inverted == {"CP7"}


class TestEvaluate:
    def test_pass_above_threshold(self, manager):
        res = manager.evaluate("CP2", 0.9)
        assert res.verdict == "pass" and res.reasons == ()

    def test_block_below_threshold(self, manager):
        res = manager.evaluate("CP2", 0.05)
        # Only the Inspector gives reasons; a gate's failure action is
        # its table row's.
        assert (res.verdict, res.reasons) == ("block", ())
        assert CHECKPOINT_TABLE[res.cp_id][3] == "critic_reject"

    def test_warn_for_nonblocking(self, manager):
        res = manager.evaluate("CP3", 0.05)
        assert (res.verdict, res.reasons) == ("warn", ())
        assert CHECKPOINT_TABLE[res.cp_id][3] == "warn_study_agent"

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
    def test_initial_value_until_warmup(self, manager, null_floor):
        thresholds = [manager.evaluate("CP2", 0.9).threshold
                      for _ in range(checkpoints._WARMUP + 1)]
        assert thresholds == [0.30] * checkpoints._WARMUP \
            + [max(0.30, null_floor)]

    def test_adapts_after_warmup(self, manager, null_floor):
        results = [manager.evaluate("CP2", 0.95) for _ in range(5)]
        # After warmup the gate rises to the null floor, unless its theta0
        # sits higher.
        assert results[-1].threshold == max(0.30, null_floor)

    def test_floor_respects_null_quantile(self, manager, null_floor):
        results = [manager.evaluate("CP2", sim)
                   for sim in (0.31, 0.30, 0.32, 0.31, 0.30, 0.31, 0.30)]
        assert all(r.threshold >= null_floor
                   for r in results[checkpoints._WARMUP:])

    def test_failures_do_not_adapt(self, manager):
        results = [manager.evaluate("CP2", 0.01) for _ in range(10)]
        assert {r.threshold for r in results} == {0.30}
        assert manager.passes["CP2"] == 0

    @hyp_settings(max_examples=50, deadline=None)
    @given(sims=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_threshold_never_below_safety_floor(self, null_floor, sims):
        # Adversarial similarity streams can never move a gate off its rule:
        # theta0 during warmup, then max(theta0, null 95th percentile).
        mgr = CheckpointManager(null_floor)
        for cp_id in NON_INVERTED:
            theta0 = CHECKPOINT_TABLE[cp_id][0]
            for sim in sims:
                warm = mgr.passes[cp_id] >= checkpoints._WARMUP
                assert mgr.evaluate(cp_id, sim).threshold \
                    == (max(theta0, null_floor) if warm else theta0)

    @pytest.mark.parametrize("cp_id", NON_INVERTED)
    def test_post_warmup_threshold_is_the_rule(self, cp_id):
        # Passes just above theta0 move the gate to max(theta0, null
        # floor), not to the passes' level: theta0 under a low floor, the
        # floor under a high one.
        theta0 = CHECKPOINT_TABLE[cp_id][0]
        for null_floor in (0.1, 0.6):
            mgr = CheckpointManager(null_floor)
            for _ in range(checkpoints._WARMUP):
                assert mgr.evaluate(cp_id, theta0 + 0.05).passed
            assert mgr.evaluate(cp_id, theta0 + 0.05).threshold \
                == max(theta0, null_floor)

    def test_inverted_gate_keeps_theta0(self, manager):
        results = [manager.evaluate("CP7", 0.0) for _ in range(10)]
        assert all(r.passed for r in results)
        assert manager.passes["CP7"] == 0
        assert {r.threshold for r in results} == {CHECKPOINT_TABLE["CP7"][0]}


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
        from simenv import canonical_action
        archive = Archive()
        archive.seed_entry(ps_beam, canonical_action("Sobol"), 90.0, 3)
        res = manager.evaluate_cp0(ps_beam, archive)
        assert res.similarity == pytest.approx(1.0)
        assert res.match == "close" and res.exploration_mode == "exploit"
        assert res.warm_start is not None

    def test_related_problem_is_weak_match(self, manager, ps_eq3, ps_beam):
        # Same task/dimension but Normal vs Uniform inputs: weak similarity.
        from simenv import canonical_action
        archive = Archive()
        archive.seed_entry(ps_beam, canonical_action("Sobol"), 90.0, 3)
        res = manager.evaluate_cp0(ps_eq3, archive)
        assert CHECKPOINT_TABLE["CP0"][0] <= res.similarity \
            < checkpoints.CP0_CLOSE_CUTOFF
        assert res.match == "weak" and res.exploration_mode == "neutral"

    def test_disabled_cp0_ignores_archive(self, null_floor, ps_beam):
        from simenv import canonical_action
        archive = Archive()
        archive.seed_entry(ps_beam, canonical_action("Sobol"), 90.0, 3)
        mgr = CheckpointManager(null_floor, disabled=frozenset({"CP0"}))
        res = mgr.evaluate_cp0(ps_beam, archive)
        assert res.match == "none" and res.warm_start is None
