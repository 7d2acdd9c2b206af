import numpy as np
import pytest

from driftguard.archive import Archive
from driftguard.errors import InvalidProblem

from simenv import SimConfig, run_sim_session, run_sim_sessions


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert dict(cfg.arm_means) == {"Sobol": 90.0, "Morris": 40.0}
        assert cfg.sigma == 5.0 and cfg.iterations == 500
        assert cfg.novelty_gate and cfg.replace_prob == 0.0

    def test_validation(self):
        with pytest.raises(InvalidProblem):
            SimConfig(arm_means=())
        with pytest.raises(InvalidProblem):
            SimConfig(replace_prob=1.5)


class TestSimSession:
    def test_deterministic(self):
        a = run_sim_session(SimConfig(iterations=50), seed=3)
        b = run_sim_session(SimConfig(iterations=50), seed=3)
        assert [(r.method.estimator, r.reward_total) for r in a.records] \
            == [(r.method.estimator, r.reward_total) for r in b.records]

    def test_rewards_clipped(self):
        trace = run_sim_session(SimConfig(iterations=100, sigma=60.0), seed=0)
        assert all(0.0 <= r.reward_total <= 100.0 for r in trace.records)

    def test_learns_the_better_arm(self):
        cfg = SimConfig(iterations=120, novelty_gate=False)
        trace = run_sim_session(cfg, seed=1)
        late = trace.records[60:]
        frac = np.mean([r.method.estimator == "Sobol" for r in late])
        assert frac > 0.8

    def test_novelty_gate_forces_alternation(self):
        gated = run_sim_session(SimConfig(iterations=100), seed=2)
        repeats = sum(a.method.estimator == b.method.estimator
                      for a, b in zip(gated.records, gated.records[1:]))
        free = run_sim_session(SimConfig(iterations=100, novelty_gate=False),
                               seed=2)
        free_repeats = sum(a.method.estimator == b.method.estimator
                           for a, b in zip(free.records, free.records[1:]))
        assert repeats < free_repeats

    def test_replacement_decouples_execution(self):
        trace = run_sim_session(SimConfig(iterations=200, replace_prob=1.0,
                                          novelty_gate=False), seed=0)
        swapped = sum(r.executed_estimator != r.method.estimator
                      for r in trace.records)
        assert swapped > 50          # roughly half under a uniform draw

    def test_policy_snapshot_attached(self):
        trace = run_sim_session(SimConfig(iterations=10), seed=0)
        assert trace.policy_snapshot is not None
        assert trace.policy_snapshot["iteration"] == 10


class TestCrossSession:
    def test_archive_grows_and_later_sessions_exploit(self):
        archive = Archive()
        cfg = SimConfig(iterations=20, sigma=0.0, novelty_gate=False)
        traces = run_sim_sessions(cfg, seed=4, n_sessions=3, archive=archive)
        # One problem, so each session's entry replaces the one before.
        assert [e.session_id for e in archive.entries] == ["sim-3"]
        assert len(traces) == 3
        # The restored policy should find the best arm immediately.
        assert traces[1].iterations_to_best <= traces[0].iterations_to_best
        assert traces[2].records[0].reward_total >= 85.0
