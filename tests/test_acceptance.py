"""End-to-end acceptance criteria.

Each test exercises one headline claim of the package at desk scale and
prints a single PASS line with the measured numbers; any assertion failure
marks the criterion failed.
"""

import statistics

import numpy as np

from driftguard import checkpoints, estimators, metrics
from driftguard.agents import DriftSpec
from driftguard.archive import Archive
from driftguard.checkpoints import (CHECKPOINT_TABLE, DISABLED,
                                    CheckpointManager)
from driftguard.embedding import calibrate_null, shipped_corpus
from driftguard.estimators import SAResult
from driftguard.pipeline import (SessionConfig, run_session,
                                 submartingale_flags)
from driftguard.reward import score
from driftguard.schemes import build_method_scheme, build_problem_scheme

from conftest import BEAM_PROBLEM, EQ3_PROBLEM, G8_PROBLEM
from simenv import (SimConfig, canonical_action, run_sim_session,
                    run_sim_sessions)

ALL_OFF = {f"CP{i}": DISABLED for i in range(8)}


def _report(name: str, detail: str) -> None:
    print(f"\n[PASS] {name}: {detail}")


def test_criterion_1_ablation_fidelity():
    """Disabling every checkpoint lets injected method-swap drift reach
    execution as action-plan mismatches; the full gate set reduces
    mismatches to zero while blocking the drifted plans."""
    drift = DriftSpec(kind="method_swap", replacement_value="Morris",
                      probability=2.0 / 3.0)
    disabled_mismatches = 0
    enabled_mismatches = 0
    blocking_ok = True
    for seed in (1, 2, 3):
        base = dict(problem=EQ3_PROBLEM, n_max=5, drift=drift, seed=seed,
                    record_to_archive=False)
        off = run_session(SessionConfig(checkpoint_overrides=dict(ALL_OFF),
                                        **base))
        on = run_session(SessionConfig(**base))
        disabled_mismatches += sum(1 for r in off.records if r.mismatch)
        enabled_mismatches += sum(1 for r in on.records if r.mismatch)
        drifted = [r for r in on.records if r.drift_events]
        for rec in drifted:
            blocks = [e for e in rec.checkpoint_events
                      if e.cp_id in ("CP2", "CP4", "CP5")
                      and e.verdict == "block"]
            blocking_ok = blocking_ok and bool(blocks)
        assert drifted, "drift never activated under the enabled condition"
    assert disabled_mismatches >= 2
    assert enabled_mismatches == 0
    assert blocking_ok
    _report("criterion 1 (ablation fidelity)",
            f"disabled mismatches={disabled_mismatches}, "
            f"enabled mismatches={enabled_mismatches}, every drifted "
            "iteration under full gates hit a blocking CP2/CP4/CP5 event")


def test_criterion_2_cp5_method_swap_recovery():
    """With a warm-started known-good method and a targeted method swap,
    the CP5+Inspector bundle is the difference between first-iteration
    convergence and a multi-iteration recovery."""
    drift = DriftSpec(kind="method_swap", source_value="Sobol",
                      replacement_value="Morris", probability=1.0)

    def run(overrides):
        ps = build_problem_scheme(G8_PROBLEM)
        archive = Archive()
        archive.seed_entry(ps, canonical_action("Sobol"), 91.0, count=3)
        cfg = SessionConfig(problem=G8_PROBLEM, n_max=6, drift=drift,
                            seed=0, checkpoint_overrides=overrides,
                            record_to_archive=False)
        return run_session(cfg, archive=archive)

    ablated = run({"CP5": DISABLED})
    full = run({})
    assert ablated.outcome == "converged"
    assert ablated.iterations_to_converge >= 3
    assert ablated.records[0].reward_total <= 30.0
    assert full.outcome == "converged"
    assert full.iterations_to_converge == 1
    assert full.records[0].reward_total >= 85.0
    _report("criterion 2 (method-swap recovery)",
            f"CP5 ablated: first reward "
            f"{ablated.records[0].reward_total:.1f}, converged at iteration "
            f"{ablated.iterations_to_converge}; full gates: reward "
            f"{full.records[0].reward_total:.1f} at iteration 1")


def test_criterion_3_gfunction_numerics():
    """Real estimator numerics on the 15-input g-function benchmark:
    variance-based indices vanish for the inert inputs inside a 50k budget,
    and screening orders the influential inputs at a fraction of the cost."""
    m = estimators.get_model("g_function_15d")
    inert = [i for i, a in enumerate(estimators.G15_A) if a >= 6.0]
    n = 2941                                     # cost 2941 * 17 = 49_997
    assert n * (m.d_in + 2) <= 50_000
    for seed in range(5):
        res = estimators.sobol_saltelli(m, n, seed, scheme="LatinHypercube")
        assert all(res.first_order_indices[i] < 0.01 for i in inert)
    cost = None
    for seed in range(5):
        res = estimators.morris(m, trajectories=200, seed=seed)
        cost = res.evaluations_used
        top6 = set(np.argsort(res.mu_star)[-6:])
        assert top6 == {0, 1, 2, 3, 4, 5}
    assert cost == 200 * 16 == 3200
    _report("criterion 3 (g-function numerics)",
            "Sobol n=2941 (49997 evals) kept all inert-input S1 below 0.01 "
            "and Morris (3200 evals) ranked the top-6 inputs correctly, "
            "5 seeds each")


def test_criterion_4_reward_rubric(ps_g8):
    """Component caps 35/35/15/15 with itemized penalties; a flawless run
    scores exactly 100."""
    g8 = estimators.get_model("g_function_8d")
    action = canonical_action("Sobol")
    ms = build_method_scheme(action, ps_g8, 500)

    def obs(**kw):
        fields = dict(estimator="Sobol", first_order_indices=g8.analytic_s1,
                      total_order_indices=g8.analytic_st,
                      evaluations_used=ms.n_min_value)
        fields.update(kw)
        return SAResult(**fields)

    perfect = score(ms, obs(), model=g8, epsilon=0.1)
    assert (perfect.integrity, perfect.accuracy, perfect.details,
            perfect.optimality) == (35.0, 35.0, 15.0, 15.0)
    assert perfect.total == 100.0

    clean = perfect.details
    assert clean - score(ms, obs(nan_count=1), model=g8,
                         epsilon=0.1).details == 5.0
    assert clean - score(ms, obs(negative_variance_flag=True), model=g8,
                         epsilon=0.1).details == 5.0
    swapped = list(g8.analytic_s1)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    inv = score(ms, obs(first_order_indices=tuple(swapped)), model=g8,
                epsilon=0.1)
    assert inv.rank_inversion and clean - inv.details == 3.0
    warned = score(ms, obs(warnings=("unlabeled axis",)), model=g8,
                   epsilon=0.1)
    assert clean - warned.details == 2.0
    _report("criterion 4 (reward rubric)",
            "caps 35/35/15/15 verified, perfect run scores 100, penalties "
            "NaN -5, negative variance -5, rank inversion -3, warning -2")


def test_criterion_5_submartingale_register():
    """A reward drop from 64.2 to 60.8 raises a violation flag that the
    next strategy prompt must carry."""
    flags = submartingale_flags(64.2, 60.8, None)
    assert flags == ("reward regressed from 64.2 to 60.8",)
    assert submartingale_flags(60.8, 64.2, None) == ()

    # End to end: force a mid-session drop and catch the flag in the text.
    cfg = SessionConfig(problem=EQ3_PROBLEM, n_max=5, seed=1,
                        checkpoint_overrides=dict(ALL_OFF),
                        record_to_archive=False,
                        drift=DriftSpec(kind="method_swap",
                                        replacement_value="Morris",
                                        probability=1.0,
                                        activation_iteration=2))
    trace = run_session(cfg)
    drops = [i for i in range(1, len(trace.records))
             if trace.records[i].reward_total
             < trace.records[i - 1].reward_total]
    assert drops and drops[0] + 1 < len(trace.records)
    assert "reward regressed" in trace.records[drops[0] + 1].strategy_text
    _report("criterion 5 (submartingale register)",
            "64.2 -> 60.8 flagged as a violation and the flag reached the "
            "following strategy prompt in a live session")


def test_criterion_6_cp0_contrast(null_floor):
    """A repeated problem warm-starts into exploitation; a structurally
    different one gets a cold start with screening-first triage."""
    ps_beam = build_problem_scheme(BEAM_PROBLEM)
    thermal = {"task": "SA", "d_in": 20, "d_out": 1, "n_budget": 40_000,
               "epsilon": 0.05, "model_id": "thermal_stub",
               "dist_family": ["Uniform"] * 20}
    ps_thermal = build_problem_scheme(thermal)

    archive = Archive()
    archive.seed_entry(ps_beam, canonical_action("Sobol"), 88.0, 3)
    manager = CheckpointManager(null_floor)

    repeat = manager.evaluate_cp0(ps_beam, archive)
    assert repeat.match == "close" and repeat.exploration_mode == "exploit"
    assert not repeat.screening_first

    cold = manager.evaluate_cp0(ps_thermal, archive)
    assert cold.match == "none" and cold.exploration_mode == "explore_max"
    assert cold.screening_first                     # 20 inputs >= threshold
    _report("criterion 6 (anomaly recognition contrast)",
            f"repeat problem: similarity {repeat.similarity:.2f} -> "
            "close/exploit; novel 20-input problem: "
            f"similarity {cold.similarity:.2f} -> none/explore_max with "
            "screening-first triage")


def test_criterion_7_cross_session_transfer():
    """Across three sessions sharing an archive and a persisted policy,
    each seed's best-session reward never degrades and the median
    iterations-to-best strictly drops from session 1 to session 3."""
    arms = (("Sobol", 90.0), ("CVM", 75.0), ("PCE_SA", 65.0),
            ("Chatterjee", 55.0), ("Generalized_Sobol", 50.0),
            ("Morris", 40.0))
    cfg = SimConfig(arm_means=arms, sigma=0.0, iterations=20,
                    novelty_gate=False)
    monotone = []
    per_session_itb = [[], [], []]
    for seed in range(20):
        traces = run_sim_sessions(cfg, seed=seed, n_sessions=3)
        bests = [t.best_reward for t in traces]
        monotone.append(bests[0] <= bests[1] <= bests[2])
        for k, t in enumerate(traces):
            per_session_itb[k].append(t.iterations_to_best)
    med_itb = [statistics.median(v) for v in per_session_itb]
    frac_monotone = float(np.mean(monotone))
    assert frac_monotone == 1.0
    assert med_itb[0] > med_itb[2]
    _report("criterion 7 (cross-session transfer)",
            f"best-session reward non-decreasing in {frac_monotone:.0%} of "
            f"20 seeds, median iterations-to-best per session {med_itb}")


def test_criterion_8_empowerment():
    """Action-outcome mutual information stays high when the pipeline
    preserves action-outcome coupling and collapses under full selection
    replacement."""
    faithful = run_sim_session(SimConfig(), seed=0)
    mi_high = metrics.estimate_empowerment([faithful]).mi_bits
    replaced = run_sim_session(SimConfig(replace_prob=1.0), seed=0)
    mi_low = metrics.estimate_empowerment([replaced]).mi_bits
    assert mi_high > 0.5
    assert mi_low < 0.05
    _report("criterion 8 (empowerment)",
            f"faithful pipeline MI = {mi_high:.3f} bits > 0.5; full "
            f"replacement MI = {mi_low:.3f} bits < 0.05")


def test_criterion_9_bandit_regret():
    """On a two-arm gap-20 environment the policy's late per-iteration
    regret falls well below its early regret."""
    cfg = SimConfig(arm_means=(("Sobol", 80.0), ("Morris", 60.0)),
                    sigma=5.0, iterations=100, novelty_gate=False)
    early, late = [], []
    for seed in range(50):
        trace = run_sim_session(cfg, seed=seed)
        regrets = [80.0 - r.reward_total if r.method.estimator != "Sobol"
                   else 0.0 for r in trace.records]
        early.append(float(np.mean(regrets[:20])))
        late.append(float(np.mean(regrets[-20:])))
    early_mean, late_mean = float(np.mean(early)), float(np.mean(late))
    ratio = late_mean / early_mean
    assert ratio < 0.5
    _report("criterion 9 (bandit regret)",
            f"mean selection regret early {early_mean:.2f} -> late "
            f"{late_mean:.2f} per iteration over 50 seeds "
            f"(ratio {ratio:.3f} < 0.5)")


def test_criterion_10_threshold_safety():
    """Under adversarial similarity streams the threshold of every
    enabled gate never drops below the null 95th percentile after
    warmup."""
    floor_null = calibrate_null(shipped_corpus())
    streams = [
        [0.99] * 30,                                 # passes every time
        [0.31, 0.30, 0.32] * 10,                     # hugs the old minimum
        list(np.linspace(0.95, 0.05, 30)),           # slow degradation
        list(np.abs(np.sin(np.arange(30)))),         # oscillation
    ]
    checked = 0
    for stream in streams:
        manager = CheckpointManager(floor_null)
        for cp_id, (_, _, inverted, _) in CHECKPOINT_TABLE.items():
            if cp_id == "CP0" or inverted:
                continue
            for sim in stream:
                warm = manager.passes[cp_id] >= checkpoints._WARMUP
                threshold = manager.evaluate(cp_id, float(sim)).threshold
                assert threshold >= floor_null - 1e-12 or not warm
            checked += 1
    _report("criterion 10 (threshold safety)",
            f"{checked} gate/stream combinations kept every "
            "post-warmup threshold at or above the null 95th percentile")
