import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm, qmc, rankdata

from driftguard import estimators as est
from driftguard.errors import InsufficientSamples, UnknownModel


@pytest.fixture(scope="module")
def g8():
    return est.get_model("g_function_8d")


@pytest.fixture(scope="module")
def ishigami():
    return est.get_model("ishigami")


class TestBenchmarkCatalog:
    def test_registered_models(self):
        ids = set(est.benchmark_catalog())
        assert ids == {"g_function_15d", "g_function_8d", "ishigami",
                       "cantilever_beam", "structural_eq3", "thermal_stub"}

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModel):
            est.get_model("does_not_exist")

    def test_g_function_analytic_sums(self):
        m = est.g_function(est.G15_A)
        assert 0.0 < sum(m.analytic_s1) <= 1.0
        assert all(t >= s for s, t in zip(m.analytic_s1, m.analytic_st))

    def test_g_function_analytic_vs_mc_oracle(self, g8):
        # Independent oracle: brute-force conditional-variance estimate of
        # S1 for the most influential input (a_1 = 0).
        rng = np.random.default_rng(0)
        n_outer, n_inner = 400, 400
        x1 = rng.random(n_outer)
        cond_means = np.empty(n_outer)
        for k, v in enumerate(x1):
            x = rng.random((n_inner, 8))
            x[:, 0] = v
            cond_means[k] = float(np.mean(g8.evaluate(x)))
        var_y = np.var(g8.evaluate(rng.random((200_000, 8))), ddof=1)
        s1_oracle = np.var(cond_means, ddof=1) / var_y
        assert abs(s1_oracle - g8.analytic_s1[0]) < 0.05

    def test_ishigami_analytic_vs_mc_oracle(self, ishigami):
        # Known structure: X3 has zero first-order effect but a nonzero
        # total effect through its interaction with X1.
        assert ishigami.analytic_s1[2] == 0.0
        assert ishigami.analytic_st[2] > 0.0
        assert sum(ishigami.analytic_s1) < 1.0
        # Independent oracle for S2: E[Y|X2] = a sin^2(x2) + const, so
        # V2 = a^2/8 against the MC total variance.
        rng = np.random.default_rng(1)
        y = ishigami.evaluate(ishigami.sample_inputs(300_000, rng))
        s2_oracle = (7.0 ** 2 / 8.0) / float(np.var(y, ddof=1))
        assert s2_oracle == pytest.approx(ishigami.analytic_s1[1], abs=0.01)

    def test_normal_transform_moments(self):
        beam = est.get_model("cantilever_beam")
        rng = np.random.default_rng(2)
        x = beam.sample_inputs(100_000, rng)
        assert float(np.mean(x[:, 0])) == pytest.approx(1000.0, abs=2.0)
        assert float(np.std(x[:, 0])) == pytest.approx(100.0, rel=0.02)


class TestSobol:
    def test_matches_analytic(self, g8):
        res = est.sobol_saltelli(g8, 4000, seed=0)
        assert res.estimator == "Sobol"
        assert res.evaluations_used == 4000 * 10
        mae = np.mean(np.abs(np.asarray(res.s1) - g8.analytic_s1))
        assert mae < 0.02

    def test_jansen_total_dominates_first(self, g8):
        res = est.sobol_saltelli(g8, 4000, seed=3)
        assert all(t >= s - 0.05 for s, t in zip(res.s1, res.st))

    def test_deterministic_per_seed(self, g8):
        a = est.sobol_saltelli(g8, 500, seed=11)
        b = est.sobol_saltelli(g8, 500, seed=11)
        assert a.s1 == b.s1 and a.st == b.st

    def test_lhs_scheme_supported(self, g8):
        res = est.sobol_saltelli(g8, 1000, seed=0, scheme="LatinHypercube")
        mae = np.mean(np.abs(np.asarray(res.s1) - g8.analytic_s1))
        assert mae < 0.05

    def test_degenerate_output_flagged(self):
        flat = est.BenchmarkModel(
            id="flat", d_in=3, d_out=1,
            evaluate=lambda x: np.ones(len(x)),
            input_dists=(("Uniform", 0.0, 1.0),) * 3)
        res = est.sobol_saltelli(flat, 100, seed=0)
        assert res.nan_count == 6
        assert "degenerate" in res.warnings[0]

    def test_too_few_samples(self, g8):
        with pytest.raises(InsufficientSamples):
            est.sobol_saltelli(g8, 1, seed=0)


class TestRankBased:
    def test_chatterjee_orders_inputs(self, g8):
        res = est.chatterjee(g8, 5000, seed=0)
        xi = np.asarray(res.rank_indices)
        # a = (0, 1, 4.5, 9, 99...): influence strictly decays.
        assert xi[0] > xi[1] > xi[2] > xi[3]
        assert res.evaluations_used == 5000

    def test_chatterjee_independent_input_near_zero(self):
        m = est.BenchmarkModel(
            id="first_only", d_in=2, d_out=1,
            evaluate=lambda x: x[:, 0],
            input_dists=(("Uniform", 0.0, 1.0),) * 2)
        res = est.chatterjee(m, 4000, seed=0)
        assert res.rank_indices[0] > 0.9
        assert abs(res.rank_indices[1]) < 0.1

    def test_cvm_matches_analytic_s1(self, g8):
        res = est.cvm(g8, 20_000, seed=0)
        mae = np.mean(np.abs(np.asarray(res.s1) - g8.analytic_s1))
        assert mae < 0.03

    def test_cvm_degenerate_variance(self):
        flat = est.BenchmarkModel(
            id="flat2", d_in=2, d_out=1,
            evaluate=lambda x: np.zeros(len(x)),
            input_dists=(("Uniform", 0.0, 1.0),) * 2)
        res = est.cvm(flat, 100, seed=0)
        assert res.nan_count == 2

    def test_minimum_sizes_enforced(self, g8):
        with pytest.raises(InsufficientSamples):
            est.chatterjee(g8, 9, seed=0)
        with pytest.raises(InsufficientSamples):
            est.cvm(g8, 9, seed=0)


class TestMorris:
    def test_orders_influential_inputs(self, g8):
        res = est.morris(g8, trajectories=100, seed=0)
        mu = np.asarray(res.mu_star)
        assert res.evaluations_used == 100 * 9
        # The four active inputs outrank the four inert ones (a = 99).
        assert min(mu[:4]) > max(mu[4:])

    def test_deterministic_per_seed(self, g8):
        a = est.morris(g8, trajectories=20, seed=5)
        b = est.morris(g8, trajectories=20, seed=5)
        assert a.mu_star == b.mu_star and a.sigma == b.sigma

    def test_guards(self, g8):
        with pytest.raises(InsufficientSamples):
            est.morris(g8, trajectories=1)
        with pytest.raises(InsufficientSamples):
            est.morris(g8, trajectories=10, levels=3)

    @pytest.mark.parametrize("model_id", ["structural_eq3", "g_function_15d",
                                          "thermal_stub", "cantilever_beam"])
    def test_blocked_matches_per_point_walk(self, model_id):
        m = est.get_model(model_id)
        per_block = est._MORRIS_BLOCK_POINTS // (m.d_in + 1)
        for seed in (0, 7, 42):
            for r in (2, 3, per_block - 1, per_block, per_block + 1):
                got = est.morris(m, trajectories=r, seed=seed)
                ref = _morris_per_point(m, r, seed=seed)
                assert got.mu_star == ref.mu_star, (seed, r)
                assert got.sigma == ref.sigma, (seed, r)
                assert got.evaluations_used == ref.evaluations_used
                assert got.nan_count == ref.nan_count
                assert got.warnings == ref.warnings

    @pytest.mark.parametrize("levels", [6, 10, 50])
    def test_blocked_matches_per_point_walk_at_other_levels(self, levels):
        m = est.get_model("structural_eq3")
        got = est.morris(m, trajectories=5, levels=levels, seed=3)
        ref = _morris_per_point(m, 5, levels=levels, seed=3)
        assert (got.mu_star, got.sigma) == (ref.mu_star, ref.sigma)

    def test_peak_memory_set_by_block_not_trajectories(self):
        m = est.get_model("thermal_stub")
        r = 20_000
        tracemalloc.start()
        try:
            est.morris(m, trajectories=r, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The effects store needs 8*d*r bytes (3.2 MB here); all else is a
        # few arrays of one block's points.  One array of every trajectory
        # point would take 8*r*(d+1)*d = 67 MB.
        block_bytes = 8 * est._MORRIS_BLOCK_POINTS * m.d_in
        assert peak - 8 * m.d_in * r < 8 * block_bytes
        assert peak < 10 * 2 ** 20


def _morris_per_point(m, trajectories, levels=4, seed=0):
    """Reference: the point-by-point walk morris() replaced, one model call
    per trajectory point."""
    rng = np.random.default_rng(seed)
    d = m.d_in
    delta = levels / (2.0 * (levels - 1))
    grid = np.arange(levels) / (levels - 1)
    low = grid[grid + delta <= 1.0 + 1e-12]
    effects = [[] for _ in range(d)]
    n_evals = 0
    warnings = []
    if d == 1:
        warnings.append("single-input screening is pointless")
    for _ in range(trajectories):
        base = rng.choice(low, size=d)
        point = base.copy()
        y_prev = float(np.asarray(m.evaluate(m.transform(
            point[None, :])), dtype=float).reshape(-1)[0])
        n_evals += 1
        for i in rng.permutation(d):
            point = point.copy()
            point[i] = point[i] + delta if point[i] + delta <= 1.0 else point[i] - delta
            sign = 1.0 if point[i] > base[i] else -1.0
            y_new = float(np.asarray(m.evaluate(m.transform(
                point[None, :])), dtype=float).reshape(-1)[0])
            n_evals += 1
            effects[int(i)].append(sign * (y_new - y_prev) / delta)
            y_prev = y_new
    mu_star = tuple(float(np.mean(np.abs(e))) for e in effects)
    sigma = tuple(float(np.std(e, ddof=1)) if len(e) > 1 else 0.0
                  for e in effects)
    nan_count, _ = est._nan_stats(mu_star, sigma)
    return est.SAResult(estimator="Morris", mu_star=mu_star, sigma=sigma,
                        evaluations_used=n_evals, warnings=tuple(warnings),
                        nan_count=nan_count)


class TestScipyStatsReplacements:
    """The numpy/scipy.special stand-ins reproduce scipy.stats exactly."""

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 4), (10, 3), (257, 15)])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_latin_hypercube_stream(self, n, d, seed):
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        for _ in range(2):   # a second draw sees the parent's spawn count
            got = est._latin_hypercube(n, d, ours)
            ref = qmc.LatinHypercube(d=d, seed=theirs).random(n)
            assert np.array_equal(got, ref)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("y", [
        [3.0, 1.0, 2.0],
        [2.0, 2.0, 2.0],
        [3.0, 2.0, 1.0, 2.0, 2.0, 2.0, 1.0],
        [0.5, -1.0, 0.5, np.inf, -np.inf, 0.5],
        [1.0, np.nan, 0.0],
    ])
    def test_midranks(self, y):
        y = np.asarray(y)
        assert np.array_equal(est._midranks(y), rankdata(y, method="average"),
                              equal_nan=True)

    def test_midranks_random_ties(self):
        y = np.random.default_rng(3).integers(0, 40, size=2000).astype(float)
        assert np.array_equal(est._midranks(y), rankdata(y, method="average"))

    def test_normal_transform(self):
        beam = est.get_model("cantilever_beam")
        u = np.random.default_rng(4).random((5000, beam.d_in))
        u[:4] = [0.0, 1.0, 1e-13, 1 - 1e-13]
        x = beam.transform(u)
        for i, (kind, mu, sd) in enumerate(beam.input_dists):
            assert kind == "Normal"
            ref = norm.ppf(np.clip(u[:, i], 1e-12, 1 - 1e-12), loc=mu, scale=sd)
            assert np.array_equal(x[:, i], ref)


class TestSimulatedExecutors:
    def test_pce_reports_biased_indices(self, g8):
        res = est.pce_sa_simulated(g8, 2000, seed=0)
        assert res.estimator == "PCE_SA"
        assert res.warnings                      # truncation warning present
        bias = np.mean(np.asarray(res.s1) - g8.analytic_s1)
        assert bias > 0.03                       # deliberately under-resolved

    def test_generalized_sobol_near_reference(self, g8):
        res = est.generalized_sobol_simulated(g8, 1000, seed=0)
        mae = np.mean(np.abs(np.asarray(res.s1) - g8.analytic_s1))
        assert mae < 0.1
        assert res.evaluations_used == 1000 * 10


class TestDispatch:
    def test_run_estimator_routes(self, g8):
        res = est.run_estimator("Chatterjee", g8, 100, seed=0)
        assert res.estimator == "Chatterjee"

    def test_unknown_executor(self, g8):
        with pytest.raises(UnknownModel):
            est.run_estimator("Kriging", g8, 100, seed=0)

    def test_attributes_and_primary_indices(self, g8):
        res = est.morris(g8, trajectories=10, seed=0)
        attrs = res.attributes()
        assert set(attrs) == {"mu_star", "sigma_effects"}
        assert res.primary_indices() == res.mu_star
