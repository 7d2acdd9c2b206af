import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.special import ndtri
from scipy.stats import norm, qmc, rankdata

from driftguard import agents, catalog, estimators as est
from driftguard.agents import ExecutionPlan
from driftguard.errors import (InsufficientSamples, UnknownEstimator,
                               UnknownModel)


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
        x = ishigami.sample_inputs(300_000, rng, "MonteCarlo")
        y = ishigami.evaluate(x)
        s2_oracle = (7.0 ** 2 / 8.0) / float(np.var(y, ddof=1))
        assert s2_oracle == pytest.approx(ishigami.analytic_s1[1], abs=0.01)

    def test_normal_transform_moments(self):
        beam = est.get_model("cantilever_beam")
        rng = np.random.default_rng(2)
        x = beam.sample_inputs(100_000, rng, "MonteCarlo")
        assert float(np.mean(x[:, 0])) == pytest.approx(1000.0, abs=2.0)
        assert float(np.std(x[:, 0])) == pytest.approx(100.0, rel=0.02)


class TestSobol:
    def test_matches_analytic(self, g8):
        res = est.sobol_saltelli(g8, 4000, seed=0, scheme="MonteCarlo")
        assert res.estimator == "Sobol"
        assert res.evaluations_used == 4000 * 10
        mae = np.mean(np.abs(np.asarray(res.first_order_indices)
                             - g8.analytic_s1))
        assert mae < 0.02

    def test_jansen_total_dominates_first(self, g8):
        res = est.sobol_saltelli(g8, 4000, seed=3, scheme="MonteCarlo")
        assert all(t >= s - 0.05 for s, t in zip(res.first_order_indices,
                                                 res.total_order_indices))

    def test_deterministic_per_seed(self, g8):
        a = est.sobol_saltelli(g8, 500, seed=11, scheme="MonteCarlo")
        b = est.sobol_saltelli(g8, 500, seed=11, scheme="MonteCarlo")
        assert a.first_order_indices == b.first_order_indices
        assert a.total_order_indices == b.total_order_indices

    def test_lhs_scheme_supported(self, g8):
        res = est.sobol_saltelli(g8, 1000, seed=0, scheme="LatinHypercube")
        mae = np.mean(np.abs(np.asarray(res.first_order_indices)
                             - g8.analytic_s1))
        assert mae < 0.05

    def test_degenerate_output_flagged(self):
        flat = est.BenchmarkModel(
            id="flat", d_in=3, d_out=1,
            evaluate=lambda x: np.ones(len(x)),
            input_dists=(("Uniform", 0.0, 1.0),) * 3)
        res = est.sobol_saltelli(flat, 100, seed=0, scheme="MonteCarlo")
        assert res.nan_count == 6
        assert "degenerate" in res.warnings[0]

    def test_too_few_samples(self, g8):
        with pytest.raises(InsufficientSamples):
            est.sobol_saltelli(g8, 1, seed=0, scheme="MonteCarlo")

    @pytest.mark.parametrize("scheme", ["MonteCarlo", "LatinHypercube"])
    @pytest.mark.parametrize("model_id", sorted(est.benchmark_catalog()))
    def test_transform_once_matches_per_hybrid_transform(self, model_id,
                                                         scheme):
        m = est.get_model(model_id)
        for n, seed in ((37, 0), (400, 5)):
            got = est.sobol_saltelli(m, n, seed, scheme)
            ref = _sobol_per_hybrid(m, n, seed, scheme)
            assert _fields_bits(got) == _fields_bits(ref)

    def test_transform_once_matches_on_degenerate_output(self):
        flat = est.BenchmarkModel(
            id="flat", d_in=2, d_out=1,
            evaluate=lambda x: np.ones(len(x)),
            input_dists=(("Normal", 0.0, 1.0), ("Uniform", 0.0, 1.0)))
        assert (_fields_bits(est.sobol_saltelli(flat, 50, 1, "MonteCarlo"))
                == _fields_bits(_sobol_per_hybrid(flat, 50, 1)))


def _fields_bits(res: est.SAResult) -> dict:
    """Every SAResult field, floats as their bit patterns, so NaN equals
    NaN and -0.0 differs from 0.0."""
    out = {}
    for name, value in vars(res).items():
        if isinstance(value, tuple) and value and isinstance(value[0], float):
            value = np.asarray(value).tobytes()
        out[name] = value
    return out


def _sobol_per_hybrid(m, n, seed, scheme="MonteCarlo"):
    """sobol_saltelli as it was before it transformed each sample matrix
    once: every hybrid is built in unit space and transformed on its own."""
    rng = np.random.default_rng(seed)
    d = m.d_in
    ua = (est._latin_hypercube(n, d, rng)
          if scheme == "LatinHypercube" else rng.random((n, d)))
    ub = (est._latin_hypercube(n, d, rng)
          if scheme == "LatinHypercube" else rng.random((n, d)))
    fa = np.asarray(m.evaluate(m.transform(ua)), dtype=float).reshape(n, -1)[:, 0]
    fb = np.asarray(m.evaluate(m.transform(ub)), dtype=float).reshape(n, -1)[:, 0]
    var = float(np.var(np.concatenate([fa, fb]), ddof=1))
    warnings = []
    if var < est._DEGENERATE_VAR:
        warnings.append("degenerate output variance; indices undefined")
        return est.SAResult(estimator="Sobol",
                            first_order_indices=(float("nan"),) * d,
                            total_order_indices=(float("nan"),) * d,
                            evaluations_used=n * (d + 2),
                            warnings=tuple(warnings), nan_count=2 * d)
    s1_list, st_list = [], []
    for i in range(d):
        uabi = ua.copy()
        uabi[:, i] = ub[:, i]
        fabi = np.asarray(m.evaluate(m.transform(uabi)),
                          dtype=float).reshape(n, -1)[:, 0]
        s1_list.append(float(np.mean(fb * (fabi - fa))) / var)
        st_list.append(float(np.mean((fa - fabi) ** 2) / 2.0) / var)
    nan_count, negvar = est._nan_stats(s1_list, st_list)
    if negvar:
        warnings.append("negative variance contribution detected")
    if not 0.0 - 0.1 <= sum(s1_list) <= 1.1:
        warnings.append("first-order indices sum outside tolerance band")
    return est.SAResult(estimator="Sobol",
                        first_order_indices=tuple(s1_list),
                        total_order_indices=tuple(st_list),
                        evaluations_used=n * (d + 2),
                        warnings=tuple(warnings), nan_count=nan_count,
                        negative_variance_flag=negvar)


class TestRankBased:
    def test_chatterjee_orders_inputs(self, g8):
        res = est.chatterjee(g8, 5000, seed=0, scheme="MonteCarlo")
        xi = np.asarray(res.chatterjee_indices)
        # a = (0, 1, 4.5, 9, 99...): influence strictly decays.
        assert xi[0] > xi[1] > xi[2] > xi[3]
        assert res.evaluations_used == 5000

    def test_chatterjee_independent_input_near_zero(self):
        m = est.BenchmarkModel(
            id="first_only", d_in=2, d_out=1,
            evaluate=lambda x: x[:, 0],
            input_dists=(("Uniform", 0.0, 1.0),) * 2)
        res = est.chatterjee(m, 4000, seed=0, scheme="MonteCarlo")
        assert res.chatterjee_indices[0] > 0.9
        assert abs(res.chatterjee_indices[1]) < 0.1

    def test_cvm_matches_analytic_s1(self, g8):
        res = est.cvm(g8, 20_000, seed=0, scheme="MonteCarlo")
        mae = np.mean(np.abs(np.asarray(res.first_order_indices)
                             - g8.analytic_s1))
        assert mae < 0.03

    def test_cvm_degenerate_variance(self):
        flat = est.BenchmarkModel(
            id="flat2", d_in=2, d_out=1,
            evaluate=lambda x: np.zeros(len(x)),
            input_dists=(("Uniform", 0.0, 1.0),) * 2)
        res = est.cvm(flat, 100, seed=0, scheme="MonteCarlo")
        assert res.nan_count == 2

    # Columns rounded to a few levels tie often; NaN columns and signed zeros
    # tie in ways a plain comparison sort may order differently.
    @hyp_settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           levels=st.sampled_from([None, 1, 2, 3, 8, 1000]),
           nans=st.sampled_from([0, 1, 5]), signed_zeros=st.booleans())
    def test_fast_order_matches_stable_sort(self, seed, n, levels, nans,
                                            signed_zeros):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        if levels is not None:
            x = np.round(x * levels) / levels
        if signed_zeros:
            x[rng.random(n) < 0.2] = -0.0
        x[rng.choice(n, size=min(nans, n), replace=False)] = np.nan
        stable = np.argsort(x, kind="stable")
        assert np.array_equal(est._stable_order(x), stable)
        y_ranks = est._midranks(rng.standard_normal(n))
        r = y_ranks[stable]
        xi = 1.0 - 3.0 * float(np.abs(np.diff(r)).sum()) / (n * n - 1.0)
        assert est._xi_statistic(x, y_ranks).hex() == xi.hex()

    @pytest.mark.parametrize("model_id", ["ishigami", "cantilever_beam"])
    @pytest.mark.parametrize("scheme", ["MonteCarlo", "LatinHypercube"])
    def test_rank_indices_match_stable_sort(self, model_id, scheme,
                                            monkeypatch):
        m = est.get_model(model_id)
        fast = [est.chatterjee(m, 5000, 3, scheme), est.cvm(m, 5000, 3, scheme)]
        monkeypatch.setattr(est, "_stable_order",
                            lambda x: np.argsort(x, kind="stable"))
        slow = [est.chatterjee(m, 5000, 3, scheme), est.cvm(m, 5000, 3, scheme)]
        assert [float(v).hex() for v in fast[0].chatterjee_indices
                + fast[1].first_order_indices] == \
            [float(v).hex() for v in slow[0].chatterjee_indices
             + slow[1].first_order_indices]

    def test_minimum_sizes_enforced(self, g8):
        with pytest.raises(InsufficientSamples):
            est.chatterjee(g8, 9, seed=0, scheme="MonteCarlo")
        with pytest.raises(InsufficientSamples):
            est.cvm(g8, 9, seed=0, scheme="MonteCarlo")


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
        assert a.mu_star == b.mu_star and a.sigma_effects == b.sigma_effects

    def test_guards(self, g8):
        with pytest.raises(InsufficientSamples):
            est.morris(g8, trajectories=1, seed=0)

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
                assert got.sigma_effects == ref.sigma_effects, (seed, r)
                assert got.evaluations_used == ref.evaluations_used
                assert got.nan_count == ref.nan_count
                assert got.warnings == ref.warnings

    @pytest.mark.parametrize("model_id", ["structural_eq3", "thermal_stub"])
    def test_result_independent_of_block_size(self, model_id, monkeypatch):
        m = est.get_model(model_id)
        for seed in (0, 7):
            ref = est.morris(m, trajectories=300, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(est, "_MORRIS_BLOCK_POINTS", 17)
                got = est.morris(m, trajectories=300, seed=seed)
            assert got.mu_star == ref.mu_star, seed
            assert got.sigma_effects == ref.sigma_effects, seed

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


def _morris_per_point(m, trajectories, seed=0):
    """Reference: the point-by-point walk morris() replaced, one model call
    per trajectory point, with every base and step order drawn up front
    from the same two streams."""
    base_rng, order_rng = np.random.default_rng(seed).spawn(2)
    d = m.d_in
    levels = 4
    delta = levels / (2.0 * (levels - 1))
    grid = np.arange(levels) / (levels - 1)
    low = grid[grid + delta <= 1.0 + 1e-12]
    bases = low[base_rng.integers(low.size, size=(trajectories, d))]
    orders = order_rng.permuted(np.tile(np.arange(d), (trajectories, 1)),
                                axis=1)
    effects = [[] for _ in range(d)]
    n_evals = 0
    warnings = []
    if d == 1:
        warnings.append("single-input screening is pointless")
    for base, order in zip(bases, orders):
        point = base.copy()
        y_prev = float(np.asarray(m.evaluate(m.transform(
            point[None, :])), dtype=float).reshape(-1)[0])
        n_evals += 1
        for i in order:
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
    return est.SAResult(estimator="Morris", mu_star=mu_star,
                        sigma_effects=sigma,
                        evaluations_used=n_evals, warnings=tuple(warnings),
                        nan_count=nan_count)


class TestScipyStatsReplacements:
    """The numpy stand-ins reproduce scipy exactly."""

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

    def test_transform_memory_is_bounded_by_block(self):
        beam = est.get_model("cantilever_beam")
        u = np.random.default_rng(5).random((100_000, beam.d_in))
        tracemalloc.start()
        try:
            x = beam.transform(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The output plus one block's temporaries.  A single _ndtri call on
        # the whole sample holds about a dozen arrays of the output's size.
        assert peak < x.nbytes + 2 * 2**20

    def test_ndtri_bits_on_clipped_uniforms(self):
        rng = np.random.default_rng(16)
        for _ in range(10):     # 10 M values, 1 M at a time
            p = np.clip(rng.random(1_000_000), 1e-12, 1 - 1e-12)
            assert np.array_equal(est._ndtri(p).view(np.int64),
                                  ndtri(p).view(np.int64))

    @pytest.mark.parametrize("edge", [
        est._EXP_M2, 1.0 - est._EXP_M2, 0.5, 1e-12, 1 - 1e-12])
    def test_ndtri_bits_at_branch_points(self, edge):
        below, above = [edge], [edge]
        for _ in range(50):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], 1.0))
        p = np.array(below[::-1] + above[1:])
        assert np.array_equal(est._ndtri(p).view(np.int64),
                              ndtri(p).view(np.int64))


class TestSimulatedExecutors:
    def test_pce_reports_biased_indices(self, g8):
        res = est.pce_sa_simulated(g8, 2000, seed=0)
        assert res.estimator == "PCE_SA"
        assert res.warnings                      # truncation warning present
        bias = np.mean(np.asarray(res.first_order_indices)
                       - g8.analytic_s1)
        assert bias > 0.03                       # deliberately under-resolved

    def test_generalized_sobol_near_reference(self, g8):
        res = est.generalized_sobol_simulated(g8, 1000, seed=0)
        mae = np.mean(np.abs(np.asarray(res.first_order_indices)
                             - g8.analytic_s1))
        assert mae < 0.1
        assert res.evaluations_used == 1000 * 10


class TestDispatch:
    def test_catalog_row_routes(self, g8):
        res = catalog.estimator_info("Chatterjee").execute(
            g8, 100, 0, "MonteCarlo")
        assert res.estimator == "Chatterjee"

    def test_unknown_executor(self, g8):
        plan = ExecutionPlan("Kriging", 100, g8.id, 0)
        with pytest.raises(UnknownEstimator):
            agents.execution_runner(plan, "MonteCarlo", 10_000)

    def test_attributes_and_primary_indices(self, g8):
        res = est.morris(g8, trajectories=10, seed=0)
        attrs = res.attributes()
        assert set(attrs) == {"mu_star", "sigma_effects"}
        assert res.primary_indices() == res.mu_star
        # One table of outputs: every row fills exactly what it lists.
        for row in catalog.SA_ESTIMATORS.values():
            res = row.execute(g8, 200, 0, "MonteCarlo")
            assert tuple(res.attributes()) == row.bindings, row.id
