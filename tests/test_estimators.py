import tracemalloc
from dataclasses import replace
from unittest import mock

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
        x = ishigami.transform(rng.random((300_000, 3)))
        y = ishigami.evaluate(x)
        s2_oracle = (7.0 ** 2 / 8.0) / float(np.var(y, ddof=1))
        assert s2_oracle == pytest.approx(ishigami.analytic_s1[1], abs=0.01)

    def test_normal_transform_moments(self):
        beam = est.get_model("cantilever_beam")
        rng = np.random.default_rng(2)
        x = beam.transform(rng.random((100_000, 4)))
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
    return _sobol_from_unit(m, ua, ub)


def _sobol_from_unit(m, ua, ub):
    """The per-hybrid Sobol estimate on the unit-space matrices ua and ub."""
    n, d = ua.shape
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


# A session keeps one Monte Carlo sample, which Chatterjee, CVM and Sobol's
# base matrices read, Morris's trajectories, whose walk ignores the level,
# and nested Latin hypercubes per sampling scheme.  The oracles below run plans
# through the runner with one session's designs and count the rows the
# model evaluates.
_DIRECT = {"Sobol": est.sobol_saltelli, "Chatterjee": est.chatterjee,
           "CVM": est.cvm,
           "Morris": lambda m, n, seed, scheme: est.morris(m, n, seed)}
_DESIGN_MODEL = "cantilever_beam"   # Normal inputs: transform runs _ndtri


@pytest.fixture()
def counted(monkeypatch):
    """The model the runner executes, and the rows of each evaluate call."""
    model = est.get_model(_DESIGN_MODEL)
    rows = []

    def evaluate(x):
        rows.append(len(x))
        return model.evaluate(x)
    monkeypatch.setattr(agents, "get_model", lambda model_id: replace(
        model, evaluate=evaluate))
    return model, rows


def _run(designs, estimator, n, seed, level):
    plan = ExecutionPlan(estimator, n, _DESIGN_MODEL, seed)
    return agents.execution_runner(plan, level, 10 ** 7, designs)


def _estimate_bits(res):
    """Every field but the evaluations the run executed."""
    return _fields_bits(replace(res, evaluations_used=0))


def _per_sample(estimator):
    return catalog.estimator_info(estimator).cost_multiplier(4)


def _sobol_stream(n_first, n, seed, d=4):
    """xa and xb of a Monte Carlo pick-freeze design opened at n_first rows
    and extended to n: each block draws xa and then xb from one stream."""
    rng = np.random.default_rng(seed)
    blocks = [(rng.random((k, d)), rng.random((k, d)))
              for k in (n_first, n - n_first) if k]
    return (np.concatenate([a for a, _ in blocks]),
            np.concatenate([b for _, b in blocks]))


class TestSessionDesigns:
    @pytest.mark.parametrize("level", catalog.SAMPLING_LEVELS)
    @pytest.mark.parametrize("estimator", sorted(_DIRECT))
    def test_first_run_is_the_direct_call(self, counted, estimator, level):
        model, rows = counted
        got = _run({}, estimator, 300, 11, level)
        assert _fields_bits(got) == _fields_bits(
            _DIRECT[estimator](model, 300, 11, level))
        assert sum(rows) == got.evaluations_used \
            == 300 * _per_sample(estimator)

    @pytest.mark.parametrize("first, then, levels", [
        ("Chatterjee", "Chatterjee", ("MonteCarlo", "MonteCarlo")),
        ("Chatterjee", "CVM", ("MonteCarlo", "MonteCarlo")),
        ("CVM", "Chatterjee", ("MonteCarlo", "MonteCarlo")),
        ("Morris", "Morris", ("MonteCarlo", "MonteCarlo")),
        ("Morris", "Morris", ("LatinHypercube", "MonteCarlo"))])
    def test_a_larger_run_continues_the_stream(self, counted, first, then,
                                               levels):
        # Only the missing rows are evaluated, and the estimate is the
        # direct call at the larger size from the opening seed.
        model, rows = counted
        designs = {}
        _run(designs, first, 120, 5, levels[0])
        rows.clear()
        got = _run(designs, then, 300, 6, levels[1])
        assert sum(rows) == got.evaluations_used \
            == (300 - 120) * _per_sample(then)
        assert _estimate_bits(got) == _estimate_bits(
            _DIRECT[then](model, 300, 5, levels[1]))

    def test_a_larger_sobol_run_adds_a_block(self, counted):
        model, rows = counted
        designs = {}
        _run(designs, "Sobol", 120, 5, "MonteCarlo")
        rows.clear()
        got = _run(designs, "Sobol", 300, 6, "MonteCarlo")
        assert sum(rows) == got.evaluations_used == (300 - 120) * 6
        assert _estimate_bits(got) == _estimate_bits(
            _sobol_from_unit(model, *_sobol_stream(120, 300, 5)))

    @pytest.mark.parametrize("estimator", sorted(_DIRECT))
    def test_a_run_within_the_rows_held_evaluates_nothing(self, counted,
                                                          estimator):
        model, rows = counted
        designs = {}
        first = _run(designs, estimator, 300, 5, "MonteCarlo")
        rows.clear()
        again = _run(designs, estimator, 300, 6, "MonteCarlo")
        fewer = _run(designs, estimator, 150, 7, "MonteCarlo")
        assert rows == [] and again.evaluations_used == 0 \
            and fewer.evaluations_used == 0
        assert _estimate_bits(again) == _estimate_bits(first)
        if estimator == "Sobol":
            xa, xb = _sobol_stream(300, 300, 5)
            reference = _sobol_from_unit(model, xa[:150], xb[:150])
        else:
            reference = _DIRECT[estimator](model, 150, 5, "MonteCarlo")
        assert _estimate_bits(fewer) == _estimate_bits(reference)

    @pytest.mark.parametrize("first, then", [
        ("Sobol", "Sobol"), ("Chatterjee", "CVM"), ("CVM", "CVM")])
    def test_a_latin_hypercube_is_served_only_at_its_size(self, counted,
                                                          first, then):
        # A size that is neither a layer of a Latin hypercube nor a multiple
        # of its largest draws its own from its plan's seed, and each design
        # keeps serving its own size.
        model, rows = counted
        designs = {}
        opened = _run(designs, first, 200, 5, "LatinHypercube")
        rows.clear()
        same = _run(designs, then, 200, 6, "LatinHypercube")
        assert rows == [] and same.evaluations_used == 0
        assert _estimate_bits(same) == _estimate_bits(
            _DIRECT[then](model, 200, 5, "LatinHypercube"))
        for n, seed in ((300, 7), (100, 8)):
            rows.clear()
            other = _run(designs, then, n, seed, "LatinHypercube")
            assert sum(rows) == other.evaluations_used \
                == n * _per_sample(then)
            assert _fields_bits(other) == _fields_bits(
                _DIRECT[then](model, n, seed, "LatinHypercube"))
        rows.clear()
        assert _estimate_bits(_run(designs, first, 200, 9,
                                   "LatinHypercube")) \
            == _estimate_bits(opened)
        assert rows == []

    def test_simulated_rows_leave_the_design_to_the_first_real_run(
            self, counted):
        # Generalized_Sobol shares Sobol's sampling scheme but draws
        # nothing, so the Sobol run after it opens the design from its own
        # seed.
        model, rows = counted
        designs = {}
        _run(designs, "Generalized_Sobol", 200, 5, "MonteCarlo")
        assert rows == []
        got = _run(designs, "Sobol", 200, 6, "MonteCarlo")
        assert _fields_bits(got) == _fields_bits(
            est.sobol_saltelli(model, 200, 6, "MonteCarlo"))

    @pytest.mark.parametrize("model_id", ["ishigami", "cantilever_beam"])
    @pytest.mark.parametrize("runs", [
        (("Sobol", 200), ("CVM", 300)),
        (("Chatterjee", 300), ("Sobol", 200), ("Sobol", 400))],
        ids=["sobol-cvm", "chatterjee-sobol-sobol"])
    def test_one_monte_carlo_sample_serves_every_estimator(
            self, monkeypatch, model_id, runs):
        # Sobol's next block of k pairs takes the sample's next 2k rows, k
        # for xa and then k for xb, so every run reads the stream of the
        # seed that opened the sample, 5, and evaluates only the rows the
        # sample lacks plus Sobol's hybrids.
        model = est.get_model(model_id)
        rows = []

        def evaluate(x):
            rows.append(len(x))
            return model.evaluate(x)
        monkeypatch.setattr(agents, "get_model", lambda model_id: replace(
            model, evaluate=evaluate))
        designs, used, held, pairs = {}, 0, 0, 0
        for seed, (estimator, n) in enumerate(runs, start=5):
            got = _run(designs, estimator, n, seed, "MonteCarlo")
            sobol = estimator == "Sobol"
            if sobol and not pairs:
                ref = est.sobol_saltelli(model, n, 5, "MonteCarlo")
            elif sobol:
                ref = _sobol_from_unit(
                    model, *_sobol_stream(pairs, n, 5, model.d_in))
            else:
                ref = _DIRECT[estimator](model, n, 5, "MonteCarlo")
            assert _estimate_bits(got) == _estimate_bits(ref)
            need = 2 * n if sobol else n
            assert got.evaluations_used == max(0, need - held) \
                + sobol * model.d_in * (n - pairs)
            held, pairs = max(held, need), n if sobol else pairs
            used += got.evaluations_used
        assert used == sum(rows)


def _unit_model(d, inputs):
    """A d-input model on [0, 1]^d, whose inputs are its unit points; each
    evaluate call appends its inputs to ``inputs``."""
    def evaluate(x):
        inputs.append(x.copy())
        return x.sum(axis=1) + x[:, 0] * x[:, -1]
    return est.BenchmarkModel(id="unit", d_in=d, d_out=1, evaluate=evaluate,
                              input_dists=(("Uniform", 0.0, 1.0),) * d)


class TestNestedLatinHypercube:
    @hyp_settings(max_examples=60, deadline=None)
    @given(n=st.integers(10, 40), c=st.sampled_from([2, 3, 4]),
           again=st.sampled_from([2, 3, 4]), d=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1),
           estimator=st.sampled_from(["Chatterjee", "CVM", "Sobol"]))
    def test_a_chain_nests(self, n, c, again, d, seed, estimator):
        # A chain opens at n and extends to c*n and again*c*n: every layer's
        # prefix is a Latin hypercube, the first run is the direct call, an
        # extension evaluates only its new rows, a layer is read without an
        # evaluation, and any other size opens its own design.
        inputs = []
        model = _unit_model(d, inputs)
        per_sample = catalog.estimator_info(estimator).cost_multiplier(d)
        designs = {}

        def run(size, run_seed):
            inputs.clear()
            plan = ExecutionPlan(estimator, size, "unit", run_seed)
            with mock.patch.object(agents, "get_model", lambda _: model):
                res = agents.execution_runner(plan, "LatinHypercube",
                                              10 ** 9, designs)
            assert sum(map(len, inputs)) == res.evaluations_used
            return res

        first = run(n, seed)
        # xa and then xb for Sobol, the one sample for the others.
        matrices = inputs[:2 if estimator == "Sobol" else 1]
        assert np.array_equal(matrices[0], est._latin_hypercube(
            n, d, np.random.default_rng(seed)))
        assert _fields_bits(first) == _fields_bits(
            _DIRECT[estimator](model, n, seed, "LatinHypercube"))
        layers = [n, c * n, again * c * n]
        for held, size in zip(layers, layers[1:]):
            assert run(size, seed + 1).evaluations_used \
                == (size - held) * per_sample
            matrices = [np.concatenate([old, new]) for old, new
                        in zip(matrices, inputs)]
        for points in matrices:
            for size in layers:
                strata = np.floor(points[:size] * size)
                assert np.array_equal(np.sort(strata, axis=0),
                                      np.tile(np.arange(size)[:, None], d))
        for size in layers:
            assert run(size, seed + 2).evaluations_used == 0
        assert _estimate_bits(run(n, seed + 3)) == _estimate_bits(first)
        # One more than the largest layer is a multiple of no layer.
        other = layers[-1] + 1
        assert _fields_bits(run(other, seed + 4)) == _fields_bits(
            _DIRECT[estimator](model, other, seed + 4, "LatinHypercube"))
        assert len(designs[(catalog.estimator_info(estimator)
                            .sampling_scheme, "LatinHypercube")]) == 2


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
            g8, 100, 0, "MonteCarlo", est.Design())
        assert res.estimator == "Chatterjee"

    def test_unknown_executor(self, g8):
        plan = ExecutionPlan("Kriging", 100, g8.id, 0)
        with pytest.raises(UnknownEstimator):
            agents.execution_runner(plan, "MonteCarlo", 10_000, {})

    def test_attributes_and_primary_indices(self, g8):
        res = est.morris(g8, trajectories=10, seed=0)
        attrs = res.attributes()
        assert set(attrs) == {"mu_star", "sigma_effects"}
        assert res.primary_indices() == res.mu_star
        # One table of outputs: every row fills exactly what it lists.
        for row in catalog.SA_ESTIMATORS.values():
            res = row.execute(g8, 200, 0, "MonteCarlo", est.Design())
            assert tuple(res.attributes()) == row.bindings, row.id
