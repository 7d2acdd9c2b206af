"""Numerical sensitivity-analysis backends and benchmark models.

Real estimators: Sobol pick-freeze (Saltelli first-order, Jansen total),
Chatterjee rank correlation, a Cramer-von Mises rank variant, and Morris
winding-stairs screening.  Spectral (PCE_SA) and multi-output
(Generalized_Sobol) executors are simulated: they return analytic reference
indices perturbed by seeded noise, while their scheme plumbing stays real.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import InsufficientSamples, UnknownModel

_DEGENERATE_VAR = 1e-14

# Most points morris() passes to one model call.  Whole trajectories are
# evaluated together, so memory is bounded by the block and not by the
# trajectory count.
_MORRIS_BLOCK_POINTS = 4096

# SAResult field -> attribute name an execution plan binds.
FIELD_TO_ATTRIBUTE = {
    "s1": "first_order_indices",
    "st": "total_order_indices",
    "rank_indices": "chatterjee_indices",
    "mu_star": "mu_star",
    "sigma": "sigma_effects",
}


@dataclass(frozen=True)
class SAResult:
    """Observation produced by one estimator run."""

    estimator: str
    s1: tuple[float, ...] | None = None
    st: tuple[float, ...] | None = None
    rank_indices: tuple[float, ...] | None = None
    mu_star: tuple[float, ...] | None = None
    sigma: tuple[float, ...] | None = None
    evaluations_used: int = 0
    runtime_seconds: float = 0.0
    warnings: tuple[str, ...] = ()
    nan_count: int = 0
    negative_variance_flag: bool = False
    executed: bool = True

    def attributes(self) -> dict[str, tuple[float, ...]]:
        """Populated fields keyed by their plan-binding attribute names."""
        out = {}
        for fld, attr in FIELD_TO_ATTRIBUTE.items():
            value = getattr(self, fld)
            if value is not None:
                out[attr] = value
        return out

    def primary_indices(self) -> tuple[float, ...] | None:
        """The vector used for convergence comparisons, if any."""
        for fld in ("s1", "rank_indices", "mu_star"):
            value = getattr(self, fld)
            if value is not None:
                return value
        return None


@dataclass(frozen=True)
class BenchmarkModel:
    """Registered model with optional analytic sensitivity references."""

    id: str
    d_in: int
    d_out: int
    evaluate: callable = field(compare=False)
    input_dists: tuple[tuple, ...] = ()   # ("Uniform", a, b) or ("Normal", mu, sd)
    analytic_s1: tuple[float, ...] | None = None
    analytic_st: tuple[float, ...] | None = None

    def dist_families(self) -> tuple[str, ...]:
        return tuple(d[0] for d in self.input_dists)

    def sample_inputs(self, n: int, rng: np.random.Generator,
                      scheme: str = "MonteCarlo") -> np.ndarray:
        """n x d_in physical-space sample under the model's input laws."""
        if scheme == "LatinHypercube":
            u = _latin_hypercube(n, self.d_in, rng)
        else:
            u = rng.random((n, self.d_in))
        return self.transform(u)

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Map unit-hypercube samples through the inverse CDFs."""
        x = np.empty_like(u)
        for i, dist in enumerate(self.input_dists):
            kind = dist[0]
            if kind == "Uniform":
                a, b = dist[1], dist[2]
                x[:, i] = a + (b - a) * u[:, i]
            elif kind == "Normal":
                mu, sd = dist[1], dist[2]
                x[:, i] = ndtri(np.clip(u[:, i], 1e-12, 1 - 1e-12)) * sd + mu
            else:
                x[:, i] = u[:, i]
        return x


def _latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n x d scrambled Latin hypercube sample in [0, 1).

    The stream equals scipy.stats.qmc.LatinHypercube(d, seed=rng).random(n):
    a child generator spawned from rng jitters every cell, then shuffles
    each dimension's strata in turn.
    """
    child = rng.spawn(1)[0]
    jitter = child.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        child.shuffle(row)
    return (perms.T - jitter) / n


def _midranks(y: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their mean rank, as
    scipy.stats.rankdata(method="average"); all NaN if any value is NaN."""
    if np.isnan(y).any():
        return np.full(len(y), np.nan)
    order = np.argsort(y)
    ys = y[order]
    starts = np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1])))
    counts = np.diff(starts, append=len(y))
    ranks = np.empty(len(y))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _nan_stats(*vectors) -> tuple[int, bool]:
    nan_count = 0
    negvar = False
    for vec in vectors:
        if vec is None:
            continue
        arr = np.asarray(vec, dtype=float)
        nan_count += int(np.isnan(arr).sum())
        negvar = negvar or bool(np.any(arr < -0.05))
    return nan_count, negvar


# ---------------------------------------------------------------------------
# Sobol pick-freeze

def sobol_saltelli(m: BenchmarkModel, n: int, seed: int,
                   scheme: str = "MonteCarlo") -> SAResult:
    """First-order (Saltelli 2010) and total-order (Jansen) Sobol indices.

    Cost is n*(d_in + 2) model evaluations over two independent sample
    matrices plus d_in hybrids.
    """
    if n < 2:
        raise InsufficientSamples("pick-freeze requires n >= 2")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    d = m.d_in
    ua = (_latin_hypercube(n, d, rng)
          if scheme == "LatinHypercube" else rng.random((n, d)))
    ub = (_latin_hypercube(n, d, rng)
          if scheme == "LatinHypercube" else rng.random((n, d)))
    fa = np.asarray(m.evaluate(m.transform(ua)), dtype=float).reshape(n, -1)[:, 0]
    fb = np.asarray(m.evaluate(m.transform(ub)), dtype=float).reshape(n, -1)[:, 0]
    total = np.concatenate([fa, fb])
    var = float(np.var(total, ddof=1))
    warnings = []
    if var < _DEGENERATE_VAR:
        s1 = (float("nan"),) * d
        st = (float("nan"),) * d
        warnings.append("degenerate output variance; indices undefined")
        return SAResult(estimator="Sobol", s1=s1, st=st,
                        evaluations_used=n * (d + 2),
                        runtime_seconds=time.perf_counter() - t0,
                        warnings=tuple(warnings),
                        nan_count=2 * d, negative_variance_flag=False)
    s1_list, st_list = [], []
    for i in range(d):
        uabi = ua.copy()
        uabi[:, i] = ub[:, i]
        fabi = np.asarray(m.evaluate(m.transform(uabi)),
                          dtype=float).reshape(n, -1)[:, 0]
        v_i = float(np.mean(fb * (fabi - fa)))           # Saltelli 2010
        vt_i = float(np.mean((fa - fabi) ** 2) / 2.0)     # Jansen
        s1_list.append(v_i / var)
        st_list.append(vt_i / var)
    nan_count, negvar = _nan_stats(s1_list, st_list)
    if negvar:
        warnings.append("negative variance contribution detected")
    if not 0.0 - 0.1 <= sum(s1_list) <= 1.1:
        warnings.append("first-order indices sum outside tolerance band")
    return SAResult(estimator="Sobol",
                    s1=tuple(s1_list), st=tuple(st_list),
                    evaluations_used=n * (d + 2),
                    runtime_seconds=time.perf_counter() - t0,
                    warnings=tuple(warnings), nan_count=nan_count,
                    negative_variance_flag=negvar)


# ---------------------------------------------------------------------------
# Rank-based estimators

def _xi_statistic(x: np.ndarray, y_ranks: np.ndarray) -> float:
    order = np.argsort(x, kind="stable")
    r = y_ranks[order]
    n = len(r)
    return 1.0 - 3.0 * float(np.abs(np.diff(r)).sum()) / (n * n - 1.0)


def chatterjee(m: BenchmarkModel, n: int, seed: int,
               scheme: str = "MonteCarlo") -> SAResult:
    """Chatterjee's xi for every input from a single n-sample design.

    Ties are broken by midranks; small-sample values may be slightly
    negative and are reported as-is (negativity is a diagnostic signal).
    """
    if n < 10:
        raise InsufficientSamples("chatterjee requires n >= 10")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    x = m.sample_inputs(n, rng, scheme)
    y = np.asarray(m.evaluate(x), dtype=float).reshape(n, -1)[:, 0]
    y_ranks = _midranks(y)
    xi = tuple(_xi_statistic(x[:, i], y_ranks) for i in range(m.d_in))
    nan_count, _ = _nan_stats(xi)
    return SAResult(estimator="Chatterjee", rank_indices=xi,
                    evaluations_used=n,
                    runtime_seconds=time.perf_counter() - t0,
                    nan_count=nan_count)


def cvm(m: BenchmarkModel, n: int, seed: int,
        scheme: str = "MonteCarlo") -> SAResult:
    """Rank-based first-order indices from a single n-sample design.

    Sorting by each input and correlating neighboring outputs estimates
    Var(E[Y|X_i]) without a pick-freeze design, so the whole vector costs n
    evaluations.  Small-sample estimates can be slightly negative and are
    reported as-is.
    """
    if n < 10:
        raise InsufficientSamples("cvm requires n >= 10")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    x = m.sample_inputs(n, rng, scheme)
    y = np.asarray(m.evaluate(x), dtype=float).reshape(n, -1)[:, 0]
    mean = float(np.mean(y))
    var = float(np.var(y, ddof=1))
    warnings = []
    if var < _DEGENERATE_VAR:
        return SAResult(estimator="CVM", s1=(float("nan"),) * m.d_in,
                        evaluations_used=n,
                        runtime_seconds=time.perf_counter() - t0,
                        warnings=("degenerate output variance",),
                        nan_count=m.d_in)
    s1 = []
    for i in range(m.d_in):
        order = np.argsort(x[:, i], kind="stable")
        ys = y[order]
        v_i = float(np.mean(ys[:-1] * ys[1:])) - mean * mean
        s1.append(v_i / var)
    nan_count, negvar = _nan_stats(s1)
    if negvar:
        warnings.append("negative variance contribution detected")
    return SAResult(estimator="CVM", s1=tuple(s1),
                    evaluations_used=n,
                    runtime_seconds=time.perf_counter() - t0,
                    warnings=tuple(warnings), nan_count=nan_count,
                    negative_variance_flag=negvar)


# ---------------------------------------------------------------------------
# Morris screening

def morris(m: BenchmarkModel, trajectories: int, levels: int = 4,
           seed: int = 0) -> SAResult:
    """Morris elementary effects via winding-stairs trajectories.

    Grid step is delta = levels / (2*(levels-1)); cost is
    trajectories*(d_in+1) evaluations.  Each trajectory draws its base
    point, then its step order.  Whole trajectories are evaluated in
    blocks of at most _MORRIS_BLOCK_POINTS points, one model call per
    block; as a model evaluates each row on its own, the result has the
    same bits as evaluating point by point.
    """
    if trajectories < 2:
        raise InsufficientSamples("morris requires >= 2 trajectories")
    if levels < 4 or levels % 2:
        raise InsufficientSamples("levels must be even and >= 4")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    d = m.d_in
    delta = levels / (2.0 * (levels - 1))
    grid = np.arange(levels) / (levels - 1)
    low = grid[grid + delta <= 1.0 + 1e-12]
    warnings = ("single-input screening is pointless",) if d == 1 else ()
    # Row i holds input i's effects in trajectory order, contiguous, so the
    # mean and std below sum in the same order as over a per-input list.
    effects = np.empty((d, trajectories))
    per_block = max(1, _MORRIS_BLOCK_POINTS // (d + 1))
    steps = np.arange(d + 1)[:, None]
    for start in range(0, trajectories, per_block):
        k = min(per_block, trajectories - start)
        base = np.empty((k, d))
        order = np.empty((k, d), dtype=np.intp)
        for t in range(k):
            base[t] = rng.choice(low, size=d)
            order[t] = rng.permutation(d)
        # base + delta <= 1.0 holds in floating point for every base in low
        # (checked for every even levels up to 20 000), so each step is up.
        stepped = base + delta
        # Point j of a trajectory has moved the first j inputs of its order.
        moved = np.argsort(order, axis=1)[:, None, :] < steps
        points = np.where(moved, stepped[:, None, :], base[:, None, :])
        y = np.asarray(m.evaluate(m.transform(points.reshape(-1, d))),
                       dtype=float).reshape(k * (d + 1), -1)[:, 0]
        effects[order, np.arange(start, start + k)[:, None]] = (
            np.diff(y.reshape(k, d + 1), axis=1) / delta)
    mu_star = tuple(float(np.mean(np.abs(e))) for e in effects)
    sigma = tuple(float(np.std(e, ddof=1)) for e in effects)
    nan_count, _ = _nan_stats(mu_star, sigma)
    return SAResult(estimator="Morris", mu_star=mu_star, sigma=sigma,
                    evaluations_used=trajectories * (d + 1),
                    runtime_seconds=time.perf_counter() - t0,
                    warnings=warnings, nan_count=nan_count)


# ---------------------------------------------------------------------------
# Simulated executors (scheme plumbing real, numerics scripted)

def _reference_s1(m: BenchmarkModel, seed: int) -> np.ndarray:
    if m.analytic_s1 is not None:
        return np.asarray(m.analytic_s1, dtype=float)
    # A digest, not hash(): str hashes change with PYTHONHASHSEED.
    digest = hashlib.blake2b(m.id.encode("utf-8"), digest_size=4).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big") % (2 ** 31))
    ref = rng.random(m.d_in)
    return ref / (ref.sum() * 1.5)


def pce_sa_simulated(m: BenchmarkModel, n: int, seed: int) -> SAResult:
    """Scripted spectral-expansion executor: reference indices plus noise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed ^ 0x5CE)
    ref = _reference_s1(m, seed)
    # Truncation bias plus sampling noise: the stub mimics an
    # under-resolved expansion rather than a competitive estimator.
    s1 = np.clip(ref + 0.08 + rng.normal(0.0, 0.04, m.d_in), 0.0, 1.0)
    st = np.clip(s1 + np.abs(rng.normal(0.02, 0.02, m.d_in)), 0.0, 1.0)
    return SAResult(estimator="PCE_SA", s1=tuple(map(float, s1)),
                    st=tuple(map(float, st)), evaluations_used=n,
                    runtime_seconds=time.perf_counter() - t0,
                    warnings=("surrogate truncation error not estimated",))


def generalized_sobol_simulated(m: BenchmarkModel, n: int, seed: int) -> SAResult:
    """Scripted multi-output aggregate executor."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed ^ 0x6E5)
    ref = _reference_s1(m, seed)
    s1 = np.clip(ref + rng.normal(0.0, 0.04, m.d_in), 0.0, 1.0)
    st = np.clip(s1 + np.abs(rng.normal(0.03, 0.02, m.d_in)), 0.0, 1.0)
    return SAResult(estimator="Generalized_Sobol", s1=tuple(map(float, s1)),
                    st=tuple(map(float, st)),
                    evaluations_used=n * (m.d_in + 2),
                    runtime_seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Benchmark catalog

def g_function(a) -> BenchmarkModel:
    """Sobol G-function with analytic first- and total-order indices."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("g-function coefficients must be nonnegative")
    d = len(a)

    def evaluate(x, _a=a):
        return np.prod((np.abs(4.0 * x - 2.0) + _a) / (1.0 + _a), axis=1)

    v_i = (1.0 / 3.0) / (1.0 + a) ** 2
    v_total = np.prod(1.0 + v_i) - 1.0
    s1 = v_i / v_total
    st = tuple(float(v_i[i] * np.prod(np.delete(1.0 + v_i, i)) / v_total)
               for i in range(d))
    return BenchmarkModel(id=f"g_function_{d}d", d_in=d, d_out=1,
                          evaluate=evaluate,
                          input_dists=(("Uniform", 0.0, 1.0),) * d,
                          analytic_s1=tuple(map(float, s1)), analytic_st=st)


# a-vectors for the shipped G-function benchmarks.
G15_A = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 15.0,
         20.0, 30.0, 50.0, 80.0, 100.0)
G8_A = (0.0, 1.0, 4.5, 9.0, 99.0, 99.0, 99.0, 99.0)


def _ishigami() -> BenchmarkModel:
    a, b = 7.0, 0.1

    def evaluate(x):
        return (np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2
                + b * x[:, 2] ** 4 * np.sin(x[:, 0]))

    # Closed-form variance decomposition (verified against an MC oracle
    # before freezing).
    v1 = 0.5 * (1.0 + b * math.pi ** 4 / 5.0) ** 2
    v2 = a ** 2 / 8.0
    v13 = b ** 2 * math.pi ** 8 * (1.0 / 18.0 - 1.0 / 50.0)
    v = v1 + v2 + v13
    s1 = (v1 / v, v2 / v, 0.0)
    st = ((v1 + v13) / v, v2 / v, v13 / v)
    bound = ("Uniform", -math.pi, math.pi)
    return BenchmarkModel(id="ishigami", d_in=3, d_out=1, evaluate=evaluate,
                          input_dists=(bound,) * 3,
                          analytic_s1=s1, analytic_st=st)


def _cantilever_beam() -> BenchmarkModel:
    def evaluate(x):
        p, length, e, inertia = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        return p * length ** 3 / (3.0 * e * inertia)

    return BenchmarkModel(
        id="cantilever_beam", d_in=4, d_out=1, evaluate=evaluate,
        input_dists=(("Normal", 1000.0, 100.0),   # tip load P
                     ("Normal", 2.0, 0.02),       # length L
                     ("Normal", 2.1e11, 2.1e10),  # Young's modulus E
                     ("Normal", 1.0e-6, 1.0e-7)))  # second moment I


def _structural_eq3() -> BenchmarkModel:
    def evaluate(x):
        x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        return x1 ** 3 + x2 * x3 + np.exp(0.1 * x4) - x1 * x4

    return BenchmarkModel(
        id="structural_eq3", d_in=4, d_out=1, evaluate=evaluate,
        input_dists=(("Uniform", -2.0, 2.0), ("Uniform", 0.0, 3.0),
                     ("Uniform", -1.0, 1.0), ("Uniform", -1.0, 1.0)))


def _thermal_stub() -> BenchmarkModel:
    d = 20
    weights = 1.0 / (1.0 + np.arange(d, dtype=float))

    def evaluate(x, _w=weights):
        return np.prod(1.0 + _w * (x - 0.5), axis=1)

    return BenchmarkModel(id="thermal_stub", d_in=d, d_out=1,
                          evaluate=evaluate,
                          input_dists=(("Uniform", 0.0, 1.0),) * d)


_CATALOG = None


def benchmark_catalog() -> dict[str, BenchmarkModel]:
    global _CATALOG
    if _CATALOG is None:
        models = [g_function(G15_A), g_function(G8_A),
                  _ishigami(), _cantilever_beam(), _structural_eq3(),
                  _thermal_stub()]
        _CATALOG = {m.id: m for m in models}
    return dict(_CATALOG)


def get_model(model_id: str) -> BenchmarkModel:
    catalog = benchmark_catalog()
    if model_id not in catalog:
        raise UnknownModel(f"unknown benchmark model {model_id!r}")
    return catalog[model_id]


_EXECUTORS = {
    "Sobol": lambda m, n, seed, scheme: sobol_saltelli(m, n, seed, scheme),
    "Chatterjee": lambda m, n, seed, scheme: chatterjee(m, n, seed, scheme),
    "CVM": lambda m, n, seed, scheme: cvm(m, n, seed, scheme),
    "Morris": lambda m, n, seed, scheme: morris(
        m, trajectories=max(2, n), seed=seed),
    "PCE_SA": lambda m, n, seed, scheme: pce_sa_simulated(m, n, seed),
    "Generalized_Sobol": lambda m, n, seed, scheme:
        generalized_sobol_simulated(m, n, seed),
}


def run_estimator(estimator: str, m: BenchmarkModel, n: int, seed: int,
                  scheme: str = "MonteCarlo") -> SAResult:
    """Dispatch to the estimator's executor; n is the per-loop sample size
    (trajectory count for Morris)."""
    if estimator not in _EXECUTORS:
        raise UnknownModel(f"no executor for estimator {estimator!r}")
    return _EXECUTORS[estimator](m, n, seed, scheme)
