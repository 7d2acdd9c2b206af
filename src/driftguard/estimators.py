"""Numerical sensitivity-analysis backends and benchmark models.

Real estimators: Sobol pick-freeze (Saltelli first-order, Jansen total),
Chatterjee rank correlation, a Cramer-von Mises rank variant, and Morris
winding-stairs screening.  Spectral (PCE_SA) and multi-output
(Generalized_Sobol) executors are simulated: they return analytic reference
indices perturbed by seeded noise, while their scheme plumbing stays real.
Every run returns an ``SAResult``, whose index vectors carry the one name
that plans, texts and the catalog use for them.  A session keeps one
``Design`` per sampling scheme and level, so a real estimator evaluates only
the rows its design lacks, and ``evaluations_used`` counts those.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads these on first use: np.random.default_rng, and np.ma through
# np.quantile.  Loading them with the package keeps that import out of the
# first session of a process.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

# glibc's malloc maps each block above its mmap threshold (128 KiB at start)
# afresh, page faults included, and raises the threshold to the size of the
# largest such block freed (mallopt(3)).  Freeing one 8 MiB block up front
# lets the estimators' numpy temporaries reuse heap pages from the start.
# An archive_chain benchmark pass forked right after import took about
# 17 000 minor page faults without it and 3 000 with it (x86-64, glibc).
np.empty(1 << 20)

from .errors import InsufficientSamples, UnknownModel

_DEGENERATE_VAR = 1e-14

# Most points morris() passes to one model call.  Whole trajectories are
# evaluated together, so memory is bounded by the block and not by the
# trajectory count.
_MORRIS_BLOCK_POINTS = 4096

# Most Normal draws transform() passes to one _ndtri call.  _ndtri holds
# about a dozen temporaries of its input's size, so memory is bounded by
# the block and not by the sample size.
_NDTRI_BLOCK = 8192

@dataclass(frozen=True)
class SAResult:
    """Observation produced by one estimator run.  Each index vector is
    named as plans bind it and as its catalog row lists it."""

    estimator: str
    first_order_indices: tuple[float, ...] | None = None
    total_order_indices: tuple[float, ...] | None = None
    chatterjee_indices: tuple[float, ...] | None = None
    mu_star: tuple[float, ...] | None = None
    sigma_effects: tuple[float, ...] | None = None
    evaluations_used: int = 0
    warnings: tuple[str, ...] = ()
    nan_count: int = 0
    negative_variance_flag: bool = False

    def attributes(self) -> dict[str, tuple[float, ...]]:
        """The index vectors it holds, by name, in field order."""
        return {name: value for name, value in (
            ("first_order_indices", self.first_order_indices),
            ("total_order_indices", self.total_order_indices),
            ("chatterjee_indices", self.chatterjee_indices),
            ("mu_star", self.mu_star),
            ("sigma_effects", self.sigma_effects)) if value is not None}

    def primary_indices(self) -> tuple[float, ...] | None:
        """The vector used for convergence comparisons, if any."""
        for value in (self.first_order_indices, self.chatterjee_indices,
                      self.mu_star):
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
                      scheme: str) -> np.ndarray:
        """n x d_in physical-space sample under the model's input laws."""
        if scheme == "LatinHypercube":
            u = _latin_hypercube(n, self.d_in, rng)
        else:
            u = rng.random((n, self.d_in))
        return self.transform(u)

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Map unit-hypercube samples through the inverse CDFs.

        Each output column depends only on its own input column.  Normal
        columns are clipped to [1e-12, 1 - 1e-12] and go through _ndtri
        together, _NDTRI_BLOCK values per call, scaled by their sd and
        shifted by their mean.
        """
        x = np.empty_like(u)
        normal = []
        for i, dist in enumerate(self.input_dists):
            kind = dist[0]
            if kind == "Uniform":
                a, b = dist[1], dist[2]
                x[:, i] = a + (b - a) * u[:, i]
            elif kind == "Normal":
                normal.append(i)
            else:
                x[:, i] = u[:, i]
        if normal:
            mu, sd = np.array([self.input_dists[i][1:] for i in normal]).T
            rows = max(1, _NDTRI_BLOCK // len(normal))
            for r in range(0, len(u), rows):
                block = np.clip(u[r:r + rows, normal], 1e-12, 1 - 1e-12)
                x[r:r + rows, normal] = _ndtri(block) * sd + mu
        return x


# Cephes ndtri (Moshier), the code scipy.special.ndtri runs: the same
# rational approximations, branch points and operation order, so the same
# bits.  Its third branch, for y < exp(-32), is left out: transform's clip
# keeps y >= 1e-12.
_EXP_M2 = 0.13533528323661269189   # exp(-2)
_S2PI = 2.50662827463100050242     # sqrt(2 pi)
# Coefficients from the highest power down; Q polynomials are monic.
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule in Cephes's order; a leading 1.0 gives p1evl's bits."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _libm_log(v: np.ndarray) -> np.ndarray:
    """The C library's log, elementwise.

    np.log on floats runs numpy's own SIMD log, which differs from libm in
    about one value in a few thousand.  The complex log goes to the C library's clog,
    which returns log(hypot(v, 0)) = log(v) whenever |v| lies outside
    [0.5, 2).  _ndtri's tail passes it y <= exp(-2) and x >= 2 only.
    """
    c = v.astype(complex)
    np.log(c, out=c)
    return c.real.copy()


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse standard Normal CDF for p in [1e-12, 1 - 1e-12]."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p).ravel()
    # Central branch, |y - 0.5| < 0.5 - exp(-2), computed everywhere and
    # overwritten on the tails below.
    yc = y - 0.5
    y2 = yc * yc
    x = y2 * _polevl(y2, _P0)
    x /= _polevl(y2, _Q0)
    x *= yc
    x += yc
    x *= _S2PI
    # Tail branch, y <= exp(-2): t = sqrt(-2 log y) lies in [2, 7.44].
    tail = np.flatnonzero(y <= _EXP_M2)
    t = _libm_log(y[tail])
    t *= -2.0
    np.sqrt(t, out=t)
    z = 1.0 / t
    x0 = _libm_log(t)
    x0 /= t
    np.subtract(t, x0, out=x0)
    x1 = z * _polevl(z, _P1)
    x1 /= _polevl(z, _Q1)
    x0 -= x1
    x[tail] = np.where(upper.ravel()[tail], x0, -x0)
    return x.reshape(p.shape)


def _latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n x d scrambled Latin hypercube sample in [0, 1).

    The stream equals scipy.stats.qmc.LatinHypercube(d, seed=rng).random(n):
    a child generator spawned from rng jitters every cell, then shuffles
    each dimension's strata in turn.
    """
    child = rng.spawn(1)[0]
    jitter = child.uniform(size=(n, d))
    perms = child.permuted(np.tile(np.arange(1, n + 1), (d, 1)), axis=1)
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


def _output(m: BenchmarkModel, x: np.ndarray) -> np.ndarray:
    """The model's first output at each row of ``x``."""
    return np.asarray(m.evaluate(x), dtype=float).reshape(len(x), -1)[:, 0]


@dataclass
class Design:
    """A session's sample for one sampling scheme and level.  The first run
    opens its streams from that run's seed and draws what a direct call
    draws; a later run at n reads the first n rows, and draws and evaluates
    only those the design lacks by continuing the streams.  Each array
    holds one sample per position of its last axis."""

    streams: object = None
    rows: tuple = ()

    def take(self, n: int, seed: int, draw,
             open_streams=np.random.default_rng) -> tuple[tuple, int]:
        """The first n rows, and how many of them this call evaluated."""
        held = self.rows[0].shape[-1] if self.rows else 0
        self.streams = self.streams or open_streams(seed)
        if n > held:
            new = draw(self.streams, n - held)
            self.rows = tuple(np.concatenate(pair, axis=-1)
                              for pair in zip(self.rows, new)) or new
        return tuple(r[..., :n] for r in self.rows), max(0, n - held)


# ---------------------------------------------------------------------------
# Sobol pick-freeze

def sobol_saltelli(m: BenchmarkModel, n: int, seed: int, scheme: str,
                   design: Design | None = None) -> SAResult:
    """First-order (Saltelli 2010) and total-order (Jansen) Sobol indices.

    Cost is n*(d_in + 2) model evaluations over two independent sample
    matrices plus d_in hybrids.  A design's next block draws xa and then
    xb from its one stream, as its first block did.
    """
    if n < 2:
        raise InsufficientSamples("pick-freeze requires n >= 2")
    d = m.d_in

    def draw(rng, k):
        # transform maps each column on its own, so a hybrid of xa and xb
        # has the bits of the transformed unit-space hybrid.
        xa = m.sample_inputs(k, rng, scheme)
        xb = m.sample_inputs(k, rng, scheme)
        f = np.empty((d + 2, k))
        f[0], f[1] = _output(m, xa), _output(m, xb)
        for i in range(d):
            xabi = xa.copy()
            xabi[:, i] = xb[:, i]
            f[2 + i] = _output(m, xabi)
        return (f,)
    (f,), evaluated = (design or Design()).take(n, seed, draw)
    fa, fb = f[:2]
    var = float(np.var(np.concatenate([fa, fb]), ddof=1))
    warnings = []
    if var < _DEGENERATE_VAR:
        undefined = (float("nan"),) * d
        warnings.append("degenerate output variance; indices undefined")
        return SAResult(estimator="Sobol", first_order_indices=undefined,
                        total_order_indices=undefined,
                        evaluations_used=evaluated * (d + 2),
                        warnings=tuple(warnings),
                        nan_count=2 * d, negative_variance_flag=False)
    s1_list, st_list = [], []
    for fabi in f[2:]:
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
                    first_order_indices=tuple(s1_list),
                    total_order_indices=tuple(st_list),
                    evaluations_used=evaluated * (d + 2),
                    warnings=tuple(warnings), nan_count=nan_count,
                    negative_variance_flag=negvar)


# ---------------------------------------------------------------------------
# Rank-based estimators

def _stable_order(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")``, by the faster default sort when no
    two values tie and none is NaN, since the order is then unique."""
    order = np.argsort(x)
    xs = x[order]
    if np.isnan(xs[-1:]).any() or (xs[1:] == xs[:-1]).any():
        return np.argsort(x, kind="stable")
    return order


def _xi_statistic(x: np.ndarray, y_ranks: np.ndarray) -> float:
    order = _stable_order(x)
    r = y_ranks[order]
    n = len(r)
    return 1.0 - 3.0 * float(np.abs(np.diff(r)).sum()) / (n * n - 1.0)


def _single_loop(m: BenchmarkModel, n: int, seed: int, scheme: str,
                 design: Design | None) -> tuple[tuple, int]:
    """The first n rows of the single-loop sample that Chatterjee and CVM
    share, (each input's values, the outputs), and the rows evaluated."""
    def draw(rng, k):
        x = m.sample_inputs(k, rng, scheme)
        return x.T, _output(m, x)
    return (design or Design()).take(n, seed, draw)


def chatterjee(m: BenchmarkModel, n: int, seed: int, scheme: str,
               design: Design | None = None) -> SAResult:
    """Chatterjee's xi for every input from a single n-sample design.

    Ties are broken by midranks; small-sample values may be slightly
    negative and are reported as-is (negativity is a diagnostic signal).
    """
    if n < 10:
        raise InsufficientSamples("chatterjee requires n >= 10")
    (x, y), evaluated = _single_loop(m, n, seed, scheme, design)
    y_ranks = _midranks(y)
    xi = tuple(_xi_statistic(column, y_ranks) for column in x)
    nan_count, _ = _nan_stats(xi)
    return SAResult(estimator="Chatterjee", chatterjee_indices=xi,
                    evaluations_used=evaluated,
                    nan_count=nan_count)


def cvm(m: BenchmarkModel, n: int, seed: int, scheme: str,
        design: Design | None = None) -> SAResult:
    """Rank-based first-order indices from a single n-sample design.

    Sorting by each input and correlating neighboring outputs estimates
    Var(E[Y|X_i]) without a pick-freeze design, so the whole vector costs n
    evaluations.  Small-sample estimates can be slightly negative and are
    reported as-is.
    """
    if n < 10:
        raise InsufficientSamples("cvm requires n >= 10")
    (x, y), evaluated = _single_loop(m, n, seed, scheme, design)
    mean = float(np.mean(y))
    var = float(np.var(y, ddof=1))
    warnings = []
    if var < _DEGENERATE_VAR:
        return SAResult(estimator="CVM",
                        first_order_indices=(float("nan"),) * m.d_in,
                        evaluations_used=evaluated,
                        warnings=("degenerate output variance",),
                        nan_count=m.d_in)
    s1 = []
    for column in x:
        ys = y[_stable_order(column)]
        v_i = float(np.mean(ys[:-1] * ys[1:])) - mean * mean
        s1.append(v_i / var)
    nan_count, negvar = _nan_stats(s1)
    if negvar:
        warnings.append("negative variance contribution detected")
    return SAResult(estimator="CVM", first_order_indices=tuple(s1),
                    evaluations_used=evaluated,
                    warnings=tuple(warnings), nan_count=nan_count,
                    negative_variance_flag=negvar)


# ---------------------------------------------------------------------------
# Morris screening

def morris(m: BenchmarkModel, trajectories: int, seed: int,
           design: Design | None = None) -> SAResult:
    """Morris elementary effects via winding-stairs trajectories on a
    4-level grid, step delta = 2/3; cost is trajectories*(d_in+1)
    evaluations.

    The seed spawns two streams: one draws every base point, the other
    every step order, each in trajectory order.  Whole trajectories are
    evaluated in blocks of at most _MORRIS_BLOCK_POINTS points, one model
    call per block; as each stream is drawn block after block and a model
    evaluates each row on its own, the result does not depend on the block
    size and has the same bits as evaluating point by point.  For the same
    reason a design extends by continuing both streams.
    """
    if trajectories < 2:
        raise InsufficientSamples("morris requires >= 2 trajectories")
    d = m.d_in
    # The grid is 0, 1/3, 2/3, 1; a base is one of the two levels a step of
    # delta stays on, and base + delta <= 1.0 holds exactly, so each step is up.
    delta = 2 / 3
    low = np.array([0.0, 1 / 3])
    warnings = ("single-input screening is pointless",) if d == 1 else ()
    per_block = max(1, _MORRIS_BLOCK_POINTS // (d + 1))
    steps = np.arange(d + 1)[:, None]

    def draw(streams, count):
        # Row i holds input i's effects in trajectory order, contiguous, so
        # the mean and std below sum in the order of a per-input list.
        base_rng, order_rng = streams
        effects = np.empty((d, count))
        for start in range(0, count, per_block):
            k = min(per_block, count - start)
            base = low[base_rng.integers(low.size, size=(k, d))]
            order = order_rng.permuted(np.tile(np.arange(d), (k, 1)), axis=1)
            stepped = base + delta
            # Point j has moved the first j inputs of its trajectory's order.
            moved = np.argsort(order, axis=1)[:, None, :] < steps
            points = np.where(moved, stepped[:, None, :], base[:, None, :])
            y = _output(m, m.transform(points.reshape(-1, d)))
            effects[order, np.arange(start, start + k)[:, None]] = (
                np.diff(y.reshape(k, d + 1), axis=1) / delta)
        return (effects,)
    (effects,), evaluated = (design or Design()).take(
        trajectories, seed, draw, lambda s: np.random.default_rng(s).spawn(2))
    mu_star = tuple(float(np.mean(np.abs(e))) for e in effects)
    sigma = tuple(float(np.std(e, ddof=1)) for e in effects)
    nan_count, _ = _nan_stats(mu_star, sigma)
    return SAResult(estimator="Morris", mu_star=mu_star, sigma_effects=sigma,
                    evaluations_used=evaluated * (d + 1),
                    warnings=warnings, nan_count=nan_count)


# ---------------------------------------------------------------------------
# Simulated executors (scheme plumbing real, numerics scripted)

def _reference_s1(m: BenchmarkModel) -> np.ndarray:
    if m.analytic_s1 is not None:
        return np.asarray(m.analytic_s1, dtype=float)
    # A digest, not hash(): str hashes change with PYTHONHASHSEED.
    digest = hashlib.blake2b(m.id.encode("utf-8"), digest_size=4).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big") % (2 ** 31))
    ref = rng.random(m.d_in)
    return ref / (ref.sum() * 1.5)


def pce_sa_simulated(m: BenchmarkModel, n: int, seed: int) -> SAResult:
    """Scripted spectral-expansion executor: reference indices plus noise."""
    rng = np.random.default_rng(seed ^ 0x5CE)
    ref = _reference_s1(m)
    # Truncation bias plus sampling noise: the stub mimics an
    # under-resolved expansion rather than a competitive estimator.
    s1 = np.clip(ref + 0.08 + rng.normal(0.0, 0.04, m.d_in), 0.0, 1.0)
    st = np.clip(s1 + np.abs(rng.normal(0.02, 0.02, m.d_in)), 0.0, 1.0)
    return SAResult(estimator="PCE_SA",
                    first_order_indices=tuple(map(float, s1)),
                    total_order_indices=tuple(map(float, st)),
                    evaluations_used=n,
                    warnings=("surrogate truncation error not estimated",))


def generalized_sobol_simulated(m: BenchmarkModel, n: int, seed: int) -> SAResult:
    """Scripted multi-output aggregate executor."""
    rng = np.random.default_rng(seed ^ 0x6E5)
    ref = _reference_s1(m)
    s1 = np.clip(ref + rng.normal(0.0, 0.04, m.d_in), 0.0, 1.0)
    st = np.clip(s1 + np.abs(rng.normal(0.03, 0.02, m.d_in)), 0.0, 1.0)
    return SAResult(estimator="Generalized_Sobol",
                    first_order_indices=tuple(map(float, s1)),
                    total_order_indices=tuple(map(float, st)),
                    evaluations_used=n * (m.d_in + 2))


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
