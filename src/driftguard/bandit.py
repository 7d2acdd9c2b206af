"""Contextual bandit policy: one shared Bayesian linear reward model over
(context, action) features, Thompson-sampled selection, a decaying
epsilon-greedy overlay, novelty down-weighting, and archive warm-starts.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import catalog
from .action_space import ActionTuple
from .errors import DimensionError, InvalidReward
from .schemes import DIST_FAMILIES, DiagnosticScheme, MethodScheme, \
    ProblemScheme, build_method_scheme

_PRIOR_PRECISION = 1.0      # ridge lambda on the linear model
_NOISE_VARIANCE = 25.0      # rewards live on 0-100
_REWARD_CENTER = 50.0       # rewards centered before absorption
_NOVELTY_RHO = 5.0          # penalty per prior pick of the same estimator
_BLOCK_BETA = 1000.0        # effectively excludes a blocked estimator
_EPS_GAMMA = 0.6            # decay of the exploration schedule
_EPS_FLOOR = 0.02
_EPS_BASE = {"exploit": 0.1, "neutral": 0.5, "explore_max": 1.0}
_SAFETY_FACTOR = 2.0        # scales n_min in the default n_samples
_WARM_WEIGHT = {"close": 1.0, "weak": 0.3}


def feature_dim() -> int:
    onehot = len(catalog.SAMPLING_LEVELS) + len(catalog.SA_ESTIMATORS)
    return 1 + 7 + onehot + 2 * len(catalog.SA_ESTIMATORS)


def encode_features(ps: ProblemScheme, a: ActionTuple) -> tuple[float, ...]:
    """Deterministic feature map; problem block scaled to [0, 1]."""
    return tuple(_feature_array(ps, a).tolist())


@functools.lru_cache(maxsize=1024)
def _feature_array(ps: ProblemScheme, a: ActionTuple) -> np.ndarray:
    """encode_features as a read-only array, computed once per (problem,
    action): both are frozen, and selection scores every candidate on every
    call."""
    scaled_d, scaled_out, scaled_logn = ps.scaled_sizes
    context = [scaled_d, scaled_out, scaled_logn, min(1.0, ps.epsilon)]
    mode = ps.dist_family_mode
    context.extend(1.0 if mode == m else 0.0 for m in DIST_FAMILIES)

    onehot = [float(a.sampling == s) for s in catalog.SAMPLING_LEVELS]
    onehot += [float(a.estimator == e) for e in catalog.SA_ESTIMATORS]

    interaction = []
    for est in catalog.SA_ESTIMATORS:
        hit = 1.0 if a.estimator == est else 0.0
        interaction.extend((hit * scaled_d, hit * scaled_logn))

    phi = np.array([1.0] + context + onehot + interaction, dtype=float)
    phi.flags.writeable = False
    return phi


def exploration_schedule(n: int, mode: str) -> float:
    """Decaying epsilon: base(mode) * gamma^(n-1), floored."""
    return max(_EPS_FLOOR, _EPS_BASE[mode] * _EPS_GAMMA ** (n - 1))


def default_n_samples(estimator: str, ps: ProblemScheme) -> int:
    """Per-loop sample size targeting min(budget, max(safety*n_min, budget/2))
    total evaluations."""
    info = catalog.estimator_info(estimator)
    n_min = info.n_min(ps.d_in)
    target = min(ps.n_budget,
                 max(int(_SAFETY_FACTOR * n_min), ps.n_budget // 2))
    return max(2, target // info.cost_multiplier(ps.d_in))


class PolicyState:
    """Posterior over the shared linear reward model plus selection history.

    Single-writer: only the session orchestrator mutates it.
    """

    def __init__(self, exploration_mode: str = "explore_max"):
        self.dim = feature_dim()
        self.precision = np.eye(self.dim) * _PRIOR_PRECISION
        self.b_vector = np.zeros(self.dim)
        self.iteration = 0
        self.estimator_counts: dict[str, int] = {}
        self.exploration_mode = exploration_mode

    # -- posterior -----------------------------------------------------

    @property
    def posterior_mean(self) -> np.ndarray:
        return np.linalg.solve(self.precision, self.b_vector)

    def cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.precision)

    def sample_weights(self, rng: np.random.Generator) -> np.ndarray:
        """One Thompson draw: w ~ N(mean, precision^-1)."""
        chol = self.cholesky()
        z = rng.standard_normal(self.dim)
        return self.posterior_mean + np.linalg.solve(chol.T, z)

    def _absorb(self, phi: np.ndarray, reward: float, weight: float) -> None:
        # Rewards are modeled as deviations from the mid-scale center: a
        # unit-variance prior cannot represent 0-100 levels directly, and
        # uncentered updates let the shared features absorb the whole level,
        # collapsing the posterior spread that drives exploration.
        deviation = reward - _REWARD_CENTER
        self.precision += weight * np.outer(phi, phi) / _NOISE_VARIANCE
        self.b_vector += weight * phi * deviation / _NOISE_VARIANCE

    def update(self, phi: tuple[float, ...], reward: float,
               estimator: str | None = None) -> None:
        """Rank-1 Bayesian update; increments iteration and arm count."""
        if not math.isfinite(reward):
            raise InvalidReward(f"non-finite reward {reward!r}")
        self._absorb(np.asarray(phi, dtype=float), reward, 1.0)
        self.iteration += 1
        if estimator:
            self.estimator_counts[estimator] = \
                self.estimator_counts.get(estimator, 0) + 1
        self.cholesky()  # positive-definiteness guard

    def warm_start(self, per_arm_stats, match: str) -> None:
        """Replay an archive entry's ``(estimator, ArmStats)`` pairs as
        weighted pseudo-observations.  The exploration mode stays as the
        caller set it.
        """
        if match not in ("close", "weak"):
            raise ValueError(f"warm_start requires close/weak, got {match!r}")
        weight = _WARM_WEIGHT[match]
        for _, stats in per_arm_stats:
            self._absorb(np.asarray(stats.phi, dtype=float),
                         stats.mean_reward, weight * stats.count)

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict:
        return {"precision": self.precision.tolist(),
                "b_vector": self.b_vector.tolist(),
                "iteration": self.iteration,
                "estimator_counts": dict(self.estimator_counts)}

    @classmethod
    def from_snapshot(cls, data: dict,
                      exploration_mode: str = "explore_max") -> "PolicyState":
        """The policy ``data`` holds, in ``exploration_mode``; raises
        DimensionError or ValueError (LinAlgError is one) on a bad snapshot."""
        st = cls(exploration_mode)
        st.precision = np.asarray(data["precision"], dtype=float)
        st.b_vector = np.asarray(data["b_vector"], dtype=float)
        if st.precision.shape != (st.dim, st.dim) \
                or st.b_vector.shape != (st.dim,):
            raise DimensionError(f"policy snapshot of another dimension "
                                 f"than the policy's {st.dim}")
        if not np.isfinite(np.append(st.precision, st.b_vector)).all():
            raise ValueError("policy snapshot holds a non-finite value")
        st.cholesky()
        st.iteration = data["iteration"]
        st.estimator_counts = dict(data["estimator_counts"])
        # Counts are ints; a bool is an int to Python but no count.
        if type(st.iteration) is not int or st.iteration < 0 or any(
                type(c) is not int or c < 1
                for c in st.estimator_counts.values()):
            raise ValueError("policy snapshot holds a bad count")
        return st


def select_action(st: PolicyState, ps: ProblemScheme,
                  feasible: list[ActionTuple],
                  diag: DiagnosticScheme | None = None,
                  novelty_warning: bool = False,
                  rng_seed: int = 0,
                  prev: MethodScheme | None = None) -> MethodScheme:
    """The method scheme of one Thompson-sampled pick among ``feasible``.

    Scores are posterior-sample dot-products minus the novelty penalty
    (rho * prior count of the action's estimator, only under a novelty
    warning) and the block penalty for ``prev``'s estimator when ``diag``,
    the diagnosis of that previous scheme, blocks it.  A decaying
    epsilon-greedy overlay replaces the argmax with a uniform pick that
    ignores both penalties.  A prescribed estimator restricts the candidates,
    and a prescribed sample size beats the one carried over from ``prev``;
    either is clamped to the estimator's floor and the budget's cap.
    """
    rng = np.random.default_rng(rng_seed)

    candidates = list(feasible)
    if diag is not None and diag.prescribed_estimator:
        restricted = [a for a in candidates
                      if a.estimator == diag.prescribed_estimator]
        if restricted:
            candidates = restricted

    blocked = prev.estimator if (prev is not None and diag is not None
                                 and diag.block_action) else ""

    weights = st.sample_weights(rng)
    scored = []
    for a in candidates:
        score = float(weights @ _feature_array(ps, a))
        if novelty_warning:
            score -= _NOVELTY_RHO * st.estimator_counts.get(a.estimator, 0)
        if blocked and a.estimator == blocked:
            score -= _BLOCK_BETA
        scored.append((a, score))

    eps = exploration_schedule(st.iteration + 1, st.exploration_mode)
    if rng.random() < eps:
        action = candidates[int(rng.integers(len(candidates)))]
    else:
        action = max(scored, key=lambda pair: pair[1])[0]

    # Sample size: prescribed, else carried over when the estimator is
    # unchanged, else the default.
    if diag is not None and diag.prescribed_n_samples is not None:
        n_samples = diag.prescribed_n_samples
    elif prev is not None and prev.estimator == action.estimator:
        n_samples = prev.n_samples
    else:
        n_samples = default_n_samples(action.estimator, ps)
    # A size prescribed for a different estimator, or an escalating one,
    # may leave this one's range, so clamp it between the per-loop floor
    # and the largest size the budget pays for.
    info = catalog.estimator_info(action.estimator)
    n_samples = min(max(n_samples, info.min_samples(ps.d_in)),
                    info.max_samples(ps.d_in, ps.n_budget))
    return build_method_scheme(action, ps, n_samples)
