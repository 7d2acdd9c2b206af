"""Method catalog for sensitivity analysis (SA), the only task driftguard
runs: estimator metadata, the action dimension catalog and the feasibility
predicates.

Feasibility predicates are data (id + closure over the context) registered in a
table, so new methods extend the filter without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import UnknownEstimator


@dataclass(frozen=True)
class EstimatorInfo:
    id: str
    index_type: str                 # variance_based | rank_based | screening
    produces: tuple[str, ...]
    sampling_scheme: str
    n_min_formula: str              # symbolic id, rendered with d_in
    cost_kind: str                  # pick_freeze | trajectories | single_loop
    library_class: str
    simulated: bool = False
    keywords: str = ""              # vocabulary used by the text renderers

    def n_min(self, d_in: int) -> int:
        return _N_MIN_RULES[self.n_min_formula](d_in)

    def cost(self, n_samples: int, d_in: int) -> int:
        if self.cost_kind == "pick_freeze":
            return n_samples * (d_in + 2)
        if self.cost_kind == "trajectories":
            return n_samples * (d_in + 1)
        return n_samples

    def cost_multiplier(self, d_in: int) -> int:
        if self.cost_kind == "pick_freeze":
            return d_in + 2
        if self.cost_kind == "trajectories":
            return d_in + 1
        return 1


_N_MIN_RULES: dict[str, Callable[[int], int]] = {
    "500 * (d_in + 2)": lambda d: 500 * (d + 2),
    "500 * d_in": lambda d: 500 * d,
    "10 * (d_in + 1)": lambda d: 10 * (d + 1),
    "10": lambda d: 10,
}


SA_ESTIMATORS: dict[str, EstimatorInfo] = {
    e.id: e
    for e in [
        EstimatorInfo(
            id="Sobol", index_type="variance_based",
            produces=("s1", "st"), sampling_scheme="pick-freeze",
            n_min_formula="500 * (d_in + 2)", cost_kind="pick_freeze",
            library_class="SobolSensitivity",
            keywords=("sobol variance decomposition saltelli pick freeze "
                      "first order total order indices jansen"),
        ),
        EstimatorInfo(
            id="Chatterjee", index_type="rank_based",
            produces=("rank_indices",), sampling_scheme="single-loop",
            n_min_formula="10", cost_kind="single_loop",
            library_class="ChatterjeeSensitivity",
            keywords=("chatterjee rank correlation coefficient moment free "
                      "xi nonparametric distribution free"),
        ),
        EstimatorInfo(
            id="CVM", index_type="rank_based",
            produces=("s1",), sampling_scheme="single-loop",
            n_min_formula="500 * (d_in + 2)", cost_kind="single_loop",
            library_class="CramerVonMisesSensitivity",
            keywords=("cramer von mises rank statistic moment free "
                      "empirical distribution indices"),
        ),
        EstimatorInfo(
            id="Morris", index_type="screening",
            produces=("mu_star", "sigma"), sampling_scheme="trajectories",
            n_min_formula="10 * (d_in + 1)", cost_kind="trajectories",
            library_class="MorrisSensitivity",
            keywords=("morris elementary effects screening trajectories "
                      "mu star sigma winding stairs grid levels"),
        ),
        EstimatorInfo(
            id="PCE_SA", index_type="variance_based",
            produces=("s1", "st"), sampling_scheme="regression",
            n_min_formula="500 * d_in", cost_kind="single_loop",
            library_class="PCESensitivity", simulated=True,
            keywords=("polynomial chaos expansion surrogate spectral "
                      "coefficients regression sobol analytic"),
        ),
        EstimatorInfo(
            id="Generalized_Sobol", index_type="variance_based",
            produces=("s1", "st"), sampling_scheme="pick-freeze",
            n_min_formula="500 * (d_in + 2)", cost_kind="pick_freeze",
            library_class="GeneralizedSobolSensitivity", simulated=True,
            keywords=("generalized sobol vector valued multi output "
                      "aggregated variance contributions"),
        ),
    ]
}


def estimator_info(estimator_id: str) -> EstimatorInfo:
    info = SA_ESTIMATORS.get(estimator_id)
    if info is None:
        raise UnknownEstimator(estimator_id)
    return info


# ---------------------------------------------------------------------------
# Dimension catalog.  Only the estimator dimension is fully named by the
# method table; the rest are config-declared with shipped defaults.

SA_DIMENSIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("D1_sampling", ("MonteCarlo", "LatinHypercube")),
    ("D2_estimator", tuple(SA_ESTIMATORS)),
    ("D3_budget", ("Fixed_N", "Staged")),
    ("D4_output", ("Scalar", "Aggregated")),
)


# ---------------------------------------------------------------------------
# Feasibility predicate registry.  Each entry: (predicate id, estimator ids it
# gates, test(context, estimator_id, threshold) -> (ok, reason, values)).

@dataclass(frozen=True)
class Predicate:
    id: str
    applies_to: tuple[str, ...]
    test: Callable  # (context, screening_dim_threshold) -> (bool, str, dict)


def _morris_dim(ctx, thr):
    ok = ctx.d_in >= thr
    return ok, f"screening interpretation unreliable for d_in < {thr}", {
        "d_in": ctx.d_in, "threshold": thr}


def _gen_sobol_out(ctx, thr):
    ok = ctx.d_out > 1
    return ok, "requires vector-valued output", {"d_out": ctx.d_out}


def _pce_budget(ctx, thr):
    need = 500 * ctx.d_in
    ok = ctx.n_budget >= need
    return ok, "surrogate accuracy requires sufficient samples", {
        "n_budget": ctx.n_budget, "required": need}


def _variance_budget(ctx, thr):
    need = 500 * (ctx.d_in + 2)
    ok = ctx.n_budget >= need
    return ok, "pick-freeze budget below minimum", {
        "n_budget": ctx.n_budget, "required": need}


PREDICATES: tuple[Predicate, ...] = (
    Predicate("morris_screening_high_dim", ("Morris",), _morris_dim),
    Predicate("gen_sobol_multioutput", ("Generalized_Sobol",), _gen_sobol_out),
    Predicate("pce_min_samples", ("PCE_SA",), _pce_budget),
    Predicate("variance_min_samples", ("Sobol", "CVM", "Generalized_Sobol"),
              _variance_budget),
)
