"""Method catalog for sensitivity analysis (SA), the only task driftguard
runs: estimator metadata, the action dimension catalog and the feasibility
predicates.

Feasibility predicates are data (id + closure over the context and the
gated estimator returning a bool) registered in a table, so new methods
extend the filter without code changes.  Intake evaluates them once per
estimator into the context's feasibility bits; everything downstream reads
the bits.
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
    n_min: Callable[[int], int]     # minimum evaluations for d_in inputs
    cost_kind: str                  # pick_freeze | trajectories | single_loop
    library_class: str
    simulated: bool = False
    keywords: str = ""              # vocabulary used by the text renderers

    def cost(self, n_samples: int, d_in: int) -> int:
        return n_samples * self.cost_multiplier(d_in)

    def cost_multiplier(self, d_in: int) -> int:
        if self.cost_kind == "pick_freeze":
            return d_in + 2
        if self.cost_kind == "trajectories":
            return d_in + 1
        return 1


SA_ESTIMATORS: dict[str, EstimatorInfo] = {
    e.id: e
    for e in [
        EstimatorInfo(
            id="Sobol", index_type="variance_based",
            produces=("s1", "st"), sampling_scheme="pick-freeze",
            n_min=lambda d: 500 * (d + 2), cost_kind="pick_freeze",
            library_class="SobolSensitivity",
            keywords=("sobol variance decomposition saltelli pick freeze "
                      "first order total order indices jansen"),
        ),
        EstimatorInfo(
            id="Chatterjee", index_type="rank_based",
            produces=("rank_indices",), sampling_scheme="single-loop",
            n_min=lambda d: 10, cost_kind="single_loop",
            library_class="ChatterjeeSensitivity",
            keywords=("chatterjee rank correlation coefficient moment free "
                      "xi nonparametric distribution free"),
        ),
        EstimatorInfo(
            id="CVM", index_type="rank_based",
            produces=("s1",), sampling_scheme="single-loop",
            n_min=lambda d: 500 * (d + 2), cost_kind="single_loop",
            library_class="CramerVonMisesSensitivity",
            keywords=("cramer von mises rank statistic moment free "
                      "empirical distribution indices"),
        ),
        EstimatorInfo(
            id="Morris", index_type="screening",
            produces=("mu_star", "sigma"), sampling_scheme="trajectories",
            n_min=lambda d: 10 * (d + 1), cost_kind="trajectories",
            library_class="MorrisSensitivity",
            keywords=("morris elementary effects screening trajectories "
                      "mu star sigma winding stairs grid levels"),
        ),
        EstimatorInfo(
            id="PCE_SA", index_type="variance_based",
            produces=("s1", "st"), sampling_scheme="regression",
            n_min=lambda d: 500 * d, cost_kind="single_loop",
            library_class="PCESensitivity", simulated=True,
            keywords=("polynomial chaos expansion surrogate spectral "
                      "coefficients regression sobol analytic"),
        ),
        EstimatorInfo(
            id="Generalized_Sobol", index_type="variance_based",
            produces=("s1", "st"), sampling_scheme="pick-freeze",
            n_min=lambda d: 500 * (d + 2), cost_kind="pick_freeze",
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
# Dimension catalog: only dimensions that change what executes.  The
# sampling scheme is handed to the estimator run; the estimator levels are
# the method table's keys.

SA_DIMENSIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("D1_sampling", ("MonteCarlo", "LatinHypercube")),
    ("D2_estimator", tuple(SA_ESTIMATORS)),
)


# ---------------------------------------------------------------------------
# Feasibility predicate registry.  Each entry: (predicate id, estimator ids it
# gates, test(context, gated estimator's info) -> bool).  Only
# ``action_space.feasibility_bits`` runs them, once per estimator at intake.

# From this many inputs on a problem is high-dimensional: Morris screening
# is feasible, the problem scheme sets ``high_d_in_flag``, and CP0 puts
# screening first when the archive holds no match.
SCREENING_DIM_THRESHOLD = 8


@dataclass(frozen=True)
class Predicate:
    id: str
    applies_to: tuple[str, ...]
    test: Callable  # (context, EstimatorInfo) -> bool


def _budget_covers_n_min(ctx, info: EstimatorInfo) -> bool:
    return ctx.n_budget >= info.n_min(ctx.d_in)


PREDICATES: tuple[Predicate, ...] = (
    # Screening interpretation is unreliable below the dimension threshold.
    Predicate("morris_screening_high_dim", ("Morris",),
              lambda ctx, info: ctx.d_in >= SCREENING_DIM_THRESHOLD),
    Predicate("gen_sobol_multioutput", ("Generalized_Sobol",),
              lambda ctx, info: ctx.d_out > 1),
    # The budget must cover the gated estimator's own n_min: surrogate
    # accuracy for PCE, estimator variance for the pick-freeze/rank methods.
    Predicate("pce_min_samples", ("PCE_SA",), _budget_covers_n_min),
    Predicate("variance_min_samples", ("Sobol", "CVM", "Generalized_Sobol"),
              _budget_covers_n_min),
)
