"""Method catalog for sensitivity analysis (SA), the only task driftguard
runs: one row per estimator, and the sampling levels an action may choose.

A row is the only description of its estimator: its outputs, cost and
minimum sample size, the feasibility rules that gate it, its executor and
the vocabulary the text renderers use.  Each problem record runs the rules
once, on its first read of ``feasible_sa_estimators``; a method scheme
reads the rest of its row through ``info``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import estimators
from .errors import UnknownEstimator

# From this many inputs on a problem is high-dimensional: Morris screening
# is feasible, the archive descriptor sets its high-dimension slot, and CP0
# puts screening first when the archive holds no match.
SCREENING_DIM_THRESHOLD = 8


@dataclass(frozen=True)
class EstimatorInfo:
    id: str
    index_type: str                 # variance_based | rank_based | screening
    bindings: tuple[str, ...]       # the SAResult index vectors it fills
    sampling_scheme: str
    n_min: Callable[[int], int]     # minimum evaluations for d_in inputs
    cost_multiplier: Callable[[int], int]  # evaluations per sample
    # (model, n, seed, sampling scheme, session design) -> SAResult.  Each
    # executor looks its ``estimators`` function up when called, so a
    # function swapped on the module is the one that runs.  The simulated
    # rows ignore the design.
    execute: Callable
    library_class: str
    # Feasibility rules a row may set, on top of the budget rule every row
    # has; every rule a row sets must hold.
    high_d_only: bool = False       # d_in >= SCREENING_DIM_THRESHOLD
    multi_output_only: bool = False  # d_out > 1
    simulated: bool = False
    keywords: str = ""              # vocabulary used by the text renderers

    def cost(self, n_samples: int, d_in: int) -> int:
        return n_samples * self.cost_multiplier(d_in)

    def min_samples(self, d_in: int) -> int:
        """The per-loop sample floor: fewest samples costing ``n_min``."""
        return -(-self.n_min(d_in) // self.cost_multiplier(d_in))

    def max_samples(self, d_in: int, n_budget: int) -> int:
        """The per-loop sample cap: most samples costing at most
        ``n_budget``."""
        return n_budget // self.cost_multiplier(d_in)

    def feasible(self, ps) -> bool:
        """Whether every feasibility rule of this row holds for ``ps``."""
        return (ps.n_budget >= self.n_min(ps.d_in)
                and (not self.high_d_only
                     or ps.d_in >= SCREENING_DIM_THRESHOLD)
                and (not self.multi_output_only or ps.d_out > 1))


SA_ESTIMATORS: dict[str, EstimatorInfo] = {
    e.id: e
    for e in [
        # A row is feasible only when the budget covers its n_min: surrogate
        # accuracy for PCE, estimator variance for the pick-freeze and rank
        # methods, ten runs for Chatterjee and ten trajectories for Morris.
        # Every n_min is a multiple of its cost_multiplier, so on a feasible
        # row the sample cap is never below the floor.
        EstimatorInfo(
            id="Sobol", index_type="variance_based",
            bindings=("first_order_indices", "total_order_indices"),
            sampling_scheme="pick-freeze",
            n_min=lambda d: 500 * (d + 2), cost_multiplier=lambda d: d + 2,
            execute=lambda *args: estimators.sobol_saltelli(*args),
            library_class="SobolSensitivity",
            keywords=("sobol variance decomposition saltelli pick freeze "
                      "first order total order indices jansen"),
        ),
        EstimatorInfo(
            id="Chatterjee", index_type="rank_based",
            bindings=("chatterjee_indices",), sampling_scheme="single-loop",
            n_min=lambda d: 10, cost_multiplier=lambda d: 1,
            execute=lambda *args: estimators.chatterjee(*args),
            library_class="ChatterjeeSensitivity",
            keywords=("chatterjee rank correlation coefficient moment free "
                      "xi nonparametric distribution free"),
        ),
        EstimatorInfo(
            id="CVM", index_type="rank_based",
            bindings=("first_order_indices",), sampling_scheme="single-loop",
            n_min=lambda d: 500 * (d + 2), cost_multiplier=lambda d: 1,
            execute=lambda *args: estimators.cvm(*args),
            library_class="CramerVonMisesSensitivity",
            keywords=("cramer von mises rank statistic moment free "
                      "empirical distribution indices"),
        ),
        # Screening interpretation is unreliable below the dimension
        # threshold.  n counts trajectories, and the sampling scheme does not
        # reach the walk.
        EstimatorInfo(
            id="Morris", index_type="screening",
            bindings=("mu_star", "sigma_effects"),
            sampling_scheme="trajectories",
            n_min=lambda d: 10 * (d + 1), cost_multiplier=lambda d: d + 1,
            execute=lambda m, n, seed, scheme, design: estimators.morris(
                m, n, seed, design),
            library_class="MorrisSensitivity", high_d_only=True,
            keywords=("morris elementary effects screening trajectories "
                      "mu star sigma winding stairs grid levels"),
        ),
        EstimatorInfo(
            id="PCE_SA", index_type="variance_based",
            bindings=("first_order_indices", "total_order_indices"),
            sampling_scheme="regression",
            n_min=lambda d: 500 * d, cost_multiplier=lambda d: 1,
            execute=lambda m, n, seed, scheme, design:
                estimators.pce_sa_simulated(m, n, seed),
            library_class="PCESensitivity", simulated=True,
            keywords=("polynomial chaos expansion surrogate spectral "
                      "coefficients regression sobol analytic"),
        ),
        EstimatorInfo(
            id="Generalized_Sobol", index_type="variance_based",
            bindings=("first_order_indices", "total_order_indices"),
            sampling_scheme="pick-freeze",
            n_min=lambda d: 500 * (d + 2), cost_multiplier=lambda d: d + 2,
            execute=lambda m, n, seed, scheme, design:
                estimators.generalized_sobol_simulated(m, n, seed),
            library_class="GeneralizedSobolSensitivity",
            multi_output_only=True, simulated=True,
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


SAMPLING_LEVELS = ("MonteCarlo", "LatinHypercube")  # an action's sampling
