"""Deterministic scripted agents, boundary text renderers, drift injectors,
the Inspector's structural checklist, and the Debugger's patch rules.

Generated "code" is a structured ExecutionPlan; every checkpoint text is
rendered from structured state by a deterministic pretty-printer, so cosine
gates operate on realistic prose without LLM nondeterminism.  The Advisor
hands over a diagnosis record; only the Refactor Agent and drift read text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from . import catalog, schemes
from .errors import InsufficientSamples, OverBudget
from .estimators import Design, SAResult, get_model
from .schemes import MethodScheme, ProblemScheme, check_field_types

#: drift kind -> the plan field it rewrites
DRIFT_KINDS = {"method_swap": "estimator", "field_corruption": "n_samples",
               "none": ""}


@dataclass(frozen=True)
class ExecutionPlan:
    estimator: str
    n_samples: int
    model_id: str
    seed: int


@dataclass(frozen=True)
class DriftSpec:
    kind: str = "none"
    target_field: str = "estimator"
    replacement_value: str = ""
    source_value: str = ""
    probability: float = 0.0
    activation_iteration: int | None = None

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("drift probability must lie in [0, 1]")
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        rewritten = DRIFT_KINDS[self.kind]
        if rewritten and self.target_field != rewritten:
            raise ValueError(f"drift kind {self.kind} rewrites {rewritten}, "
                             f"not {self.target_field!r}")
        # A drift writes what the Refactor Agent can read back.
        named = {self.replacement_value, self.source_value} - {""}
        if self.kind == "method_swap" and \
                not named <= catalog.SA_ESTIMATORS.keys():
            raise ValueError("a method swap names catalog estimators: "
                             + ", ".join(catalog.SA_ESTIMATORS))
        if self.kind == "field_corruption" and \
                not re.fullmatch("[1-9][0-9]*", self.replacement_value):
            raise ValueError("a field corruption writes a positive integer")


# ---------------------------------------------------------------------------
# Text renderers (deterministic pretty-printers feeding the cosine gates)

def _kw(estimator: str) -> str:
    return catalog.estimator_info(estimator).keywords


def render_strategy_text(ms: MethodScheme, flags: tuple[str, ...] = ()) -> str:
    flag_text = ""
    if flags:
        flag_text = " prior violations flagged: " + "; ".join(flags) + "."
    return (f"strategy: apply {ms.estimator} via {ms.info.library_class} "
            f"with n_samples={ms.n_samples} using {ms.info.sampling_scheme} "
            f"sampling to produce {' and '.join(ms.info.bindings)}. "
            f"rationale: {ms.info.keywords}."
            # The policy clamps every decided size within the budget.
            f" budget status sufficient, minimum evaluations "
            f"{ms.n_min_value}.{flag_text}")


def render_critic_text(ms: MethodScheme) -> str:
    return (f"review: the proposed {ms.estimator} run through "
            f"{ms.info.library_class} with n_samples={ms.n_samples}"
            f" is consistent with the problem scheme. {ms.info.keywords}."
            f" required outputs {' and '.join(ms.info.bindings)} are "
            f"reachable within budget status sufficient.")


def render_study_text(strategy_text: str) -> str:
    return ("comprehension summary of the received strategy. "
            + strategy_text.replace("strategy:", "the strategy instructs to"))


def render_plan_text(plan: ExecutionPlan) -> str:
    info = catalog.estimator_info(plan.estimator)
    return (f"implementation plan: run {plan.estimator} on model "
            f"{plan.model_id} with n_samples={plan.n_samples}"
            f" binding {' and '.join(info.bindings)}. {info.keywords}.")


def render_observation_text(obs: SAResult) -> str:
    parts = [f"observation from {obs.estimator}: "
             f"{obs.evaluations_used} evaluations used"]
    for attr, vec in obs.attributes().items():
        head = ", ".join(f"{v:.4f}" for v in vec[:4])
        parts.append(f"{attr} = [{head}{', ...' if len(vec) > 4 else ''}]")
    if obs.warnings:
        parts.append("warnings: " + "; ".join(obs.warnings))
    parts.append(_kw(obs.estimator))
    return ". ".join(parts)


# ---------------------------------------------------------------------------
# Agent behaviors

_EST_TOKEN = re.compile(r"\b(%s)\b" % "|".join(catalog.SA_ESTIMATORS),
                        re.IGNORECASE)
# The sample size as every rendered text states it; the Refactor Agent and
# the field-corruption drift read and rewrite it with the same pattern.
_N_SAMPLES_RE = re.compile(r"n_samples\s*[=:]\s*(\d+)")


def refactor_agent(report_text: str, model_id: str,
                   seed: int) -> ExecutionPlan:
    """Build the execution plan from the received report text.

    The estimator and sample size are parsed back out of the prose; this is
    where upstream text corruption becomes a concrete wrong plan.  Every
    report states both, and a drift rewrites them only to a catalog
    estimator or a positive sample size.
    """
    token = _EST_TOKEN.search(report_text).group(1).lower()
    estimator = next(e for e in catalog.SA_ESTIMATORS if e.lower() == token)
    n_samples = int(_N_SAMPLES_RE.search(report_text).group(1))
    return ExecutionPlan(estimator=estimator, n_samples=n_samples,
                         model_id=model_id, seed=seed)


def inspector_check(plan: ExecutionPlan, ms: MethodScheme) -> tuple[str, ...]:
    """Structural checklist audit of the assembled plan against the decided
    method scheme: the reasons it rejects the plan, none if it approves.
    A plan that runs the scheme's estimator binds the scheme's outputs, and
    one that runs the scheme's sample size lies between the estimator's
    floor and the budget's cap, because the decision clamped it there."""
    if plan.estimator != ms.estimator:
        return (f"estimator mismatch: plan runs {plan.estimator}, "
                f"scheme requires {ms.estimator}",)
    if plan.n_samples != ms.n_samples:
        return (f"n_samples mismatch: plan runs {plan.n_samples}, "
                f"scheme decides {ms.n_samples}",)
    return ()


def execution_runner(plan: ExecutionPlan, sampling: str, n_budget: int,
                     designs: dict) -> SAResult:
    """Run the plan's estimator through its catalog row at the action's
    sampling level; raises OverBudget, before any model evaluation, when
    the plan costs more than ``n_budget``, and else the estimator's own
    errors.  ``designs`` is the session's: one Monte Carlo sample that
    Chatterjee, CVM and Sobol read, Morris's trajectories (its walk
    ignores the level), and per sampling scheme a list of Latin hypercubes,
    of which a run reads one holding its size as a layer, else the first
    that nests it, else a new one.  The result counts the evaluations
    run."""
    info = catalog.estimator_info(plan.estimator)
    model = get_model(plan.model_id)
    n = plan.n_samples
    cost = info.cost(n, model.d_in)
    if cost > n_budget:
        raise OverBudget(f"n_samples={n} costs {cost} evaluations, over the "
                         f"budget {n_budget}", n_budget)
    key = "trajectories" if info.sampling_scheme == "trajectories" \
        else sampling
    if key != "LatinHypercube":
        design = designs.setdefault(key, Design())
    else:
        nested = designs.setdefault((info.sampling_scheme, sampling), [])
        if not any(d.nests(n) for d in nested):
            nested.append(Design())
        design = min((d for d in nested if d.nests(n)),
                     key=lambda d: n not in d.layers)
    return info.execute(model, n, plan.seed, sampling, design)


def debugger_fix(plan: ExecutionPlan, error: Exception) -> ExecutionPlan:
    """Rule-table patches: an undersized plan gets the estimator's floor,
    an oversized one the largest size its budget pays for; an error with
    no rule is raised again as it is."""
    info = catalog.estimator_info(plan.estimator)
    d_in = get_model(plan.model_id).d_in
    if isinstance(error, InsufficientSamples):
        return replace(plan, n_samples=info.min_samples(d_in))
    if isinstance(error, OverBudget):
        return replace(plan, n_samples=info.max_samples(d_in, error.n_budget))
    raise error


def advisor_report(ms: MethodScheme, plan: ExecutionPlan,
                   obs: SAResult | None, breakdown, ps: ProblemScheme,
                   r_threshold: float, avoid: frozenset[str] = frozenset()
                   ) -> schemes.DiagnosticScheme:
    """Deterministic post-execution review of the decided scheme and the
    plan that ran.  Each branch states its root cause and prescription, and
    its prose becomes the diagnosis's ``physical_insight``.  A total at or
    above the session's ``r_threshold`` meets the precision target."""
    diagnosis = schemes.build_diagnostic_scheme
    if obs is None:
        return diagnosis("execution crashed before producing results; "
                         "numerical run unrecoverable. recommend reviewing "
                         "the implementation.", "execution_failed")
    missing = [a for a in ms.info.bindings if getattr(obs, a) is None]
    if missing:
        return diagnosis("required attribute " + " and ".join(missing)
                         + " absent from the observation; the executed "
                         "method does not produce the outputs the scheme "
                         "demands.", "attribute_error")
    if obs.nan_count > 0:
        return diagnosis("numerical degeneracy: nan entries present in the "
                         "computed indices; the output variance may be "
                         "degenerate.", "numerical_degeneracy")
    if breakdown.total >= r_threshold:
        return diagnosis(f"{ms.estimator} indices successfully computed "
                         f"from {obs.evaluations_used} evaluations; all "
                         "consistency checks passed and the estimate meets "
                         "the precision target.", "none")
    # Partial convergence: advise a method change when the current scheme
    # cannot report first-order variance attribution (or only simulates it)
    # and a real alternative that does is still untried.
    def real_first_order(info: catalog.EstimatorInfo) -> bool:
        return "first_order_indices" in info.bindings and not info.simulated
    pool = [e for e in ps.feasible_sa_estimators
            if real_first_order(catalog.estimator_info(e))
            and e not in avoid and e != ms.estimator]
    if pool and not real_first_order(ms.info):
        target = pool[0]
        return diagnosis(
            f"indices computed but convergence is partial; the chosen "
            f"method reports {ms.info.index_type} measures while the study "
            f"requires first-order variance attribution. this looks like a "
            f"wrong estimator for the precision target. prescribe estimator "
            f"{target}.", "wrong_estimator", prescribed_estimator=target)
    return diagnosis(f"estimate has not yet reached the precision target; "
                     f"sampling appears insufficient at n_samples="
                     f"{plan.n_samples}. recommend increasing the sample "
                     f"size.", "insufficient_N",
                     prescribed_n_samples=2 * plan.n_samples)


# ---------------------------------------------------------------------------
# Drift injection

def inject_drift(text: str, spec: DriftSpec, rng_seed: int,
                 iteration: int | None = None) -> tuple[str, dict | None]:
    """Adversarial mid-pipeline mutation of the Study Agent's text handed to
    the Refactor Agent.

    Returns (possibly mutated text, event record or None).
    """
    if spec.kind == "none" or spec.probability == 0.0:
        return text, None
    if spec.activation_iteration is not None and iteration is not None \
            and iteration < spec.activation_iteration:
        return text, None
    rng = np.random.default_rng(rng_seed)
    if rng.random() >= spec.probability:
        return text, None

    if spec.kind == "method_swap":
        match = _EST_TOKEN.search(text)
        source = match.group(1) if match else ""
        target = spec.replacement_value or "Morris"
        if not source or source == target:
            return text, None
        if spec.source_value and source != spec.source_value:
            return text, None
        # Swap the rationale vocabulary first, then the name tokens, so the
        # corruption reads like a coherent (but wrong) report rather than a
        # token splice.
        mutated = text.replace(_kw(source), _kw(target))
        mutated = _EST_TOKEN.sub(target, mutated)
        event = {"kind": spec.kind, "field": spec.target_field,
                 "from": source, "to": target}
        return mutated, event
    if spec.kind == "field_corruption":
        mutated = _N_SAMPLES_RE.sub(f"n_samples={spec.replacement_value}",
                                   text)
        event = {"kind": spec.kind, "field": spec.target_field,
                 "to": spec.replacement_value}
        return mutated, event
    return text, None
