"""Shared tunable constants, config-exposed with shipped defaults.

Everything here can be overridden from the experiment config file; the
defaults reproduce the shipped experiments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass(frozen=True)
class BanditSettings:
    prior_precision: float = 1.0      # ridge lambda on the linear model
    noise_variance: float = 25.0      # rewards live on 0-100
    reward_center: float = 50.0       # rewards centered before absorption
    novelty_rho: float = 5.0          # penalty per prior pick of the same estimator
    block_beta: float = 1000.0        # effectively excludes a blocked estimator
    eps_gamma: float = 0.6            # decay of the exploration schedule
    eps_floor: float = 0.02
    eps_base_exploit: float = 0.1
    eps_base_neutral: float = 0.5
    eps_base_explore_max: float = 1.0
    safety_factor: float = 2.0        # scales n_min in the default n_samples
    warm_weight_close: float = 1.0
    warm_weight_weak: float = 0.3


@dataclass(frozen=True)
class ThresholdSettings:
    ema_decay: float = 0.8
    warmup: int = 3
    cap_bonus: float = 0.10           # current never exceeds theta0 + cap_bonus
    std_multiplier: float = 1.0
    null_quantile: float = 0.95


@dataclass(frozen=True)
class CP0Settings:
    close_cutoff: float = 0.90
    weak_cutoff: float = 0.70


@dataclass(frozen=True)
class RewardSettings:
    # Sub-rubric splits inside the four capped components.
    integrity_execution: float = 20.0
    integrity_attributes: float = 10.0
    integrity_warnings: float = 5.0
    accuracy_precision: float = 20.0
    accuracy_consistency_sum: float = 8.0
    accuracy_consistency_order: float = 7.0
    details_cap: float = 15.0
    optimality_cap: float = 15.0
    optimality_budget_weight: float = 0.6
    optimality_runtime_weight: float = 0.4
    nan_penalty: float = 5.0
    negative_variance_penalty: float = 5.0
    rank_inversion_penalty: float = 3.0
    warning_penalty: float = 2.0
    convergence_tol: float = 1e-3     # |S_i^n - S_i^{n-1}| criterion


@dataclass(frozen=True)
class ArchiveSettings:
    feature_weight: float = 0.5
    task_weight: float = 0.3
    dim_weight: float = 0.2
    dim_kernel_width: float = 4.0


@dataclass(frozen=True)
class Settings:
    screening_dim_threshold: int = 8
    retry_budget: int = 3             # per blocking checkpoint
    max_debug_retries: int = 2
    n_max: int = 5
    r_threshold: float = 85.0
    bandit: BanditSettings = field(default_factory=BanditSettings)
    threshold: ThresholdSettings = field(default_factory=ThresholdSettings)
    cp0: CP0Settings = field(default_factory=CP0Settings)
    reward: RewardSettings = field(default_factory=RewardSettings)
    archive: ArchiveSettings = field(default_factory=ArchiveSettings)


DEFAULTS = Settings()


def _replaced(base, overrides, where: str):
    """``base`` with a (possibly nested) override dict applied; a key that
    names no field, or a value of the wrong type, raises ConfigError."""
    if not isinstance(overrides, dict):
        raise ConfigError(f"{where} must be a JSON object")
    names = {f.name for f in dataclasses.fields(base)}
    unknown = sorted(set(overrides) - names)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    kwargs = {}
    for name, value in overrides.items():
        default = getattr(base, name)
        if dataclasses.is_dataclass(default):
            value = _replaced(default, value, f"{where}.{name}")
        elif not isinstance(value, (int, float) if isinstance(default, float)
                            else type(default)):
            raise ConfigError(f"{where}.{name} must be of type "
                              f"{type(default).__name__}")
        kwargs[name] = value
    return dataclasses.replace(base, **kwargs)


def settings_from_dict(overrides: dict) -> Settings:
    """Build Settings from a (possibly nested) override dict; unknown keys
    and mistyped values at any level raise ConfigError."""
    return _replaced(DEFAULTS, overrides, "settings")
