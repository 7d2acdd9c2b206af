"""Post-hoc trace analysis: action-outcome mutual information.  Pure
functions over immutable traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoData


@dataclass(frozen=True)
class EmpowermentEstimate:
    """Plug-in mutual information between the selected action and the
    binned reward, in bits."""

    mi_bits: float
    n_traces: int
    action_support: int
    outcome_bins: int

    def __post_init__(self):
        if self.mi_bits < -1e-9:
            raise ValueError("mutual information cannot be negative")


def _records(traces) -> list:
    recs = [r for t in traces for r in t.records]
    if not recs:
        raise NoData("no iteration records in the supplied traces")
    return recs


def mutual_information_bits(pairs: list[tuple[int, int]]) -> float:
    """Plug-in MI of an empirical discrete joint; zero-count cells skipped."""
    n = len(pairs)
    joint: dict[tuple[int, int], int] = {}
    pa: dict[int, int] = {}
    po: dict[int, int] = {}
    for a, o in pairs:
        joint[(a, o)] = joint.get((a, o), 0) + 1
        pa[a] = pa.get(a, 0) + 1
        po[o] = po.get(o, 0) + 1
    mi = 0.0
    for (a, o), c in joint.items():
        p_ao = c / n
        mi += p_ao * math.log2(p_ao * n * n / (pa[a] * po[o]))
    return max(0.0, mi)


def estimate_empowerment(traces, bins: int = 10,
                         value_range: tuple[float, float] = (0.0, 100.0)
                         ) -> EmpowermentEstimate:
    """MI over the empirical joint of (selected estimator, reward bin),
    pooled across iterations of the supplied traces.

    All supplied traces must describe the same problem; the caller groups
    by context before pooling.
    """
    recs = _records(traces)
    lo, hi = value_range
    width = (hi - lo) / bins
    estimators = sorted({r.method.estimator for r in recs})
    index = {e: i for i, e in enumerate(estimators)}
    pairs = []
    for r in recs:
        o = min(bins - 1, max(0, int((r.reward_total - lo) / width)))
        pairs.append((index[r.method.estimator], o))
    return EmpowermentEstimate(mi_bits=mutual_information_bits(pairs),
                               n_traces=len(list(traces)),
                               action_support=len(estimators),
                               outcome_bins=bins)
