"""Nonparametric reliability estimation and deviations from a hypothesized model.

The survival probability at inspection time t_i is estimated by the
product-limit form

    prod_{j <= i} (1 - x_j / a_{j-1})

where a_{j-1} is the number of units entering interval j still on test.
Once the risk set is empty the remaining factors are taken as 1, so the
estimate stays constant from then on.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import CensoringError
from .schemes import CensoredSample, CensoringScheme, _count_trajectory


def product_limit(n: int, failures, removals) -> np.ndarray:
    """:func:`survival_values` of every row of (rows x m) count arrays, as a view of (m x rows)
    whose rows, one interval each, are filled in turn.  Unchecked precondition: int64 counts
    reporting no failure once a row's risk set is empty or negative, as in any life test."""
    failures, removals = (np.asarray(c, dtype=np.int64) for c in (failures, removals))
    at_risk = np.full(len(failures), n, dtype=np.int64)
    estimate = np.ones(len(failures))
    out = np.empty(failures.shape[::-1])
    for x, r, row in zip(failures.T, removals.T, out):
        estimate = np.multiply(estimate, 1.0 - x / np.maximum(at_risk, 1), out=row)
        at_risk -= x + r
    return out.T


def survival_values(n: int, failures: Sequence[int], removals: Sequence[int]) -> list[float]:
    """Product-limit survival estimates at the inspection times, from raw counts.

    The count rule: :class:`CensoringError` is raised unless a life test of 1 <= n < 2**53
    units could have produced the counts, that is one nonnegative integer removal count per
    failure count, no more failures than units at risk and no more removals than survivors
    at any inspection.  Units may still be on test after the last count."""
    n, failures, removals, _ = _count_trajectory(n, failures, removals)
    return product_limit(n, [failures], [removals])[0].tolist()


def null_survival(scheme: CensoringScheme, null_cdf: Callable[[float], float]) -> np.ndarray:
    """Hypothesized survival 1 - F0(t_i) at each inspection time, refused unless positive at
    the final one, t_m (for uniformity: t_m < 1), where zero would pin the last deviation."""
    survival = np.array([1.0 - float(null_cdf(t)) for t in scheme.inspection_times])
    if survival[-1] <= 0.0:
        raise CensoringError("null survival 1 - F0(t_m) must be positive at the final inspection "
                             f"time t_m = {scheme.times[-1]!r}, got {float(survival[-1])!r}")
    return survival


def deviations(sample: CensoredSample, null_cdf: Callable[[float], float]) -> tuple[float, ...]:
    """Estimated minus hypothesized survival at each inspection time; ``null_cdf``
    must leave positive survival at the final one (see :func:`null_survival`)."""
    null = null_survival(sample.scheme, null_cdf).tolist()
    est = product_limit(sample.n, [sample.failures], [sample.removals])[0].tolist()
    return tuple(e - s for e, s in zip(est, null))
