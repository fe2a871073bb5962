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
from .schemes import CensoredSample, CensoringScheme


def product_limit(n: int, failures, removals) -> np.ndarray:
    """:func:`survival_values` of every row of (rows x m) count arrays, as a view of (m x rows)
    whose rows, one interval each, are filled in turn."""
    try:
        failures, removals = (np.asarray(c, dtype=np.int64) for c in (failures, removals))
        at_risk = np.full(len(failures), n, dtype=np.int64)
    except OverflowError:
        raise CensoringError("counts and n must lie in [-2**63, 2**63)") from None
    estimate = np.ones(len(failures))
    out = np.empty(failures.shape[::-1])
    for j, (x, r, row) in enumerate(zip(failures.T, removals.T, out)):
        live = at_risk > 0
        if live.all():
            factor = 1.0 - x / at_risk
        elif np.any(x[~live] > 0):
            raise CensoringError(f"failures reported at inspection {j + 1} but no units were on test")
        else:  # an empty (or, for hand-fed counts, negative) risk set multiplies by exactly 1.0
            factor = np.where(live, 1.0 - x / np.where(live, at_risk, 1), 1.0)
        estimate = np.multiply(estimate, factor, out=row)
        at_risk -= x + r
    return out.T


def survival_values(n: int, failures: Sequence[int], removals: Sequence[int]) -> list[float]:
    """Product-limit survival estimates at the inspection times, from raw counts.

    Raises :class:`CensoringError` for count vectors reporting failures
    after the risk set is exhausted; that cannot happen for validated
    samples, only for hand-fed count vectors.
    """
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
    est = survival_values(sample.n, sample.failures, sample.removals)
    return tuple(e - s for e, s in zip(est, null))
