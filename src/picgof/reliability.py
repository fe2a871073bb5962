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
from .schemes import CensoredSample


def product_limit(n: int, failures, removals) -> np.ndarray:
    """:func:`survival_values` of every row of (rows x m) count arrays, column by column."""
    failures = np.asarray(failures, dtype=np.int64)
    at_risk = np.full(len(failures), n, dtype=np.int64)
    estimate = np.ones(len(failures))
    out = np.empty(failures.shape)
    for j, (x, r) in enumerate(zip(failures.T, np.asarray(removals, dtype=np.int64).T)):
        live = at_risk > 0
        if np.any(x[~live] > 0):
            raise CensoringError(f"failures reported at inspection {j + 1} but no units were on test")
        # an empty (or, for hand-fed counts, negative) risk set multiplies by exactly 1.0
        out[:, j] = estimate = estimate * np.where(live, 1.0 - x / np.where(live, at_risk, 1), 1.0)
        at_risk = at_risk - x - r
    return out


def survival_values(n: int, failures: Sequence[int], removals: Sequence[int]) -> list[float]:
    """Product-limit survival estimates at the inspection times, from raw counts.

    Raises :class:`CensoringError` for count vectors reporting failures
    after the risk set is exhausted; that cannot happen for validated
    samples, only for hand-fed count vectors.
    """
    return product_limit(n, [failures], [removals])[0].tolist()


def deviations(sample: CensoredSample, null_cdf: Callable[[float], float]) -> tuple[float, ...]:
    """Estimated minus hypothesized survival at each inspection time.

    ``null_cdf`` must leave positive survival at the final inspection time
    (for the uniformity test: t_m < 1); otherwise the last deviation is
    pinned by design rather than informative, and
    :class:`CensoringError` is raised.
    """
    times = sample.scheme.inspection_times
    if 1.0 - float(null_cdf(times[-1])) <= 0.0:
        raise CensoringError("the hypothesized cdf must stay below 1 at the final inspection time")
    est = survival_values(sample.n, sample.failures, sample.removals)
    return tuple(e - (1.0 - float(null_cdf(t))) for t, e in zip(times, est))
