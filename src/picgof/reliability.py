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

from .errors import CensoringError
from .schemes import CensoredSample


def survival_values(n: int, failures: Sequence[int], removals: Sequence[int]) -> list[float]:
    """Product-limit survival estimates at the inspection times, from raw counts.

    Raises :class:`CensoringError` for count vectors reporting failures
    after the risk set is exhausted; that cannot happen for validated
    samples, only for hand-fed count vectors.
    """
    values: list[float] = []
    at_risk = n
    estimate = 1.0
    for i, (x, r) in enumerate(zip(failures, removals), start=1):
        if at_risk > 0:
            estimate *= 1.0 - x / at_risk
        elif x > 0:
            raise CensoringError(
                f"failures reported at inspection {i} but no units were on test"
            )
        values.append(estimate)
        at_risk -= x + r
    return values


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
