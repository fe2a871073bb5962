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
from .gof import _fold, _start
from .schemes import CensoredSample, CensoringScheme, _count_trajectory, _model_values


def _block(n: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``rows`` trajectories of ``n`` units before the first interval, for :func:`_step`:
    their risk sets (int64), survival estimates and (6 x rows) statistic accumulators."""
    return np.full(rows, n, dtype=np.int64), np.ones(rows), _start(rows)


def _step(at_risk, estimate, stats, x, r, survival) -> np.ndarray:
    """Advance a :func:`_block` by one interval in place, given its failures ``x`` and removals
    ``r``, and fold d = estimate - ``survival`` into ``stats`` by :func:`picgof.gof._fold`; returns
    d.  Unchecked precondition: no failure once a row's risk set is empty or negative."""
    np.multiply(estimate, 1.0 - x / np.maximum(at_risk, 1), out=estimate)
    at_risk -= x + r
    d = estimate - survival
    _fold(stats, d)
    return d


def _trajectory(n: int, failures, removals, survival) -> np.ndarray:
    """The deviations from ``survival`` of one trajectory's estimates, one per interval."""
    block = _block(n, 1)
    return np.array([_step(*block, x, r, s)[0] for x, r, s in zip(failures, removals, survival)])


def survival_values(n: int, failures: Sequence[int], removals: Sequence[int]) -> list[float]:
    """Product-limit survival estimates at the inspection times, from raw counts.

    The count rule: :class:`CensoringError` is raised unless a life test of 1 <= n < 2**53
    units could have produced the counts, that is one nonnegative integer removal count per
    failure count, no more failures than units at risk and no more removals than survivors
    at any inspection.  Units may still be on test after the last count."""
    n, failures, removals, _ = _count_trajectory(n, failures, removals)
    return _trajectory(n, failures, removals, np.zeros(len(failures))).tolist()


def null_survival(scheme: CensoringScheme, null_cdf: Callable[[float], float]) -> np.ndarray:
    """Hypothesized survival 1 - F0(t_i) at each inspection time, F0 read by the model rule
    (``schemes._model_values``), refused unless positive at the final one, t_m (for
    uniformity: t_m < 1), where zero would pin the last deviation."""
    survival = 1.0 - np.array(_model_values(scheme, null_cdf)[1:])
    if survival[-1] <= 0.0:
        raise CensoringError("null survival 1 - F0(t_m) must be positive at the final inspection "
                             f"time t_m = {scheme.times[-1]!r}, got {float(survival[-1])!r}")
    return survival


def deviations(sample: CensoredSample, null_cdf: Callable[[float], float]) -> tuple[float, ...]:
    """Estimated minus hypothesized survival at each inspection time; ``null_cdf``
    must leave positive survival at the final one (see :func:`null_survival`)."""
    null = null_survival(sample.scheme, null_cdf)
    return tuple(_trajectory(sample.n, sample.failures, sample.removals, null).tolist())
