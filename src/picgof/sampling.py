"""Sample generation under progressive Type-I interval censoring.

Given a censoring scheme, a sample size and a lifetime CDF, a sample is built
interval by interval: every unit entering interval i fails there
independently with the conditional probability q_i, the failures are counted
at the inspection, and floor(p_i * survivors) surviving units are withdrawn
(all of them at the final inspection, where p_m = 1).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import CensoringError
from .schemes import MAX_N, CensoredSample, CensoringScheme, as_int, withdraw_count

#: A lifetime CDF evaluated pointwise; must be nondecreasing over the
#: inspection times.
Cdf = Callable[[float], float]


def interval_failure_probs(scheme: CensoringScheme, cdf: Cdf) -> tuple[float, ...]:
    """Conditional per-interval failure probabilities for units entering each interval.

    q_i = (F(t_i) - F(t_{i-1})) / (1 - F(t_{i-1})), taken as 0 once F has
    reached 1 (no unit can enter such an interval alive), and clamped to 1 for
    a CDF that exceeds 1.  A decreasing CDF is refused, so q_i is never below 0.
    """
    probs = []
    prev = float(cdf(scheme.times[0]))
    for t in scheme.times[1:]:
        cur = float(cdf(t))
        if cur < prev:
            raise CensoringError(
                f"cdf decreases between inspection times: F({t!r}) = {cur!r} < {prev!r}"
            )
        q = 0.0 if prev >= 1.0 else (cur - prev) / (1.0 - prev)
        probs.append(1.0 if q > 1.0 else q)
        prev = cur
    return tuple(probs)


def draw_counts(
    n: int,
    probs: tuple[float, ...],
    percentages: tuple[float, ...],
    streams: Sequence[np.random.Generator | None],
    rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Failure and removal counts of ``rows`` trajectories, as (rows x m) int64 arrays.

    Both are views of (m x rows) arrays: interval i draws the failures of every
    row into one contiguous row with one array binomial from ``streams[i]``,
    unless q_i = 0, where numpy would draw 0 and consume nothing, so that
    ``streams[i]`` is never used and may be None.  An empty risk set draws
    nothing.  The same generator passed for every interval with ``rows`` = 1
    is consumed in interval order.
    """
    failures = np.empty((len(probs), rows), dtype=np.int64)
    removals = np.empty((len(probs), rows), dtype=np.int64)
    at_risk = np.full(rows, n, dtype=np.int64)
    for q, p, rng, x, r in zip(probs, percentages, streams, failures, removals):
        x[...] = rng.binomial(at_risk, q) if q else 0
        at_risk -= x
        r[...] = withdraw_count(p, at_risk)
        at_risk -= r
    return failures.T, removals.T


def simulate_sample(
    scheme: CensoringScheme, n: int, cdf: Cdf, rng: np.random.Generator
) -> CensoredSample:
    """Simulate one censored sample of ``n`` units from ``cdf`` under ``scheme``.

    The draw consumes ``rng`` sequentially, so the same generator state and
    arguments always reproduce the same sample.
    """
    n = as_int(n, "sample size", 1, MAX_N)
    probs = interval_failure_probs(scheme, cdf)
    failures, removals = draw_counts(n, probs, scheme.percentages, [rng] * len(probs), 1)
    return CensoredSample(scheme, n, tuple(failures[0].tolist()), tuple(removals[0].tolist()))
