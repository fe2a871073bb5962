"""Sample generation under progressive Type-I interval censoring.

Given a censoring scheme, a sample size and a lifetime CDF, a sample is built
interval by interval: every unit entering interval i fails there
independently with the conditional probability q_i, the failures are counted
at the inspection, and floor(p_i * survivors) surviving units are withdrawn
(all of them at the final inspection).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import CensoringError
from .schemes import MAX_N, CensoredSample, CensoringScheme, as_int

#: A lifetime CDF evaluated pointwise; must be nondecreasing over the
#: inspection times.
Cdf = Callable[[float], float]


def withdraw_count(percentage: float, survivors: int) -> int:
    """Units withdrawn at an inspection: floor(percentage * survivors).

    A tiny additive guard absorbs binary representation error in decimal
    percentages, so that e.g. 0.1 of 30 survivors withdraws exactly 3.  The
    count is capped at ``survivors``, since the float product can round
    above them (1.0 * (2**63 - 1) is 2**63).
    """
    count = math.floor(percentage * survivors + 1e-9)
    return count if count <= survivors else survivors


def interval_failure_probs(scheme: CensoringScheme, cdf: Cdf) -> tuple[float, ...]:
    """Conditional per-interval failure probabilities for units entering each interval.

    q_i = (F(t_i) - F(t_{i-1})) / (1 - F(t_{i-1})), taken as 0 once F has
    reached 1 (no unit can enter such an interval alive).  Values are clamped
    to [0, 1] against rounding spill.
    """
    probs = []
    prev = float(cdf(scheme.times[0]))
    for t in scheme.times[1:]:
        cur = float(cdf(t))
        if cur < prev:
            raise CensoringError(
                f"cdf decreases between inspection times: F({t!r}) = {cur!r} < {prev!r}"
            )
        if prev >= 1.0:
            q = 0.0
        else:
            q = (cur - prev) / (1.0 - prev)
            q = 0.0 if q < 0.0 else (1.0 if q > 1.0 else q)
        probs.append(q)
        prev = cur
    return tuple(probs)


def draw_counts(
    n: int,
    probs: tuple[float, ...],
    percentages: tuple[float, ...],
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """One trajectory of failure and removal counts from per-interval probabilities."""
    failures: list[int] = []
    removals: list[int] = []
    last = len(probs) - 1
    at_risk = n
    for i, q in enumerate(probs):
        x = int(rng.binomial(at_risk, q)) if at_risk > 0 else 0
        survivors = at_risk - x
        r = survivors if i == last else withdraw_count(percentages[i], survivors)
        failures.append(x)
        removals.append(r)
        at_risk = survivors - r
    return failures, removals


def simulate_sample(
    scheme: CensoringScheme, n: int, cdf: Cdf, rng: np.random.Generator
) -> CensoredSample:
    """Simulate one censored sample of ``n`` units from ``cdf`` under ``scheme``.

    The draw consumes ``rng`` sequentially, so the same generator state and
    arguments always reproduce the same sample.
    """
    n = as_int(n, "sample size", 1, MAX_N)
    probs = interval_failure_probs(scheme, cdf)
    failures, removals = draw_counts(n, probs, scheme.percentages, rng)
    return CensoredSample(scheme, n, tuple(failures), tuple(removals))
