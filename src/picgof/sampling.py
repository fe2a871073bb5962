"""Sample generation under progressive Type-I interval censoring.

Given a censoring scheme, a sample size and a lifetime CDF, a sample is built
interval by interval: every unit entering interval i fails there
independently with the conditional probability q_i, the failures are counted
at the inspection, and floor(p_i * survivors) surviving units are withdrawn
(all of them at the final inspection, where p_m = 1).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .schemes import MAX_N, CensoredSample, CensoringScheme, _model_values, as_int, withdraw_count

#: A lifetime CDF evaluated pointwise; its values at a design's times t_0, ..., t_m must be
#: finite reals that never decrease (the model rule of ``schemes._model_values``).
Cdf = Callable[[float], float]


def interval_failure_probs(scheme: CensoringScheme, cdf: Cdf) -> tuple[float, ...]:
    """Conditional per-interval failure probabilities for units entering each interval.

    q_i = (F(t_i) - F(t_{i-1})) / (1 - F(t_{i-1})), taken as 0 once F has
    reached 1 (no unit can enter such an interval alive), and clamped to 1 for
    a CDF that exceeds 1.  The model rule refuses a decreasing CDF, so q_i is never below 0.
    """
    values = _model_values(scheme, cdf)
    return tuple(min(0.0 if a >= 1.0 else (b - a) / (1.0 - a), 1.0)
                 for a, b in zip(values, values[1:]))


#: Buckets of a table's guide (Chen & Asau 1974): a draw u starts its search at
#: the first column whose upper limit is at least floor(u * 64) / 64.
_GUIDE = 64
#: Fewest live rows drawn from a table, which is built for each draw; below it
#: numpy's own loop is faster, so a block of one 2048-row chunk stays on numpy.
_MIN_ROWS = 2304
#: Most risk sets one table spans, each a row of under 400 cells.
_SPAN = 512


def _inversion_table(p: float, lo: int, hi: int) -> tuple:
    """numpy's inversion sampler at ``p`` as a lookup table for every n in [lo, hi]:
    ``(lo, upper, lower, guide, width)``, flat arrays of one row per n.

    Column x + 1 of a row of ``width`` stands for the count x <= bound, where
    bound = floor(min(n, np + 10 sqrt(np(1 - p) + 1))) is the count past which
    numpy would reject u and draw again.  With c_x the running sums of numpy's
    pmf recurrence, in its own operations (px_0 from libm's exp and log1p), and
    the margin m = 4(x + 1) * 2**-53, a u with c_{x-1} + m < u <= c_x - m
    draws x: ``upper`` holds c_x - m and ``lower`` c_{x-1} + m.  Column 0 holds
    -1, which every u passes, and columns past the bound hold NaN, which no u
    passes or lands in.  ``guide`` holds, for each n and bucket j, the flat
    position of row n's first column whose upper limit is not below j / _GUIDE.
    """
    q = 1.0 - p
    n = np.arange(lo, hi + 1, dtype=np.int64)
    mean = n * p
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * q + 1)).astype(np.int64)
    width = int(bound[-1]) + 3
    pmf = (n + 1.0 - np.arange(width - 2)[:, None]) * p  # (n - x + 1) p, exact
    pmf[0] = [math.exp(v) for v in (n * math.log1p(-p)).tolist()]
    for x in range(1, width - 2):
        pmf[x] *= pmf[x - 1]
        pmf[x] /= x * q
    cum = np.full((len(n), width), -1.0)
    np.cumsum(pmf.T, axis=1, out=cum[:, 1:-1])
    cum[np.arange(width) > bound[:, None] + 1] = np.nan
    margin = np.arange(width) * 2.0**-51
    upper = cum - margin
    lower = np.full_like(cum, np.nan)
    lower[:, 1:] = cum[:, :-1] + margin[1:]
    lower[np.isnan(cum)] = np.nan
    rows = np.arange(len(n))[:, None]
    bucket = np.floor(np.nan_to_num(upper, nan=1.0) * _GUIDE).clip(-1, _GUIDE - 1) + 1
    counts = np.bincount((rows * (_GUIDE + 1) + bucket.astype(np.int64)).ravel(),
                         minlength=len(n) * (_GUIDE + 1)).reshape(len(n), _GUIDE + 1)
    guide = np.cumsum(counts[:, :_GUIDE], axis=1) + rows * width
    return lo, upper.ravel(), lower.ravel(), guide.ravel(), width


def _table(p: float, n: np.ndarray) -> tuple | None:
    """The :func:`_inversion_table` at ``p`` for the nonzero risk sets ``n``, one row per
    risk set in [n.min(), n.max()]; None where numpy leaves inversion (np > 30), where
    fewer than _MIN_ROWS rows would share the table's build and lookup, or where the
    table would span more than _SPAN risk sets."""
    lo, hi = int(n.min()), int(n.max())
    if hi * p > 30.0 or len(n) < _MIN_ROWS or hi - lo >= _SPAN:
        return None
    return _inversion_table(p, lo, hi)


def _invert(u: np.ndarray, n: np.ndarray, table: tuple) -> np.ndarray | None:
    """The counts numpy's inversion loop draws from uniforms ``u`` at risk sets
    ``n``, looked up in an :func:`_inversion_table`; None if some u lies within
    a margin of the running sum it would stop at, or past the bound.

    Each row starts at its guide entry and advances while u is above the upper
    limit; it draws the count of the column it stops at if u is above the
    lower limit there.
    """
    lo, upper, lower, guide, width = table
    row = n - lo
    pos = guide[row * _GUIDE + (u * _GUIDE).astype(np.int64)]
    i = np.flatnonzero(u > upper[pos])
    while i.size:
        pos[i] += 1
        i = i[u[i] > upper[pos[i]]]
    if (u > lower[pos]).all():
        return pos - row * width - 1
    return None


def _binomial(stream: Callable[[int], np.random.Generator], at_risk: np.ndarray, q: float,
              size: int) -> np.ndarray:
    """``stream(k).binomial(part, q)`` for each part k of ``size`` rows of an int64 array (the
    last may be shorter), concatenated, where ``stream(k)`` returns part k's generator at the
    start of its stream each time; each stream is left where that draw leaves it.

    numpy 2.4.6 draws a row with n > 0 and np <= 30, where p = min(q, 1 - q), by
    inversion: from one uniform u, x is the first count with
    u - px_0 - ... - px_{x-1} <= px_x, and a draw at q > 1/2 is n - x.  Here one
    table of the same px's running sums c, built for this call's risk sets, serves
    every part: the uniforms of each part's live rows, drawn from its own stream,
    are looked up together in it (:func:`_invert`).  Rounding moves numpy's
    subtraction chain and the sums apart by under 1.5 x * 2**-53, so where u lies
    more than 4(x + 1) * 2**-53 from c_x and c_{x-1}, numpy's loop stops at x too.
    Otherwise, and wherever :func:`_table` gives no table, numpy draws each part
    from the start of its stream.
    """
    parts = [at_risk[s : s + size] for s in range(0, len(at_risk), size)]
    live = np.flatnonzero(at_risk)
    n = at_risk[live]
    table = _table(1.0 - q if q > 0.5 else q, n) if 0.0 < q <= 1.0 and live.size else None
    if table is not None:
        u = np.concatenate([stream(k).random(np.count_nonzero(part)) for k, part in enumerate(parts)])
        x = _invert(u, n, table)
        if x is not None:
            counts = np.zeros_like(at_risk)
            counts[live] = n - x if q > 0.5 else x
            return counts
    return np.concatenate([stream(k).binomial(part, q) for k, part in enumerate(parts)])


def simulate_sample(
    scheme: CensoringScheme, n: int, cdf: Cdf, rng: np.random.Generator
) -> CensoredSample:
    """Simulate one censored sample of ``n`` units from ``cdf`` under ``scheme``.

    The draw consumes ``rng`` sequentially, one binomial per interval with q_i > 0, so
    the same generator state and arguments always reproduce the same sample.
    """
    n = as_int(n, "sample size", 1, MAX_N)
    failures, removals, at_risk = [], [], n
    for q, p in zip(interval_failure_probs(scheme, cdf), scheme.percentages):
        failures.append(int(rng.binomial(at_risk, q)) if q else 0)
        removals.append(withdraw_count(p, at_risk - failures[-1]))
        at_risk -= failures[-1] + removals[-1]
    return CensoredSample(scheme, n, tuple(failures), tuple(removals))
