"""Exact null law of the six statistics, by enumerating every trajectory.

This is the referee for the calibrate check and is independent of the
library: counts follow the binomial chain of progressive interval censoring
(failures in interval i are Binomial(at risk, q_i), then floor(p_i *
survivors) units are withdrawn) and the statistics are recomputed here from
the product-limit estimate.  The bundled designs at n = 40 have at most
57,950 trajectories, which takes well under a second.
"""

from __future__ import annotations

import math


def _statistics(d: list[float]) -> tuple[float, ...]:
    m = len(d)
    c_plus = max(d)
    c_minus = max(-x for x in d)
    return (c_plus, c_minus, max(c_plus, c_minus), c_plus + c_minus,
            sum(x * x for x in d) / m, sum(abs(x) for x in d) / m)


def null_laws(times, percentages, n: int) -> list[list[tuple[float, float]]]:
    """For each statistic, its atoms as (value, probability) sorted by value."""
    m = len(times) - 1
    q = [(times[i + 1] - times[i]) / (1.0 - times[i]) for i in range(m)]
    survival = [1.0 - t for t in times[1:]]
    atoms: list[list[tuple[float, float]]] = [[] for _ in range(6)]

    def walk(i, at_risk, estimate, prob, d):
        if i == m:
            for law, value in zip(atoms, _statistics(d)):
                law.append((value, prob))
            return
        for x in range(at_risk + 1):
            p = prob * math.comb(at_risk, x) * q[i] ** x * (1.0 - q[i]) ** (at_risk - x)
            if p == 0.0:
                continue
            est = estimate * (1.0 - x / at_risk) if at_risk else estimate
            survivors = at_risk - x
            removed = survivors if i == m - 1 else math.floor(percentages[i] * survivors + 1e-9)
            walk(i + 1, survivors - removed, est, p, d + [est - survival[i]])

    walk(0, n, 1.0, 1.0, [])
    return [sorted(law) for law in atoms]


def quantile(law: list[tuple[float, float]], p: float) -> float:
    """Smallest atom v with P(S <= v) >= p."""
    total = 0.0
    for value, prob in law:
        total += prob
        if total >= p - 1e-12:
            return value
    return law[-1][0]


def order_statistic_bounds(law, level: float, replications: int, z: float = 5.0):
    """Where the simulated critical value may fall, and the exact one.

    The simulated value is the ceil(B (1 - level))-th smallest of B draws.
    It lies outside [Q(p - z s), Q(p + z s)], with p = 1 - level and s the
    binomial standard error sqrt(p (1 - p) / B), with probability of order
    the normal tail beyond z, whatever the seed.  Returns (low, high, exact).
    """
    p = math.ceil(replications * (1.0 - level)) / replications
    s = math.sqrt(p * (1.0 - p) / replications)
    return quantile(law, p - z * s), quantile(law, min(p + z * s, 1.0)), quantile(law, 1.0 - level)
