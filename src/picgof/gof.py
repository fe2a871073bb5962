"""Test statistics summarizing a deviation vector, and rejection decisions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import CensoringError
from .schemes import CensoringScheme

if TYPE_CHECKING:
    from .montecarlo import CriticalValueTable

#: Canonical statistic order used everywhere (CSV columns, arrays, dicts).
STAT_NAMES = ("c_plus", "c_minus", "c", "k", "t1", "t2")


@dataclass(frozen=True)
class StatisticSet:
    """The six goodness-of-fit statistics of one sample.

    ``c_plus``/``c_minus`` are the largest signed deviations up and down
    (either can be negative), ``c`` is their maximum, ``k`` their sum,
    ``t1`` the mean squared deviation and ``t2`` the mean absolute deviation.
    Large values speak against the hypothesized model.
    """

    c_plus: float
    c_minus: float
    c: float
    k: float
    t1: float
    t2: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in STAT_NAMES}

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.c_plus, self.c_minus, self.c, self.k, self.t1, self.t2)


def fold_deviations(d) -> np.ndarray:
    """Raw statistics (rows x 6, STAT_NAMES order) of a (rows x m) deviation array, m >= 1,
    folded column by column: each row has a left-to-right scalar loop's bits."""
    d = np.asarray(d, dtype=float)
    c_plus, c_minus, s1, s2 = d[:, 0], -d[:, 0], 0.0, 0.0
    for x in d.T:
        c_plus = np.where(x > c_plus, x, c_plus)
        c_minus = np.where(-x > c_minus, -x, c_minus)
        s1, s2 = s1 + x * x, s2 + np.abs(x)
    m = d.shape[1]
    c = np.where(c_minus > c_plus, c_minus, c_plus)
    return np.column_stack((c_plus, c_minus, c, c_plus + c_minus, s1 / m, s2 / m))


def compute_statistics(d: Sequence[float]) -> StatisticSet:
    """All six statistics of a deviation vector."""
    d = tuple(d)
    if not d:
        raise CensoringError("cannot summarize an empty deviation vector")
    return StatisticSet(*fold_deviations([d])[0].tolist())


def reject(
    observed: StatisticSet,
    critical: "CriticalValueTable",
    *,
    scheme: CensoringScheme | None = None,
    n: int | None = None,
) -> dict[str, bool]:
    """Per-statistic upper-tail rejection decisions.

    Rejection requires strict exceedance: an observed value exactly equal to
    its critical value does not reject.  Pass ``scheme`` and/or ``n`` to have
    them checked by :meth:`CriticalValueTable.check_design`; a mismatch raises
    :class:`CensoringError` instead of silently comparing across designs.
    """
    critical.check_design(scheme, n)
    obs = observed.as_dict()
    return {name: obs[name] > critical.values[name] for name in STAT_NAMES}
