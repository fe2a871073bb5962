"""Monte Carlo calibration: null critical values, p-values and power estimates.

Every replication draws from its own counter-based random stream, keyed by
(master seed, replication index); one generator per chunk of CHUNK_SIZE
replications is re-keyed to each index in turn.  Chunks are reassembled in
index order, so every result is a pure function of (scheme, n, model, seed,
B): running with 1, 4 or 8 worker processes yields bit-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import UNIFORM, AlternativeFamily, TabulatedCdf
from .errors import CensoringError
from .gof import STAT_NAMES, StatisticSet, fold_deviations
from .reliability import product_limit
from .sampling import Cdf, draw_counts, interval_failure_probs
from .schemes import (
    MAX_N,
    CensoringScheme,
    as_int,
    as_real,
    csv_rows,
    load_input,
    scheme_fields,
    scheme_id,
)

#: Replications per dispatch unit.  Fixed, so the chunk layout never depends
#: on the worker count.
CHUNK_SIZE = 2048

TABLE_CSV_HEADER = "scheme_id,n,level,B,seed,c_plus,c_minus,c,k,t1,t2"
POWER_CSV_HEADER = "family,param,stat,power,stderr"


def derive_stream(seed: int, index: int) -> np.random.Generator:
    """The independent random stream used for replication ``index`` of a run."""
    if not 0 <= seed < 2**64:
        raise CensoringError(f"seed must be an integer in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _statistic_chunk(args) -> np.ndarray:
    n, probs, percentages, null_survival, seed, start, stop = args
    rng = derive_stream(seed, start)
    state = rng.bit_generator.state
    counts = []
    for rep in range(start, stop):
        # re-keying a fresh state gives the stream of derive_stream(seed, rep)
        state["state"]["key"][1] = rep
        rng.bit_generator.state = state
        counts.append(draw_counts(n, probs, percentages, rng))
    est = product_limit(n, *zip(*counts))
    return fold_deviations(est - np.array(null_survival))


def replicated_statistics(
    scheme: CensoringScheme,
    n: int,
    model: Cdf,
    seed: int,
    replications: int,
    workers: int = 1,
) -> np.ndarray:
    """A (replications x 6) array of statistics from independent samples.

    Samples are drawn from ``model``; the statistics always measure the gap
    to the uniform null at the scheme's inspection times, so the scheme must
    satisfy t_m < 1.  Row order follows the replication index regardless of
    ``workers`` (0 means one worker per CPU; never more than the CPU count
    or the number of chunks are started).
    """
    n = as_int(n, "sample size", 1, MAX_N)
    replications = as_int(replications, "replications", 1)
    if scheme.times[-1] >= 1.0:
        raise CensoringError(
            "uniformity statistics need the final inspection time below 1, "
            f"got {scheme.times[-1]!r}"
        )
    probs = interval_failure_probs(scheme, model)
    null_survival = tuple(1.0 - UNIFORM(t) for t in scheme.inspection_times)
    chunks = [
        (n, probs, scheme.percentages, null_survival, seed, start, min(start + CHUNK_SIZE, replications))
        for start in range(0, replications, CHUNK_SIZE)
    ]
    cpus = os.cpu_count() or 1
    workers = min(as_int(workers, "workers") or cpus, cpus, len(chunks))
    if workers == 1:
        parts = [_statistic_chunk(chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_statistic_chunk, chunks))
    return np.vstack(parts)


@dataclass(frozen=True)
class CriticalValueTable:
    """Upper-tail critical values for the six statistics, with provenance.

    ``values`` maps statistic names (see STAT_NAMES) to critical values;
    the remaining fields record what the table was computed for, so that
    tests against mismatched designs can be refused.
    """

    scheme_id: str
    n: int
    level: float
    replications: int
    seed: int
    values: dict[str, float]
    scheme: CensoringScheme | None = None

    def to_csv(self) -> str:
        row = [self.scheme_id, str(self.n), repr(self.level), str(self.replications), str(self.seed)]
        row += [repr(self.values[name]) for name in STAT_NAMES]
        return TABLE_CSV_HEADER + "\n" + ",".join(row) + "\n"

    def to_json(self) -> str:
        obj = {
            "scheme_id": self.scheme_id,
            "n": self.n,
            "level": self.level,
            "B": self.replications,
            "seed": self.seed,
            "critical_values": {name: self.values[name] for name in STAT_NAMES},
        }
        if self.scheme is not None:
            obj["scheme"] = scheme_fields(self.scheme)
        return json.dumps(obj)

    def check_design(self, scheme: CensoringScheme | None = None, n: int | None = None) -> None:
        """Raise :class:`CensoringError` unless the table was computed for
        ``scheme`` and ``n``; an argument left as None is not checked."""
        if n is not None and n != self.n:
            raise CensoringError(f"table was computed for n = {self.n}, got n = {n}")
        if scheme is not None and scheme_id(scheme) != self.scheme_id:
            raise CensoringError(
                f"table was computed for scheme {self.scheme_id}, got {scheme_id(scheme)}"
            )

    @classmethod
    def from_csv(cls, text: str) -> "CriticalValueTable":
        rows = csv_rows(text, TABLE_CSV_HEADER.split(","))
        if len(rows) != 1:
            raise CensoringError("expected exactly one table row")
        sid, n, level, b, seed, *values = rows[0]
        return cls._from_dict({
            "scheme_id": sid, "n": n, "level": level, "B": b, "seed": seed,
            "critical_values": dict(zip(STAT_NAMES, values)),
        })

    @classmethod
    def from_json(cls, text: str) -> "CriticalValueTable":
        return cls._from_dict(json.loads(text))

    @classmethod
    def _from_dict(cls, obj) -> "CriticalValueTable":
        """The table of a parsed CSV row or JSON object.

        Its level must lie in (0, 1), its critical values must be finite and
        its ``scheme``, when present, must be the one ``scheme_id`` names.
        """
        try:
            scheme = None
            if "scheme" in obj:
                scheme = CensoringScheme(obj["scheme"]["times"], obj["scheme"]["percentages"])
            table = cls(
                scheme_id=obj["scheme_id"],
                n=as_int(obj["n"], "n", 1, MAX_N),
                level=as_real(obj["level"], "level"),
                replications=as_int(obj["B"], "B", 1),
                seed=as_int(obj["seed"], "seed", 0, 2**64),
                values={
                    name: as_real(obj["critical_values"][name], name)
                    for name in STAT_NAMES
                },
                scheme=scheme,
            )
        except (KeyError, TypeError) as exc:
            raise CensoringError(f"malformed critical value table: {exc!r}") from None
        if not 0.0 < table.level < 1.0:
            raise CensoringError(f"table level must lie in (0, 1), got {table.level!r}")
        for name, value in table.values.items():
            if not math.isfinite(value):
                raise CensoringError(f"critical value {name} must be finite, got {value!r}")
        if scheme is not None and scheme_id(scheme) != table.scheme_id:
            raise CensoringError(
                f"table scheme_id {table.scheme_id} does not match its scheme, {scheme_id(scheme)}"
            )
        return table

    @classmethod
    def load(cls, path: str | os.PathLike) -> "CriticalValueTable":
        return load_input(path, cls.from_csv, cls.from_json)


def critical_values(
    scheme: CensoringScheme,
    n: int,
    level: float = 0.05,
    replications: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> CriticalValueTable:
    """Simulated upper-tail critical values under the uniform null.

    Each critical value is the ceil(B * (1 - level))-th smallest of B
    simulated null statistics, the conservative choice for strict-exceedance
    rejection.  B = 20000 pins critical values to within about +/-0.02 for
    the max-type statistics; tables meant for production use should keep
    B at 1000 or more.
    """
    if not 0.0 < level < 1.0:
        raise CensoringError(f"level must lie strictly between 0 and 1, got {level!r}")
    stats = replicated_statistics(scheme, n, UNIFORM, seed, replications, workers)
    order = math.ceil(replications * (1.0 - level))
    values = {name: float(np.sort(stats[:, j])[order - 1]) for j, name in enumerate(STAT_NAMES)}
    return CriticalValueTable(
        scheme_id=scheme_id(scheme),
        n=int(n),
        level=float(level),
        replications=replications,
        seed=seed,
        values=values,
        scheme=scheme,
    )


def p_value(
    observed: StatisticSet,
    scheme: CensoringScheme,
    n: int,
    replications: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, float]:
    """Monte Carlo upper-tail p-values for each statistic.

    Uses the add-one estimator (1 + #{simulated >= observed}) / (B + 1),
    which never returns 0 and is itself a valid p-value.
    """
    stats = replicated_statistics(scheme, n, UNIFORM, seed, replications, workers)
    hits = np.count_nonzero(stats >= np.array(observed.as_tuple()), axis=0)
    return {name: (1 + int(h)) / (replications + 1) for name, h in zip(STAT_NAMES, hits)}


@dataclass(frozen=True)
class PowerEstimate:
    """Estimated rejection frequency of each statistic under one alternative."""

    family: str
    parameter: float | None
    power: dict[str, float]
    stderr: dict[str, float]
    replications: int
    seed: int


def power(
    scheme: CensoringScheme,
    n: int,
    critical: CriticalValueTable,
    alternative: AlternativeFamily | TabulatedCdf,
    replications: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> PowerEstimate:
    """Rejection frequency of each statistic when sampling from ``alternative``.

    Rejection is strict exceedance of the critical value.  The binomial
    standard error sqrt(f (1 - f) / B) is reported per statistic.  The table
    must have been computed for the same scheme and n.
    """
    critical.check_design(scheme, n)
    stats = replicated_statistics(scheme, n, alternative, seed, replications, workers)
    freq = {}
    err = {}
    for j, name in enumerate(STAT_NAMES):
        hits = int(np.count_nonzero(stats[:, j] > critical.values[name]))
        f = hits / replications
        freq[name] = f
        err[name] = math.sqrt(f * (1.0 - f) / replications)
    return PowerEstimate(
        family=alternative.kind,
        parameter=alternative.parameter,
        power=freq,
        stderr=err,
        replications=replications,
        seed=seed,
    )


def power_curve(
    scheme: CensoringScheme,
    n: int,
    critical: CriticalValueTable,
    family_kind: str,
    grid: Iterable[float],
    replications: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> list[PowerEstimate]:
    """Power at each parameter value of one family, in grid order.

    The same master seed is reused at every grid point (common random
    numbers), which makes power differences along the grid far less noisy
    than independent runs would be.
    """
    points = [float(p) for p in grid]
    if not points:
        raise CensoringError("empty parameter grid")
    families = [AlternativeFamily(family_kind, parameter=p) for p in points]
    return [
        power(scheme, n, critical, fam, replications, seed, workers) for fam in families
    ]


def power_estimates_to_csv(estimates: Sequence[PowerEstimate]) -> str:
    """Long-form CSV (one row per statistic per estimate) for power results."""
    lines = [POWER_CSV_HEADER]
    for est in estimates:
        param = "" if est.parameter is None else repr(est.parameter)
        for name in STAT_NAMES:
            lines.append(
                f"{est.family},{param},{name},{est.power[name]!r},{est.stderr[name]!r}"
            )
    return "\n".join(lines) + "\n"
