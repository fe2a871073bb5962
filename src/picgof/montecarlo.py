"""Monte Carlo calibration: null critical values, p-values and power estimates.

Replications run in chunks of CHUNK_SIZE, the stream unit.  Chunk c draws
interval i of all its replications from the Philox stream keyed by
(master seed, c), with i in the counter's high word.  Its binomials are
numpy's ``Generator.binomial`` values, mostly looked up in an inversion table
built for each block and interval (see :func:`picgof.sampling._binomial`).  A
block, the dispatch unit, is a run of one model's consecutive chunks that
advance together, one array step per interval, each chunk still drawing from
its own stream.  Blocks are reassembled in index order, so every result is a
pure function of (scheme, n, model, seed, B): running with 1, 4 or 8 worker
processes yields bit-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import UNIFORM
from .errors import CensoringError
from .gof import STAT_NAMES, _as_row, _finish
from .reliability import _block, _step, null_survival
from .sampling import Cdf, _binomial, interval_failure_probs
from .schemes import (
    MAX_N,
    CensoringScheme,
    _items,
    _json_fields,
    as_int,
    as_real,
    csv_rows,
    load_input,
    scheme_fields,
    scheme_id,
    withdraw_count,
)

#: Replications per chunk, the stream unit.  Fixed, so every row's stream never
#: depends on the worker count.
CHUNK_SIZE = 2048
#: Most chunks in a block, the dispatch unit (32,768 rows), which bounds a task's memory.
_BLOCK_CHUNKS = 16

TABLE_CSV_HEADER = ",".join(("scheme_id", "n", "level", "B", "seed", *STAT_NAMES))


def derive_stream(seed: int, index: int, interval: int = 0) -> np.random.Generator:
    """The independent random stream keyed by (seed, index), at ``interval``.

    The interval selects the high word of the Philox counter, so the streams
    of one key never overlap; interval 0 is the stream of the key alone.
    """
    key = np.array([as_int(seed, "seed", 0, 2**64), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=[0, 0, 0, interval], key=key))


def __getattr__(name):  # PEP 562: concurrent.futures is imported only when a pool starts
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _exceedances(compare, bounds, stats) -> np.ndarray:
    """Per column, the number of rows of ``stats`` where ``compare(row, bounds)`` holds."""
    return np.count_nonzero(compare(stats, bounds), axis=0)


def _rekeyed(seed: int, first: int):
    """``stream(c, i)``: the generator of :func:`derive_stream` (seed, c, i) at its start, made
    by re-keying one Philox through its state rather than building one per (chunk, interval)."""
    rng = derive_stream(seed, first)
    state = rng.bit_generator.state
    key, counter = state["state"]["key"], state["state"]["counter"]

    def stream(c: int, i: int) -> np.random.Generator:
        key[1], counter[3] = c, i
        rng.bit_generator.state = state
        return rng

    return stream


def _statistic_block(n, percentages, survival, seed, replications, reduce, probs, chunks):
    """Statistics of one model's replications in the chunks of the range ``chunks``, reduced
    by ``reduce``: interval i draws each chunk c's failures from stream (seed, c, i), none where
    q_i = 0 (numpy would draw 0 and consume nothing), withdraws by its percentage and takes
    one :func:`_step` over the whole block."""
    start = chunks.start * CHUNK_SIZE
    at_risk, estimate, stats = _block(n, min(chunks.stop * CHUNK_SIZE, replications) - start)
    stream = _rekeyed(seed, chunks.start)
    for i, (q, p, s) in enumerate(zip(probs, percentages, survival)):
        x = _binomial(lambda k: stream(chunks[k], i), at_risk, q, CHUNK_SIZE) if q else 0
        _step(at_risk, estimate, stats, x, withdraw_count(p, at_risk - x), s)
    stats = _finish(stats, len(probs))
    return stats if reduce is None else reduce(stats)


def _replicate(scheme, n, models: Sequence[Cdf], seed, replications, workers, reduce=None):
    """Per model, its summed ``reduce`` counts, all (model x block) tasks batched over one
    worker pool; without ``reduce``, ``[rows]``, the :func:`replicated_statistics` of one model.
    Returned with the B it validated, an ``int``.  Each model's chunks split into the fewest
    near-equal blocks of at most _BLOCK_CHUNKS that leave every worker a task."""
    n = as_int(n, "sample size", 1, MAX_N)
    replications = as_int(replications, "replications", 1)
    survival = null_survival(scheme, UNIFORM)
    try:
        stats = np.empty((replications, len(STAT_NAMES)))
    except (MemoryError, ValueError):
        raise CensoringError(f"{replications} replications do not fit in memory") from None
    probs = [interval_failure_probs(scheme, model) for model in models]
    chunks = math.ceil(replications / CHUNK_SIZE)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(as_int(workers, "workers") or cpus, cpus, len(models) * chunks)
    seed = as_int(seed, "seed", 0, 2**64)
    runs = max(math.ceil(chunks / _BLOCK_CHUNKS), math.ceil(workers / len(models)))
    blocks = [range(k * chunks // runs, (k + 1) * chunks // runs) for k in range(runs)]
    probs = [q for q in probs for _ in blocks]
    block = partial(_statistic_block, n, scheme.percentages, survival, seed, replications, reduce)
    with sys.modules[__name__].ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        batched = partial(pool.map, chunksize=math.ceil(len(probs) / (4 * workers))) if pool else map
        parts = batched(block, probs, blocks * len(models))
        if reduce is not None:
            return [sum(next(parts) for _ in blocks) for _ in models], replications
        for span, part in zip(blocks, parts):
            stats[span.start * CHUNK_SIZE : span.stop * CHUNK_SIZE] = part
    return [stats], replications


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
    ``workers`` (0 means one worker per CPU this process may run on; never
    more than those CPUs or the number of chunks are started).
    """
    [stats], _ = _replicate(scheme, n, [model], seed, replications, workers)
    return stats


@dataclass(frozen=True)
class CriticalValueTable:
    """Upper-tail critical values for the six statistics, with provenance.

    ``values`` maps statistic names (see STAT_NAMES) to critical values;
    the remaining fields record what the table was computed for, so that
    tests against mismatched designs can be refused.  Construction validates:
    the level lies in (0, 1), every critical value is a finite real (see
    :func:`as_real`) and ``scheme``, when given, is the design ``scheme_id`` names.
    """

    scheme_id: str
    n: int
    level: float
    replications: int
    seed: int
    values: dict[str, float]
    scheme: CensoringScheme | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "n", 1, MAX_N))
        object.__setattr__(self, "level", as_real(self.level, "level"))
        object.__setattr__(self, "replications", as_int(self.replications, "B", 1))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0, 2**64))
        try:
            values = {k: as_real(self.values[k], f"critical value {k}") for k in STAT_NAMES}
        except (KeyError, TypeError) as exc:
            raise CensoringError(f"malformed critical value table: {exc!r}") from None
        object.__setattr__(self, "values", values)
        if not 0.0 < self.level < 1.0:
            raise CensoringError(f"table level must lie in (0, 1), got {self.level!r}")
        if self.scheme is not None and scheme_id(self.scheme) != self.scheme_id:
            raise CensoringError(
                f"table scheme_id {self.scheme_id} does not match its scheme, {scheme_id(self.scheme)}"
            )

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
        """Raise :class:`CensoringError` unless the table was computed for ``scheme`` and
        ``n``, read by the sample-size rule of :func:`as_int`; None is not checked."""
        if n is not None and (n := as_int(n, "sample size", 1, MAX_N)) != self.n:
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
        return cls(sid, n, level, b, seed, dict(zip(STAT_NAMES, values)))

    @classmethod
    def from_json(cls, text: str) -> "CriticalValueTable":
        obj = json.loads(text)
        fields = _json_fields(obj, "critical value table JSON", "scheme_id", "n", "level", "B",
                              "seed", "critical_values")
        if "scheme" in obj:  # present means a design, so "scheme": null is refused
            fields.append(CensoringScheme(*_json_fields(obj["scheme"], "table scheme JSON",
                                                        "times", "percentages")))
        return cls(*fields)

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
    rejection, its rank exact in the level's shortest decimal form (level
    0.059 of B = 1000 is the 941st).  B = 20000 pins critical values to
    within about +/-0.02 for the max-type statistics; tables meant for
    production use should keep B at 1000 or more.
    """
    level = as_real(level, "level")
    if not 0.0 < level < 1.0:
        raise CensoringError(f"level must lie strictly between 0 and 1, got {level!r}")
    stats = replicated_statistics(scheme, n, UNIFORM, seed, replications, workers)
    from fractions import Fraction  # here, so that test and power processes skip decimal
    order = math.ceil(len(stats) * (1 - Fraction(repr(level))))  # len(stats) is B, an int
    values = {name: float(np.partition(stats[:, j], order - 1)[order - 1])
              for j, name in enumerate(STAT_NAMES)}
    return CriticalValueTable(scheme_id(scheme), n, level, len(stats), seed, values, scheme)


def p_value(
    observed: Sequence[float],
    scheme: CensoringScheme,
    n: int,
    replications: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, float]:
    """Monte Carlo upper-tail p-values, as floats, for a row of six statistics.

    ``observed`` is any six reals in STAT_NAMES order, as for :func:`reject`.
    Uses the add-one estimator (1 + #{simulated >= observed}) / (B + 1),
    which never returns 0 and is itself a valid p-value.
    """
    at_least = partial(_exceedances, np.greater_equal, np.array(_as_row(observed)))
    [hits], replications = _replicate(scheme, n, [UNIFORM], seed, replications, workers, at_least)
    return {name: (1 + int(h)) / (replications + 1) for name, h in zip(STAT_NAMES, hits)}


def power(
    scheme: CensoringScheme,
    n: int,
    critical: CriticalValueTable,
    models: Sequence[Cdf],
    replications: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Rejection frequency of each statistic when sampling from each of ``models``.

    Returns ``(freq, stderr)``, two (len(models) x 6) arrays whose rows follow
    ``models`` and whose columns follow STAT_NAMES.  Rejection is strict
    exceedance of the critical value; ``stderr`` is the binomial standard
    error sqrt(f (1 - f) / B).  Every model reuses the master seed (common
    random numbers), which makes power differences between models far less
    noisy than independent runs would be, and every model's chunks share one
    worker pool.  The table must have been computed for the same scheme and n.
    """
    message = "power needs a list of at least one model; pass [model] for one"
    if not (models := _items(models, message)):
        raise CensoringError(message)
    critical.check_design(scheme, n)
    above = partial(_exceedances, np.greater, np.array([critical.values[k] for k in STAT_NAMES]))
    hits, replications = _replicate(scheme, n, models, seed, replications, workers, above)
    freq = np.array(hits) / replications
    return freq, np.sqrt(freq * (1.0 - freq) / replications)
