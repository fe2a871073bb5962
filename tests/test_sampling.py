"""Sample generation: interval probabilities, withdrawals, and the binomial law."""

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import picgof as pg
from picgof import sampling
from picgof.sampling import interval_failure_probs, withdraw_count
from picgof.schemes import MAX_N
from strategies import families, schemes

T1P1 = pg.load_scheme("t1p1")


class TestIntervalFailureProbs:
    def test_uniform_on_equally_spaced_times(self):
        probs = interval_failure_probs(T1P1, pg.UNIFORM)
        expected = (0.1, 1 / 9, 1 / 8, 1 / 7, 1 / 6)
        assert probs == pytest.approx(expected, rel=1e-12)

    def test_zero_cdf_gives_zero_probs(self):
        probs = interval_failure_probs(T1P1, lambda t: 0.0)
        assert probs == (0.0,) * 5

    def test_saturated_cdf_stops_cleanly(self):
        # F hits 1 at the first inspection; later intervals see no one alive
        probs = interval_failure_probs(T1P1, lambda t: 1.0 if t > 0 else 0.0)
        assert probs == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(pg.CensoringError, match="cdf decreases"):
            interval_failure_probs(T1P1, lambda t: 1.0 - t)

    def test_clamps_rounding_spill(self):
        over = np.nextafter(1.0, 2.0)
        scheme = pg.CensoringScheme((0.0, 0.5), (1.0,))
        probs = interval_failure_probs(scheme, lambda t: over if t > 0 else 0.0)
        assert probs == (1.0,)

    @given(schemes(), families())
    def test_probs_lie_in_unit_interval(self, scheme, family):
        probs = interval_failure_probs(scheme, family)
        assert all(0.0 <= q <= 1.0 for q in probs)


class TestWithdrawCount:
    @pytest.mark.parametrize(
        "pct,survivors,expected",
        [
            (0.25, 30, 7),
            (0.5, 7, 3),
            (1.0, 9, 9),
            (0.0, 9, 0),
            (0.25, 0, 0),
            # decimal percentages behave like their decimal intent even when
            # the binary float sits just below (0.7 * 10 is 6.999...)
            (0.7, 10, 7),
            (0.29, 100, 29),
            (0.1, 30, 3),
        ],
    )
    def test_floor_rule(self, pct, survivors, expected):
        assert withdraw_count(pct, survivors) == expected

    def test_guard_does_not_round_real_fractions_up(self):
        assert withdraw_count(0.333, 3) == 0
        assert withdraw_count(1 / 3, 2) == 0
        assert withdraw_count(0.999, 1) == 0

    @given(st.integers(0, MAX_N - 1))
    @example(0)
    @example(1)
    @example(2**52)
    @example(MAX_N - 1)
    def test_never_withdraws_more_than_survive(self, survivors):
        # every survivor count is an exact float, so the full percentage withdraws
        # exactly the survivors; the engine relies on it to empty the risk set at
        # the last inspection, whose percentage every scheme fixes at 1.0
        assert withdraw_count(1.0, survivors) == survivors
        counts = withdraw_count(1.0, np.array([survivors], dtype=np.int64))
        assert counts.dtype == np.int64
        assert counts.tolist() == [survivors]

    @given(st.lists(st.integers(0, MAX_N - 1), min_size=1, max_size=8), st.floats(0.0, 1.0))
    @example([MAX_N - 1], 1.0)  # the top of the count domain
    def test_array_form_equals_the_int_form(self, survivors, pct):
        counts = withdraw_count(pct, np.array(survivors, dtype=np.int64))
        assert counts.dtype == np.int64
        for s, count in zip(survivors, counts.tolist()):
            assert count == withdraw_count(pct, s) == math.floor(pct * s + 1e-9) <= s


class TestSimulateSample:
    def test_zero_cdf_withdrawal_cascade(self):
        # no failures ever, so the percentages alone drive the trajectory:
        # 40 -> withdraw 10, 30 -> 7, 23 -> 11, 12 -> 6, 6 -> 6
        rng = pg.derive_stream(0, 0)
        sample = pg.simulate_sample(T1P1, 40, lambda t: 0.0, rng)
        assert sample.failures == (0, 0, 0, 0, 0)
        assert sample.removals == (10, 7, 11, 6, 6)

    def test_saturated_cdf_all_fail_first_interval(self):
        rng = pg.derive_stream(0, 0)
        sample = pg.simulate_sample(T1P1, 40, lambda t: 1.0 if t > 0 else 0.0, rng)
        assert sample.failures == (40, 0, 0, 0, 0)
        assert sample.removals == (0, 0, 0, 0, 0)

    def test_deterministic_given_stream(self):
        a = pg.simulate_sample(T1P1, 40, pg.UNIFORM, pg.derive_stream(11, 4))
        b = pg.simulate_sample(T1P1, 40, pg.UNIFORM, pg.derive_stream(11, 4))
        c = pg.simulate_sample(T1P1, 40, pg.UNIFORM, pg.derive_stream(11, 5))
        assert a == b
        assert a != c

    @settings(max_examples=60)
    @given(schemes(), families(), st.integers(1, MAX_N - 1), st.integers(0, 2**64 - 1))
    def test_consumes_the_stream_like_a_scalar_loop(self, scheme, family, n, seed):
        # one scalar binomial per interval, in interval order, none once the
        # risk set is empty
        rng = pg.derive_stream(seed, 0)
        failures, removals, at_risk = [], [], n
        for i, q in enumerate(interval_failure_probs(scheme, family)):
            x = int(rng.binomial(at_risk, q)) if at_risk > 0 else 0
            last = i == len(scheme.percentages) - 1
            r = at_risk - x if last else withdraw_count(scheme.percentages[i], at_risk - x)
            failures.append(x)
            removals.append(r)
            at_risk -= x + r
        sample = pg.simulate_sample(scheme, n, family, pg.derive_stream(seed, 0))
        assert (sample.failures, sample.removals) == (tuple(failures), tuple(removals))
        assert all(type(v) is int for v in sample.failures + sample.removals)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, 2**53])
    def test_rejects_bad_n(self, n):
        with pytest.raises(pg.CensoringError, match="sample size must be an integer"):
            pg.simulate_sample(T1P1, n, pg.UNIFORM, pg.derive_stream(0, 0))

    @settings(max_examples=60)
    @given(schemes(), families(), st.integers(1, 40), st.integers(0, 2**32))
    def test_samples_always_valid(self, scheme, family, n, seed):
        # CensoredSample construction enforces conservation and feasibility,
        # so surviving this call is the assertion
        sample = pg.simulate_sample(scheme, n, family, pg.derive_stream(seed, 0))
        assert sum(sample.failures) + sum(sample.removals) == n

    def test_first_interval_counts_follow_binomial_law(self):
        scheme = pg.CensoringScheme((0.0, 0.3), (1.0,))
        n, reps = 6, 20000
        counts = np.zeros(n + 1)
        for r in range(reps):
            sample = pg.simulate_sample(scheme, n, pg.UNIFORM, pg.derive_stream(17, r))
            counts[sample.failures[0]] += 1
        expected = reps * sps.binom.pmf(np.arange(n + 1), n, 0.3)
        result = sps.chisquare(counts, expected)
        assert result.pvalue > 0.001

    def test_mean_failures_match_binomial_mean(self):
        reps = 20000
        total = 0
        for r in range(reps):
            total += pg.simulate_sample(T1P1, 40, pg.UNIFORM, pg.derive_stream(23, r)).failures[0]
        se = np.sqrt(40 * 0.1 * 0.9 / reps)
        assert abs(total / reps - 4.0) < 4 * se


#: numpy's uniforms are multiples of this.
ULP = 2.0**-53


def _philox(seed, first=()):
    """A Philox generator keyed by ``seed`` whose next uniforms are ``first``
    (at most four multiples of 2**-53 in [0, 1)), read from its output buffer."""
    rng = np.random.Generator(np.random.Philox(seed))
    if first:
        state = rng.bit_generator.state
        state["buffer"][4 - len(first):] = [round(u / ULP) << 11 for u in first]
        state["buffer_pos"] = 4 - len(first)
        rng.bit_generator.state = state
    return rng


def _numpy_inversion(u, n, p):
    """numpy's inversion loop (random_binomial_inversion, numpy 2.4.6) for one
    uniform ``u``, n and p <= 1/2, with its own operations; None where it would
    reject u and draw again."""
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px = 0, math.exp(n * math.log1p(-p))
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def _running_sums(n, p):
    """c_0 .. c_bound, the sequential sums of numpy's pmf recurrence."""
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = c = math.exp(n * math.log1p(-p))
    sums = [c]
    for x in range(1, bound + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        c += px
        sums.append(c)
    return sums


def _restarting(gens):
    """A ``stream`` for _binomial over one part per generator of ``gens``: part k's
    generator, put back where it stood when this was called."""
    states = [g.bit_generator.state for g in gens]

    def stream(k):
        gens[k].bit_generator.state = states[k]
        return gens[k]

    return stream


def _same_draws(at_risk, q, seed, first=(), size=None):
    """Whether _binomial and Generator.binomial draw alike from twin streams and
    leave them at the same next raw 64-bit draw: one stream keyed by ``seed``, or
    given ``size``, one per part of ``size`` rows, keyed by seed, seed + 1, ..."""
    size = size or len(at_risk)
    keys = [(seed + k) % 2**64 for k in range(math.ceil(len(at_risk) / size))]
    mine, twins = [_philox(key, first) for key in keys], [_philox(key, first) for key in keys]
    x = sampling._binomial(_restarting(mine), at_risk, q, size)
    parts = np.split(at_risk, range(size, len(at_risk), size))
    y = np.concatenate([g.binomial(part, q) for g, part in zip(twins, parts)])
    assert x.dtype == y.dtype == np.int64
    return np.array_equal(x, y) and all(
        a.bit_generator.random_raw() == b.bit_generator.random_raw() for a, b in zip(mine, twins))


@st.composite
def risk_sets(draw, rows=None):
    """int64 risk-set arrays of ``rows`` rows (by default 1, 2 or 2048, or up to 64),
    clustered or spread anywhere in [0, 2**53), with some or all rows empty."""
    rows = rows or draw(st.sampled_from([1, 2, 2048]) | st.integers(1, 64))
    top = draw(st.sampled_from([60, 400, 10**6, MAX_N - 1]))
    base = draw(st.integers(0, top))
    spread = draw(st.sampled_from([0, 1, 40, top]))
    empty = draw(st.sampled_from([0.0, 0.1, 1.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    at_risk = np.minimum(base + gen.integers(0, spread, rows, endpoint=True), top)
    at_risk[gen.random(rows) < empty] = 0
    return at_risk.astype(np.int64)


@st.composite
def blocks(draw):
    """(risk sets, part size): two to four parts of one size, the last shorter, with
    some rows empty in at least one part."""
    size = draw(st.sampled_from([2, 700, 2048]) | st.integers(2, 40))
    rows = draw(st.integers(1, 3)) * size + draw(st.integers(1, size - 1))
    at_risk = draw(risk_sets(rows))
    at_risk[draw(st.integers(0, rows - 1))] = 0
    return at_risk, size


#: Failure probabilities: anywhere in [0, 1], tiny (np <= 30 even at n near
#: 2**53), within 1e-6 of 1, and the branch points of numpy's sampler.
failure_probs = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(1e-15, 1e-6),
    st.floats(1e-15, 1e-6).map(lambda e: 1.0 - e),
    st.sampled_from([0.25, 0.5, 0.75, 1.0]),
)


class TestTableBinomial:
    """sampling._binomial draws Generator.binomial's values from its stream."""

    @settings(max_examples=300, deadline=None)
    @given(risk_sets(), failure_probs, st.integers(0, 2**64 - 1))
    @example(np.full(1, MAX_N - 1), 1e-15, 0)  # tiny p at the top of the count domain
    @example(np.array([1, 79_000_000_000]), 1e-11, 1)  # a span no table may cover
    @example(np.full(2048, 120), 0.25, 2)  # np is exactly 30: still inversion
    @example(np.full(2048, 120), 0.75, 3)  # the same, drawn as n - x
    @example(np.full(2048, 121), 0.25, 4)  # np just above 30: numpy's BTPE
    @example(np.full(2048, 60), 0.5, 5)  # p = 1/2 is drawn as x, not n - x
    @example(np.full(2048, 40), 1.0, 6)
    @example(np.zeros(2048, dtype=np.int64), 0.3, 7)
    def test_equals_numpy_at_two_seeds(self, at_risk, q, seed):
        # every row count takes the table path, so 1 and 2 rows are tables too
        with mock.patch.object(sampling, "_MIN_ROWS", 1):
            assert _same_draws(at_risk, q, seed)
            assert _same_draws(at_risk, q, (seed + 1) % 2**64)

    @settings(max_examples=150, deadline=None)
    @given(blocks(), failure_probs, st.integers(0, 2**64 - 1))
    @example((np.full(2 * 2048 + 5, 120), 2048), 0.25, 2)  # three parts drawn from one table
    @example((np.full(2 * 2048 + 5, 120), 2048), 0.75, 3)  # the same, drawn as n - x
    @example((np.r_[np.zeros(2048, np.int64), np.full(700, 30)], 2048), 0.1, 4)  # an empty part
    @example((np.r_[np.full(2048, 30), np.zeros(700, np.int64)], 2048), 0.1, 5)  # an empty last part
    def test_block_parts_equal_numpy_at_two_seeds(self, block, q, seed):
        # each part, drawn from its own stream, equals numpy on that part alone
        at_risk, size = block
        with mock.patch.object(sampling, "_MIN_ROWS", 1):
            assert _same_draws(at_risk, q, seed, size=size)
            assert _same_draws(at_risk, q, (seed + 7) % 2**64, size=size)

    def test_engine_chunk_is_drawn_from_a_table(self):
        # an interval of the power-sweep kind over a block of two 2048-row chunks is
        # looked up, not redrawn; one chunk alone stays on numpy's loop
        at_risk = np.random.default_rng(7).binomial(180, 0.9, 4096)
        table = sampling._table(0.08, at_risk)
        assert table is not None and sampling._table(0.08, at_risk[:2048]) is None
        u = np.concatenate([_philox(11).random(2048), _philox(12).random(2048)])
        expected = np.concatenate([_philox(11).binomial(at_risk[:2048], 0.08),
                                   _philox(12).binomial(at_risk[2048:], 0.08)])
        assert np.array_equal(sampling._invert(u, at_risk, table), expected)

    def test_table_spans_exactly_the_risk_sets(self):
        # one row per risk set from the block's smallest to its largest, and no others
        at_risk = np.random.default_rng(5).binomial(180, 0.9, 4096)
        lo, hi = int(at_risk.min()), int(at_risk.max())
        table_lo, upper, lower, guide, width = sampling._table(0.08, at_risk)
        assert table_lo == lo
        assert len(upper) == len(lower) == (hi - lo + 1) * width
        assert len(guide) == (hi - lo + 1) * sampling._GUIDE

    @pytest.mark.parametrize("span", [511, 512])
    def test_table_spans_at_most_span_risk_sets(self, span):
        # enough live rows at np <= 30: a block over 512 risk sets gets a table, one over
        # 513 none, which bounds a table's memory
        at_risk = np.random.default_rng(3).integers(1000, 1000 + span, sampling._MIN_ROWS,
                                                    endpoint=True)
        at_risk[:2] = 1000, 1000 + span
        assert (sampling._table(0.01, at_risk) is not None) == (span < sampling._SPAN)

    @pytest.mark.parametrize(
        "n,p", [(1, 0.5), (5, 0.1), (40, 0.1), (200, 0.15), (120, 0.25), (7, 0.0), (2**40, 1e-11)]
    )
    def test_decision_at_every_running_sum(self, n, p):
        # at and beside each c_x a u is either refused or drawn as numpy's loop
        # draws it; a u far from every c_x is always drawn
        table = sampling._inversion_table(p, n, n)
        sums = _running_sums(n, p)
        for x, c in enumerate(sums):
            for k in range(math.floor(c / ULP) - 6, math.floor(c / ULP) + 7):
                u = k * ULP
                if 0.0 <= u < 1.0:
                    got = sampling._invert(np.array([u]), np.array([n]), table)
                    assert got is None or got.tolist() == [_numpy_inversion(u, n, p)]
            low = sums[x - 1] if x else 0.0
            if c - low > 64 * (x + 1) * ULP:
                u = math.floor((low + c) / 2 / ULP) * ULP
                assert sampling._invert(np.array([u]), np.array([n]), table).tolist() == [x]

    @pytest.mark.parametrize("n,p", [(40, 0.1), (40, 0.9)])
    def test_fallback_inside_a_margin_leaves_the_stream_where_numpy_does(self, n, p):
        # u exactly on c_2 is refused, so numpy draws all three rows
        c2 = _running_sums(n, min(p, 1.0 - p))[2]
        u = round(c2 / ULP) * ULP
        table = sampling._inversion_table(min(p, 1.0 - p), n, n)
        assert sampling._invert(np.array([u]), np.array([n]), table) is None
        with mock.patch.object(sampling, "_MIN_ROWS", 1):
            assert _same_draws(np.full(3, n), p, 9, [u, 0.5, 0.25])

    def test_fallback_past_the_bound_leaves_the_stream_where_numpy_does(self):
        # c_bound < 1 - 2**-53 at n = 10, p = 0.45: numpy rejects the largest u
        # and draws again from the next one
        u = 1.0 - ULP
        assert _running_sums(10, 0.45)[-1] < u and _numpy_inversion(u, 10, 0.45) is None
        assert sampling._invert(np.array([u]), np.array([10]), sampling._inversion_table(0.45, 10, 10)) is None
        with mock.patch.object(sampling, "_MIN_ROWS", 1):
            assert _same_draws(np.array([10, 10]), 0.45, 12, [0.5, u, 0.25])

    def test_threads_adding_and_dropping_tables_draw_numpys_values(self):
        at_risk = np.random.default_rng(3).binomial(60, 0.8, 600)
        agree = {}

        def draw(k):
            agree[k] = all(_same_draws(at_risk, 0.01 * (k + 1) + 0.001 * j, 100 * k + j) for j in range(40))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # every draw builds its own table, so threads build and drop them at once
            with mock.patch.object(sampling, "_MIN_ROWS", 1):
                threads = [threading.Thread(target=draw, args=(k,)) for k in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert agree == {k: True for k in range(6)}
