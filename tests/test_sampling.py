"""Sample generation: interval probabilities, withdrawals, and the binomial law."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import picgof as pg
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
        # exactly the survivors; draw_counts relies on it to empty the risk set at
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
