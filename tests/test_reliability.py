"""Product-limit survival estimates and deviation vectors."""

from fractions import Fraction

import pytest
from hypothesis import example, given

import picgof as pg
from picgof.reliability import product_limit
from strategies import count_matrices, families, no_removal_samples, samples


def reference_survival_values(n, failures, removals):
    """The scalar product-limit loop the array code replaced, kept as a reference."""
    values = []
    at_risk = n
    estimate = 1.0
    for i, (x, r) in enumerate(zip(failures, removals), start=1):
        if at_risk > 0:
            estimate *= 1.0 - x / at_risk
        elif x > 0:
            raise pg.CensoringError(
                f"failures reported at inspection {i} but no units were on test"
            )
        values.append(estimate)
        at_risk -= x + r
    return values


def float_bits(values):
    return [float(v).hex() for v in values]


def make_sample(times, pct, n, failures, removals):
    return pg.CensoredSample(pg.CensoringScheme(times, pct), n, failures, removals)


class TestSurvivalValues:
    def test_worked_example(self):
        # 10 on test: 2 fail (est 0.8), 4 withdrawn; of the 4 entering, 1
        # fails (est 0.8 * 0.75 = 0.6), 3 withdrawn
        values = pg.survival_values(10, (2, 1), (4, 3))
        assert values == pytest.approx([0.8, 0.6], abs=1e-15)

    def test_no_failures_stays_at_one(self):
        assert pg.survival_values(7, (0, 0, 0), (1, 1, 5)) == [1.0, 1.0, 1.0]

    def test_constant_after_exhaustion(self):
        assert pg.survival_values(4, (4, 0), (0, 0)) == [0.0, 0.0]

    def test_degenerate_risk_set(self):
        # raw counts claiming a failure after every unit is gone
        with pytest.raises(pg.CensoringError, match="no units were on test"):
            pg.survival_values(2, (2, 1), (0, 0))

    @given(samples())
    def test_monotone_within_unit_range(self, sample):
        values = pg.survival_values(sample.n, sample.failures, sample.removals)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(no_removal_samples())
    def test_telescoping_identity(self, sample):
        # with no early removals the product collapses to (n - cum_x) / n
        values = pg.survival_values(sample.n, sample.failures, sample.removals)
        cum = 0
        for x, value in zip(sample.failures, values):
            cum += x
            exact = Fraction(sample.n - cum, sample.n)
            assert abs(value - float(exact)) <= 1e-12


class TestProductLimit:
    @given(count_matrices())
    @example((10, [[4, 0], [10, 0]], [[6, 0], [0, 0]]))  # risk sets exhausted after 1
    @example((5, [[1, 0, 0]], [[6, 0, 0]]))  # a negative risk set
    @example((2**53, [[2**53 - 1]], [[1]]))  # a single column at n = 2**53
    @example((2**53, [[3, 2**53 - 5]] * 2, [[1, 1]] * 2))
    def test_rows_equal_the_scalar_loop_bit_for_bit(self, counts):
        n, failures, removals = counts
        out = product_limit(n, failures, removals)
        assert out.shape == (len(failures), len(failures[0]))
        for row, x, r in zip(out, failures, removals):
            assert float_bits(row) == float_bits(reference_survival_values(n, x, r))
            values = pg.survival_values(n, x, r)
            assert float_bits(values) == float_bits(row)
            assert all(type(v) is float for v in values)

    def test_names_the_first_inspection_failing_in_any_row(self):
        failures = [[2, 0, 1], [2, 1, 0]]
        removals = [[0, 0, 0], [0, 0, 0]]
        for x, r in zip(failures, removals):
            with pytest.raises(pg.CensoringError):
                reference_survival_values(2, x, r)
        with pytest.raises(pg.CensoringError, match="at inspection 2 but"):
            product_limit(2, failures, removals)


class TestDeviations:
    def test_worked_example(self):
        sample = make_sample((0.0, 0.25, 0.5), (0.4, 1.0), 10, (2, 1), (4, 3))
        d = pg.deviations(sample, pg.UNIFORM)
        assert d == pytest.approx((0.05, 0.10), abs=1e-15)

    def test_zero_failures_give_inspection_times(self):
        sample = make_sample((0.0, 0.1, 0.3), (0.5, 1.0), 8, (0, 0), (4, 4))
        assert pg.deviations(sample, pg.UNIFORM) == pytest.approx((0.1, 0.3), abs=1e-15)

    def test_total_failure_gives_negative_survival(self):
        sample = make_sample((0.0, 0.1, 0.3), (0.5, 1.0), 8, (8, 0), (0, 0))
        d = pg.deviations(sample, pg.UNIFORM)
        assert d == (-(1.0 - 0.1), -(1.0 - 0.3))

    def test_rejects_null_saturated_at_final_time(self):
        sample = make_sample((0.0, 0.25, 0.5), (0.4, 1.0), 10, (2, 1), (4, 3))
        with pytest.raises(ValueError):
            pg.deviations(sample, lambda t: min(1.0, 4.0 * t))

    def test_general_null_uses_its_cdf(self):
        sample = make_sample((0.0, 0.25, 0.5), (0.4, 1.0), 10, (0, 0), (4, 6))
        fam = pg.AlternativeFamily("lehmann", 2.0)
        d = pg.deviations(sample, fam)
        assert d == pytest.approx((0.0625, 0.25), abs=1e-15)

    @given(samples(), families())
    def test_deviations_bounded(self, sample, family):
        if family(sample.scheme.times[-1]) >= 1.0:
            with pytest.raises(ValueError):
                pg.deviations(sample, family)
            return
        d = pg.deviations(sample, family)
        assert all(-1.0 <= v < 1.0 for v in d)
        assert len(d) == sample.scheme.m
