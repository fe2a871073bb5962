"""Product-limit survival estimates and deviation vectors."""

from fractions import Fraction

import pytest
from hypothesis import given

import picgof as pg
from strategies import families, no_removal_samples, samples


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
