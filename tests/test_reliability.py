"""Product-limit survival estimates and deviation vectors."""

from fractions import Fraction
from itertools import accumulate
from operator import add

import numpy as np
import pytest
from hypothesis import assume, example, given

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

    @pytest.mark.parametrize(
        "n,failures,removals,message",
        [
            (5, (2**70,), (0,), r"^more failures than units at risk at inspection 1$"),
            (5, (0,), (-2**64,), r"^removal count must be an integer in \[0, inf\)"),
            (2**53, (0,), (0,), r"^n must be an integer in \[1, 9007199254740992\)"),
        ],
    )
    def test_counts_outside_int64(self, n, failures, removals, message):
        # the count rule refuses each: 2**70 failures of 5 units, a negative removal, n = 2**53
        with pytest.raises(pg.CensoringError, match=message):
            pg.survival_values(n, failures, removals)

    def test_degenerate_risk_set(self):
        # raw counts claiming a failure after every unit is gone
        message = "more failures than units at risk at inspection 2"
        with pytest.raises(pg.CensoringError, match=message):
            pg.survival_values(2, (2, 1), (0, 0))

    def test_partial_trajectory_leaves_units_on_test(self):
        assert pg.survival_values(10, (2,), (4,)) == [0.8]
        assert pg.survival_values(5, (), ()) == []

    @pytest.mark.parametrize(
        "n,failures,removals,message",
        [
            (5, (3, 4), (0, 0), "more failures than units at risk at inspection 2"),
            (5, (1, 0), (3, 2), "more removals than survivors at inspection 2"),
            (5, (1,), (0, 0), "one removal count per failure count, got 1 failure and 2 removal"),
            (2.5, (True,), (0,), r"failure count must be an integer .* got True"),
            (2.5, (1,), (0,), r"n must be an integer .* got 2.5"),
            (5, (None,), (0,), "failure count must be an integer"),
            (5, (1,), ("1",), "removal count must be an integer"),
            (5, 3, (0,), "^failure counts must be a sequence of integers, got 3$"),
            (5, (3,), 0, "^removal counts must be a sequence of integers, got 0$"),
        ],
        ids=["failures", "removals", "lengths", "bool-count", "fractional-n", "none", "text",
             "scalar-failures", "scalar-removals"],
    )
    def test_refuses_counts_no_life_test_produces(self, n, failures, removals, message):
        with pytest.raises(pg.CensoringError, match=message):
            pg.survival_values(n, failures, removals)

    @pytest.mark.parametrize("failures,inspection", [((2, 0, 1), 3), ((2, 1, 0), 2)])
    def test_names_the_first_inspection_failing(self, failures, inspection):
        with pytest.raises(pg.CensoringError, match=f"at risk at inspection {inspection}$"):
            pg.survival_values(2, failures, (0, 0, 0))

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
    @example((2**53 - 1, [[2**53 - 2]], [[1]]))  # a single column at the largest n
    @example((2**53 - 1, [[3, 2**53 - 6]] * 2, [[1, 1]] * 2))
    def test_rows_equal_the_scalar_loop_bit_for_bit(self, counts):
        n, failures, removals = counts
        out = product_limit(n, failures, removals)
        assert out.shape == (len(failures), len(failures[0]))
        for row, x, r in zip(out, failures, removals):
            assert float_bits(row) == float_bits(reference_survival_values(n, x, r))
            if any(n < removed for removed in accumulate(map(add, x, r))):  # a negative risk set
                with pytest.raises(pg.CensoringError, match="more removals than survivors"):
                    pg.survival_values(n, x, r)
                continue
            values = pg.survival_values(n, x, r)
            assert float_bits(values) == float_bits(row)
            assert all(type(v) is float for v in values)

    @given(count_matrices())
    @example((10, [[4, 0], [10, 0]], [[6, 0], [0, 0]]))  # risk sets exhausted after 1
    def test_memory_layout_does_not_change_the_bits(self, counts):
        # the engine passes transposed views of interval-major arrays; callers pass lists
        n, failures, removals = counts
        expected = product_limit(n, failures, removals)
        for layout in (np.ascontiguousarray, np.asfortranarray, lambda c: np.repeat(c, 2, 0)[::2]):
            f, r = (layout(np.array(c, dtype=np.int64)) for c in (failures, removals))
            assert product_limit(n, f, r).tobytes() == expected.tobytes()
        for i, (x, r) in enumerate(zip(failures, removals)):
            assert product_limit(n, [x], [r]).tobytes() == expected[i : i + 1].tobytes()


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

    def test_one_rule_and_message_for_deviations_and_the_engine(self):
        # a design with t_m = 1 leaves no uniform survival at the final inspection
        scheme = pg.CensoringScheme((0.0, 0.5, 1.0), (0.3, 1.0))
        sample = pg.CensoredSample(scheme, 10, (2, 1), (2, 5))
        with pytest.raises(pg.CensoringError) as direct:
            pg.deviations(sample, pg.UNIFORM)
        with pytest.raises(pg.CensoringError) as engine:
            pg.replicated_statistics(scheme, 10, pg.UNIFORM, seed=0, replications=10)
        assert str(direct.value) == str(engine.value)
        assert "null survival 1 - F0(t_m) must be positive" in str(direct.value)

    @given(samples(), families())
    def test_equals_survival_values_minus_null_survival_bit_for_bit(self, sample, family):
        times = sample.scheme.inspection_times
        assume(family(times[-1]) < 1.0)
        est = pg.survival_values(sample.n, sample.failures, sample.removals)
        expected = [e - (1.0 - family(t)) for t, e in zip(times, est)]
        assert float_bits(pg.deviations(sample, family)) == float_bits(expected)

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
