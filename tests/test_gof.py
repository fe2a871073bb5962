"""The six statistics: worked values, algebraic relations, rejection."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import picgof as pg
from picgof.gof import fold_deviations
from picgof.montecarlo import CriticalValueTable
from strategies import deviation_matrices, deviation_vectors


def reference_fold(d):
    """The scalar fold the array code replaced, kept as a reference."""
    m = len(d)
    c_plus = max(d)
    c_minus = max(-x for x in d)
    s1 = 0.0
    s2 = 0.0
    for x in d:
        s1 += x * x
        s2 += abs(x)
    return c_plus, c_minus, max(c_plus, c_minus), c_plus + c_minus, s1 / m, s2 / m


def float_bits(values):
    return [float(v).hex() for v in values]


class TestFoldDeviations:
    @given(deviation_matrices())
    @example([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])  # all-zero deviations
    @example([[0.0, -0.0], [-0.0, 0.0]])  # equal maxima of opposite sign
    @example([[0.4], [-0.3]])  # a single column
    def test_rows_equal_the_scalar_loop_bit_for_bit(self, d):
        out = fold_deviations(d)
        assert out.shape == (len(d), 6)
        for row, dev in zip(out, d):
            assert float_bits(row) == float_bits(reference_fold(dev))
            stats = pg.compute_statistics(dev).as_tuple()
            assert float_bits(stats) == float_bits(row)
            assert all(type(v) is float for v in stats)


class TestComputeStatistics:
    def test_two_interval_example(self):
        s = pg.compute_statistics((0.05, 0.10))
        assert s.c_plus == pytest.approx(0.10, rel=1e-12)
        assert s.c_minus == pytest.approx(-0.05, rel=1e-12)
        assert s.c == pytest.approx(0.10, rel=1e-12)
        assert s.k == pytest.approx(0.05, rel=1e-12)
        assert s.t1 == pytest.approx(0.00625, rel=1e-12)
        assert s.t2 == pytest.approx(0.075, rel=1e-12)

    def test_mixed_signs(self):
        s = pg.compute_statistics((-0.2, 0.3))
        assert s.c_plus == pytest.approx(0.3, rel=1e-12)
        assert s.c_minus == pytest.approx(0.2, rel=1e-12)
        assert s.c == pytest.approx(0.3, rel=1e-12)
        assert s.k == pytest.approx(0.5, rel=1e-12)
        assert s.t1 == pytest.approx(0.065, rel=1e-12)
        assert s.t2 == pytest.approx(0.25, rel=1e-12)

    def test_zero_vector(self):
        s = pg.compute_statistics((0.0, 0.0, 0.0))
        assert s.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_single_deviation(self):
        s = pg.compute_statistics((0.4,))
        assert (s.c_plus, s.c_minus, s.c, s.k) == (0.4, -0.4, 0.4, 0.0)
        assert s.t1 == pytest.approx(0.16, rel=1e-12)
        assert s.t2 == 0.4

    def test_rejects_empty(self):
        with pytest.raises(pg.CensoringError, match="empty deviation vector"):
            pg.compute_statistics(())
        with pytest.raises(pg.CensoringError, match="empty deviation vector"):
            pg.compute_statistics([])

    @given(deviation_vectors())
    def test_c_is_largest_absolute_deviation(self, d):
        s = pg.compute_statistics(d)
        assert s.c == max(abs(v) for v in d)
        assert s.c == max(s.c_plus, s.c_minus)
        assert s.k == s.c_plus + s.c_minus

    @given(deviation_vectors())
    def test_power_mean_chain(self, d):
        # mean |d| squared <= mean d^2 <= max d^2
        s = pg.compute_statistics(d)
        assert s.t2 * s.t2 <= s.t1 + 1e-15
        assert s.t1 <= s.c * s.c + 1e-15

    @given(deviation_vectors())
    def test_sign_flip_swaps_one_sided_statistics(self, d):
        s = pg.compute_statistics(d)
        f = pg.compute_statistics(tuple(-v for v in d))
        assert (f.c_plus, f.c_minus) == (s.c_minus, s.c_plus)
        assert (f.c, f.k, f.t1, f.t2) == (s.c, s.k, s.t1, s.t2)

    @given(deviation_vectors(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, d, rnd):
        shuffled = list(d)
        rnd.shuffle(shuffled)
        s = pg.compute_statistics(d)
        p = pg.compute_statistics(tuple(shuffled))
        assert p.as_tuple() == pytest.approx(s.as_tuple(), rel=1e-12, abs=1e-15)


def make_table(scheme, n, values):
    return CriticalValueTable(
        scheme_id=pg.scheme_id(scheme),
        n=n,
        level=0.05,
        replications=100,
        seed=0,
        values={name: values[name] for name in pg.STAT_NAMES},
    )


class TestReject:
    def setup_method(self):
        self.scheme = pg.CensoringScheme((0.0, 0.25, 0.5), (0.4, 1.0))
        self.observed = pg.compute_statistics((0.05, 0.10))

    def test_equality_does_not_reject(self):
        table = make_table(self.scheme, 10, self.observed.as_dict())
        decisions = pg.reject(self.observed, table, scheme=self.scheme, n=10)
        assert decisions == {name: False for name in pg.STAT_NAMES}

    def test_strict_exceedance_rejects(self):
        lowered = {k: v - 1e-9 for k, v in self.observed.as_dict().items()}
        table = make_table(self.scheme, 10, lowered)
        decisions = pg.reject(self.observed, table)
        assert decisions == {name: True for name in pg.STAT_NAMES}

    def test_n_mismatch_raises(self):
        table = make_table(self.scheme, 10, self.observed.as_dict())
        with pytest.raises(pg.CensoringError, match="computed for n = 10, got n = 12"):
            pg.reject(self.observed, table, n=12)

    def test_scheme_mismatch_raises(self):
        table = make_table(self.scheme, 10, self.observed.as_dict())
        other = pg.CensoringScheme((0.0, 0.2, 0.5), (0.4, 1.0))
        with pytest.raises(pg.CensoringError, match="computed for scheme"):
            pg.reject(self.observed, table, scheme=other)

    def test_checks_optional(self):
        table = make_table(self.scheme, 10, self.observed.as_dict())
        assert pg.reject(self.observed, table) == {name: False for name in pg.STAT_NAMES}
