"""Scheme/sample construction, validation, risk traces, and serialization."""

import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import picgof as pg
from picgof.sampling import withdraw_count
from picgof.schemes import scheme_fields
from strategies import samples, schemes

T1 = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
T2 = (0.0, 0.05, 0.1, 0.2, 0.45, 0.5)
P1 = (0.25, 0.25, 0.5, 0.5, 1.0)
P2 = (0.5, 0.5, 0.25, 0.25, 1.0)


class TestSchemeValidation:
    @pytest.mark.parametrize("times", [T1, T2])
    @pytest.mark.parametrize("pct", [P1, P2])
    def test_accepts_reference_designs(self, times, pct):
        scheme = pg.CensoringScheme(times, pct)
        assert scheme.m == 5
        assert scheme.inspection_times == times[1:]

    def test_accepts_minimal_design(self):
        scheme = pg.CensoringScheme((0.0, 0.5), (1.0,))
        assert scheme.m == 1

    def test_rejects_duplicate_times(self):
        with pytest.raises(pg.CensoringError, match="strictly increasing"):
            pg.CensoringScheme((0.0, 0.2, 0.2, 0.5), (0.5, 0.5, 1.0))

    def test_rejects_decreasing_times(self):
        with pytest.raises(pg.CensoringError, match="strictly increasing"):
            pg.CensoringScheme((0.0, 0.3, 0.2), (0.5, 1.0))

    def test_rejects_nonzero_start(self):
        with pytest.raises(pg.CensoringError, match="times must start at 0"):
            pg.CensoringScheme((0.1, 0.2, 0.5), (0.5, 1.0))

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rejects_percentage_out_of_range(self, bad):
        with pytest.raises(pg.CensoringError, match=r"outside \[0, 1\]"):
            pg.CensoringScheme((0.0, 0.2, 0.5), (bad, 1.0))

    def test_rejects_last_percentage_not_one(self):
        with pytest.raises(pg.CensoringError, match="must be exactly 1"):
            pg.CensoringScheme((0.0, 0.2, 0.5), (0.5, 0.99))

    def test_rejects_length_mismatch(self):
        with pytest.raises(pg.CensoringError, match="expected 2 withdrawal percentages"):
            pg.CensoringScheme((0.0, 0.2, 0.5), (1.0,))

    def test_rejects_empty_design(self):
        with pytest.raises(pg.CensoringError, match="at least one inspection time"):
            pg.CensoringScheme((0.0,), ())

    def test_rejects_nan_time(self):
        with pytest.raises(pg.CensoringError, match="inspection time must be a finite real number"):
            pg.CensoringScheme((0.0, float("nan"), 0.5), (0.5, 1.0))

    @pytest.mark.parametrize("times", [(0.0, 0.5, float("inf")), (float("-inf"), 0.0, 0.5)])
    def test_rejects_an_infinite_time(self, times):
        with pytest.raises(pg.CensoringError, match="inspection time must be a finite real number"):
            pg.CensoringScheme(times, (0.5, 1.0))

    @given(schemes())
    def test_validation_idempotent(self, scheme):
        again = pg.CensoringScheme(scheme.times, scheme.percentages)
        assert again == scheme


class TestCensoredSample:
    def test_accepts_consistent_counts(self):
        scheme = pg.CensoringScheme((0.0, 0.25, 0.5), (0.4, 1.0))
        sample = pg.CensoredSample(scheme, 10, (2, 1), (4, 3))
        assert sample.n == 10

    def test_rejects_bad_conservation(self):
        scheme = pg.CensoringScheme((0.0, 0.25, 0.5), (0.4, 1.0))
        with pytest.raises(pg.CensoringError, match="account for all 10 units"):
            pg.CensoredSample(scheme, 10, (2, 1), (4, 2))

    def test_rejects_excess_failures(self):
        scheme = pg.CensoringScheme((0.0, 0.25, 0.5), (0.4, 1.0))
        # 8 failures after 2 + 4 units gone leave only 4 at risk in interval 2
        with pytest.raises(pg.CensoringError, match="more failures"):
            pg.CensoredSample(scheme, 10, (2, 8), (4, 0))

    def test_rejects_excess_removals(self):
        scheme = pg.CensoringScheme((0.0, 0.25, 0.5), (0.4, 1.0))
        with pytest.raises(pg.CensoringError, match="more removals"):
            pg.CensoredSample(scheme, 10, (2, 0), (9, 0))

    def test_rejects_negative_and_fractional_counts(self):
        scheme = pg.CensoringScheme((0.0, 0.25, 0.5), (0.4, 1.0))
        with pytest.raises(pg.CensoringError, match="failure count must be an integer"):
            pg.CensoredSample(scheme, 10, (-1, 5), (3, 3))
        with pytest.raises(pg.CensoringError, match="failure count must be an integer"):
            pg.CensoredSample(scheme, 10, (2.5, 1), (4, 2.5))

    def test_rejects_length_mismatch(self):
        scheme = pg.CensoringScheme((0.0, 0.25, 0.5), (0.4, 1.0))
        with pytest.raises(pg.CensoringError, match="has 2 inspections but got 1 failure"):
            pg.CensoredSample(scheme, 10, (10,), (0, 0))

    @pytest.mark.parametrize("failures,removals,what", [(3, (0,), "failure"), ((3,), 0, "removal")])
    def test_rejects_a_count_vector_that_is_not_a_sequence(self, failures, removals, what):
        scheme = pg.CensoringScheme((0.0, 0.5), (1.0,))
        with pytest.raises(pg.CensoringError, match=f"^{what} counts must be a sequence of integers"):
            pg.CensoredSample(scheme, 3, failures, removals)

    @pytest.mark.parametrize("n", [0, -4, 2.5, "ten"])
    def test_rejects_bad_n(self, n):
        scheme = pg.CensoringScheme((0.0, 0.5), (1.0,))
        with pytest.raises(pg.CensoringError, match="^n must be an integer"):
            pg.CensoredSample(scheme, n, (0,), (0,))


class TestSchemeId:
    def test_stable_and_distinct(self, bundled_schemes):
        ids = {name: pg.scheme_id(s) for name, s in bundled_schemes.items()}
        assert len(set(ids.values())) == 4
        for name, s in bundled_schemes.items():
            assert pg.scheme_id(pg.CensoringScheme(s.times, s.percentages)) == ids[name]

    def test_sensitive_to_percentages(self):
        a = pg.CensoringScheme((0.0, 0.2, 0.5), (0.5, 1.0))
        b = pg.CensoringScheme((0.0, 0.2, 0.5), (0.25, 1.0))
        assert pg.scheme_id(a) != pg.scheme_id(b)


class TestSerialization:
    def test_scheme_json_round_trip(self):
        scheme = pg.CensoringScheme(T1, P1)
        assert pg.scheme_from_json(json.dumps(scheme_fields(scheme))) == scheme

    def test_sample_json_round_trip(self):
        scheme = pg.CensoringScheme(T2, P2)
        sample = pg.CensoredSample(scheme, 10, (2, 1, 0, 1, 0), (4, 0, 1, 0, 1))
        again = pg.sample_from_json(pg.sample_to_json(sample))
        assert again == sample

    def test_sample_json_missing_field(self):
        with pytest.raises(pg.CensoringError, match="sample JSON is missing fields"):
            pg.sample_from_json(json.dumps({"times": [0, 0.5], "n": 3}))

    def test_sample_csv_round_trip(self):
        scheme = pg.CensoringScheme((0.0, 0.1, 0.5), (0.5, 1.0))
        sample = pg.CensoredSample(scheme, 12, (3, 2), (4, 3))
        text = pg.sample_to_csv(sample)
        assert text.splitlines()[0] == "t_i,x_i,r_i"
        parsed = pg.sample_from_csv(text)
        assert parsed.n == 12
        assert parsed.failures == (3, 2)
        assert parsed.removals == (4, 3)
        assert parsed.scheme.times == scheme.times
        assert pg.sample_to_csv(parsed) == text

    def test_csv_percentages_reproduce_removals(self):
        # the format carries no percentages; the inferred ones must regenerate
        # the observed removals through the withdrawal rule
        scheme = pg.CensoringScheme((0.0, 0.1, 0.3, 0.5), (0.37, 0.2, 1.0))
        sample = pg.CensoredSample(scheme, 20, (4, 3, 2), (5, 2, 4))
        parsed = pg.sample_from_csv(pg.sample_to_csv(sample))
        at_risk = parsed.n
        for i, (x, r) in enumerate(zip(parsed.failures, parsed.removals)):
            survivors = at_risk - x
            if i == parsed.scheme.m - 1:
                assert r == survivors
            else:
                assert withdraw_count(parsed.scheme.percentages[i], survivors) == r
            at_risk = survivors - r

    @given(st.integers(1, 2**53 - 11).flatmap(lambda s: st.tuples(st.integers(0, s), st.just(s))),
           st.integers(0, 10))  # so that n = s + failed stays below 2**53
    @example((22925511, 34918263), 0)  # r / s withdraws r - 1
    def test_csv_percentages_reproduce_removals_below_2_53(self, removed_of, failed):
        # the inferred percentage is the smallest float >= r / s that withdraws r of s
        r, s = removed_of
        parsed = pg.sample_from_csv(f"t_i,x_i,r_i\n0.25,{failed},{r}\n0.5,0,{s - r}\n")
        p = parsed.scheme.percentages[0]
        assert withdraw_count(p, s) == r
        assert p >= r / s
        assert p == r / s or withdraw_count(math.nextafter(p, 0.0), s) < r

    @pytest.mark.parametrize("s", [2**53, 2**53 + 1, 2**62 + 1, 2**63 - 1537])
    def test_csv_refuses_counts_summing_to_2_53(self, s):
        # a sample size of 2**53 or more leaves the exact float counts
        message = r"^n must be an integer in \[1, 9007199254740992\)"
        with pytest.raises(pg.CensoringError, match=message):
            pg.sample_from_csv(f"t_i,x_i,r_i\n0.25,0,{s}\n0.5,0,0\n")

    def test_csv_rejects_an_oversized_cell(self):
        text = "t_i,x_i,r_i\n0.5,1," + "3" * 131073 + "\n"
        message = r"^unreadable CSV: field larger than field limit \(131072\)$"
        with pytest.raises(pg.CensoringError, match=message):
            pg.sample_from_csv(text)

    def test_csv_skips_comment_lines(self):
        text = "# a note\nt_i,x_i,r_i\n0.5,2,3\n"
        sample = pg.sample_from_csv(text)
        assert sample.n == 5

    def test_csv_rejects_bad_header(self):
        with pytest.raises(pg.CensoringError, match="expected header"):
            pg.sample_from_csv("time,fail,rem\n0.5,2,3\n")

    def test_csv_rejects_bad_rows(self):
        with pytest.raises(pg.CensoringError, match="expected 3 columns per row"):
            pg.sample_from_csv("t_i,x_i,r_i\n0.5,2\n")
        with pytest.raises(pg.CensoringError, match="failure count must be an integer"):
            pg.sample_from_csv("t_i,x_i,r_i\n0.5,two,3\n")
        with pytest.raises(pg.CensoringError, match="no data rows"):
            pg.sample_from_csv("t_i,x_i,r_i\n")

    def test_csv_rejects_invalid_times(self):
        with pytest.raises(pg.CensoringError, match="strictly increasing"):
            pg.sample_from_csv("t_i,x_i,r_i\n0.5,1,0\n0.4,1,2\n")

    @given(samples())
    def test_csv_round_trip_property(self, sample):
        text = pg.sample_to_csv(sample)
        parsed = pg.sample_from_csv(text)
        assert pg.sample_to_csv(parsed) == text
        assert (parsed.n, parsed.failures, parsed.removals) == (
            sample.n,
            sample.failures,
            sample.removals,
        )
        assert parsed.scheme.times == sample.scheme.times

    @given(samples())
    def test_json_round_trip_property(self, sample):
        assert pg.sample_from_json(pg.sample_to_json(sample)) == sample


class TestBundledSchemes:
    def test_all_load(self, bundled_schemes):
        assert set(bundled_schemes) == set(pg.BUNDLED_SCHEME_NAMES)
        for scheme in bundled_schemes.values():
            assert scheme.m == 5
            assert scheme.times[-1] == 0.5

    def test_load_scheme_from_path(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(scheme_fields(pg.CensoringScheme((0.0, 0.4), (1.0,)))))
        assert pg.load_scheme(str(path)).m == 1

    def test_load_scheme_missing_path(self):
        with pytest.raises(OSError):
            pg.load_scheme("/nonexistent/scheme.json")
