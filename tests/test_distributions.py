"""Families of lifetime models, spec parsing, tabulated CDFs, and re-timing."""

import math

import numpy as np
import pytest
from hypothesis import assume, given

import picgof as pg
from picgof.distributions import test_general as general_statistics
from strategies import families, samples

GRID = np.linspace(-0.2, 1.2, 141)


class TestFamilies:
    @pytest.mark.parametrize(
        "family",
        [
            pg.UNIFORM,
            pg.AlternativeFamily("lehmann", 0.4),
            pg.AlternativeFamily("lehmann", 2.5),
            pg.AlternativeFamily("centered", 0.5),
            pg.AlternativeFamily("centered", 3.0),
            pg.AlternativeFamily("compressed", 0.0),
            pg.AlternativeFamily("compressed", 0.35),
        ],
    )
    def test_valid_cdf_on_unit_interval(self, family):
        values = [family(x) for x in GRID]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert family(0.0) == 0.0
        assert family(1.0) == 1.0
        assert family(-0.5) == 0.0
        assert family(1.5) == 1.0

    def test_lehmann_values(self):
        assert pg.AlternativeFamily("lehmann", 2.0)(0.5) == 0.25
        assert pg.AlternativeFamily("lehmann", 0.5)(0.25) == 0.5

    def test_centered_values(self):
        fam = pg.AlternativeFamily("centered", 2.0)
        assert fam(0.25) == 0.125
        assert fam(0.5) == 0.5
        assert fam(0.75) == 0.875

    def test_compressed_values(self):
        fam = pg.AlternativeFamily("compressed", 0.25)
        assert fam(0.2) == 0.0
        assert fam(0.25) == 0.0
        assert fam(0.5) == 0.5
        assert fam(0.75) == 1.0
        assert fam(0.8) == 1.0

    @pytest.mark.parametrize("g", [0.2, 0.45, *pg.DEFAULT_PARAMETER_GRIDS["compressed"]])
    def test_compressed_never_exceeds_one(self, g):
        # x - g rounds above 1 - 2g at x = 1 - g for g = 0.2 and 0.45, and for the
        # grid's 0.075 and 0.325
        fam = pg.AlternativeFamily("compressed", g)
        values = [fam(1.0 - g), *(fam(float(x)) for x in np.linspace(0.0, 1.0, 1001))]
        assert max(values) == 1.0

    def test_null_members_equal_uniform_exactly(self):
        members = [
            pg.AlternativeFamily("lehmann", 1.0),
            pg.AlternativeFamily("centered", 1.0),
            pg.AlternativeFamily("compressed", 0.0),
        ]
        for x in np.linspace(0.0, 1.0, 101):
            u = pg.UNIFORM(float(x))
            for fam in members:
                assert fam(float(x)) == u

    @pytest.mark.parametrize(
        "kind,param",
        [
            ("lehmann", 0.0),
            ("lehmann", -1.0),
            ("centered", 0.0),
            ("centered", -0.5),
            ("compressed", -0.1),
            ("compressed", 0.5),
            ("compressed", 0.7),
            ("uniform", 1.0),
            ("nonsense", 2.0),
            ("lehmann", "x"),
            ("lehmann", True),
            ("compressed", "0.2"),
            ("lehmann", float("inf")),
            ("centered", float("inf")),
            ("compressed", float("-inf")),
        ],
    )
    def test_rejects_out_of_domain(self, kind, param):
        fragment = {"uniform": "takes no parameter", "nonsense": "unknown family"}.get(
            kind, f"{kind} parameter must"
        )
        with pytest.raises(pg.CensoringError, match=fragment):
            pg.AlternativeFamily(kind, param)

    def test_custom_is_an_unknown_kind(self):
        # tabulated models are TabulatedCdf objects, not a family kind
        with pytest.raises(pg.CensoringError, match="unknown family"):
            pg.AlternativeFamily("custom")


class TestParseFamily:
    def test_parses_parametric_forms(self):
        assert pg.parse_family("lehmann:2.0") == pg.AlternativeFamily("lehmann", 2.0)
        assert pg.parse_family("centered:0.5") == pg.AlternativeFamily("centered", 0.5)
        assert pg.parse_family("compressed:0.25") == pg.AlternativeFamily("compressed", 0.25)
        assert pg.parse_family("uniform") is pg.UNIFORM

    @pytest.mark.parametrize(
        "spec", ["uniform:1", "lehmann", "lehmann:abc", "weibull:2", "table:"]
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(pg.FamilySyntaxError):
            pg.parse_family(spec)

    @pytest.mark.parametrize("spec", ["lehmann:-2.0", "centered:0", "compressed:0.7"])
    def test_out_of_domain_parameter_is_not_a_syntax_error(self, spec):
        with pytest.raises(pg.CensoringError, match="parameter must") as info:
            pg.parse_family(spec)
        assert not isinstance(info.value, pg.FamilySyntaxError)

    def test_table_spec_reads_file(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("x,cdf\n0.0,0.0\n1.0,1.0\n")
        fam = pg.parse_family(f"table:{path}")
        assert fam == pg.TabulatedCdf((0.0, 1.0), (0.0, 1.0))
        assert (fam.kind, fam.parameter) == ("custom", None)
        assert fam(0.5) == 0.5

    def test_missing_table_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            pg.parse_family(f"table:{tmp_path}/absent.csv")


class TestTabulatedCdf:
    def test_interpolates_linearly(self):
        table = pg.TabulatedCdf((0.0, 0.5, 1.0), (0.0, 0.8, 1.0))
        assert table(0.25) == pytest.approx(0.4)
        assert table(0.75) == pytest.approx(0.9)

    def test_clamps_to_grid_ends(self):
        table = pg.TabulatedCdf((0.2, 0.8), (0.1, 0.9))
        assert table(0.0) == 0.1
        assert table(1.0) == 0.9

    def test_supports_arbitrary_scale(self):
        # a model on [0, 10]; values beyond 1 on the x axis are fine
        table = pg.TabulatedCdf((0.0, 5.0, 10.0), (0.0, 0.5, 1.0))
        assert table(2.5) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(pg.CensoringError, match="x grid must be strictly increasing"):
            pg.TabulatedCdf((0.0, 0.0), (0.0, 1.0))
        with pytest.raises(pg.CensoringError, match="must be nondecreasing"):
            pg.TabulatedCdf((0.0, 1.0), (0.5, 0.4))
        with pytest.raises(pg.CensoringError, match=r"must lie in \[0, 1\]"):
            pg.TabulatedCdf((0.0, 1.0), (0.0, 1.5))
        with pytest.raises(pg.CensoringError, match="at least two points"):
            pg.TabulatedCdf((0.0,), (0.0,))
        with pytest.raises(pg.CensoringError, match="x must be a finite real number, got inf"):
            pg.TabulatedCdf((0.0, 1.0, float("inf")), (0.0, 0.5, 1.0))
        with pytest.raises(pg.CensoringError, match="cdf value must be a finite real number"):
            pg.TabulatedCdf((0.0, 1.0), (0.0, float("nan")))

    def test_rejects_grid_and_values_of_different_lengths(self):
        with pytest.raises(pg.CensoringError, match="x grid and cdf values differ in length"):
            pg.TabulatedCdf((0.0, 1.0), (0.0, 0.5, 1.0))

    def test_from_csv(self):
        table = pg.TabulatedCdf.from_csv("# comment\nx,cdf\n0.0,0.0\n2.0,1.0\n")
        assert table(1.0) == 0.5

    def test_from_csv_rejects_bad_header(self):
        with pytest.raises(pg.CensoringError, match="expected header 'x,cdf'"):
            pg.TabulatedCdf.from_csv("a,b\n0,0\n1,1\n")


class TestTransformScheme:
    def test_uniform_is_identity(self):
        scheme = pg.load_scheme("t1p1")
        assert pg.transform_scheme(scheme, pg.UNIFORM) == scheme

    def test_square_law(self):
        scheme = pg.CensoringScheme((0.0, 0.5, 0.9), (0.3, 1.0))
        out = pg.transform_scheme(scheme, pg.AlternativeFamily("lehmann", 2.0))
        assert out.times == pytest.approx((0.0, 0.25, 0.81), abs=1e-15)
        assert out.percentages == scheme.percentages

    def test_exponential_model(self):
        scheme = pg.CensoringScheme((0.0, math.log(2.0), 2.0 * math.log(2.0)), (0.5, 1.0))
        out = pg.transform_scheme(scheme, lambda t: 1.0 - math.exp(-t))
        assert out.times == pytest.approx((0.0, 0.5, 0.75), abs=1e-12)

    def test_flat_cdf_raises(self):
        scheme = pg.CensoringScheme((0.0, 0.2, 0.5), (0.5, 1.0))
        step = lambda t: 0.0 if t < 0.4 else 0.9  # noqa: E731
        with pytest.raises(pg.CensoringError, match="flat between"):
            pg.transform_scheme(scheme, step)

    def test_decreasing_cdf_raises(self):
        scheme = pg.CensoringScheme((0.0, 0.2, 0.5), (0.5, 1.0))
        with pytest.raises(pg.CensoringError, match="cdf decreases"):
            pg.transform_scheme(scheme, lambda t: 0.5 - 0.5 * t if t > 0 else 0.0)

    def test_nonzero_origin_raises(self):
        scheme = pg.CensoringScheme((0.0, 0.2, 0.5), (0.5, 1.0))
        with pytest.raises(pg.CensoringError, match="times must start at 0"):
            pg.transform_scheme(scheme, lambda t: 0.1 + 0.5 * t)


class TestGeneralStatistics:
    @given(samples(), families())
    def test_equals_uniformity_statistics_of_re_timed_design(self, sample, f0):
        # reference: the same counts on the design re-timed through F0,
        # measured against the uniform null
        try:
            re_timed = pg.transform_scheme(sample.scheme, f0)
        except pg.CensoringError:
            assume(False)
        assume(re_timed.times[-1] < 1.0)
        reference = pg.CensoredSample(re_timed, sample.n, sample.failures, sample.removals)
        expected = pg.compute_statistics(pg.deviations(reference, pg.UNIFORM))
        assert general_statistics(sample, f0).as_tuple() == expected.as_tuple()

    @given(samples())
    def test_matches_independent_computation(self, sample):
        # re-derive the whole pipeline with numpy under a square-law null
        f0 = pg.AlternativeFamily("lehmann", 2.0)
        result = general_statistics(sample, f0)

        times = np.array(sample.scheme.inspection_times)
        x = np.array(sample.failures, dtype=float)
        r = np.array(sample.removals, dtype=float)
        gone = np.concatenate(([0.0], np.cumsum(x + r)))[:-1]
        at_risk = sample.n - gone
        factors = np.where(at_risk > 0, 1.0 - x / np.where(at_risk > 0, at_risk, 1.0), 1.0)
        estimates = np.cumprod(factors)
        d = estimates - (1.0 - times**2)

        expected = (
            d.max(),
            (-d).max(),
            np.abs(d).max(),
            d.max() + (-d).max(),
            float(np.mean(d**2)),
            float(np.mean(np.abs(d))),
        )
        assert result.as_tuple() == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_failure_sample_under_exponential(self):
        scheme = pg.CensoringScheme((0.0, 0.25, 0.5), (0.5, 1.0))
        sample = pg.CensoredSample(scheme, 10, (0, 0), (5, 5))
        f0 = lambda t: 1.0 - math.exp(-t)  # noqa: E731
        stats = general_statistics(sample, f0)
        assert stats.c_plus == pytest.approx(f0(0.5), abs=1e-15)
        assert stats.c_minus == pytest.approx(-f0(0.25), abs=1e-15)


class TestDefaultGrids:
    def test_expected_shapes_and_ranges(self):
        grids = pg.DEFAULT_PARAMETER_GRIDS
        assert len(grids["lehmann"]) == 21
        assert grids["lehmann"][0] == 0.25
        assert grids["lehmann"][-1] == 3.0
        assert len(grids["centered"]) == 21
        assert len(grids["compressed"]) == 17
        assert grids["compressed"][0] == 0.0
        assert grids["compressed"][-1] == pytest.approx(0.4)

    def test_grids_are_valid_parameters(self):
        for kind, grid in pg.DEFAULT_PARAMETER_GRIDS.items():
            for value in grid:
                pg.AlternativeFamily(kind, value)
