"""Monte Carlo engine: determinism, order statistics, p-values, power."""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import picgof as pg
from picgof.cli import main as cli_main
from picgof.sampling import interval_failure_probs, withdraw_count
from test_gof import BAD_ROWS

SCHEME = pg.CensoringScheme((0.0, 0.2, 0.4, 0.6), (0.3, 0.3, 1.0))
LONG = pg.CensoringScheme((0.0, 0.2, 0.4, 0.6, 0.8), (0.3, 0.3, 0.3, 1.0))
#: (scheme, compressed g, its interval probabilities q): intervals with q = 0 and 1.
SATURATING = [
    (SCHEME, 0.3, (0.0, 0.25, 2 / 3)),  # a leading q = 0
    (SCHEME, 0.45, (0.0, 0.0, 1.0)),  # leading zeros, and the last interval saturates
    (LONG, 0.45, (0.0, 0.0, 1.0, 0.0)),  # every risk set is empty after a saturated interval
]


@pytest.fixture(scope="module")
def null_stats():
    return pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, seed=5, replications=3000)


def reference_rows(scheme, n, model, seed, replications):
    """Statistics of each replication, drawn one row at a time: row r of chunk
    c takes one scalar binomial per interval i from derive_stream(seed, c, i)."""
    probs = interval_failure_probs(scheme, model)
    last = len(probs) - 1
    rows = []
    for chunk in range(math.ceil(replications / pg.montecarlo.CHUNK_SIZE)):
        streams = [pg.derive_stream(seed, chunk, i) for i in range(len(probs))]
        for _ in range(min(pg.montecarlo.CHUNK_SIZE, replications - len(rows))):
            failures, removals, at_risk = [], [], n
            for i, (q, rng) in enumerate(zip(probs, streams)):
                x = int(rng.binomial(at_risk, q)) if at_risk > 0 else 0
                r = at_risk - x if i == last else withdraw_count(scheme.percentages[i], at_risk - x)
                failures.append(x)
                removals.append(r)
                at_risk -= x + r
            sample = pg.CensoredSample(scheme, n, tuple(failures), tuple(removals))
            rows.append(pg.compute_statistics(pg.deviations(sample, pg.UNIFORM)).as_tuple())
    return rows


class TestDeriveStream:
    def test_reproducible(self):
        a = pg.derive_stream(3, 7).random(4)
        b = pg.derive_stream(3, 7).random(4)
        assert np.array_equal(a, b)

    def test_distinct_indices_and_seeds(self):
        base = pg.derive_stream(3, 7).random(4)
        assert not np.array_equal(base, pg.derive_stream(3, 8).random(4))
        assert not np.array_equal(base, pg.derive_stream(4, 7).random(4))
        # seeds of 2**63 and above must not be rounded through a float
        top = pg.derive_stream(2**64 - 1, 0).random(4)
        assert not np.array_equal(top, pg.derive_stream(0, 0).random(4))
        high = pg.derive_stream(2**63, 0).random(4)
        assert not np.array_equal(high, pg.derive_stream(2**63 + 1, 0).random(4))


    def test_intervals_are_distinct_streams_of_one_key(self):
        base = pg.derive_stream(3, 7).random(4)
        assert np.array_equal(base, pg.derive_stream(3, 7, 0).random(4))
        draws = [pg.derive_stream(3, 7, i).random(4) for i in range(3)]
        assert len({d.tobytes() for d in draws}) == 3


#: Seeds that are not integers in [0, 2**64): a fraction, a bool, nothing, text.
BAD_SEEDS = [1.5, True, None, "1"]


class TestReplicatedStatistics:
    def test_shape(self, null_stats):
        assert null_stats.shape == (3000, 6)

    def test_worker_count_does_not_change_results(self, null_stats):
        for workers in (2, 0):
            again = pg.replicated_statistics(
                SCHEME, 15, pg.UNIFORM, seed=5, replications=3000, workers=workers
            )
            assert np.array_equal(null_stats, again)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # an inline stand-in records the pool size without starting processes
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(pg.montecarlo, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(pg.montecarlo.os, "cpu_count", lambda: 2)
        replications = 5 * pg.montecarlo.CHUNK_SIZE
        rows = pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, 5, replications, workers=10**6)
        assert started == [2]
        serial = pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, 5, replications, workers=1)
        assert np.array_equal(rows, serial)

    def test_rows_depend_only_on_replication_index(self, null_stats):
        head = pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, seed=5, replications=100)
        assert np.array_equal(head, null_stats[:100])

    def test_rows_match_composed_pipeline(self, null_stats):
        # the engine and a one-row-at-a-time reference, fed from the same
        # per-interval chunk streams, must agree bit for bit
        expected = reference_rows(SCHEME, 15, pg.UNIFORM, seed=5, replications=3000)
        for rep in (0, 1, 17, 2999):
            assert tuple(null_stats[rep]) == expected[rep]
        # either side of the chunk boundary, a seed above 2**63, and the
        # largest sample size
        for seed, n in ((5, 15), (2**63 + 5, 15), (5, 2**53 - 1)):
            rows = pg.replicated_statistics(SCHEME, n, pg.UNIFORM, seed, replications=2049)
            expected = reference_rows(SCHEME, n, pg.UNIFORM, seed, replications=2049)
            for rep in (0, 2047, 2048):
                assert tuple(rows[rep]) == expected[rep]

    def test_alternative_rows_match_composed_pipeline(self):
        fam = pg.AlternativeFamily("lehmann", 2.0)
        stats = pg.replicated_statistics(SCHEME, 12, fam, seed=8, replications=50)
        expected = reference_rows(SCHEME, 12, fam, seed=8, replications=50)
        for rep in (0, 7, 49):
            assert tuple(stats[rep]) == expected[rep]

    @pytest.mark.parametrize("scheme, g, probs", SATURATING)
    def test_rows_match_composed_pipeline_where_q_is_zero_or_one(self, scheme, g, probs, monkeypatch):
        model = pg.AlternativeFamily("compressed", g)
        assert interval_failure_probs(scheme, model) == pytest.approx(probs, rel=1e-12, abs=0.0)
        derived = []

        def derive(*key):
            derived.append(key)
            return pg.derive_stream(*key)

        monkeypatch.setattr(pg.montecarlo, "derive_stream", derive)
        stats = pg.replicated_statistics(scheme, 15, model, seed=9, replications=2049)
        expected = reference_rows(scheme, 15, model, seed=9, replications=2049)
        assert [tuple(row) for row in stats] == expected
        # an interval with q = 0 draws nothing, so no stream is derived for it
        assert sorted(derived) == [(9, c, i) for c in (0, 1) for i, q in enumerate(probs) if q]

    def test_seeds_above_2_to_the_63_give_their_own_rows(self):
        def rows(seed):
            return pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, seed, replications=200)

        assert not np.array_equal(rows(2**64 - 1), rows(0))
        assert not np.array_equal(rows(2**63), rows(2**63 + 1))

    def test_rejects_final_time_at_one(self):
        scheme = pg.CensoringScheme((0.0, 0.5, 1.0), (0.3, 1.0))
        with pytest.raises(ValueError):
            pg.replicated_statistics(scheme, 10, pg.UNIFORM, seed=0, replications=10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pg.replicated_statistics(SCHEME, 10, pg.UNIFORM, seed=0, replications=0)
        with pytest.raises(ValueError):
            pg.replicated_statistics(SCHEME, 10, pg.UNIFORM, seed=-1, replications=10)
        with pytest.raises(ValueError):
            pg.replicated_statistics(SCHEME, 10, pg.UNIFORM, seed=2**64, replications=10)
        with pytest.raises(pg.CensoringError, match="sample size must be an integer"):
            pg.replicated_statistics(SCHEME, 0, pg.UNIFORM, seed=0, replications=10)
        with pytest.raises(ValueError):
            pg.replicated_statistics(
                SCHEME, 10, pg.UNIFORM, seed=0, replications=10, workers=-2
            )
        with pytest.raises(pg.CensoringError, match="do not fit in memory"):
            pg.replicated_statistics(SCHEME, 10, pg.UNIFORM, seed=0, replications=10**23)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(pg.CensoringError, match="seed must be an integer"):
            pg.replicated_statistics(SCHEME, 10, pg.UNIFORM, seed, replications=10)


class TestCriticalValues:
    def test_matches_order_statistic_definition(self, null_stats):
        table = pg.critical_values(SCHEME, 15, level=0.05, replications=3000, seed=5)
        order = math.ceil(3000 * 0.95)
        for j, name in enumerate(pg.STAT_NAMES):
            assert table.values[name] == float(np.sort(null_stats[:, j])[order - 1])

    def test_small_b_order_statistic(self):
        table = pg.critical_values(SCHEME, 5, level=0.5, replications=4, seed=2)
        stats = pg.replicated_statistics(SCHEME, 5, pg.UNIFORM, seed=2, replications=4)
        for j, name in enumerate(pg.STAT_NAMES):
            assert table.values[name] == float(np.sort(stats[:, j])[1])

    def test_rank_follows_the_decimal_level(self):
        # 1000 * (1 - 0.059) is 941 in decimal but 941.0000000000001 in binary
        table = pg.critical_values(SCHEME, 15, level=0.059, replications=1000, seed=4)
        stats = pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, seed=4, replications=1000)
        for j, name in enumerate(pg.STAT_NAMES):
            assert table.values[name] == float(np.sort(stats[:, j])[940])

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_bad_level(self, level):
        with pytest.raises(ValueError):
            pg.critical_values(SCHEME, 10, level=level, replications=10)

    def test_rejects_level_given_as_text(self):
        with pytest.raises(pg.CensoringError, match="level must be a finite real number"):
            pg.critical_values(SCHEME, 10, level="0.05", replications=10)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_rejects_a_bad_seed_before_drawing(self, seed, monkeypatch):
        def no_draws(*args):
            raise AssertionError("counts were drawn")

        monkeypatch.setattr(pg.montecarlo, "draw_counts", no_draws)
        with pytest.raises(pg.CensoringError, match="seed must be an integer"):
            pg.critical_values(SCHEME, 10, replications=10, seed=seed)

    def test_integral_non_int_replications_give_the_int_table(self):
        expected = pg.critical_values(SCHEME, 10, replications=100, seed=2)
        for b in (Decimal(100), Fraction(100), np.float64(100)):
            table = pg.critical_values(SCHEME, 10, replications=b, seed=2)
            assert type(table.replications) is int and table == expected

    def test_provenance_recorded(self):
        table = pg.critical_values(SCHEME, 15, level=0.1, replications=200, seed=9)
        assert table.scheme_id == pg.scheme_id(SCHEME)
        assert (table.n, table.level, table.replications, table.seed) == (15, 0.1, 200, 9)
        assert table.scheme == SCHEME


class TestTableSerialization:
    @pytest.fixture()
    def table(self):
        return pg.critical_values(SCHEME, 15, level=0.05, replications=200, seed=3)

    def test_csv_round_trip(self, table):
        text = table.to_csv()
        assert text.splitlines()[0] == "scheme_id,n,level,B,seed,c_plus,c_minus,c,k,t1,t2"
        again = pg.CriticalValueTable.from_csv(text)
        assert again.values == table.values
        assert (again.scheme_id, again.n, again.level) == (
            table.scheme_id,
            table.n,
            table.level,
        )
        assert (again.replications, again.seed) == (table.replications, table.seed)

    def test_csv_keeps_a_20_digit_seed_exact(self, table):
        wide = dataclasses.replace(table, seed=2**64 - 1)
        assert pg.CriticalValueTable.from_csv(wide.to_csv()).seed == 2**64 - 1

    def test_json_round_trip_keeps_scheme(self, table):
        again = pg.CriticalValueTable.from_json(table.to_json())
        assert again.values == table.values
        assert again.scheme == SCHEME

    def test_load_sniffs_format(self, table, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        csv_path.write_text(table.to_csv())
        json_path.write_text(table.to_json())
        assert pg.CriticalValueTable.load(csv_path).values == table.values
        assert pg.CriticalValueTable.load(json_path).values == table.values

    @pytest.mark.parametrize("field,value,message", [
        ("level", 1.5, "table level must lie in"),
        ("values", {**dict.fromkeys(pg.STAT_NAMES, 0.2), "c": math.nan},
         "critical value c must be a finite real number"),
        ("values", dict.fromkeys(pg.STAT_NAMES[:-1], 0.2), "malformed critical value table"),
        ("n", 0, "n must be an integer"),
        ("replications", 2.5, "B must be an integer"),
        ("seed", 2**64, "seed must be an integer"),
        ("scheme_id", "s0000000000", "does not match its scheme"),
    ], ids=["level", "nan", "missing", "n", "B", "seed", "scheme_id"])
    def test_construction_enforces_the_file_rules(self, table, field, value, message):
        with pytest.raises(pg.CensoringError, match=message):
            dataclasses.replace(table, **{field: value})

    def test_csv_rejects_bad_content(self):
        with pytest.raises(pg.CensoringError, match="expected header"):
            pg.CriticalValueTable.from_csv("a,b,c\n1,2,3\n")
        with pytest.raises(pg.CensoringError, match="exactly one table row"):
            pg.CriticalValueTable.from_csv(
                "scheme_id,n,level,B,seed,c_plus,c_minus,c,k,t1,t2\n"
            )


class TestPValue:
    def test_never_zero_and_never_above_one(self):
        huge = pg.StatisticSet(1.5, 1.5, 1.5, 1.5, 1.5, 1.5)
        p = pg.p_value(huge, SCHEME, 15, replications=400, seed=1)
        assert all(v == 1 / 401 for v in p.values())

    def test_zero_statistics_have_p_one_for_nonnegative_stats(self):
        zero = pg.StatisticSet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        p = pg.p_value(zero, SCHEME, 15, replications=400, seed=1)
        assert p["t1"] == 1.0
        assert p["t2"] == 1.0
        assert all(0.0 < v <= 1.0 for v in p.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_ties_as_at_least_as_extreme(self, null_stats, workers):
        # the observed set is a simulated row, so every column has a tie to count
        observed = pg.StatisticSet(*null_stats[17])
        p = pg.p_value(observed, SCHEME, 15, replications=3000, seed=5, workers=workers)
        for j, name in enumerate(pg.STAT_NAMES):
            assert p[name] == (1 + np.count_nonzero(null_stats[:, j] >= null_stats[17, j])) / 3001

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        zero = pg.StatisticSet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(pg.CensoringError, match="seed must be an integer"):
            pg.p_value(zero, SCHEME, 15, replications=10, seed=seed)

    def test_integral_non_int_replications_give_the_int_result(self):
        observed = (0.1, 0.1, 0.1, 0.1, 0.005, 0.05)
        expected = pg.p_value(observed, SCHEME, 15, replications=100, seed=1)
        for b in (Fraction(100), Decimal(100)):
            p = pg.p_value(observed, SCHEME, 15, replications=b, seed=1)
            assert p == expected and all(type(v) is float for v in p.values())

    def test_any_row_of_six_reals_gives_the_same_result(self, null_stats):
        observed = pg.StatisticSet(*null_stats[17])
        expected = pg.p_value(observed, SCHEME, 15, replications=400, seed=1)
        for row in (tuple(observed), list(observed), null_stats[17]):
            assert pg.p_value(row, SCHEME, 15, replications=400, seed=1) == expected

    @pytest.mark.parametrize("row,message", BAD_ROWS)
    def test_rejects_a_row_that_is_not_six_finite_reals(self, row, message):
        with pytest.raises(pg.CensoringError, match=message):
            pg.p_value(row, SCHEME, 15, replications=10, seed=1)

    def test_monotone_in_observed_value(self):
        small = pg.StatisticSet(0.05, 0.05, 0.05, 0.05, 0.001, 0.01)
        large = pg.StatisticSet(0.2, 0.2, 0.2, 0.3, 0.02, 0.1)
        p_small = pg.p_value(small, SCHEME, 15, replications=400, seed=1)
        p_large = pg.p_value(large, SCHEME, 15, replications=400, seed=1)
        for name in pg.STAT_NAMES:
            assert p_large[name] <= p_small[name]


@pytest.fixture(scope="module")
def table():
    return pg.critical_values(SCHEME, 15, level=0.05, replications=4000, seed=6)


class TestPower:
    def test_null_power_is_near_level(self, table):
        freq, _ = pg.power(SCHEME, 15, table, [pg.UNIFORM], replications=4000, seed=7)
        tol = 4 * math.sqrt(0.05 * 0.95 / 4000) + 0.005
        assert freq.shape == (1, 6)
        assert np.all(np.abs(freq - 0.05) < tol)

    def test_extreme_critical_values(self, table):
        low = pg.CriticalValueTable(
            scheme_id=table.scheme_id, n=15, level=0.05, replications=10, seed=0,
            values={name: -1.0 for name in pg.STAT_NAMES},
        )
        high = pg.CriticalValueTable(
            scheme_id=table.scheme_id, n=15, level=0.05, replications=10, seed=0,
            values={name: 10.0 for name in pg.STAT_NAMES},
        )
        sure, sure_err = pg.power(SCHEME, 15, low, [pg.UNIFORM], replications=100, seed=0)
        never, _ = pg.power(SCHEME, 15, high, [pg.UNIFORM], replications=100, seed=0)
        assert np.all(sure == 1.0)
        assert np.all(never == 0.0)
        assert np.all(sure_err == 0.0)

    def test_stderr_formula(self, table):
        models = [pg.AlternativeFamily("lehmann", 2.0), pg.AlternativeFamily("compressed", 0.2)]
        freq, stderr = pg.power(SCHEME, 15, table, models, replications=500, seed=3)
        assert freq.shape == stderr.shape == (2, 6)
        for f, e in zip(freq.flat, stderr.flat):
            assert e == math.sqrt(f * (1 - f) / 500)

    def test_mismatched_table_raises(self, table):
        other = pg.CensoringScheme((0.0, 0.25, 0.6), (0.3, 1.0))
        with pytest.raises(pg.CensoringError, match="computed for scheme"):
            pg.power(other, 15, table, [pg.UNIFORM], replications=10, seed=0)
        with pytest.raises(pg.CensoringError, match="computed for n = 15, got n = 16"):
            pg.power(SCHEME, 16, table, [pg.UNIFORM], replications=10, seed=0)

    @pytest.mark.parametrize("n", ["15", True, 15.5, 0])
    def test_table_check_reads_n_by_the_number_rule(self, table, n):
        # text "15" is refused as text, not as a mismatch with the table's n = 15
        with pytest.raises(pg.CensoringError, match="sample size must be an integer"):
            pg.power(SCHEME, n, table, [pg.UNIFORM], replications=10, seed=0)
        with pytest.raises(pg.CensoringError, match="sample size must be an integer"):
            pg.reject((0.0,) * 6, table, n=n)

    @pytest.mark.parametrize("n", [15.0, np.int64(15), Fraction(15), Decimal(15)])
    def test_table_check_accepts_an_integral_n(self, table, n):
        fam = pg.AlternativeFamily("lehmann", 2.0)
        expected = pg.power(SCHEME, 15, table, [fam], replications=100, seed=3)
        for a, e in zip(pg.power(SCHEME, n, table, [fam], replications=100, seed=3), expected):
            assert a.tobytes() == e.tobytes()
        assert pg.reject((0.0,) * 6, table, n=n) == pg.reject((0.0,) * 6, table, n=15)

    def test_single_model_not_in_a_list_raises(self, table):
        with pytest.raises(pg.CensoringError, match=r"pass \[model\]"):
            pg.power(SCHEME, 15, table, pg.UNIFORM, replications=10, seed=0)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_rejects_a_seed_that_is_not_an_integer(self, table, seed):
        with pytest.raises(pg.CensoringError, match="seed must be an integer"):
            pg.power(SCHEME, 15, table, [pg.UNIFORM], replications=10, seed=seed)

    def test_integral_non_int_replications_give_the_int_result(self, table):
        fam = pg.AlternativeFamily("lehmann", 2.0)
        expected = pg.power(SCHEME, 15, table, [fam], replications=100, seed=3)
        for b in (Fraction(100), Decimal(100), 100.0):
            for a, e in zip(pg.power(SCHEME, 15, table, [fam], replications=b, seed=3), expected):
                assert a.dtype == e.dtype and a.tobytes() == e.tobytes()

    def test_rejection_counts_strict_exceedance(self, table):
        fam = pg.AlternativeFamily("compressed", 0.2)
        freq, _ = pg.power(SCHEME, 15, table, [fam], replications=300, seed=11)
        stats = pg.replicated_statistics(SCHEME, 15, fam, seed=11, replications=300)
        for j, name in enumerate(pg.STAT_NAMES):
            assert freq[0, j] == np.count_nonzero(stats[:, j] > table.values[name]) / 300


class TestPowerCurve:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_one_model_calls(self, table, workers):
        models = [pg.AlternativeFamily("lehmann", 1.0), pg.AlternativeFamily("centered", 2.0),
                  pg.AlternativeFamily("compressed", 0.3)]
        # 2049 replications make two chunks per model
        freq, stderr = pg.power(SCHEME, 15, table, models, 2049, seed=2, workers=workers)
        assert freq.shape == stderr.shape == (3, 6)
        for row, model in enumerate(models):
            one_freq, one_stderr = pg.power(SCHEME, 15, table, [model], 2049, seed=2)
            assert np.array_equal(freq[row], one_freq[0])
            assert np.array_equal(stderr[row], one_stderr[0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_equal_reference_row_counts(self, table, workers):
        models = [pg.AlternativeFamily("compressed", g) for _, g, _ in SATURATING[:2]]
        models.append(pg.AlternativeFamily("lehmann", 2.0))
        freq, _ = pg.power(SCHEME, 15, table, models, 2049, seed=4, workers=workers)
        critical = np.array([table.values[name] for name in pg.STAT_NAMES])
        for row, model in zip(freq, models):
            stats = np.array(reference_rows(SCHEME, 15, model, seed=4, replications=2049))
            assert np.array_equal(row, np.count_nonzero(stats > critical, axis=0) / 2049)

    def test_batched_pool_keeps_the_bits(self, table, monkeypatch):
        # enough (model x chunk) tasks that two workers take them several at a time
        sizes = []

        class RecordingPool(pg.montecarlo.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1):
                sizes.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize)

        monkeypatch.setattr(pg.montecarlo, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(pg.montecarlo.os, "cpu_count", lambda: 2)
        models = [pg.AlternativeFamily("lehmann", 2.0), pg.AlternativeFamily("centered", 2.0),
                  pg.AlternativeFamily("compressed", 0.3)]
        replications = 3 * pg.montecarlo.CHUNK_SIZE - 5
        pooled = pg.power(SCHEME, 15, table, models, replications, seed=2, workers=2)
        serial = pg.power(SCHEME, 15, table, models, replications, seed=2, workers=1)
        for a, b in zip(pooled, serial):
            assert a.tobytes() == b.tobytes()
        replications = 10 * pg.montecarlo.CHUNK_SIZE - 5
        rows = pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, 5, replications, workers=2)
        serial = pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, 5, replications, workers=1)
        assert rows.tobytes() == serial.tobytes()
        assert sizes == [2, 2]

    def test_common_random_numbers(self, table):
        twice = [pg.AlternativeFamily("lehmann", 2.0)] * 2
        freq, stderr = pg.power(SCHEME, 15, table, twice, replications=300, seed=2)
        assert np.array_equal(freq[0], freq[1])
        assert np.array_equal(stderr[0], stderr[1])

    def test_models_may_be_any_iterable(self, table):
        models = [pg.AlternativeFamily("lehmann", 2.0), pg.AlternativeFamily("centered", 2.0)]
        listed = pg.power(SCHEME, 15, table, models, replications=300, seed=2)
        generated = pg.power(SCHEME, 15, table, (m for m in models), replications=300, seed=2)
        for a, b in zip(generated, listed):
            assert a.tobytes() == b.tobytes()
        with pytest.raises(pg.CensoringError, match="at least one model"):
            pg.power(SCHEME, 15, table, iter([]), replications=10, seed=0)

    def test_rejects_empty_model_list(self, table):
        with pytest.raises(pg.CensoringError, match="at least one model"):
            pg.power(SCHEME, 15, table, [], replications=10, seed=0)

    @pytest.fixture()
    def design_files(self, table, tmp_path):
        """The module's scheme and table as files, and the CLI's power-curve argv on them."""
        (tmp_path / "scheme.json").write_text(pg.scheme_to_json(SCHEME))
        (tmp_path / "cv.csv").write_text(table.to_csv())
        return ["power-curve", "--scheme", str(tmp_path / "scheme.json"), "--n", "15",
                "--family", "lehmann", "--critical", str(tmp_path / "cv.csv")]

    def test_domain_error_from_grid(self, design_files, capsys):
        assert cli_main([*design_files, "--grid", "1.0,-2.0", "--B", "10"]) == 2
        assert "lehmann parameter must be > 0" in capsys.readouterr().err

    def test_csv_emission(self, table, design_files, capsys):
        assert cli_main([*design_files, "--grid", "1.5", "--B", "200", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# scheme=")
        assert lines[1] == "family,param,stat,power,stderr"
        assert len(lines) == 2 + 6
        freq, stderr = pg.power(SCHEME, 15, table, [pg.AlternativeFamily("lehmann", 1.5)],
                                replications=200, seed=2)
        for line, name, f, e in zip(lines[2:], pg.STAT_NAMES, freq[0], stderr[0]):
            assert line == f"lehmann,1.5,{name},{float(f)!r},{float(e)!r}"
