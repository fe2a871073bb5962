"""Monte Carlo engine: determinism, order statistics, p-values, power."""

import dataclasses
import math

import numpy as np
import pytest

import picgof as pg

SCHEME = pg.CensoringScheme((0.0, 0.2, 0.4, 0.6), (0.3, 0.3, 1.0))


@pytest.fixture(scope="module")
def null_stats():
    return pg.replicated_statistics(SCHEME, 15, pg.UNIFORM, seed=5, replications=3000)


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

            def map(self, fn, items):
                return map(fn, items)

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
        # the engine and the public one-sample path must agree bit for bit
        for rep in (0, 1, 17, 2999):
            sample = pg.simulate_sample(SCHEME, 15, pg.UNIFORM, pg.derive_stream(5, rep))
            stats = pg.compute_statistics(pg.deviations(sample, pg.UNIFORM))
            assert tuple(null_stats[rep]) == stats.as_tuple()
        # either side of the chunk boundary, a seed above 2**63, and a sample
        # size above 2**53, where numpy and Python division may round apart
        for seed, n in ((5, 15), (2**63 + 5, 15), (5, 2**62)):
            rows = pg.replicated_statistics(SCHEME, n, pg.UNIFORM, seed, replications=2049)
            for rep in (0, 2047, 2048):
                sample = pg.simulate_sample(SCHEME, n, pg.UNIFORM, pg.derive_stream(seed, rep))
                stats = pg.compute_statistics(pg.deviations(sample, pg.UNIFORM))
                assert tuple(rows[rep]) == stats.as_tuple()

    def test_alternative_rows_match_composed_pipeline(self):
        fam = pg.AlternativeFamily("lehmann", 2.0)
        stats = pg.replicated_statistics(SCHEME, 12, fam, seed=8, replications=50)
        for rep in (0, 7, 49):
            sample = pg.simulate_sample(SCHEME, 12, fam, pg.derive_stream(8, rep))
            expected = pg.compute_statistics(pg.deviations(sample, pg.UNIFORM))
            assert tuple(stats[rep]) == expected.as_tuple()

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

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_bad_level(self, level):
        with pytest.raises(ValueError):
            pg.critical_values(SCHEME, 10, level=level, replications=10)

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
        est = pg.power(SCHEME, 15, table, pg.UNIFORM, replications=4000, seed=7)
        tol = 4 * math.sqrt(0.05 * 0.95 / 4000) + 0.005
        for name in pg.STAT_NAMES:
            assert abs(est.power[name] - 0.05) < tol

    def test_extreme_critical_values(self, table):
        low = pg.CriticalValueTable(
            scheme_id=table.scheme_id, n=15, level=0.05, replications=10, seed=0,
            values={name: -1.0 for name in pg.STAT_NAMES},
        )
        high = pg.CriticalValueTable(
            scheme_id=table.scheme_id, n=15, level=0.05, replications=10, seed=0,
            values={name: 10.0 for name in pg.STAT_NAMES},
        )
        sure = pg.power(SCHEME, 15, low, pg.UNIFORM, replications=100, seed=0)
        never = pg.power(SCHEME, 15, high, pg.UNIFORM, replications=100, seed=0)
        assert all(v == 1.0 for v in sure.power.values())
        assert all(v == 0.0 for v in never.power.values())
        assert all(v == 0.0 for v in sure.stderr.values())

    def test_stderr_formula(self, table):
        est = pg.power(
            SCHEME, 15, table, pg.AlternativeFamily("lehmann", 2.0),
            replications=500, seed=3,
        )
        for name in pg.STAT_NAMES:
            f = est.power[name]
            assert est.stderr[name] == pytest.approx(math.sqrt(f * (1 - f) / 500))

    def test_mismatched_table_raises(self, table):
        other = pg.CensoringScheme((0.0, 0.25, 0.6), (0.3, 1.0))
        with pytest.raises(pg.CensoringError, match="computed for scheme"):
            pg.power(other, 15, table, pg.UNIFORM, replications=10, seed=0)
        with pytest.raises(pg.CensoringError, match="computed for n = 15, got n = 16"):
            pg.power(SCHEME, 16, table, pg.UNIFORM, replications=10, seed=0)

    def test_provenance_recorded(self, table):
        fam = pg.AlternativeFamily("compressed", 0.2)
        est = pg.power(SCHEME, 15, table, fam, replications=300, seed=11)
        assert (est.family, est.parameter) == ("compressed", 0.2)
        assert (est.replications, est.seed) == (300, 11)


class TestPowerCurve:
    def test_one_estimate_per_grid_point(self, table):
        grid = (1.0, 2.0, 3.0)
        curve = pg.power_curve(SCHEME, 15, table, "lehmann", grid, replications=300, seed=2)
        assert [e.parameter for e in curve] == list(grid)

    def test_common_random_numbers(self, table):
        curve = pg.power_curve(
            SCHEME, 15, table, "lehmann", (2.0, 2.0), replications=300, seed=2
        )
        assert curve[0].power == curve[1].power

    def test_rejects_empty_grid(self, table):
        with pytest.raises(ValueError):
            pg.power_curve(SCHEME, 15, table, "lehmann", (), replications=10, seed=0)

    def test_domain_error_from_grid(self, table):
        with pytest.raises(pg.CensoringError, match="lehmann parameter must be > 0"):
            pg.power_curve(SCHEME, 15, table, "lehmann", (1.0, -2.0), replications=10, seed=0)

    def test_csv_emission(self, table):
        curve = pg.power_curve(SCHEME, 15, table, "lehmann", (1.5,), replications=200, seed=2)
        text = pg.power_estimates_to_csv(curve)
        lines = text.splitlines()
        assert lines[0] == "family,param,stat,power,stderr"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "lehmann"
        assert float(first[1]) == 1.5
        assert first[2] == "c_plus"
