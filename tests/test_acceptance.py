"""End-to-end acceptance checks.

Each test function here is one acceptance criterion; the hook in conftest.py
prints a [PASS]/[FAIL] line per criterion after the run.  Stochastic checks
pin their seeds, so every tolerance below was calibrated once against the
exact seed and replication count used in the test.
"""

import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest

import picgof as pg
from picgof.cli import main as cli_main
from picgof.distributions import test_general as general_statistics

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from bench.checks import TABLE_TOLERANCE  # noqa: E402
from bench.exact import null_laws, quantile  # noqa: E402

# Published 5% critical values for the four bundled designs at n = 40.
REFERENCE_CRITICAL = {
    "t1p1": {"c_plus": 0.2361, "c_minus": 0.2597, "c": 0.3140,
             "k": 0.3157, "t1": 0.0284, "t2": 0.1420},
    "t1p2": {"c_plus": 0.2775, "c_minus": 0.3111, "c": 0.3412,
             "k": 0.3513, "t1": 0.0409, "t2": 0.1700},
    "t2p1": {"c_plus": 0.2470, "c_minus": 0.2417, "c": 0.3066,
             "k": 0.3214, "t1": 0.0310, "t2": 0.1378},
    "t2p2": {"c_plus": 0.3000, "c_minus": 0.3132, "c": 0.3500,
             "k": 0.3750, "t1": 0.0440, "t2": 0.1655},
}

LEVEL = 0.05
N = 40
B = 20000
# Three binomial standard errors of a rejection frequency at the nominal level.
SIZE_TOLERANCE = 3.0 * math.sqrt(LEVEL * (1.0 - LEVEL) / B)


@pytest.fixture(scope="module")
def size_run(bundled_schemes, reference_tables):
    """Rejection frequencies under the uniform null itself, in STAT_NAMES order."""
    freq, _ = pg.power(
        bundled_schemes["t1p1"], N, reference_tables["t1p1"], [pg.UNIFORM],
        replications=B, seed=2, workers=2,
    )
    return freq[0]


# --- criterion 1: reference critical values ------------------------------

@pytest.mark.parametrize("name", sorted(REFERENCE_CRITICAL))
def test_reproduces_reference_critical_values(name, reference_tables):
    table = reference_tables[name]
    for stat, expected in REFERENCE_CRITICAL[name].items():
        assert table.values[stat] == pytest.approx(expected, abs=TABLE_TOLERANCE), (
            f"{name}/{stat}: {table.values[stat]:.4f} vs {expected:.4f}"
        )


# --- criterion 2: size control --------------------------------------------

def test_size_control_at_nominal_level(size_run):
    for stat, rate in zip(pg.STAT_NAMES, size_run):
        assert abs(rate - LEVEL) <= SIZE_TOLERANCE, f"{stat}: rejection rate {rate:.4f}"


# --- criterion 3: boundary family members are the null --------------------

@pytest.mark.parametrize(
    "kind,parameter", [("lehmann", 1.0), ("centered", 1.0), ("compressed", 0.0)]
)
def test_null_family_members_match_nominal_level(
    kind, parameter, bundled_schemes, reference_tables, size_run
):
    member = pg.AlternativeFamily(kind, parameter)
    freq, _ = pg.power(
        bundled_schemes["t1p1"], N, reference_tables["t1p1"], [member],
        replications=B, seed=2, workers=2,
    )
    # the boundary member's cdf coincides with the identity bit for bit, so
    # the whole simulation does too
    assert np.array_equal(freq[0], size_run)
    assert np.all(np.abs(freq[0] - LEVEL) <= SIZE_TOLERANCE)


# --- criterion 4: agreement with exact enumeration -------------------------

ENUM_B = 100_000
ENUM_SEED = 3
ATOM_TOL = 1e-9
# Two toy designs at every n up to 5, and the bundled five-inspection designs
# at n = 5; bench/exact.py enumerates every trajectory of each.
TOY_DESIGNS = {"m1": ((0.0, 0.5), (1.0,)), "m2": ((0.0, 0.3, 0.6), (0.5, 1.0))}
ENUM_CASES = [(n, d) for n in range(1, 6) for d in TOY_DESIGNS]
ENUM_CASES += [(5, name) for name in pg.BUNDLED_SCHEME_NAMES]


@pytest.mark.parametrize("n,design", ENUM_CASES, ids=[f"{n}-{d}" for n, d in ENUM_CASES])
def test_matches_exact_enumeration_on_tiny_designs(n, design, bundled_schemes):
    scheme = bundled_schemes.get(design) or pg.CensoringScheme(*TOY_DESIGNS[design])
    laws = null_laws(scheme.times, scheme.percentages, n)
    sims = pg.replicated_statistics(
        scheme, n, pg.UNIFORM, seed=ENUM_SEED, replications=ENUM_B, workers=2
    )
    table = pg.critical_values(scheme, n, LEVEL, ENUM_B, seed=ENUM_SEED, workers=2)
    for j, stat in enumerate(pg.STAT_NAMES):
        law = laws[j]
        atoms = np.array([value for value, _ in law])
        column = sims[:, j]
        # every simulated value coincides with an enumerated atom
        nearest = np.abs(np.unique(column)[:, None] - atoms[None, :]).min(axis=1)
        assert float(nearest.max()) <= ATOM_TOL
        # merge float near-duplicates of the same mathematical atom (distinct
        # trajectories can round the same value differently); true gaps between
        # atoms of these tiny designs are orders of magnitude above ATOM_TOL
        clusters: list[list[float]] = []
        for atom, prob in law:
            if clusters and atom - clusters[-1][0] <= ATOM_TOL:
                clusters[-1][1] += prob
            else:
                clusters.append([atom, prob])
        # observed atom frequencies match the exact law
        for atom, prob in clusters:
            freq = float(np.mean(np.abs(column - atom) <= ATOM_TOL))
            se = math.sqrt(max(prob * (1.0 - prob), 0.0) / ENUM_B)
            assert abs(freq - prob) <= 4.0 * se + 1e-15, (
                f"{design} n={n} {stat} atom {atom}: {freq} vs {prob}"
            )
        # the simulated critical value is the exact one
        exact = quantile(law, 1.0 - LEVEL)
        assert abs(table.values[stat] - exact) <= ATOM_TOL, (
            f"{design} n={n} {stat}: {table.values[stat]} vs exact {exact}"
        )


# --- criterion 5: estimator identities -------------------------------------

def test_estimator_identities_hold():
    rng = np.random.default_rng(90210)

    # (a) with nothing withdrawn before the last inspection, the product-limit
    # estimate telescopes to the exact survivor fraction
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 31))
        times = (0.0, *np.cumsum(rng.uniform(0.01, 0.15, size=m)).tolist())
        failures = []
        at_risk = n
        for _ in range(m):
            x = int(rng.integers(0, at_risk + 1))
            failures.append(x)
            at_risk -= x
        removals = [0] * (m - 1) + [at_risk]
        estimate = pg.survival_values(n, failures, removals)
        total = 0
        for est, x in zip(estimate, failures):
            total += x
            assert abs(est - float(Fraction(n - total, n))) <= 1e-12

    # (b) the general test against a fully specified cdf reproduces, bit for
    # bit, the uniformity test applied to the transformed design
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 31))
        times = (0.0, *np.cumsum(rng.uniform(0.01, 0.15, size=m)).tolist())
        percentages = (*rng.uniform(0.0, 1.0, size=m - 1).tolist(), 1.0)
        scheme = pg.CensoringScheme(times, percentages)
        failures, removals = [], []
        at_risk = n
        for i in range(m):
            x = int(rng.integers(0, at_risk + 1))
            survivors = at_risk - x
            r = survivors if i == m - 1 else int(rng.integers(0, survivors + 1))
            failures.append(x)
            removals.append(r)
            at_risk = survivors - r
        sample = pg.CensoredSample(scheme, n, tuple(failures), tuple(removals))
        kind = ("uniform", "lehmann", "centered")[int(rng.integers(0, 3))]
        if kind == "uniform":
            f0 = pg.UNIFORM
        else:
            f0 = pg.AlternativeFamily(kind, float(rng.uniform(0.3, 3.0)))
        routed = general_statistics(sample, f0)
        retimed = pg.CensoredSample(
            pg.transform_scheme(scheme, f0), n, sample.failures, sample.removals
        )
        direct = pg.compute_statistics(pg.deviations(retimed, pg.UNIFORM))
        assert routed.as_tuple() == direct.as_tuple()


# --- criterion 6: determinism across worker counts --------------------------

def test_bit_identical_across_worker_counts(tmp_path):
    payloads = []
    for threads in (1, 4, 8):
        out = tmp_path / f"w{threads}.csv"
        code = cli_main([
            "critical-values", "--scheme", "t1p1", "--n", "20",
            "--B", "5000", "--seed", "9", "--threads", str(threads),
            "--out", str(out),
        ])
        assert code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]


# --- criterion 7: power is ordered along ordered alternatives ---------------

@pytest.mark.parametrize(
    "kind,grid",
    [("lehmann", (1.0, 1.5, 2.0, 2.5, 3.0)), ("compressed", (0.0, 0.1, 0.2, 0.3))],
)
def test_power_increases_along_ordered_alternatives(
    kind, grid, bundled_schemes, reference_tables
):
    freq, stderr = pg.power(
        bundled_schemes["t1p1"], N, reference_tables["t1p1"],
        [pg.AlternativeFamily(kind, p) for p in grid], replications=B, seed=4, workers=2,
    )
    for stat in ("t1", "t2"):
        j = pg.STAT_NAMES.index(stat)
        values, errors = freq[:, j].tolist(), stderr[:, j].tolist()
        for i in range(len(values) - 1):
            slack = 2.0 * math.sqrt(errors[i] ** 2 + errors[i + 1] ** 2)
            assert values[i + 1] - values[i] > -slack, (
                f"{kind}/{stat}: {values} not increasing at step {i}"
            )
        assert values[-1] > 0.15, f"{kind}/{stat}: weak terminal power {values[-1]}"


# --- criterion 8: the general-F0 test holds its size ------------------------

GENERAL_SAMPLES = 1000
GENERAL_B = 199
GENERAL_SEED = 8
# Each null F0 on the design its samples are drawn from.
GENERAL_NULLS = [("t2p1", "lehmann", 0.8), ("t1p2", "centered", 1.7)]


@pytest.mark.parametrize("design,kind,parameter", GENERAL_NULLS,
                         ids=[f"{d}-{k}:{p}" for d, k, p in GENERAL_NULLS])
def test_general_null_test_holds_its_size(design, kind, parameter, bundled_schemes):
    # samples drawn from F0 itself and tested against it, calibrated on the
    # design re-timed through F0 as `picgof test` does; add-one p-values are
    # super-uniform, so only the upper side is bounded
    f0 = pg.AlternativeFamily(kind, parameter)
    scheme = bundled_schemes[design]
    working = pg.transform_scheme(scheme, f0)
    rng = np.random.default_rng(GENERAL_SEED)
    p_values = []
    for i in range(GENERAL_SAMPLES):
        sample = pg.simulate_sample(scheme, N, f0, rng)
        p = pg.p_value(general_statistics(sample, f0), working, N, GENERAL_B, seed=i)
        p_values.append([p[name] for name in pg.STAT_NAMES])
    p_values = np.array(p_values)
    for alpha in (0.05, 0.10):
        bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / GENERAL_SAMPLES)
        rates = np.mean(p_values <= alpha, axis=0)
        for stat, rate in zip(pg.STAT_NAMES, rates.tolist()):
            assert rate <= bound, f"{design} {kind}:{parameter} {stat}: P(p <= {alpha}) = {rate}"
