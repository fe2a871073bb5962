"""Shared fixtures and the acceptance summary hook.

Session-scoped fixtures cache the expensive Monte Carlo artifacts (reference
critical value tables) so the acceptance tests can share them.  After the
run, one PASS/FAIL line is printed per acceptance criterion.
"""

import pytest

import picgof as pg

#: Master seed for the reference tables; the acceptance tolerances were
#: checked against this seed.  See tests/test_acceptance.py.
TABLE_SEED = 1


@pytest.fixture(scope="session")
def bundled_schemes():
    return {name: pg.load_scheme(name) for name in pg.BUNDLED_SCHEME_NAMES}


@pytest.fixture(scope="session")
def reference_tables(bundled_schemes):
    """Critical value tables for the bundled designs at n=40, level 0.05, B=20000."""
    return {
        name: pg.critical_values(scheme, 40, 0.05, 20000, seed=TABLE_SEED, workers=2)
        for name, scheme in bundled_schemes.items()
    }


# --- acceptance criterion reporting -------------------------------------

_ACCEPTANCE: dict[str, bool] = {}

_CRITERION_ORDER = [
    "test_reproduces_reference_critical_values",
    "test_size_control_at_nominal_level",
    "test_null_family_members_match_nominal_level",
    "test_matches_exact_enumeration_on_tiny_designs",
    "test_estimator_identities_hold",
    "test_bit_identical_across_worker_counts",
    "test_power_increases_along_ordered_alternatives",
    "test_general_null_test_holds_its_size",
]


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid or report.when not in ("setup", "call"):
        return
    name = report.nodeid.split("::")[-1].split("[")[0]
    passed = report.outcome == "passed"
    _ACCEPTANCE[name] = _ACCEPTANCE.get(name, True) and passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    ordered = [n for n in _CRITERION_ORDER if n in _ACCEPTANCE]
    ordered += sorted(set(_ACCEPTANCE) - set(_CRITERION_ORDER))
    for name in ordered:
        verdict = "PASS" if _ACCEPTANCE[name] else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {name}")
