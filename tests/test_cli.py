"""Command line behavior: formats, round trips, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_golden import CASES, GOLDEN_DIR

import picgof as pg
from picgof.cli import build_parser, main
from picgof.schemes import scheme_fields

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from scripts.power_curves import main as power_curves  # noqa: E402


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCriticalValues:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "critical-values", "--scheme", "t1p1", "--n", "20",
            "--B", "500", "--seed", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scheme_id,n,level,B,seed,c_plus,c_minus,c,k,t1,t2"
        cells = lines[1].split(",")
        assert cells[0] == pg.scheme_id(pg.load_scheme("t1p1"))
        assert cells[1:5] == ["20", "0.05", "500", "1"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "critical-values", "--scheme", "t2p2", "--n", "10",
            "--B", "200", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 10
        assert set(obj["critical_values"]) == set(pg.STAT_NAMES)
        assert obj["scheme"]["times"][-1] == 0.5

    def test_scheme_from_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scheme_fields(pg.CensoringScheme((0.0, 0.4), (1.0,)))))
        code, out, _ = run(
            capsys, "critical-values", "--scheme", str(path), "--n", "5", "--B", "100"
        )
        assert code == 0


class TestSimulateAndTest:
    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        sample_path = tmp_path / "sample.csv"
        code, _, err = run(
            capsys, "simulate", "--scheme", "t1p1", "--n", "40",
            "--alt", "lehmann:2.0", "--seed", "5", "--out", str(sample_path),
        )
        assert code == 0
        assert "simulate:" in err
        text = sample_path.read_text()
        parsed = pg.sample_from_csv(text)
        assert pg.sample_to_csv(parsed) == text

        code, out, _ = run(
            capsys, "test", "--data", str(sample_path), "--B", "500", "--seed", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# scheme=")
        assert lines[1] == "kind," + ",".join(pg.STAT_NAMES)
        assert lines[2].startswith("statistic,")
        assert lines[3].startswith("p_value,")

    def test_full_withdrawal_of_the_largest_n(self, capsys, tmp_path):
        path = tmp_path / "all_out.json"
        path.write_text('{"times": [0, 1e-30, 0.5], "percentages": [1.0, 1.0]}')
        n = 2**53 - 1
        code, out, _ = run(capsys, "simulate", "--scheme", str(path), "--n", str(n))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert sum(int(x) + int(r) for _, x, r in rows) == n

    def test_simulate_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "sample.json"
        code, _, _ = run(
            capsys, "simulate", "--scheme", "t2p1", "--n", "25", "--seed", "3",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        sample = pg.sample_from_json(path.read_text())
        assert sample.n == 25
        assert sample.scheme == pg.load_scheme("t2p1")

    def test_zero_failure_sample_statistics(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("t_i,x_i,r_i\n0.25,0,5\n0.5,0,5\n")
        code, out, _ = run(capsys, "test", "--data", path.as_posix(), "--B", "200")
        assert code == 0
        row = out.splitlines()[2].split(",")
        assert row[0] == "statistic"
        c_plus = float(row[1])
        assert c_plus == pytest.approx(0.5, abs=1e-15)

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("t_i,x_i,r_i\n0.25,0,5\n0.5,0,5\n")
        code, out, _ = run(
            capsys, "test", "--data", str(path), "--B", "200", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj["statistics"]) == set(pg.STAT_NAMES)
        assert set(obj["p_values"]) == set(pg.STAT_NAMES)
        assert obj["null"] == "uniform"

    def test_whitespace_only_line_is_skipped(self, capsys, tmp_path):
        plain = tmp_path / "plain.csv"
        spaced = tmp_path / "spaced.csv"
        plain.write_text("t_i,x_i,r_i\n0.25,1,3\n0.5,0,2\n")
        spaced.write_text("t_i,x_i,r_i\n0.25,1,3\n   \n0.5,0,2\n")
        code, out, _ = run(capsys, "test", "--data", str(plain), "--B", "50")
        assert code == 0
        assert run(capsys, "test", "--data", str(spaced), "--B", "50")[:2] == (code, out)

    def test_nonuniform_null_transforms_times(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("t_i,x_i,r_i\n0.25,0,5\n0.5,0,5\n")
        code, out, _ = run(
            capsys, "test", "--data", str(path), "--B", "200",
            "--null", "lehmann:2.0", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        # first deviation is now F0(0.25) = 0.0625 for the zero-failure sample
        assert obj["statistics"]["c_plus"] == pytest.approx(0.25, abs=1e-15)
        assert obj["null"] == "lehmann:2.0"


class TestPowerCommands:
    @pytest.fixture()
    def table_path(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "critical-values", "--scheme", "t1p1", "--n", "15",
            "--B", "400", "--seed", "1", "--out", str(path),
        )
        assert code == 0
        return path

    def test_power_run(self, capsys, table_path):
        code, out, _ = run(
            capsys, "power", "--scheme", "t1p1", "--n", "15",
            "--alt", "lehmann:2.0", "--critical", str(table_path), "--B", "300",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# scheme=")
        assert lines[1] == "family,param,stat,power,stderr"
        assert len(lines) == 2 + 6

    def test_power_json(self, capsys, table_path):
        code, out, _ = run(
            capsys, "power", "--scheme", "t1p1", "--n", "15",
            "--alt", "compressed:0.2", "--critical", str(table_path),
            "--B", "300", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == "compressed"
        assert obj["parameter"] == 0.2

    def test_power_curve_explicit_grid(self, capsys, table_path):
        code, out, _ = run(
            capsys, "power-curve", "--scheme", "t1p1", "--n", "15",
            "--family", "lehmann", "--grid", "1.0,2.0", "--critical",
            str(table_path), "--B", "200",
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(lines) == 1 + 12

    def test_power_curve_default_grid(self, capsys, table_path):
        code, out, _ = run(
            capsys, "power-curve", "--scheme", "t1p1", "--n", "15",
            "--family", "compressed", "--critical", str(table_path),
            "--B", "100", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["points"]) == 17

    def test_power_curve_where_compressed_reaches_one_at_an_inspection(self, capsys, tmp_path):
        # compressed:0.2 is 1 at t = 0.8, so F(0.8) and F(0.9) are equal, not decreasing
        scheme = tmp_path / "scheme.json"
        scheme.write_text('{"times": [0.0, 0.4, 0.8, 0.9], "percentages": [0.2, 0.2, 1.0]}')
        table = tmp_path / "cv.csv"
        args = ["--scheme", str(scheme), "--n", "20", "--B", "200"]
        assert run(capsys, "critical-values", *args, "--out", str(table))[0] == 0
        code, out, err = run(capsys, "power-curve", *args, "--family", "compressed",
                             "--critical", str(table), "--format", "json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["points"]) == 17

    def test_bad_seed_is_data_error_where_no_interval_draws(self, capsys, tmp_path):
        # compressed:0.45 is 0 at every inspection, so no chunk draws a binomial
        scheme = tmp_path / "scheme.json"
        scheme.write_text('{"times": [0.0, 0.1, 0.2, 0.3], "percentages": [0.3, 0.3, 1.0]}')
        table = tmp_path / "cv.csv"
        args = ["--scheme", str(scheme), "--n", "10", "--B", "50"]
        assert run(capsys, "critical-values", *args, "--out", str(table))[0] == 0
        code, out, err = run(capsys, "power", *args, "--alt", "compressed:0.45",
                             "--critical", str(table), "--seed", "-3")
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must be an integer") and err.count("\n") == 1

    def test_mismatched_table_is_data_error(self, capsys, table_path):
        code, _, err = run(
            capsys, "power", "--scheme", "t2p1", "--n", "15",
            "--alt", "lehmann:2.0", "--critical", str(table_path), "--B", "100",
        )
        assert code == 2
        assert "error:" in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "critical-values", "--scheme", "t1p1", "--frobnicate")
        assert code == 1
        assert "usage error" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == 1

    def test_bad_family_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--scheme", "t1p1", "--alt", "weibull:2.0"
        )
        assert code == 1
        assert "weibull" in err

    def test_non_numeric_parameter_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--scheme", "t1p1", "--alt", "lehmann:x")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--scheme", "t1p1", "--alt", "uniform:3"),
            ("simulate", "--scheme", "t1p1", "--alt", "table:"),
            ("test", "--data", "missing.csv", "--null", "uniform:3"),
            # the spec is checked before either file is opened
            ("power", "--scheme", "missing.json", "--alt", "weibull:1", "--critical", "missing.csv"),
        ],
        ids=" ".join,
    )
    def test_malformed_family_spec_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("usage error:")

    def test_out_of_domain_parameter_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--scheme", "t1p1", "--alt", "lehmann:-2.0"
        )
        assert code == 2
        assert "error:" in err

    def test_missing_data_file_is_data_error(self, capsys):
        code, _, _ = run(capsys, "test", "--data", "/nonexistent/sample.csv")
        assert code == 2

    def test_invalid_sample_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header,here\n0.5,1,1\n")
        assert run(capsys, "test", "--data", str(path))[0] == 2

    def test_invalid_scheme_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"times": [0.0, 0.5, 0.2], "percentages": [0.5, 1.0]}))
        assert run(capsys, "critical-values", "--scheme", str(path), "--B", "10")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        for command in VOCABULARY:
            assert run(capsys, command, "--help")[0] == 0


#: Per subcommand: its required flags, and every dest with its value when only
#: those are given.
VOCABULARY = {
    "critical-values": (
        ["--scheme", "t1p1"],
        {"scheme": "t1p1", "n": 40, "replications": 20000, "workers": 1,
         "seed": 0, "out": None, "fmt": "csv", "level": 0.05},
    ),
    "power": (
        ["--scheme", "t1p1", "--alt", "lehmann:2.0", "--critical", "cv.csv"],
        {"scheme": "t1p1", "n": 40, "replications": 20000, "workers": 1,
         "seed": 0, "out": None, "fmt": "csv", "alt": "lehmann:2.0", "critical": "cv.csv"},
    ),
    "power-curve": (
        ["--scheme", "t1p1", "--family", "lehmann", "--critical", "cv.csv"],
        {"scheme": "t1p1", "n": 40, "replications": 20000, "workers": 1,
         "seed": 0, "out": None, "fmt": "csv", "family": "lehmann", "grid": None,
         "critical": "cv.csv"},
    ),
    "test": (
        ["--data", "sample.csv"],
        {"replications": 20000, "workers": 1, "seed": 0, "out": None, "fmt": "csv",
         "data": "sample.csv", "null": "uniform"},
    ),
    "simulate": (
        ["--scheme", "t1p1"],
        {"scheme": "t1p1", "n": 40, "seed": 0, "out": None, "fmt": "csv", "alt": "uniform"},
    ),
}


@pytest.mark.parametrize("command", VOCABULARY)
def test_vocabulary(command):
    flags, dests = VOCABULARY[command]
    parsed = vars(build_parser().parse_args([command, *flags]))
    del parsed["run"]
    assert parsed == {"command": command, **dests}


def test_public_names():
    # the library's vocabulary, pinned like the CLI's: adding or removing a
    # public name is a deliberate change to this list
    assert sorted(pg.__all__) == [
        "AlternativeFamily", "BUNDLED_SCHEME_NAMES", "CensoredSample", "CensoringError",
        "CensoringScheme", "CriticalValueTable", "DEFAULT_PARAMETER_GRIDS",
        "FamilySyntaxError", "STAT_NAMES", "StatisticSet", "TabulatedCdf", "UNIFORM",
        "compute_statistics", "critical_values", "derive_stream", "deviations", "load_scheme",
        "p_value", "parse_family", "power", "reject", "replicated_statistics", "sample_from_csv",
        "sample_from_json", "sample_to_csv", "sample_to_json", "scheme_id",
        "simulate_sample", "survival_values", "test_general", "transform_scheme",
    ]
    for name in pg.__all__:
        assert getattr(pg, name) is not None


BAD_INPUTS = {
    "tm1.json": json.dumps({"times": [0.0, 0.5, 1.0], "percentages": [0.5, 1.0]}),
    "times_text.json": json.dumps({"times": "0,0.5", "percentages": [1.0]}),
    "late.csv": "t_i,x_i,r_i\n0.5,1,3\n1.0,0,2\n",
    "ok.csv": "t_i,x_i,r_i\n0.25,1,3\n0.5,0,2\n",
    "f0_text.csv": "x,cdf\n0.0,0.0\n0.5,half\n1.0,1.0\n",
    "n_half.json": json.dumps(
        {"times": [0.0, 0.5], "percentages": [1.0], "n": 2.5, "failures": [1], "removals": [1]}
    ),
    "n_text.json": json.dumps(
        {"times": [0.0, 0.5], "percentages": [1.0], "n": "two", "failures": [1], "removals": [1]}
    ),
    "cv_text.csv": "scheme_id,n,level,B,seed,c_plus,c_minus,c,k,t1,t2\n"
    "x,15,0.05,400,1,0.3,high,0.5,0.5,0.07,0.2\n",
    "cv_nokey.json": json.dumps({"scheme_id": "x", "n": 15, "level": 0.05, "B": 400, "seed": 1}),
    "cv_type.json": json.dumps(
        {"scheme_id": "x", "n": [15], "level": 0.05, "B": 400, "seed": 1, "critical_values": {}}
    ),
    "times_a.json": json.dumps({"times": ["a", 0.5], "percentages": [0.5, 1.0]}),
    # a cell longer than the csv module's field limit of 131072 characters
    "huge_cell.csv": "t_i,x_i,r_i\n0.5,1," + "3" * 131073 + "\n",
    # json.loads reads Infinity as a float; every real number must be finite
    "inf_time.json": '{"times": [0.0, 0.5, Infinity], "percentages": [0.5, 1.0]}',
    # a table that matches t1p1 at n = 15 except that its n is not an integer
    "cv_n_frac.json": (GOLDEN_DIR / "cv.json").read_text("utf-8").replace('"n": 15,', '"n": 15.7,'),
    # the golden t1p1 table at n = 15, valid, for commands that fail elsewhere
    "cv_ok.csv": (GOLDEN_DIR / "cv.csv").read_text("utf-8"),
    # one byte that is not UTF-8 in each kind of input file
    "latin1_scheme.json": b'{"times": [0.0, 0.5], "percentages": [1.0]} \xff',
    "latin1_sample.csv": b"t_i,x_i,r_i\n0.25,1,3\n0.5,0,2 \xe9\n",
    "latin1_cv.csv": (GOLDEN_DIR / "cv.csv").read_bytes() + b"# \xff\n",
    "latin1_f0.csv": b"x,cdf\n0.0,0.0\n1.0,1.0\xff\n",
    # JSON that json.loads refuses with a plain ValueError or a RecursionError
    "long_int.json": '{"times": [0.0, ' + "1" * 5000 + '], "percentages": [1.0]}',
    "deep.json": '{"n": ' + "[" * 100000 + "]" * 100000 + "}",
    # the golden t1p1 table with one time of its scheme changed, so that the
    # scheme no longer matches its scheme_id
    "cv_scheme.json": (GOLDEN_DIR / "cv.json").read_text("utf-8").replace(
        '"times": [0.0, 0.1,', '"times": [0.0, 0.15,'
    ),
    # the golden table with a level outside (0, 1) or a critical value that is not finite
    "cv_nan.csv": (GOLDEN_DIR / "cv.csv").read_text("utf-8").replace(
        ",0.05,400,1,0.3484848484848485,", ",nan,400,1,nan,"
    ),
    "cv_inf.csv": (GOLDEN_DIR / "cv.csv").read_text("utf-8").replace(
        ",0.3484848484848485,", ",inf,"
    ),
    "cv_level_one.json": (GOLDEN_DIR / "cv.json").read_text("utf-8").replace(
        '"level": 0.05,', '"level": 1.0,'
    ),
    # counts summing to 2**53, one unit past the largest sample size
    "n_2_53.csv": "t_i,x_i,r_i\n0.25,0,4503599627370496\n0.5,0,4503599627370496\n",
}

CV = ("critical-values", "--scheme", "t1p1", "--n", "10", "--B", "20")
POWER = ("power", "--scheme", "t1p1", "--n", "15", "--alt", "lehmann:2.0", "--B", "20")


class TestErrorBoundary:
    """Out-of-domain values and malformed files end in one line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("critical-values", "--scheme", "t1p1", "--B", "0"),
            (*CV, "--level", "1.5"),
            (*CV, "--seed", "-1"),
            (*CV, "--threads", "-2"),
            ("critical-values", "--scheme", "tm1.json", "--B", "20"),
            ("critical-values", "--scheme", "times_text.json", "--B", "20"),
            ("test", "--data", "late.csv", "--B", "20"),
            ("test", "--data", "huge_cell.csv", "--B", "20"),
            ("test", "--data", "ok.csv", "--B", "0"),
            ("test", "--data", "ok.csv", "--null", "table:f0_text.csv", "--B", "20"),
            ("test", "--data", "n_half.json", "--B", "20"),
            ("test", "--data", "n_text.json", "--B", "20"),
            (*POWER, "--critical", "cv_text.csv"),
            (*POWER, "--critical", "cv_nokey.json"),
            (*POWER, "--critical", "cv_type.json"),
            ("critical-values", "--scheme", "times_a.json", "--B", "20"),
            (*POWER, "--critical", "cv_n_frac.json"),
            ("critical-values", "--scheme", "latin1_scheme.json", "--B", "20"),
            ("test", "--data", "latin1_sample.csv", "--B", "20"),
            (*POWER, "--critical", "latin1_cv.csv"),
            ("test", "--data", "ok.csv", "--null", "table:latin1_f0.csv", "--B", "20"),
            ("simulate", "--scheme", "t1p1", "--seed", "-1"),
            ("simulate", "--scheme", "t1p1", "--n", "99999999999999999999"),
            ("simulate", "--scheme", "t1p1", "--n", "9007199254740992"),
            ("critical-values", "--scheme", "t1p1", "--n", "9007199254740992", "--B", "20"),
            ("test", "--data", "n_2_53.csv", "--B", "20"),
            ("critical-values", "--scheme", "long_int.json", "--B", "20"),
            ("test", "--data", "deep.json", "--B", "20"),
            (*POWER, "--critical", "cv_scheme.json"),
            (*POWER, "--critical", "cv_nan.csv"),
            (*POWER, "--critical", "cv_inf.csv"),
            (*POWER, "--critical", "cv_level_one.json"),
            ("critical-values", "--scheme", "t1p1", "--n", "10", "--B", "99999999999999999999999"),
            (*POWER, "--critical", "cv_ok.csv", "--B", "99999999999999999999999"),
            ("power-curve", "--scheme", "t1p1", "--n", "15", "--family", "lehmann", "--grid", "2",
             "--critical", "cv_ok.csv", "--B", "99999999999999999999999"),
            ("test", "--data", "ok.csv", "--B", "99999999999999999999999"),
            ("power", "--scheme", "t1p1", "--n", "15", "--alt", "lehmann:inf", "--B", "20",
             "--critical", "cv_ok.csv"),
            ("power-curve", "--scheme", "t1p1", "--n", "15", "--family", "lehmann", "--grid", "1,inf",
             "--critical", "cv_ok.csv", "--B", "20"),
            ("simulate", "--scheme", "inf_time.json"),
        ],
        ids=" ".join,
    )
    def test_exits_2_with_one_line(self, capsys, tmp_path, monkeypatch, argv):
        for name, content in BAD_INPUTS.items():
            if isinstance(content, str):
                content = content.encode("utf-8")
            (tmp_path / name).write_bytes(content)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


#: Replacement cells for the fuzz test: empty, text, signs, extremes, JSON literals.
CELLS = (b"", b"x", b"-1", b"0", b"3.0", b"1e400", b"nan", b"99999999999999999999",
         b"true", b"null", b'"7"', b"[]", b"{}", b"#")
INPUT_FILES = sorted(p.name for p in GOLDEN_DIR.iterdir() if p.name != "cli.json")


def _reading(name):
    """The first golden argv that reads file ``name``, with B cut to 20."""
    argv = list(next(a for a in CASES if name in a or f"table:{name}" in a))
    if "--B" in argv:
        i = argv.index("--B")
        del argv[i:i + 2]
    return [*argv, "--B", "20"]


@st.composite
def corrupted_inputs(draw):
    """One golden input file with one byte or one cell replaced."""
    name = draw(st.sampled_from(INPUT_FILES))
    data = (GOLDEN_DIR / name).read_bytes()
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data) - 1))
        return name, data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
    a, b = draw(st.sampled_from([m.span() for m in re.finditer(rb"[^,\n{}\[\]:]+", data)]))
    return name, data[:a] + draw(st.sampled_from(CELLS)) + data[b:]


class TestCorruptedInputs:
    @settings(max_examples=150, deadline=None)
    @given(corrupted_inputs())
    def test_exit_code_without_traceback(self, corruption):
        name, data = corruption
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            for other in INPUT_FILES:
                shutil.copy(GOLDEN_DIR / other, tmp)
            (Path(tmp) / name).write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(_reading(name))
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestOutputPaths:
    def test_relative_out_ignores_env(self, capsys, tmp_path, monkeypatch):
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("PICGOF_OUT_DIR", str(elsewhere))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(
            capsys, "simulate", "--scheme", "t1p1", "--n", "10", "--out", "deep/s.csv"
        )
        assert code == 0
        assert (tmp_path / "deep" / "s.csv").exists()
        assert not elsewhere.exists()

    def test_absolute_out_ignores_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PICGOF_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = run(
            capsys, "simulate", "--scheme", "t1p1", "--n", "10", "--out", str(target)
        )
        assert code == 0
        assert target.exists()

    def test_threads_do_not_change_output(self, capsys, tmp_path):
        paths = []
        for threads in ("1", "2"):
            path = tmp_path / f"cv{threads}.csv"
            code, _, _ = run(
                capsys, "critical-values", "--scheme", "t1p2", "--n", "10",
                "--B", "3000", "--seed", "4", "--threads", threads,
                "--out", str(path),
            )
            assert code == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_power_curves_script_writes_what_the_cli_writes(capsys, tmp_path):
    sweep = ["--family", "lehmann", "--B", "50", "--threads", "1", "--out-dir", str(tmp_path)]
    assert power_curves(sweep) == 0
    capsys.readouterr()
    table = tmp_path / "t1p1.csv"
    code, out, _ = run(capsys, "critical-values", "--scheme", "t1p1", "--n", "40",
                       "--level", "0.05", "--B", "50", "--seed", "1")
    assert code == 0
    assert table.read_bytes() == out.encode("utf-8")
    code, out, _ = run(capsys, "power-curve", "--scheme", "t1p1", "--n", "40",
                       "--family", "lehmann", "--critical", str(table), "--B", "50", "--seed", "0")
    assert code == 0
    assert (tmp_path / "t1p1_lehmann.csv").read_bytes() == out.encode("utf-8")
