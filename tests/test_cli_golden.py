"""Golden CLI transcript: stdout and stderr bytes and exit code for a fixed set of argv.

Every case runs in-process from ``tests/golden``, whose input files
(samples, a tabulated CDF, critical tables and broken files) the argv name
by relative path.  A case that exits 0 runs a second time with ``--out``,
which must write the same bytes to the file and nothing to stdout.  Monte
Carlo output depends on numpy's binomial sampler, so the stdout and exit
code comparison is skipped under a numpy version other than the one the
transcript was captured with; stderr (messages and usage text) does not
depend on the sampler and is compared under any version.

Regenerate the transcript (only for a deliberate output change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from picgof.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
TRANSCRIPT = GOLDEN_DIR / "cli.json"

_B = ("--B", "200", "--seed", "3")

CASES = [
    # critical-values
    ("critical-values", "--scheme", "t1p1", "--n", "20", *_B),
    ("critical-values", "--scheme", "t2p2", "--n", "10", "--level", "0.1", *_B, "--format", "json"),
    ("critical-values", "--scheme", "bad_scheme.json", "--B", "10"),
    # power
    ("power", "--scheme", "t1p1", "--n", "15", "--alt", "lehmann:2.0", "--critical", "cv.csv", *_B),
    ("power", "--scheme", "t1p1", "--n", "15", "--alt", "compressed:0.2", "--critical", "cv.json",
     *_B, "--format", "json"),
    ("power", "--scheme", "t1p1", "--n", "15", "--alt", "table:f0.csv", "--critical", "cv.csv", *_B),
    # power-curve
    ("power-curve", "--scheme", "t1p1", "--n", "15", "--family", "lehmann", "--grid", "1.0,2.0",
     "--critical", "cv.csv", *_B),
    ("power-curve", "--scheme", "t1p1", "--n", "15", "--family", "centered", "--grid", "0.5,1.5",
     "--critical", "cv.json", *_B, "--format", "json"),
    ("power-curve", "--scheme", "t1p1", "--n", "15", "--family", "compressed", "--critical", "cv.csv",
     "--B", "50", "--seed", "3"),
    ("power-curve", "--scheme", "t1p1", "--n", "15", "--family", "lehmann", "--critical", "cv.json",
     "--B", "50", "--seed", "3", "--format", "json"),
    # test: three nulls on a CSV and a JSON sample, both output formats
    *(
        ("test", "--data", data, "--null", null, *_B, "--format", fmt)
        for data in ("sample.csv", "sample.json")
        for null in ("uniform", "lehmann:0.8", "table:f0.csv")
        for fmt in ("csv", "json")
    ),
    ("test", "--data", "sample.csv", *_B),
    # simulate
    ("simulate", "--scheme", "t1p1", "--n", "30", "--seed", "4"),
    ("simulate", "--scheme", "t2p1", "--n", "30", "--alt", "centered:2.0", "--seed", "4",
     "--format", "json"),
    ("simulate", "--scheme", "t1p2", "--n", "30", "--alt", "table:f0.csv", "--seed", "4"),
    # usage errors (exit 1)
    ("critical-values", "--scheme", "t1p1", "--frobnicate"),
    (),
    ("simulate", "--scheme", "t1p1", "--alt", "weibull:2.0"),
    ("simulate", "--scheme", "t1p1", "--alt", "lehmann:x"),
    ("test", "--data", "sample.csv", "--null", "nonsense"),
    ("power-curve", "--scheme", "t1p1", "--family", "lehmann", "--grid", "1,x", "--critical", "cv.csv"),
    ("power", "--scheme", "missing.json", "--alt", "weibull:1", "--critical", "missing.csv"),
    # data errors (exit 2)
    ("simulate", "--scheme", "t1p1", "--alt", "lehmann:-2.0"),
    ("simulate", "--scheme", "t1p1", "--alt", "compressed:0.7"),
    ("test", "--data", "missing.csv"),
    ("test", "--data", "bad_header.csv"),
    ("test", "--data", "sample.csv", "--null", "table:missing.csv"),
    ("power", "--scheme", "t2p1", "--n", "15", "--alt", "lehmann:2.0", "--critical", "cv.csv", *_B),
    ("power", "--scheme", "t1p1", "--n", "16", "--alt", "lehmann:2.0", "--critical", "cv.json", *_B),
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _capture() -> dict:
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        cases = []
        for argv in CASES:
            code, stdout, stderr = _run(argv)
            cases.append({"argv": list(argv), "exit": code, "stdout": stdout, "stderr": stderr})
    finally:
        os.chdir(cwd)
    return {"numpy": np.__version__, "cases": cases}


def _load() -> dict:
    return json.loads(TRANSCRIPT.read_text("utf-8"))


def test_transcript_covers_every_case():
    assert [c["argv"] for c in _load()["cases"]] == [list(argv) for argv in CASES]


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i]) or "<none>")
def test_cli_output_matches_transcript(index, monkeypatch, tmp_path):
    golden = _load()
    monkeypatch.chdir(GOLDEN_DIR)
    case = golden["cases"][index]
    code, stdout, stderr = _run(case["argv"])
    assert stderr == case["stderr"]
    if golden["numpy"] != np.__version__:
        pytest.skip(f"transcript captured with numpy {golden['numpy']}, running {np.__version__}")
    assert (code, stdout) == (case["exit"], case["stdout"])
    if code == 0:
        target = tmp_path / "result"
        assert _run([*case["argv"], "--out", str(target)]) == (0, "", case["stderr"])
        assert target.read_bytes() == case["stdout"].encode("utf-8")


if __name__ == "__main__":
    TRANSCRIPT.write_text(json.dumps(_capture(), indent=1) + "\n", "utf-8")
