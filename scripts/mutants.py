#!/usr/bin/env python3
"""Mutation gate: every listed mutant of ``src/`` must fail one of its named test modules.

    python3 scripts/mutants.py

Each mutant is one text edit, (file, old text, new text, test modules), whose old
text occurs exactly once in the file.  The script first runs the union of the named
modules on an unedited copy of ``src/``, ``tests/`` and ``scripts/``, which must pass.
Then, per mutant, it applies the edit to a fresh temporary copy, runs only the named
modules (pytest stops at the first failure; hypothesis runs with a fixed seed and an
empty example database), and prints ``killed`` or ``survived`` with the time taken.  It
exits 1 if any mutant survives, if an edit no longer applies, or if a run ends in
anything but passing or failing tests.  The mutants cover the engine's interval step,
the table binomial sampler and the risk sets its tables span, the withdrawal rule, the
block, chunk and stream layout, the exact rank of a critical value and the input checks
on counts, reals, model values, containers and JSON objects, so that a later change
cannot weaken the tests that hold their bits, counts, stream positions and refusals
unnoticed.  The gate takes about 170 s on 2 CPUs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SAMPLING, GOF, RELIABILITY, SCHEMES, MONTECARLO = (
    f"src/picgof/{name}.py" for name in ("sampling", "gof", "reliability", "schemes", "montecarlo")
)


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("table margin 0", SAMPLING, "margin = np.arange(width) * 2.0**-51",
           "margin = np.arange(width) * 0.0", ("tests/test_sampling.py",)),
    Mutant("math.log(1 - p) for log1p", SAMPLING, "(n * math.log1p(-p))",
           "(n * math.log(1 - p))", ("tests/test_sampling.py",)),
    Mutant("refused lookup redrawn without restarting its stream", MONTECARLO,
           "        key[1], counter[3] = c, i\n        rng.bit_generator.state = state\n",
           "        if (key[1], counter[3]) != (c, i):\n"
           "            key[1], counter[3] = c, i\n            rng.bit_generator.state = state\n",
           ("tests/test_montecarlo.py",)),
    Mutant("flip at q = 1/2 moved", SAMPLING, "counts[live] = n - x if q > 0.5 else x",
           "counts[live] = n - x if q >= 0.5 else x", ("tests/test_sampling.py",)),
    Mutant("bound one column too far", SAMPLING, "cum[np.arange(width) > bound[:, None] + 1]",
           "cum[np.arange(width) > bound[:, None] + 2]", ("tests/test_sampling.py",)),
    Mutant("fold with np.maximum", GOF, "np.copyto(c_plus, d, where=d > c_plus)",
           "np.maximum(c_plus, d, out=c_plus)", ("tests/test_gof.py",)),
    Mutant("estimate without max(a, 1)", RELIABILITY, "x / np.maximum(at_risk, 1)",
           "x / at_risk", ("tests/test_reliability.py",)),
    Mutant("c+- start at 0", GOF, "[[-np.inf], [-np.inf], ", "[[0.0], [0.0], ",
           ("tests/test_gof.py",)),
    Mutant("withdraw_count without its +1e-9", SCHEMES,
           "np.asarray(survivors, dtype=np.int64) + 1e-9)",
           "np.asarray(survivors, dtype=np.int64))", ("tests/test_sampling.py",)),
    Mutant("_replicate reassembling blocks out of order", MONTECARLO,
           "zip(blocks, parts)", "zip(blocks[::-1], parts)", ("tests/test_montecarlo.py",)),
    Mutant("derive_stream keyed without its interval", MONTECARLO,
           "counter=[0, 0, 0, interval]", "counter=[0, 0, 0, 0]", ("tests/test_montecarlo.py",)),
    Mutant("every chunk of a block drawn from its first chunk's stream", MONTECARLO,
           "stream(chunks[k], i)", "stream(chunks.start, i)", ("tests/test_montecarlo.py",)),
    Mutant("re-key leaving the interval word unset", MONTECARLO,
           "key[1], counter[3] = c, i", "key[1] = c", ("tests/test_montecarlo.py",)),
    Mutant("a block's uniforms concatenated in reverse chunk order", SAMPLING,
           "for k, part in enumerate(parts)])\n        x = _invert",
           "for k, part in enumerate(parts)][::-1])\n        x = _invert", ("tests/test_sampling.py",)),
    Mutant("blocks over the 16-chunk cap", MONTECARLO,
           "max(math.ceil(chunks / _BLOCK_CHUNKS), ", "max(1, ", ("tests/test_montecarlo.py",)),
    Mutant("span rule off by one", SAMPLING, "hi - lo >= _SPAN", "hi - lo > _SPAN",
           ("tests/test_sampling.py",)),
    Mutant("table one risk set short of hi", SAMPLING, "_inversion_table(p, lo, hi)\n",
           "_inversion_table(p, lo, hi - 1)\n", ("tests/test_sampling.py",)),
    Mutant("rank on the float level", MONTECARLO, "(1 - Fraction(repr(level)))", "(1 - level)",
           ("tests/test_montecarlo.py",)),
    Mutant("_count_trajectory allowing more removals than survivors", SCHEMES,
           "if r > survivors[-1]:", "if r > survivors[-1] + 1:", ("tests/test_schemes.py",)),
    Mutant("as_real accepting nan", SCHEMES, "math.isfinite(x := float(value))",
           "not math.isinf(x := float(value))", ("tests/test_schemes.py",)),
    Mutant("a model value read with float", SCHEMES, 'as_real(cdf(t), "cdf value")',
           "float(cdf(t))", ("tests/test_boundary.py",)),
    Mutant("reader without its decrease check", SCHEMES, "if b < a:", "if False:",
           ("tests/test_sampling.py",)),
    Mutant("null survival one time early", RELIABILITY, "[1:]", "[:-1]",
           ("tests/test_reliability.py",)),
    Mutant("container rule accepting bytes", SCHEMES, "(str, bytes)", "(str,)",
           ("tests/test_boundary.py",)),
    Mutant("JSON reader without its object check", SCHEMES, "if not isinstance(obj, dict):",
           "if False:", ("tests/test_cli.py",)),
]


def run_tests(mutant: Mutant | None, modules) -> tuple[int, float, str]:
    """pytest's exit code, seconds and output for ``modules`` on a temporary copy of the
    repository's sources, tests and scripts with ``mutant`` applied (None: unedited)."""
    with tempfile.TemporaryDirectory(prefix="picgof-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for tree in ("src", "tests", "scripts"):  # tests/test_cli.py imports scripts/
            shutil.copytree(ROOT / tree, work / tree, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)
        if mutant is not None:
            path = work / mutant.file
            text = path.read_text("utf-8")
            if text.count(mutant.old) != 1:
                return -1, 0.0, f"{mutant.file}: the old text occurs {text.count(mutant.old)} times"
            path.write_text(text.replace(mutant.old, mutant.new), "utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *modules]
        begin = time.perf_counter()
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        return done.returncode, time.perf_counter() - begin, done.stdout + done.stderr


def main() -> int:
    begin = time.perf_counter()
    modules = sorted({m for mutant in MUTANTS for m in mutant.tests})
    code, seconds, out = run_tests(None, modules)
    if code != 0:
        print(f"the unedited copy fails its tests (exit {code}):\n{out[-2000:]}")
        return 1
    print(f"unedited copy: passed ({seconds:.1f} s)")
    failed = 0
    for mutant in MUTANTS:
        code, seconds, out = run_tests(mutant, mutant.tests)
        verdict = {0: "survived", 1: "killed"}.get(code, "error")
        print(f"{verdict:8} {mutant.name} ({seconds:.1f} s; {', '.join(mutant.tests)})")
        if verdict != "killed":
            failed += 1
            print(out[-2000:] if verdict == "error" else "", end="")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - begin:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
