#!/usr/bin/env python3
"""Benchmark of the picgof command line.

Run from the repository root:

    python3 bench/run.py --workload calibrate --seed 1 --seconds 30 --trace 0

One benchmark process is the only client and runs a closed loop: it starts one
``python -m picgof.cli ...`` process, waits for it to exit, checks its
stdout, and starts the next, cycling through the inputs it generated from
--seed until --seconds have passed.  ``--threads`` never exceeds the CPUs
this process may use.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  --trace 1
instead runs one untraced pass over the inputs and then the same invocations
in-process through ``picgof.cli.main`` with spans around every public
function (see tracing.py), and reports the per-layer metrics per pass.

Every line of stdout but the last is a readable JSON report (machine facts,
sample counts, failures, spans); the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh ``import picgof.cli`` processes timed for setup_s: after each pass,
#: and at least the minimum per run.
SETUP_SPAWNS_PER_PASS = 2
SETUP_SPAWNS_MIN = 9
#: ``-X importtime`` processes per traced run for the import layer.
IMPORTTIME_SPAWNS = 5
#: A CLI process still running after this long is killed and counted failed.
CALL_TIMEOUT_S = 170.0
MAX_THREADS = 2
MAX_REPORTED_FAILURES = 10


class Runner:
    """Starts CLI processes on the checkout's sources and measures each one.

    Processes are started by launcher.py, one at a time.  Wall time runs
    from spawn to exit.  CPU time and peak RSS come from the ``wait4``
    rusage of the process, which includes every child it waited for (pool
    workers); peak RSS is the largest of them.
    """

    def __init__(self, work: Path):
        self.work = work
        env = dict(os.environ)
        env.pop("PICGOF_OUT_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")], cwd=work, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=CALL_TIMEOUT_S)
        self._launcher.stdout.close()

    def spawn(self, args: list[str]) -> dict:
        request = {"args": [sys.executable, *args], "stdout": ".stdout", "stderr": ".stderr",
                   "timeout": CALL_TIMEOUT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return {
            "wall": reply["wall"],
            "cpu": reply["cpu"],
            "rss_mb": reply["rss_kb"] / 1024.0,
            "rc": reply["rc"],
            "stdout": (self.work / ".stdout").read_text("utf-8", "replace"),
            "stderr": (self.work / ".stderr").read_text("utf-8", "replace"),
        }

    def cli(self, call) -> dict:
        return self.spawn(["-m", "picgof.cli", *call.argv])


class Ledger:
    """Counts attempted and failed invocations.

    An invocation fails when it exits non-zero, fails its workload check, or
    prints other stdout than the first run of the same argv did.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self._first: dict[tuple, str] = {}

    def _fail(self, argv, problems) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append({"argv": list(argv), "problems": problems[:3]})

    def judge(self, call, rc: int, stdout: str, stderr: str) -> bool:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}: {stderr.strip().splitlines()[-1:]}"]
        else:
            problems = call.check(stdout)
            if self._first.setdefault(tuple(call.argv), stdout) != stdout:
                problems.append("stdout differs from an earlier run of the same argv")
        if problems:
            self._fail(call.argv, problems)
        return not problems

    def probe(self, runner: Runner, a, b) -> None:
        """Two invocations that must print byte-identical stdout."""
        out_a, out_b = runner.cli(a), runner.cli(b)
        ok_a = self.judge(a, out_a["rc"], out_a["stdout"], out_a["stderr"])
        ok_b = self.judge(b, out_b["rc"], out_b["stdout"], out_b["stderr"])
        if ok_a and ok_b and out_a["stdout"] != out_b["stdout"]:
            self._fail(b.argv, [f"stdout differs from {a.argv}"])

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_frac": self.failed / max(self.attempted, 1),
            "failures": self.failures,
        }


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than eleven
    samples no percentile has ten beyond it; the maximum is returned with
    percentile 100 and 0 beyond, and the report says so.
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0, 0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - rank - 1


def timed_run(workload, runner: Runner, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Whole passes over the workload's invocations until ``seconds`` have passed.

    Per-invocation figures are the mean over inputs of each input's median
    over passes: inputs of unequal cost weigh the same in every run, and the
    median discards the passes that a busy host slowed down.  The setup_s
    imports are spread between passes so they sample the same stretch of
    time as the invocations.
    """
    def setup_spawn():
        outcome = runner.spawn(["-c", "import picgof.cli"])
        if outcome["rc"] != 0:
            raise RuntimeError(f"import picgof.cli failed: {outcome['stderr'].strip()}")
        return outcome["wall"]

    setup_spawn()  # untimed: compiles bytecode once
    for a, b in workload.probes:
        ledger.probe(runner, a, b)
    setup, passes, invocations = [], [], []
    reps = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outcomes = []
        for call in workload.calls:
            outcome = runner.cli(call)
            outcomes.append(outcome)
            if ledger.judge(call, outcome["rc"], outcome["stdout"], outcome["stderr"]):
                reps += call.reps
        passes.append(outcomes)
        invocations += outcomes
        setup += [setup_spawn() for _ in range(SETUP_SPAWNS_PER_PASS)]
    while len(setup) < SETUP_SPAWNS_MIN:
        setup.append(setup_spawn())

    def per_input_median(key):
        return [statistics.median(p[i][key] for p in passes) for i in range(len(workload.calls))]

    walls = [o["wall"] for o in invocations]
    tail_value, tail_pct, beyond = tail(walls)
    wall_by_input = per_input_median("wall")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s_p50": statistics.fmean(wall_by_input),
        "wall_s_tail": tail_value,
        "reps_per_s": reps / sum(walls),
        "cpu_s_per_call": statistics.fmean(per_input_median("cpu")),
        "peak_rss_mb": max(o["rss_mb"] for o in invocations),
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }
    details = {
        "samples": {
            "setup_s": len(setup), "wall_s_p50": len(passes), "wall_s_tail": len(walls),
            "reps_per_s": len(walls), "cpu_s_per_call": len(passes), "peak_rss_mb": len(walls),
            "ok_frac": ledger.attempted,
        },
        "wall_s_p50": f"mean over {len(workload.calls)} inputs of each input's median "
                      f"over {len(passes)} passes",
        "wall_s_tail": {"percentile": tail_pct, "samples_beyond": beyond,
                        "note": "" if beyond else "fewer than 11 samples: maximum reported"},
        "wall_s_by_input": wall_by_input,
        "loop_s": time.perf_counter() - start,
        "replications": reps,
    }
    return metrics, details


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds by module name from ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    return cumulative


def import_layer(runner: Runner) -> dict[str, float]:
    """Median per-process split of interpreter start and import of picgof.cli."""
    parts = []
    for _ in range(IMPORTTIME_SPAWNS):
        outcome = runner.spawn(["-X", "importtime", "-c", "import picgof.cli"])
        if outcome["rc"] != 0:
            raise RuntimeError(f"import picgof.cli failed: {outcome['stderr'][-500:]}")
        cum = parse_importtime(outcome["stderr"])
        numpy_s = cum.get("numpy", 0.0)
        # importing picgof.cli imports the picgof package, and numpy, inside it
        picgof_s = cum.get("picgof.cli", 0.0) - numpy_s
        parts.append({"wall": outcome["wall"], "numpy": numpy_s, "picgof": picgof_s})
    median = {key: statistics.median(p[key] for p in parts) for key in parts[0]}
    # the rest of the median process time: interpreter start, site, exit
    median["self"] = median["wall"] - median["numpy"] - median["picgof"]
    return median


def traced_run(workload, runner: Runner, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    from tracing import LAYERS, Tracer

    untraced = []
    for call in workload.trace_calls:
        outcome = runner.cli(call)
        ledger.judge(call, outcome["rc"], outcome["stdout"], outcome["stderr"])
        untraced.append(outcome["wall"])
    imports = import_layer(runner)

    import picgof.cli

    tracer = Tracer()
    tracer.install()
    cwd = os.getcwd()
    os.chdir(runner.work)
    cycles = 0
    main_wall = 0.0
    start = time.perf_counter()
    try:
        while not cycles or time.perf_counter() - start < seconds:
            for call in workload.trace_calls:
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = picgof.cli.main(list(call.argv))
                main_wall += time.perf_counter() - t0
                ledger.judge(call, rc, out.getvalue(), err.getvalue())
            cycles += 1
    finally:
        os.chdir(cwd)
        tracer.uninstall()

    k = len(workload.trace_calls)
    spans = {name: [c / cycles, t / cycles, s / cycles] for name, (c, t, s) in tracer.spans.items()}

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_time(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[2] for n in names)

    inline_reps = tracer.inline_reps / cycles
    metrics = {
        "import.calls": k,
        "import.numpy_s": imports["numpy"] * k,
        "import.picgof_s": imports["picgof"] * k,
        "import.self_s": imports["self"] * k,
    }
    for layer in LAYERS:
        names = [n for n in spans if n.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(calls(n) for n in names)
        metrics[f"{layer}.total_s"] = tracer.layer_total[layer] / cycles
        metrics[f"{layer}.self_s"] = self_time(*names)
    draw_s = total("sampling.draw_counts")
    metrics.update({
        "schemes.load_s": total("schemes.load_scheme", "schemes.sample_from_csv",
                                "schemes.sample_from_json", "montecarlo.CriticalValueTable.load"),
        "distributions.parse_family_s": total("distributions.parse_family"),
        "distributions.transform_scheme_s": total("distributions.transform_scheme"),
        "sampling.interval_failure_probs_s": total("sampling.interval_failure_probs"),
        "sampling.draw_counts.calls": calls("sampling.draw_counts"),
        "sampling.draw_counts_s": draw_s,
        "sampling.draw_counts.us_per_rep": 1e6 * draw_s / inline_reps if inline_reps else 0.0,
        "reliability.survival_values_s": total("reliability.survival_values"),
        "gof.fold_deviations_s": total("gof.fold_deviations"),
        "montecarlo.derive_stream.calls": calls("montecarlo.derive_stream"),
        "montecarlo.derive_stream_s": total("montecarlo.derive_stream"),
        "montecarlo.streams_per_rep":
            calls("montecarlo.derive_stream") / inline_reps if inline_reps else 0.0,
        "montecarlo.replicated_statistics.self_s": self_time("montecarlo.replicated_statistics"),
        "montecarlo.reduce_s": self_time("montecarlo.critical_values", "montecarlo.p_value",
                                         "montecarlo.power"),
        "montecarlo.pool_spinups": tracer.pool_spinups / cycles,
        "montecarlo.pool_s": total("montecarlo.pool"),
        "montecarlo.workers_used": tracer.workers_used,
    })
    traced_wall = main_wall / cycles + imports["wall"] * k
    untraced_wall = sum(untraced)
    self_sum = (metrics["import.numpy_s"] + metrics["import.picgof_s"] + metrics["import.self_s"]
                + sum(metrics[f"{layer}.self_s"] for layer in LAYERS))
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.self_sum_s": self_sum,
    })
    details = {
        "per": f"one pass over {k} invocations, averaged over {cycles} traced passes",
        "trace_argv": [c.argv for c in workload.trace_calls],
        "untraced_wall_s": untraced,
        "untraced_wall_s_p50": statistics.median(untraced),
        "traced_wall_s_per_invocation": traced_wall / k,
        "import_per_process_s": imports,
        "inline_reps": inline_reps,
        "spans": {n: {"calls": c, "total_s": t, "self_s": s}
                  for n, (c, t, s) in sorted(spans.items())},
    }
    return metrics, details


def machine_facts(threads: int) -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "load": {"load_processes": 1, "clients": 1, "loop": "closed",
                 "max_threads": threads, "threads_within_nproc": threads <= nproc},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("calibrate", "power-sweep", "test-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "picgof" / "cli.py",
              ROOT / "tests" / "test_acceptance.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: not a picgof checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import picgof
    import workloads

    reference = checks.reference_critical(ROOT / "tests" / "test_acceptance.py")
    misjudged = checks.selftest(reference)
    if misjudged:
        print(f"bench: output checks misjudge corrupted outputs: {misjudged}", file=sys.stderr)
        return 3
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    facts = machine_facts(threads)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        work = Path(tmp)
        workload = workloads.PREPARE[args.workload](picgof, args.seed, work, reference, threads)
        runner = Runner(work)
        ledger = Ledger()
        try:
            run = traced_run if args.trace else timed_run
            metrics, details = run(workload, runner, args.seconds, ledger)
        finally:
            runner.close()
    with contextlib.suppress(OSError):
        base.rmdir()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "inputs": workload.inputs,
        **ledger.report(), "details": details,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(report, indent=1))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
