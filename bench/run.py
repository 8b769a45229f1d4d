"""proxcert time-to-verdict benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; proxcert is imported from its `src/`.  A run
repeats whole rounds of its workload until S seconds have passed (at least
MIN_ROUNDS of them), checks the outputs (see checks.py), and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones, each timed
step at its fastest in the run (see `fastest`); with --trace 1 the run is in
process with spans around the calls into each layer (tracer.py), and the
metrics are the per-layer ones.  The README in this directory lists the
workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import ctypes
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import pipeline  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_ROUNDS = 3
CHILD_LIMIT_S = 60.0
MAX_ITERS = 2000
CLI = {  # problem spec (as `build_problem_from_spec` takes it) and file format
    "cli-quad-d200": ({"name": "quadratic", "dim": 200, "cond": 100}, "csv"),
    "cli-lasso-fat-jsonl": ({"name": "lasso", "rows": 200, "cols": 400}, "jsonl"),
}
WORKLOADS = tuple(CLI) + tuple(pipeline.MAX_ITERS)
SETUP_PROBE = ("import json, sys; from proxcert.cli import build_problem_from_spec; "
               "build_problem_from_spec(json.loads(sys.argv[1]))")
STARTUP_PROBE = "import proxcert"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Processes and environment
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PROXCERT_SEED", None)  # it would override the spec's seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, log_path):
    """(wall seconds, peak RSS in MB, exit code) of one child process."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def blas_threads() -> str:
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "PROXCERT_SEED": "unset",
    }


def import_proxcert():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import proxcert
    import proxcert.cli  # noqa: F401  (not imported by the package itself)

    return proxcert


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def repeat(seconds: float, min_rounds: int, round_fn) -> list:
    """Whole rounds until `seconds` have passed and min_rounds are done."""
    results = []
    start = perf_counter()
    while len(results) < min_rounds or perf_counter() - start < seconds:
        results.append(round_fn(len(results)))
    return results


def cli_argvs(spec: dict, fmt: str, work: Path):
    """`proxcert run` and `certify` arguments for a spec, and their output paths."""
    trace, report = work / f"trace.{fmt}", work / f"report.{fmt}"
    run_argv = ["run", "--problem", spec["name"], "--solver", "mapm",
                "--max-iters", str(MAX_ITERS), "--format", fmt, "--out", str(trace)]
    for key, value in spec.items():
        if key != "name":
            run_argv += [f"--{key}", str(value)]
    certify_argv = ["certify", "--trace", str(trace), "--report", str(report),
                    "--format", fmt]
    return run_argv, certify_argv, trace, report


def cli_spec(workload: str, seed: int) -> dict:
    return {**CLI[workload][0], "seed": seed}


class Verdicts:
    """Operation counts, output digests and check failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digest = None
        self.checked = False

    def repeat_check(self, digest: str, what: str) -> None:
        if self.first_digest is None:
            self.first_digest = digest
            return
        try:
            checks.check_repeat(digest, self.first_digest, what)
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))

    def run_checks(self, label: str, fn) -> None:
        try:
            fn()
            self.checked = True
        except checks.CheckFailed as exc:
            self.problems.append(f"{label}: {exc}")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"{label}: outputs unreadable: {exc!r}")

    @property
    def correct(self) -> bool:
        return self.checked and not self.problems


def check_cli_outputs(verdicts, pc, workload, seed, trace, report, exit_code):
    def run():
        out = checks.read_cli_outputs(trace, report, exit_code)
        spec = cli_spec(workload, seed)
        problem = pc.cli.build_problem_from_spec(spec)
        ref = checks.reference_from_oracles(problem, checks.family_of(spec["name"]))
        checks.check_all(out, ref, problem.smooth.lipschitz,
                         problem.smooth.strong_convexity)
    verdicts.run_checks(workload, run)


def check_lib_outputs(verdicts, pc, workload, seed, details):
    problems = {p.name: p for p in pipeline.build_problems(pc, workload, seed)}
    for d in details:
        def run(d=d):
            problem = problems[d["name"]]
            ref = checks.reference_from_oracles(problem, checks.family_of(d["name"]))
            counts = {(name, status): n for name, status, n in d["counts"]}
            out = checks.Outputs(
                variant="mapm", alpha=pipeline.ALPHA, step=d["step"],
                max_iters=d["max_iters"], ks=np.array(d["ks"]),
                f_y=np.array(d["f_y"]), last_grad_map_norm=d["last_grad_map_norm"],
                x0=np.array(d["x0"]), report_counts=counts,
                report_failures=d["failures"],
                last_gap_reported=d["last_gap"])
            checks.check_all(out, ref, d["declared_l"], d["declared_mu"])
        verdicts.run_checks(d["name"], run)


def cli_untraced(workload, seed, seconds, work, verdicts) -> dict:
    py = sys.executable
    run_argv, certify_argv, trace, report = cli_argvs(
        cli_spec(workload, seed), CLI[workload][1], work)
    spec = json.dumps(cli_spec(workload, seed))
    log = work / "child.log"
    last_exit = {}

    def one_round(i):
        setup, _, code = spawn([py, "-c", SETUP_PROBE, spec], log)
        if code != 0:
            raise BenchError(f"set-up probe exited {code}: {log.read_text()[-2000:]}")
        run_s, run_rss, run_code = spawn([py, "-m", "proxcert", *run_argv], log)
        verdicts.attempted += 2
        if run_code != 0:
            verdicts.failed += 2
            return None
        cert_s, cert_rss, cert_code = spawn([py, "-m", "proxcert", *certify_argv], log)
        if cert_code != 0:
            verdicts.failed += 1
        last_exit["code"] = cert_code
        verdicts.repeat_check(checks.file_digest(trace, report), "trace and report bytes")
        return {"setup_s": setup, "peak_rss_mb": max(run_rss, cert_rss),
                "times": [(workload, "run", run_s), (workload, "certify", cert_s)]}

    rounds = [r for r in repeat(seconds, MIN_ROUNDS, one_round) if r is not None]
    if rounds:
        check_cli_outputs(verdicts, import_proxcert(), workload, seed, trace,
                          report, last_exit["code"])
    return fastest(rounds)


def lib_untraced(workload, seed, seconds, work, verdicts) -> dict:
    py = sys.executable
    log = work / "child.log"
    first = {}

    def one_round(i):
        out = work / f"round{i}.json"
        argv = [py, str(BENCH / "pipeline.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(out)]
        _, rss, code = spawn(argv, log)
        if code != 0:
            raise BenchError(f"pipeline worker exited {code}: {log.read_text()[-2000:]}")
        result = json.loads(out.read_text())
        verdicts.attempted += result["attempted"]
        verdicts.failed += result["failed"]
        for p in result["passes"]:
            verdicts.repeat_check(p["digest"], "records and reports")
        first.setdefault("details", result["details"])
        return {"setup_s": result["setup_s"], "peak_rss_mb": rss,
                "times": [t for p in result["passes"] for t in p["times"]]}

    rounds = repeat(seconds, MIN_ROUNDS, one_round)
    check_lib_outputs(verdicts, import_proxcert(), workload, seed, first["details"])
    return fastest(rounds)


def fastest_times(times) -> tuple:
    """(run, certify) seconds: each timed step at its fastest, summed."""
    best = {}
    for op, phase, seconds in times:
        best[op, phase] = min(seconds, best.get((op, phase), seconds))
    run_s = sum(t for (_, phase), t in best.items() if phase == "run")
    return run_s, sum(best.values()) - run_s


def fastest(rounds) -> dict:
    """End-to-end metrics of a run; every round is printed too.

    A round's `times` hold (operation, phase, seconds) for each step of each
    verdict it made: the CLI pair's `run` and `certify` commands, or one
    problem's `run`, `reference` and `certify` in a library workload.  The
    machine's neighbours only ever add time, in bursts (see the README's
    "Noise"), so every step counts with its fastest time in the whole run.
    `run_s` sums the run steps, `certify_s` the others, and `verdict_s` is
    their sum.  `setup_s` is the fastest set-up, `peak_rss_mb` the median.
    """
    for i, r in enumerate(rounds):
        run_s, certify_s = fastest_times(r["times"])
        print(f"round {i}: setup_s={r['setup_s']:.6g} run_s={run_s:.6g} "
              f"certify_s={certify_s:.6g} peak_rss_mb={r['peak_rss_mb']:.6g}")
    if not rounds:
        return {}
    run_s, certify_s = fastest_times(t for r in rounds for t in r["times"])
    return {"verdict_s": run_s + certify_s, "run_s": run_s, "certify_s": certify_s,
            "setup_s": min(r["setup_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}


def medians(rounds) -> dict:
    """Per-metric medians over rounds; every round is printed too."""
    for i, r in enumerate(rounds):
        print(f"round {i}: " + " ".join(f"{k}={v:.6g}" for k, v in r.items()))
    if not rounds:
        return {}
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def traced(workload, seed, seconds, work, verdicts) -> dict:
    """Alternate untraced and traced in-process rounds; per-layer medians."""
    pc = import_proxcert()
    tracer = Tracer()
    is_cli = workload in CLI
    if is_cli:
        run_argv, certify_argv, trace, report = cli_argvs(
            cli_spec(workload, seed), CLI[workload][1], work)

    def verdict_once():
        """(verdict seconds, certify exit code or round result) in process."""
        if is_cli:
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = (pc.cli.main(run_argv), pc.cli.main(certify_argv))
            elapsed = perf_counter() - start
            verdicts.attempted += 2
            verdicts.failed += sum(1 for c in codes if c != 0)
            if codes[0] == 0:
                verdicts.repeat_check(checks.file_digest(trace, report),
                                      "trace and report bytes")
            return elapsed, codes[1]
        result = pipeline.lib_round(pc, workload, seed)
        verdicts.attempted += result["attempted"]
        verdicts.failed += result["failed"]
        (one_pass,) = result["passes"]
        verdicts.repeat_check(one_pass["digest"], "records and reports")
        return sum(t for _, _, t in one_pass["times"]), result

    def one_round(i):
        untraced_s, _ = verdict_once()
        tracer.begin_round()
        with tracer.installed(pc):
            traced_s, out = verdict_once()
        if i == 0 and is_cli:
            check_cli_outputs(verdicts, pc, workload, seed, trace, report, out)
        elif i == 0:
            check_lib_outputs(verdicts, pc, workload, seed, out["details"])
        startup_s = (spawn([sys.executable, "-c", STARTUP_PROBE], work / "child.log")[0]
                     if is_cli else 0.0)
        return {**tracer.layer_metrics(i), "cli.startup_s": startup_s,
                "trace.overhead_s": traced_s - untraced_s}

    rounds = repeat(seconds, 1, one_round)
    for name in rounds[0]:
        if not name.endswith("_s") and len({r[name] for r in rounds}) != 1:
            verdicts.problems.append(f"{name} differs between rounds")
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps(
        [{"round": r, "name": n, "start": s, "end": e, "parent": p}
         for r, n, s, e, p in tracer.spans]))
    return medians(rounds)


# ---------------------------------------------------------------------------

def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="proxcert time-to-verdict benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "proxcert" / "__init__.py").is_file():
        print(f"no proxcert sources under {SRC}; run from a proxcert checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("PROXCERT_SEED", None)

    env = environment()
    print("environment: " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    verdicts = Verdicts()
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, args.seconds, work, verdicts)
        elif args.workload in CLI:
            metrics = cli_untraced(args.workload, args.seed, args.seconds, work, verdicts)
        else:
            metrics = lib_untraced(args.workload, args.seed, args.seconds, work, verdicts)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in verdicts.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"workload {args.workload}: attempted {verdicts.attempted}, "
          f"failed {verdicts.failed}, checks "
          f"{'passed' if verdicts.correct else 'FAILED'}")
    print(json.dumps({
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
