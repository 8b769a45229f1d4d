"""The lib-* workloads: proxcert's library pipeline in one process, no file I/O.

Each problem goes through `run` (mapm), `reference_solution` where the
problem has no closed-form optimum, and `certify_trace`.  Library calls go
through module attributes looked up at call time, so the tracer's patches
apply.  Run as a script, this file performs one round in a fresh interpreter
and writes the round's timings, outputs digest and the outputs the checks
read, so that the parent can take the worker's peak resident memory on its
own:

    python3 bench/pipeline.py --workload lib-suite --seed 0 --out round.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
ALPHA = 3.0
# tests/test_acceptance.py's suite.  --seed only orders its 21 problems: the
# suite's seed moves its certificate lines between 191k and 248k (seeds
# 0-11), a spread wider than any bound the benchmark could keep.
SUITE_SEED = 20260808
MAX_ITERS = {"lib-suite": 2000, "lib-quad-d2000": 500}
# Verdicts per worker: one d2000 verdict takes 1.1 s against 2.2 s of problem
# generation, and its 0.07-s certification spread 30% between runs on a
# 2-vCPU machine with three verdicts per worker, so a worker makes five.
PASSES = {"lib-suite": 1, "lib-quad-d2000": 5}


def build_problems(pc, workload: str, seed: int) -> list:
    if workload == "lib-suite":
        problems = pc.harness.generate_suite(SUITE_SEED)
        order = np.random.default_rng(seed).permutation(len(problems))
        return [problems[i] for i in order]
    return [pc.harness.random_quadratic(seed, 2000, 100)]


def solve_and_certify(pc, problem, max_iters: int):
    """(run, reference and certify seconds, records, reports)."""
    s = 0.5 / problem.smooth.lipschitz
    config = pc.SolverConfig(variant="mapm", alpha=ALPHA, step=s, max_iters=max_iters)
    t0 = perf_counter()
    records = pc.solvers.run(problem, config, np.zeros(problem.dim))
    t1 = perf_counter()
    if problem.known_optimum is None:
        ref = pc.harness.reference_solution(problem)
        x_star, f_star = ref.x_star, ref.f_star
    else:
        x_star, f_star = problem.known_minimizer, problem.known_optimum
    t2 = perf_counter()
    ctx = pc.EnergyContext(alpha=ALPHA, s=s, mu=problem.smooth.strong_convexity,
                           lipschitz=problem.smooth.lipschitz,
                           x_star=x_star, f_star=f_star)
    reports = pc.certificates.certify_trace(ctx, records, variant="mapm")
    t3 = perf_counter()
    return {"run": t1 - t0, "reference": t2 - t1, "certify": t3 - t2}, records, reports


def _digest(h, records, reports) -> None:
    for rec in records:
        h.update(np.array([rec.k, rec.f_y, rec.grad_map_norm, rec.f_z,
                           float(bool(rec.accepted))]).tobytes())
        for v in (rec.x, rec.y, rec.grad_map):
            h.update(np.ascontiguousarray(v).tobytes())
    for rep in reports:
        h.update(f"{rep.k},{rep.name},{rep.lhs!r},{rep.rhs!r},{rep.passed},"
                 f"{rep.status};".encode())


def _detail(problem, max_iters, records, reports) -> dict:
    """What the checks read, as plain JSON (floats round-trip exactly)."""
    counts, failures, last_gap = checks.summarize_report(
        (r.k, r.name, r.lhs, r.passed, r.status) for r in reports)
    return {
        "name": problem.name,
        "declared_l": problem.smooth.lipschitz,
        "declared_mu": problem.smooth.strong_convexity,
        "step": 0.5 / problem.smooth.lipschitz,
        "max_iters": max_iters,
        "ks": [r.k for r in records],
        "f_y": [r.f_y for r in records],
        "last_grad_map_norm": records[-1].grad_map_norm,
        "x0": records[0].x.tolist(),
        "counts": [[name, status, n] for (name, status), n in counts.items()],
        "failures": failures,
        "last_gap": last_gap,
    }


def lib_round(pc, workload: str, seed: int, passes: int = 1) -> dict:
    """Build the problems once, then put them through `passes` verdicts.

    Records are summarized and dropped problem by problem; the check details
    come from the first pass.
    """
    t0 = perf_counter()
    problems = build_problems(pc, workload, seed)
    result = {"setup_s": perf_counter() - t0, "attempted": 0, "failed": 0,
              "passes": [], "details": []}
    max_iters = MAX_ITERS[workload]
    for index in range(passes):
        times = []  # (problem, phase, seconds)
        digest = hashlib.sha256()
        for problem in problems:
            result["attempted"] += 1
            digest.update(problem.name.encode())
            try:
                phases, records, reports = solve_and_certify(pc, problem, max_iters)
            except pc.ProxCertError as exc:
                result["failed"] += 1
                digest.update(repr(exc).encode())
                print(f"{problem.name}: {exc!r}", file=sys.stderr)
                continue
            times += [(problem.name, phase, t) for phase, t in phases.items()]
            _digest(digest, records, reports)
            if index == 0:
                result["details"].append(_detail(problem, max_iters, records, reports))
            del records, reports  # else they stay alive through the next solve
        result["passes"].append({"times": times, "digest": digest.hexdigest()})
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MAX_ITERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import proxcert as pc

    result = lib_round(pc, args.workload, args.seed, PASSES[args.workload])
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
