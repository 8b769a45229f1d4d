"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Traces are produced once per session on the generated problem suite (21
problems) with alpha = 3 and s = 1/(2L), run to 2000 iterations so the
envelope criteria get their full k range; the energy criteria quantified over
1000 iterations are therefore checked on a superset.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import time

import numpy as np
import pytest

from proxcert import (
    EnergyContext,
    SolverConfig,
    attach_reference,
    box_regularizer,
    certify_trace,
    descent_lemma_sides,
    energy,
    fit_linear_rate,
    generate_suite,
    l1_regularizer,
    quadratic_problem,
    random_quadratic,
    reference_solution,
    rho_lower_bound,
    run,
    zero_regularizer,
)
from proxcert.problems import prox_gradient

SUITE_SEED = 20260808
ALPHA = 3.0
MAX_ITERS = 2000


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def suite_with_references():
    problems = []
    for p in generate_suite(SUITE_SEED):
        if p.known_optimum is None:
            p = attach_reference(p, reference_solution(p, budget=100_000))
        problems.append(p)
    return problems


@pytest.fixture(scope="module")
def mapm_traces(suite_with_references):
    """(name -> (problem, s, records), elapsed) for the canonical-step runs."""
    t0 = time.time()
    traces = {}
    for p in suite_with_references:
        s = 0.5 / p.smooth.lipschitz
        cfg = SolverConfig(variant="mapm", alpha=ALPHA, step=s,
                           max_iters=MAX_ITERS)
        traces[p.name] = (p, s, run(p, cfg, np.zeros(p.dim)))
    return traces, time.time() - t0


@pytest.fixture(scope="module")
def certified(mapm_traces):
    """name -> certificate reports for every suite mapm trace."""
    traces, _ = mapm_traces
    reports = {}
    for name, (p, s, records) in traces.items():
        ctx = EnergyContext(alpha=ALPHA, s=s, mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        reports[name] = certify_trace(ctx, records, variant="mapm")
    return reports


def strongly_convex(traces):
    return [(name, p, s, recs) for name, (p, s, recs) in traces.items()
            if p.smooth.strong_convexity > 0.0]


def test_criterion_1_monotonicity(mapm_traces):
    traces, elapsed = mapm_traces
    violations = []
    for name, (_, _, records) in traces.items():
        f_values = [r.f_y for r in records]
        if not all(later <= earlier
                   for earlier, later in zip(f_values, f_values[1:])):
            violations.append(name)
    names = list(traces)
    announce(1, len(names) >= 20 and not violations and elapsed < 30.0,
             f"F(y_k) nonincreasing exactly as computed on {len(names)} suite "
             f"problems ({elapsed:.1f}s of runs)")


def test_criterion_2_energy_nonincreasing(mapm_traces, certified):
    bad = []
    for name, p, _, _ in strongly_convex(mapm_traces[0]):
        for rep in certified[name]:
            if rep.name == "energy_nonincreasing" and rep.status == "ok":
                if not rep.passed:
                    bad.append((name, rep.k))
    announce(2, not bad,
             f"E_(k+1) <= E_k at 1e-8 scale tolerance on all strongly convex "
             f"traces (violations: {len(bad)})")


def test_criterion_3_prop1(mapm_traces, certified, suite_with_references):
    bad = [(name, rep.k)
           for name, p, _, _ in strongly_convex(mapm_traces[0])
           for rep in certified[name]
           if rep.name == "prop1" and rep.status == "ok" and not rep.passed]

    # Additionally at s = 1/L the first coefficient vanishes, so the mu-terms
    # alone must still bound the decrement.
    critical_bad = []
    for p in suite_with_references:
        mu = p.smooth.strong_convexity
        if mu <= 0.0:
            continue
        s = 1.0 / p.smooth.lipschitz
        cfg = SolverConfig(variant="mapm", alpha=ALPHA, step=s, max_iters=1000)
        records = run(p, cfg, np.zeros(p.dim))
        ctx = EnergyContext(alpha=ALPHA, s=s, mu=mu, lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        energies = [energy(ctx, r.k, r.x, r.y, r.f_y) for r in records]
        for i, rec in enumerate(records[:-1]):
            k = rec.k
            lhs = energies[i + 1] - energies[i]
            rhs = (-mu * s * k * (k + ALPHA - 1) / 2
                   * float(np.sum((rec.x - rec.y) ** 2))
                   - mu * s * (ALPHA - 1) * (k + ALPHA - 1) / 2
                   * float(np.sum((rec.x - p.known_minimizer) ** 2)))
            if lhs > rhs + 1e-8 * (1 + abs(lhs) + abs(rhs)):
                critical_bad.append((p.name, k))
    announce(3, not bad and not critical_bad,
             f"Prop-1 decrement bound holds pointwise at s = 1/(2L) and at "
             f"s = 1/L (violations: {len(bad)} + {len(critical_bad)})")


def test_criterion_4_prop2_grid(mapm_traces):
    grid = (0.25, 0.5, 1.0, 2.0)
    violations = 0
    for name, p, s, records in strongly_convex(mapm_traces[0]):
        mu, big_l = p.smooth.strong_convexity, p.smooth.lipschitz
        ctx = EnergyContext(alpha=ALPHA, s=s, mu=mu, lipschitz=big_l,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        energies = np.array([energy(ctx, r.k, r.x, r.y, r.f_y) for r in records])
        ks = np.array([r.k for r in records[:-1]], dtype=float)
        x_star = p.known_minimizer
        sg2 = np.array([np.sum((s * r.grad_map) ** 2) for r in records[:-1]])
        xy2 = np.array([np.sum((r.x - r.y) ** 2) for r in records[:-1]])
        xs2 = np.array([np.sum((r.x - x_star) ** 2) for r in records[:-1]])
        lhs = energies[1:]
        for omega, lam, sigma in itertools.product(grid, grid, grid):
            rhs = (ks ** 2 / 2 * (1 + omega + lam) * xy2
                   + (ALPHA - 1) ** 2 / 2 * (1 + 1 / omega + 1 / sigma) * xs2
                   + (ks + ALPHA - 1) ** 2 / 2
                   * (1 + 1 / lam + sigma
                      + (1 - mu * s * (2 - s * big_l)) / (mu * s)) * sg2)
            tolerance = 1e-8 * (1 + np.abs(lhs) + np.abs(rhs))
            violations += int(np.sum(lhs > rhs + tolerance))
    announce(4, violations == 0,
             f"Prop-2 energy bound holds over the 4^3 parameter grid on all "
             f"mu > 0 traces (violations: {violations})")


def test_criterion_5_linear_envelope(mapm_traces):
    violations = 0
    checked = 0
    for name, p, s, records in strongly_convex(mapm_traces[0]):
        mu, big_l = p.smooth.strong_convexity, p.smooth.lipschitz
        rho = mu / (4 * big_l + 5 * mu)
        d0 = float(np.linalg.norm(records[0].x - p.known_minimizer))
        for rec in records:
            if not 2 <= rec.k <= 2000:
                continue
            envelope = ((ALPHA - 1) ** 2 * d0 ** 2
                        / (2 * s * rec.k * (rec.k + ALPHA - 1))
                        * (1 + rho) ** (-(rec.k - 2)))
            checked += 1
            gap = rec.f_y - p.known_optimum
            if gap > envelope + 1e-8 * (1 + abs(gap) + envelope):
                violations += 1
    announce(5, violations == 0 and checked > 10_000,
             f"gap_k within the (1 + mu/(4L+5mu))^(-k+2) envelope for "
             f"k in [2, 2000] ({checked} points, violations: {violations})")


def test_criterion_6_sublinear_envelope(mapm_traces):
    violations = 0
    checked_problems = 0
    for name, (p, s, records) in mapm_traces[0].items():
        if p.smooth.strong_convexity != 0.0:
            continue
        checked_problems += 1
        d0 = float(np.linalg.norm(records[0].x - p.known_minimizer))
        for rec in records:
            if not 1 <= rec.k <= 2000:
                continue
            envelope = ((ALPHA - 1) ** 2 * d0 ** 2
                        / (2 * s * rec.k * (rec.k + ALPHA - 1)))
            gap = rec.f_y - p.known_optimum
            if gap > envelope + 1e-8 * (1 + abs(gap) + envelope):
                violations += 1
    announce(6, violations == 0 and checked_problems >= 3,
             f"gap_k within the sublinear envelope for k in [1, 2000] on "
             f"{checked_problems} mu = 0 problems (violations: {violations})")


def test_criterion_7_algebraic_collapse():
    # alpha = 5000 keeps every eigenmode overdamped through k = 500, so the
    # acceptance test genuinely fires at each step (alpha = 3 rings and
    # rejects on any quadratic well before 500 iterations).
    p = random_quadratic(11, 5, 20)
    s = 0.5 / p.smooth.lipschitz
    x0 = np.zeros(5)
    mapm = run(p, SolverConfig(variant="mapm", alpha=5000.0, step=s,
                               max_iters=500), x0)
    apm = run(p, SolverConfig(variant="apm", alpha=5000.0, step=s,
                              max_iters=500), x0)
    premise = all(r.accepted for r in mapm) and len(mapm) == 501
    worst = 0.0
    for m, a in zip(mapm, apm):
        scale = 1.0 + float(np.max(np.abs(m.x)))
        worst = max(worst,
                    float(np.max(np.abs(m.x - a.x))) / scale,
                    float(np.max(np.abs(m.y - a.y))) / scale)
    announce(7, premise and worst <= 1e-12,
             f"mapm and apm iterates agree to 1e-12 relative through k = 500 "
             f"on an always-accepting quadratic (max diff {worst:.2e})")


def test_criterion_8_inertial_identity(mapm_traces, certified):
    bad = []
    for name in certified:
        for rep in certified[name]:
            if rep.name == "inertial_identity" and rep.status == "ok":
                if not rep.passed:
                    bad.append((name, rep.k))
    announce(8, not bad,
             f"inertial identity residual <= 1e-10 (1 + ||x_k||) at every "
             f"iteration of every suite trace (violations: {len(bad)})")


def test_criterion_9_descent_equality_witness():
    p = quadratic_problem(np.eye(1), np.zeros(1))
    x, y = np.array([1.0]), np.array([0.0])
    z, g = prox_gradient(p, 1.0, x)
    lhs, rhs = descent_lemma_sides(1.0, 1.0, 1.0, x, y, g,
                                   p.value(z), p.value(y))
    slack = rhs - lhs
    announce(9, abs(slack) <= 1e-12,
             f"scalar equality witness reports slack {slack!r}")


def test_criterion_10_rate_fit_oracle(mapm_traces):
    geometric = [3.0 * 1.25 ** (-k) for k in range(200)]
    fit = fit_linear_rate(geometric)
    oracle_ok = abs(fit.rho_hat - 0.25) <= 1e-10 * 0.25

    below = []
    for name, p, s, records in strongly_convex(mapm_traces[0]):
        rate = fit_linear_rate(records.f_y - p.known_optimum, f_star=p.known_optimum)
        ctx = EnergyContext(alpha=ALPHA, s=s, mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        if rate.rho_hat < rho_lower_bound(ctx) - 1e-6:
            below.append(name)
    announce(10, oracle_ok and not below,
             f"geometric factor recovered to 1e-10 and every strongly convex "
             f"fit meets the theoretical bound (below-bound: {below})")


def test_criterion_11_known_mu_ordering(suite_with_references):
    p = next(p for p in suite_with_references if p.name == "quad-d20-c100")
    s = 0.5 / p.smooth.lipschitz
    fits = {}
    for variant in ("strongly_convex_apm", "mapm"):
        cfg = SolverConfig(variant=variant, alpha=ALPHA, step=s, max_iters=2000)
        records = run(p, cfg, np.zeros(p.dim))
        fits[variant] = fit_linear_rate(records.f_y - p.known_optimum,
                                        f_star=p.known_optimum)
    sc, m = fits["strongly_convex_apm"].rho_hat, fits["mapm"].rho_hat
    announce(11, sc >= m,
             f"fitted rho: known-mu variant {sc:.4f} >= mapm {m:.4f} on the "
             f"mu/L = 0.01 quadratic")


def test_criterion_12_prox_property_suite():
    rng = np.random.default_rng(99)
    oracles = [
        ("l1", l1_regularizer(0.7), 6),
        ("box", box_regularizer(-0.5 * np.ones(6), 0.5 * np.ones(6)), 6),
        ("zero", zero_regularizer(), 6),
    ]
    failures = []
    for name, oracle, dim in oracles:
        for case in range(1000):
            u = 3.0 * rng.standard_normal(dim)
            v = 3.0 * rng.standard_normal(dim)
            t = rng.uniform(1e-3, 1.0)
            pu, pv = oracle.prox(u, t), oracle.prox(v, t)
            if np.linalg.norm(pu - pv) > np.linalg.norm(u - v) + 1e-12:
                failures.append((name, case, "nonexpansive"))
            objective = oracle.value(pu) + np.sum((pu - u) ** 2) / (2 * t)
            w = pu + rng.standard_normal(dim)
            trial = oracle.value(w) + np.sum((w - u) ** 2) / (2 * t)
            if objective > trial + 1e-12:
                failures.append((name, case, "optimality"))
    announce(12, not failures,
             f"nonexpansiveness and prox-optimality hold over 1000 random "
             f"cases per operator (failures: {len(failures)})")
