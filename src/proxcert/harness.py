"""Reference solutions, reproducible problem suites, and rate fitting.

A long-run reference consumes `solvers.iterate`, the one driver loop, in two
phases with their own stop rules: mapm from 0, then an ista polish.

Generators check their parameters by errors.PROBLEM_RULES and draw from numpy's
default_rng (PCG64) seeded with the caller's 64-bit seed, so generated problems
and traces are reproducible bit-for-bit on a given platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .certificates import EnergyContext, rho_lower_bound
from .errors import (FitUnavailableError, ReferenceUnavailableError, RejectedInputError,
                     check_setting)
from .problems import (
    CompositeProblem,
    Vector,
    box_quadratic_problem,
    lasso_problem,
    norm,
    prox_gradient,
    quadratic_problem,
)
from .solvers import SolverConfig, bind_step, iterate, require_finite, run

# Residual criterion for references: at least 1e3 tighter than any certificate
# tolerance, so reference error never masquerades as a violation.
_REFERENCE_TOL = 1e-12


def _rng(seed: int, **params) -> np.random.Generator:
    """PCG64 stream from `seed`, once seed and `params` meet their rules."""
    for name, value in {"seed": seed, **params}.items():
        check_setting(name, value, RejectedInputError)
    return np.random.default_rng(np.uint64(seed))


@dataclass(frozen=True)
class ReferenceSolution:
    """A minimizer/optimum pair bound to its problem by content hash."""

    x_star: Vector
    f_star: float
    method: str  # "closed_form" | "long_run"
    residual: float
    problem_hash: Optional[str] = None


@dataclass(frozen=True)
class RateFit:
    """Fitted per-iteration linear factor: gap_k ~ C (1 + rho_hat)^{-k}."""

    rho_hat: float
    window: tuple
    r_squared: float


def reference_solution(problem: CompositeProblem,
                       budget: int = 100_000) -> ReferenceSolution:
    """Produce x*, F* meeting the residual criterion, or fail loudly.

    Problems that carry a construction-time reference (strongly convex
    quadratics, whose generator does the linear solve) are returned as
    closed_form.  Everything else gets a long monotone accelerated run at
    s = 1/(2L), alpha = 3; x* is the terminal y_k and F* its cached objective.
    """
    if budget < 1000:
        raise RejectedInputError(f"budget must be >= 1000, got {budget}")
    s = bind_step(problem.smooth.lipschitz, None, RejectedInputError)  # 1/(2L)
    if problem.known_minimizer is not None and problem.known_optimum is not None:
        x_star = problem.known_minimizer
        _, G = prox_gradient(problem, s, x_star)
        return ReferenceSolution(
            x_star=x_star,
            f_star=problem.known_optimum,
            method="closed_form",
            residual=norm(G),
            problem_hash=problem.content_hash,
        )

    # Phase 1: monotone accelerated run from 0.  Its value-based acceptance
    # test cannot resolve improvements below one ulp of F*, so y can freeze
    # above the criterion; 80 checks in a row without improvement end it.
    mapm = SolverConfig(variant="mapm", alpha=3.0, step=s)
    k, y, f_y, residual, met = _reference_phase(problem, mapm, np.zeros(problem.dim),
                                                budget, patience=80)

    # Phase 2: plain proximal-gradient polish from the stalled y, which moves y
    # every step and pushes the residual past the acceptance test's ulp floor.
    if not met and k < budget:
        ista = SolverConfig(variant="ista", step=s)
        _, y, f_y, residual, _ = _reference_phase(problem, ista, y, budget - k,
                                                  patience=math.inf)

    if residual > _REFERENCE_TOL * (1.0 + float(np.linalg.norm(y))):
        raise ReferenceUnavailableError(
            f"budget {budget} exhausted with residual {residual:.3e}; "
            "certificates needing F* must be skipped"
        )
    return ReferenceSolution(x_star=y, f_star=f_y, method="long_run",
                             residual=residual, problem_hash=problem.content_hash)


def _reference_phase(problem: CompositeProblem, config: SolverConfig, x0,
                     budget: int, patience: float):
    """Iterate until ||G(y_k)||, checked every 25 steps and at k = budget, meets
    the criterion, or the budget or `patience` checks in a row without a 2%
    improvement run out; return (k, y_k, F(y_k), residual, criterion met)."""
    best_seen = math.inf
    stalled_checks = 0
    for k, f_y, _, _, _, y, _, _ in iterate(problem, config, x0):
        if k < budget and (k == 0 or k % 25 != 0):
            continue
        _, G = prox_gradient(problem, config.step, y)
        residual = require_finite(k, "||G(y_k)||", norm(G))
        met = residual <= 0.5 * _REFERENCE_TOL * (1.0 + float(np.linalg.norm(y)))
        if met or k == budget:
            return k, y, f_y, residual, met
        if residual < 0.98 * best_seen:
            best_seen = residual
            stalled_checks = 0
        else:
            stalled_checks += 1
            if stalled_checks == patience:
                return k, y, f_y, residual, False


def attach_reference(problem: CompositeProblem,
                     ref: ReferenceSolution) -> CompositeProblem:
    """Bind a reference to its problem; hash mismatch is rejected."""
    if (ref.problem_hash is not None and problem.content_hash is not None
            and ref.problem_hash != problem.content_hash):
        raise RejectedInputError(
            "reference was computed for a different problem (content hash mismatch)"
        )
    return problem.with_reference(ref.x_star, ref.f_star)


def fit_linear_rate(gaps: Sequence[float], window: Optional[tuple] = None,
                    f_star: Optional[float] = None) -> RateFit:
    """Least-squares fit of log(gap_k) vs k; rho_hat = exp(-slope) - 1.

    With window=None the fit uses the last 60% of the leading stretch of
    iterations whose gap is positive and above the rounding floor
    1e2 * (1e-14 * |F*| * k) (floor applied only when f_star is given).  The
    default window spans at least 50 iterations whenever the data allows;
    shorter positive stretches fall back to the whole stretch.  An explicit
    window is truncated at its first nonpositive gap.  Raises
    FitUnavailableError when fewer than two usable points remain.
    """
    gaps = np.asarray(gaps, dtype=np.float64)
    if window is None:
        m = 0
        while m < gaps.size:
            floor = 1e2 * (1e-14 * abs(f_star) * m) if f_star is not None else 0.0
            if not gaps[m] > floor:
                break
            m += 1
        # A monotone iteration whose acceptance test freezes emits long runs
        # of bit-identical gaps; those plateaus carry no rate information, so
        # the default window ends before the first one.
        i = 0
        while i < m:
            j = i
            while j + 1 < m and gaps[j + 1] == gaps[i]:
                j += 1
            if j - i + 1 >= 200:
                m = i + 1
                break
            i = j + 1
        if m < 2:
            raise FitUnavailableError("no positive gaps to fit")
        begin = int(0.4 * m)
        if m - begin < 50:
            begin = 0
        window = (begin, m)

    begin, end = int(window[0]), int(window[1])
    end = min(end, gaps.size)
    if not 0 <= begin < end:
        raise FitUnavailableError(f"empty fit window {window}")
    cut = begin
    while cut < end and gaps[cut] > 0.0:
        cut += 1
    end = cut
    if end - begin < 2:
        raise FitUnavailableError("fewer than two positive gaps in the window")

    ks = np.arange(begin, end, dtype=np.float64)
    logs = np.log(gaps[begin:end])
    kc = ks - ks.mean()
    denom = float(kc @ kc)
    slope = float(kc @ (logs - logs.mean())) / denom
    resid = logs - (logs.mean() + slope * kc)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return RateFit(rho_hat=math.exp(-slope) - 1.0, window=(begin, end), r_squared=r2)


# ---------------------------------------------------------------------------
# Problem suite
# ---------------------------------------------------------------------------

_SUITE_CONDS = (1, 10, 100, 1000)
_SUITE_DIMS = (2, 20, 200)


def _random_orthogonal(rng, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def _suite_quadratic(rng, dim: int, cond: int, name: str) -> CompositeProblem:
    # Spectrum in [1/cond, 1] keeps L = 1 and |F*| = O(1); large objective
    # scales would push theta_k * (gap rounding noise) past certificate slack.
    u = _random_orthogonal(rng, dim)
    spectrum = np.geomspace(1.0 / cond, 1.0, dim)
    q = (u * spectrum) @ u.T
    q = 0.5 * (q + q.T)
    x_target = rng.standard_normal(dim) / math.sqrt(dim)
    problem = quadratic_problem(q, q @ x_target)
    return replace(problem, name=name)


def _suite_lasso(rng, rows: int, cols: int, name: str,
                 lam: Optional[float] = None) -> CompositeProblem:
    # Controlled singular values in [0.5, 1.5] so long-run references converge
    # comfortably inside the budget.
    u = _random_orthogonal(rng, rows)
    v = _random_orthogonal(rng, cols)
    sv = np.linspace(0.5, 1.5, rows)
    a = (u * sv) @ v[:rows, :]
    x_true = rng.standard_normal(cols) / math.sqrt(cols)
    x_true[rng.random(cols) < 0.6] = 0.0
    b = a @ x_true + 0.01 * rng.standard_normal(rows)
    if lam is None:
        lam = 0.1 * float(np.max(np.abs(a.T @ b)))
    problem = lasso_problem(a, b, lam)
    return replace(problem, name=name)


def _suite_box_quadratic(rng, dim: int, name: str) -> CompositeProblem:
    u = _random_orthogonal(rng, dim)
    spectrum = np.geomspace(0.1, 1.0, dim)
    q = (u * spectrum) @ u.T
    q = 0.5 * (q + q.T)
    x_target = rng.uniform(-1.0, 1.0, size=dim)
    if float(np.max(np.abs(x_target))) <= 0.5:
        x_target[int(np.argmax(np.abs(x_target)))] = 0.8
    lo = np.full(dim, -0.5)
    hi = np.full(dim, 0.5)
    problem = box_quadratic_problem(q, q @ x_target, lo, hi)
    return replace(problem, name=name)


def generate_suite(seed: int) -> list:
    """Deterministic desk-scale suite: quadratics across condition numbers and
    dimensions, square (mu > 0) and fat (mu = 0) lasso, and box-constrained
    strongly convex quadratics.  Same seed, same problems, bit for bit."""
    rng = _rng(seed)
    problems = []
    for dim in _SUITE_DIMS:
        for cond in _SUITE_CONDS:
            problems.append(_suite_quadratic(rng, dim, cond,
                                             f"quad-d{dim}-c{cond}"))
    for n in (20, 40, 80):
        problems.append(_suite_lasso(rng, n, n, f"lasso-square-{n}"))
    for rows, cols in ((20, 40), (30, 60), (40, 80)):
        problems.append(_suite_lasso(rng, rows, cols, f"lasso-fat-{rows}x{cols}"))
    for dim in _SUITE_DIMS:
        problems.append(_suite_box_quadratic(rng, dim, f"boxquad-d{dim}"))
    return problems


def random_quadratic(seed: int, dim: int, cond: int) -> CompositeProblem:
    """One seeded strongly convex quadratic with the given condition number."""
    rng = _rng(seed, dim=dim, cond=cond)
    return _suite_quadratic(rng, dim, cond, f"quadratic-d{dim}-c{cond}-s{seed}")


def random_lasso(seed: int, rows: int, cols: int,
                 lam: Optional[float] = None) -> CompositeProblem:
    """One seeded lasso instance; square rows = cols gives mu > 0, fat gives 0.

    lam=None keeps the default 0.1 * ||A'b||_inf choice.
    """
    rng = _rng(seed, rows=rows, cols=cols)
    if cols < rows:
        raise RejectedInputError(f"cols must be >= rows = {rows}, got {cols}")
    return _suite_lasso(rng, rows, cols, f"lasso-{rows}x{cols}-s{seed}", lam=lam)


def random_box_quadratic(seed: int, dim: int) -> CompositeProblem:
    """One seeded box-constrained strongly convex quadratic."""
    rng = _rng(seed, dim=dim)
    return _suite_box_quadratic(rng, dim, f"box-quadratic-d{dim}-s{seed}")


# ---------------------------------------------------------------------------
# Solver comparison
# ---------------------------------------------------------------------------

@dataclass
class SolverComparison:
    """Gap-per-iteration table plus fitted and theoretical rates."""

    labels: list
    ks: list
    gaps: dict  # label -> list[float | None], aligned with ks
    fits: dict  # label -> RateFit | None
    rho_lower_bound: float
    sqrt_mu_over_l: float
    problem_hash: Optional[str] = None


def compare_solvers(problem: CompositeProblem, configs: Sequence[SolverConfig],
                    x0, budget: int = 100_000) -> SolverComparison:
    """Run each config on one problem and tabulate gaps side by side.

    The summary carries a RateFit per solver plus the theoretical linear
    factor and sqrt(mu/L) for context.  Solvers that stop early leave their
    column blank past termination; fits that have no usable window are None.
    """
    if problem.known_optimum is None or problem.known_minimizer is None:
        problem = attach_reference(problem, reference_solution(problem, budget))
    f_star = problem.known_optimum

    labels = []
    for i, config in enumerate(configs):
        n = [c.variant for c in configs[:i + 1]].count(config.variant)
        labels.append(config.variant if n == 1 else f"{config.variant}#{n}")

    columns, fits = {}, {}
    length = 0
    for label, config in zip(labels, configs):
        gaps = (run(problem, config, x0, iterates=False).f_y - f_star).tolist()
        columns[label] = gaps
        length = max(length, len(gaps))
        try:
            fits[label] = fit_linear_rate(gaps, f_star=f_star)
        except FitUnavailableError:
            fits[label] = None

    mu, L = problem.smooth.strong_convexity, problem.smooth.lipschitz
    rho = rho_lower_bound(EnergyContext(
        alpha=3.0, s=bind_step(L, None), mu=mu, lipschitz=L,
        x_star=problem.known_minimizer, f_star=f_star,
    ))
    padded = {label: gaps + [None] * (length - len(gaps))
              for label, gaps in columns.items()}
    return SolverComparison(
        labels=labels,
        ks=list(range(length)),
        gaps=padded,
        fits=fits,
        rho_lower_bound=rho,
        sqrt_mu_over_l=math.sqrt(mu / L) if L > 0 else 0.0,
        problem_hash=problem.content_hash,
    )
