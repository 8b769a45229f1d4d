"""Correctness checks computed apart from proxcert.

Every reference number here comes from this file's own numpy code applied to a
problem's oracles: the smooth part's Hessian and linear term are recovered
column by column from `gradient`, the optimum comes from a dense solve (plain
quadratics) or from an own accelerated proximal loop finished by an exact
active-set solve (lasso, box-constrained quadratics), and the rate envelopes
are evaluated from the paper's formulas written out again here.  The program's
own certificate engine is used only for its verdict, never as a reference.

Each `check_*` function raises CheckFailed with a message when its property
does not hold; `selftest.py` shows each one failing on a corrupted output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Gap floor below which F(y_k) - F* is rounding, not progress (relative to
# 1 + |F*|); the own optimum and the program's must agree to REF_AGREE.
GAP_FLOOR = 1e-11
REF_AGREE = 1e-9
LOWER_BOUND_SLACK = 1e-12


class CheckFailed(Exception):
    """A workload output violates a property the benchmark checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# The optimum, from the oracles
# ---------------------------------------------------------------------------

@dataclass
class Reference:
    """Own description of min 1/2 x'Hx - c'x + f0 + g(x) and its solution."""

    family: str  # "quadratic" | "lasso" | "box-quadratic"
    hessian: np.ndarray
    linear: np.ndarray
    offset: float
    lam: float
    lo: Optional[np.ndarray]
    hi: Optional[np.ndarray]
    lipschitz: float
    mu: float
    x_star: np.ndarray
    f_star: float


def family_of(name: str) -> str:
    """Problem family from a generated problem's name or a CLI spec name."""
    for prefix, family in (("quad", "quadratic"), ("lasso", "lasso"),
                           ("box", "box-quadratic")):
        if name.startswith(prefix):
            return family
    raise CheckFailed(f"no reference rule for problem {name!r}")


def reference_from_oracles(problem, family: str) -> Reference:
    """Recover the problem's data from its oracles and solve it exactly."""
    smooth, g = problem.smooth, problem.nonsmooth
    d = problem.dim
    zero = np.zeros(d)
    grad0 = np.asarray(smooth.gradient(zero), dtype=np.float64)
    hessian = np.empty((d, d))
    unit = np.zeros(d)
    for i in range(d):
        unit[i] = 1.0
        hessian[:, i] = np.asarray(smooth.gradient(unit)) - grad0
        unit[i] = 0.0
    hessian = 0.5 * (hessian + hessian.T)
    linear = -grad0
    offset = float(smooth.value(zero))
    eigs = np.linalg.eigvalsh(hessian)
    lipschitz = float(eigs[-1])
    mu = float(eigs[0]) if eigs[0] > 1e-10 * lipschitz else 0.0

    lam, lo, hi = 0.0, None, None
    if family == "lasso":
        # The generator's default weight is 0.1 ||A'b||_inf = 0.1 ||grad f(0)||_inf;
        # g(e_1) = lam cross-checks it against the nonsmooth oracle.
        lam = 0.1 * float(np.max(np.abs(grad0)))
        unit[0] = 1.0
        require(abs(float(g.value(unit)) - lam) <= 1e-12 * lam,
                "l1 weight recovered from grad f(0) disagrees with g(e_1)")
        unit[0] = 0.0
    elif family == "box-quadratic":
        lo = np.asarray(g.prox(np.full(d, -1e6), 1.0), dtype=np.float64)
        hi = np.asarray(g.prox(np.full(d, 1e6), 1.0), dtype=np.float64)

    if family == "quadratic":
        x_star = np.linalg.solve(hessian, linear)
    else:
        x_star = _solve_composite(hessian, linear, lipschitz, lam, lo, hi)
    ref = Reference(family, hessian, linear, offset, lam, lo, hi, lipschitz, mu,
                    x_star, 0.0)
    ref.f_star = objective(ref, x_star)
    return ref


def objective(ref: Reference, x: np.ndarray) -> float:
    value = 0.5 * float(x @ (ref.hessian @ x)) - float(ref.linear @ x) + ref.offset
    if ref.family == "lasso":
        value += ref.lam * float(np.sum(np.abs(x)))
    return value


def _prox(v, t, lam, lo, hi):
    if lo is not None:
        return np.clip(v, lo, hi)
    return np.sign(v) * np.maximum(np.abs(v) - t * lam, 0.0)


def _solve_composite(hessian, linear, lipschitz, lam, lo, hi) -> np.ndarray:
    """Accelerated proximal loop with restarts, finished by an active-set solve.

    The loop only has to find the active set; the solve on the free
    coordinates then gives the minimizer to rounding, and the KKT conditions
    are checked before it is accepted.
    """
    d = linear.size
    step = 1.0 / lipschitz
    x = np.zeros(d)
    y, t = x, 1.0
    for _ in range(200):
        for _ in range(250):
            x_new = _prox(y - step * (hessian @ y - linear), step, lam, lo, hi)
            if float((y - x_new) @ (x_new - x)) > 0.0:
                y, t = x_new, 1.0
            else:
                t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                y = x_new + ((t - 1.0) / t_new) * (x_new - x)
                t = t_new
            x = x_new
        polished = _active_set_solve(hessian, linear, lam, lo, hi, x)
        if polished is not None:
            return polished
    raise CheckFailed("own reference loop found no consistent active set")


def _active_set_solve(hessian, linear, lam, lo, hi, x):
    if lo is not None:
        at_lo, at_hi = x <= lo, x >= hi
        free = ~(at_lo | at_hi)
        fixed = np.where(at_lo, lo, hi)
        z = np.where(free, 0.0, fixed)
        rhs = linear[free] - hessian[np.ix_(free, ~free)] @ fixed[~free]
    else:
        free = x != 0.0
        sign = np.sign(x)
        z = np.zeros_like(x)
        rhs = linear[free] - lam * sign[free]
    try:
        z[free] = np.linalg.solve(hessian[np.ix_(free, free)], rhs)
    except np.linalg.LinAlgError:
        return None
    grad = hessian @ z - linear
    tol = 1e-9 * (1.0 + float(np.max(np.abs(grad))))
    if lo is not None:
        ok = (np.all(z[free] >= lo[free]) and np.all(z[free] <= hi[free])
              and np.all(grad[at_lo] >= -tol) and np.all(grad[at_hi] <= tol))
    else:
        ok = (np.all(np.sign(z[free]) == sign[free])
              and np.all(np.abs(grad[~free]) <= lam + tol))
    return z if ok else None


def rho_bound(mu: float, lipschitz: float, s: float) -> float:
    """Theorem 1's factor min{mu s(1-sL)/(1+mu s(sL+2)), mu s/2};
    mu/(4L+5mu) at the canonical step s = 1/(2L)."""
    first = mu * s * (1.0 - s * lipschitz) / (1.0 + mu * s * (s * lipschitz + 2.0))
    return max(min(first, mu * s / 2.0), 0.0)


def envelope(ks: np.ndarray, alpha: float, s: float, dist0: float, mu: float,
             lipschitz: float) -> np.ndarray:
    """Theorem 1 envelope when mu > 0 and s < 1/L, else Theorem 2's."""
    ks = ks.astype(np.float64)
    sublinear = (alpha - 1.0) ** 2 * dist0 ** 2 / (2.0 * s * ks * (ks + alpha - 1.0))
    if mu > 0.0 and s * lipschitz < 1.0 - 1e-9:
        k_alpha = math.ceil(alpha - 1.0)
        return sublinear * (1.0 + rho_bound(mu, lipschitz, s)) ** (-(ks - k_alpha))
    return sublinear


def expected_certificate_lines(n_records: int, mu: float, s: float,
                               lipschitz: float, alpha: float) -> dict:
    """(name, status) -> line count that the certificate rules give for mapm."""
    steps = n_records - 1
    per_step = ["inertial_identity", "energy_nonincreasing", "prop1",
                "theorem2_envelope"] + (["prop2"] if mu > 0.0 else [])
    counts = {(name, "ok"): steps for name in per_step}
    counts[("descent_lemma", "ok")] = n_records
    if mu <= 0.0:
        counts[("prop2", "not_applicable")] = 1
    if steps == 0:
        counts[("theorem2_envelope", "not_applicable")] = 1
    linear_ok = mu > 0.0 and s * lipschitz < 1.0 - 1e-9
    n_linear = max(0, n_records - math.ceil(alpha - 1.0)) if linear_ok else 0
    if n_linear:
        counts[("theorem1_envelope", "ok")] = n_linear
    else:
        counts[("theorem1_envelope", "not_applicable")] = 1
    return {key: n for key, n in counts.items() if n}


# ---------------------------------------------------------------------------
# What a workload produced, in a form every check reads
# ---------------------------------------------------------------------------

@dataclass
class Outputs:
    """A mapm trace and its certificate report, reduced to what is checked."""

    variant: str
    alpha: float
    step: float
    max_iters: int
    ks: np.ndarray
    f_y: np.ndarray
    last_grad_map_norm: float
    x0: np.ndarray
    report_counts: dict  # (name, status) -> lines
    report_failures: int
    last_gap_reported: float  # theorem2_envelope lhs at the last k
    exit_code: int = 0


def summarize_report(rows) -> tuple:
    """(counts, failures, last theorem2 lhs) from (k, name, lhs, pass, status)."""
    counts: dict = {}
    failures = 0
    last_k, last_lhs = -1, math.nan
    for k, name, lhs, passed, status in rows:
        counts[(name, status)] = counts.get((name, status), 0) + 1
        if status == "ok" and not passed:
            failures += 1
        if name == "theorem2_envelope" and status == "ok" and k > last_k:
            last_k, last_lhs = k, lhs
    return counts, failures, last_lhs


def read_cli_outputs(trace_path, report_path, exit_code: int) -> Outputs:
    """Parse a CSV or JSON-lines trace and report with this file's own code."""
    with open(trace_path, newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            meta = json.loads(fh.readline()[len("# meta "):])
            reader = csv.reader(fh)
            columns = next(reader)
            rows = [dict(zip(columns, row)) for row in reader]
            x0 = np.array([float(c) for c in rows[0]["x"].split(";")])
        else:
            meta = json.loads(first)
            rows = [json.loads(line) for line in fh]
            x0 = np.array(rows[0]["x"], dtype=np.float64)
    with open(report_path, newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            reader = csv.reader(fh)
            next(reader)
            report = [(int(r[0]), r[1], _float(r[2]), r[5] == "true", r[6])
                      for r in reader]
        else:
            report = []
            for line in fh:
                r = json.loads(line)
                report.append((int(r["k"]), r["name"], _float(r["lhs"]),
                               bool(r["pass"]), r["status"]))
    counts, failures, last_lhs = summarize_report(report)
    return Outputs(
        variant=meta["variant"], alpha=float(meta["alpha"]), step=float(meta["step"]),
        max_iters=int(meta["max_iters"]),
        ks=np.array([int(r["k"]) for r in rows]),
        f_y=np.array([float(r["f_y"]) for r in rows]),
        last_grad_map_norm=float(rows[-1]["grad_map_norm"]),
        x0=x0, report_counts=counts, report_failures=failures,
        last_gap_reported=last_lhs, exit_code=exit_code,
    )


def _float(cell) -> float:
    return math.nan if cell in (None, "") else float(cell)


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def check_verdict(out: Outputs) -> None:
    """certify exited 0 and every applicable certificate line passed."""
    require(out.exit_code == 0, f"certify exited {out.exit_code}")
    require(out.report_failures == 0,
            f"{out.report_failures} certificate lines failed")


def check_record_count(out: Outputs) -> None:
    """Records are k = 0..K with K = max_iters, or fewer when G_s hit zero."""
    n = out.ks.size
    require(n >= 1 and np.array_equal(out.ks, np.arange(n)),
            "record indices are not 0, 1, ..., K")
    iterations = n - 1
    require(iterations == out.max_iters
            or (iterations < out.max_iters and out.last_grad_map_norm == 0.0),
            f"{n} records for {out.max_iters} iterations without a stop at G_s = 0")


def check_certificate_lines(out: Outputs, ref: Reference) -> None:
    expected = expected_certificate_lines(out.ks.size, ref.mu, out.step,
                                          ref.lipschitz, out.alpha)
    require(out.report_counts == expected,
            f"certificate lines {sorted(out.report_counts.items())} differ from "
            f"the rules' {sorted(expected.items())}")


def check_monotone(out: Outputs) -> None:
    """mapm's F(y_k) never increases."""
    require(out.variant == "mapm", f"variant {out.variant!r} is not mapm")
    rises = np.flatnonzero(np.diff(out.f_y) > 0.0)
    require(rises.size == 0, f"F(y_k) increases after k = {rises[:5].tolist()}")


def check_constants(out: Outputs, declared_l: float, declared_mu: float,
                    ref: Reference) -> None:
    """Declared L and mu, and the canonical step, agree with the own spectrum."""
    require(abs(declared_l - ref.lipschitz) <= 1e-8 * ref.lipschitz,
            f"declared L {declared_l!r} differs from own {ref.lipschitz!r}")
    require(abs(declared_mu - ref.mu) <= 1e-8 * ref.lipschitz,
            f"declared mu {declared_mu!r} differs from own {ref.mu!r}")
    require(abs(out.step * ref.lipschitz - 0.5) <= 1e-8,
            f"step {out.step!r} is not 1/(2L)")


def check_reference(out: Outputs, ref: Reference) -> None:
    """Own F* bounds every F(y_k) from below and matches the program's F*."""
    scale = 1.0 + abs(ref.f_star)
    gaps = out.f_y - ref.f_star
    require(float(np.min(gaps)) >= -LOWER_BOUND_SLACK * scale,
            f"F(y_k) falls {-float(np.min(gaps))!r} below own F* {ref.f_star!r}")
    if out.ks.size > 1:
        drift = abs(float(out.last_gap_reported - gaps[-1]))
        require(drift <= REF_AGREE * scale,
                f"program's F* differs from own F* by {drift!r}")


def check_envelope(out: Outputs, ref: Reference) -> None:
    """Every gap, the last one included, lies under Theorem 1's envelope
    (mu > 0) or Theorem 2's (mu = 0)."""
    start = math.ceil(out.alpha - 1.0) if ref.mu > 0.0 else 1
    ks = out.ks[out.ks >= max(start, 1)]
    if ks.size == 0:
        return
    dist0 = float(np.linalg.norm(out.x0 - ref.x_star))
    env = envelope(ks, out.alpha, out.step, dist0, ref.mu, ref.lipschitz)
    gaps = out.f_y[ks] - ref.f_star
    excess = gaps - env - LOWER_BOUND_SLACK * ((1.0 + abs(ref.f_star)) + env)
    bad = ks[excess > 0.0]
    require(bad.size == 0, f"gap above the envelope at k = {bad[:5].tolist()}")


def fitted_rate(gaps: np.ndarray, floor: float) -> float:
    """Per-iteration linear factor fitted to log gap over the leading stretch
    of gaps above floor."""
    above = gaps > floor
    end = int(np.argmin(above)) if not above.all() else gaps.size
    if end == 0:
        return math.inf
    if end < 3:
        return (gaps[0] / floor) ** (1.0 / end) - 1.0
    ks = np.arange(end, dtype=np.float64)
    logs = np.log(gaps[:end])
    kc = ks - ks.mean()
    slope = float(kc @ (logs - logs.mean())) / float(kc @ kc)
    return math.exp(-slope) - 1.0


def check_rate(out: Outputs, ref: Reference) -> None:
    """On a strongly convex quadratic the fitted rate is at least mu/(4L+5mu)."""
    if ref.family != "quadratic":
        return
    floor = GAP_FLOOR * (1.0 + abs(ref.f_star))
    rate = fitted_rate(out.f_y - ref.f_star, floor)
    bound = rho_bound(ref.mu, ref.lipschitz, out.step)
    require(rate >= bound, f"fitted rate {rate!r} is below mu/(4L+5mu) = {bound!r}")


def check_all(out: Outputs, ref: Reference, declared_l: float,
              declared_mu: float) -> None:
    check_verdict(out)
    check_record_count(out)
    check_monotone(out)
    check_constants(out, declared_l, declared_mu, ref)
    check_certificate_lines(out, ref)
    check_reference(out, ref)
    check_envelope(out, ref)
    check_rate(out, ref)


def check_repeat(digest: str, first_digest: str, what: str) -> None:
    """A repeated round must produce the same bytes as the first one."""
    require(digest == first_digest, f"{what} differ from the first round's")
