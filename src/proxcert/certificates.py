"""Numerical certificates for a solver trace.

Every proved inequality is evaluated on concrete iterates with floating-point
slack reported per iteration: the energy decrement bound, the energy upper
bound with its three free parameters, the prox descent inequality, the
inertial iterate identity, and the linear/sublinear envelopes on the gap.
Inequalities hold exactly in real arithmetic, so the only slack granted is
rounding accumulation: 1e-8 * (1 + |lhs| + |rhs|) for inequalities and
1e-10 * (1 + ||x_k||) for the inertial identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataCorruptionError, RejectedInputError
from .problems import Vector, as_vector
from .solvers import VARIANTS

CERTIFICATE_NAMES = (
    "energy_nonincreasing",
    "prop1",
    "prop2",
    "descent_lemma",
    "inertial_identity",
    "theorem1_envelope",
    "theorem2_envelope",
)

# Hard floor below which a negative gap means the reference optimum is wrong,
# not rounding: -1e-9 * (1 + |F*|).
_GAP_FLOOR = 1e-9


@dataclass(frozen=True)
class EnergyContext:
    """Constants the energy-based certificates need."""

    alpha: float
    s: float
    mu: float
    lipschitz: float
    x_star: Vector
    f_star: float

    def __post_init__(self):
        if not self.alpha >= 3.0:
            raise RejectedInputError(f"alpha must be >= 3, got {self.alpha}")
        if not (self.s > 0.0 and self.s * self.lipschitz <= 1.0 + 1e-12):
            raise RejectedInputError(
                f"need 0 < s <= 1/L, got s={self.s}, L={self.lipschitz}"
            )
        if not self.lipschitz >= self.mu >= 0.0:
            raise RejectedInputError(
                f"need L >= mu >= 0, got L={self.lipschitz}, mu={self.mu}"
            )
        object.__setattr__(self, "x_star", as_vector(self.x_star))


@dataclass
class CertificateReport:
    """One evaluated inequality: pass iff slack >= -tolerance(name, scale)."""

    k: int
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    status: str = "ok"  # "ok" | "not_applicable"


def ineq_tolerance(lhs: float, rhs: float) -> float:
    """Relative slack granted to an inequality certificate."""
    return 1e-8 * (1.0 + abs(lhs) + abs(rhs))


def k_alpha(alpha: float) -> int:
    """First index from which the linear envelope is asserted: ceil(alpha - 1)."""
    return int(math.ceil(alpha - 1.0))


def phi(ctx: EnergyContext, k: int, x_k: Vector, y_k: Vector) -> Vector:
    """k (x_k - y_k) + (alpha - 1) (x_k - x*)."""
    return k * (x_k - y_k) + (ctx.alpha - 1.0) * (x_k - ctx.x_star)


def theta(ctx: EnergyContext, k: int) -> float:
    """k (k + alpha - 1) s."""
    return k * (k + ctx.alpha - 1.0) * ctx.s


def energy(ctx: EnergyContext, k: int, x_k: Vector, y_k: Vector,
           f_yk: float) -> float:
    """E_k = 1/2 ||phi_k||^2 + theta_k (F(y_k) - F*).

    A tiny negative gap is clamped to 0 before multiplying; a gap below
    -1e-9 (1 + |F*|) raises DataCorruptionError since it signals a wrong F*.
    """
    gap = f_yk - ctx.f_star
    if gap < -_GAP_FLOOR * (1.0 + abs(ctx.f_star)):
        raise DataCorruptionError(
            f"F(y_{k}) = {f_yk} is below the reference optimum {ctx.f_star} "
            "beyond the numerical floor; the reference looks wrong"
        )
    p = phi(ctx, k, x_k, y_k)
    th = theta(ctx, k)
    # theta_0 = 0 kills the gap term even when F(y_0) = +inf (infeasible
    # start against an indicator g); 0 * inf must not poison E_0.
    gap_term = th * max(gap, 0.0) if th > 0.0 else 0.0
    return 0.5 * float(p @ p) + gap_term


def prop1_rhs(ctx: EnergyContext, k: int, x_k: Vector, y_k: Vector,
              G: Vector) -> float:
    """Certified upper bound on the energy decrement E_{k+1} - E_k."""
    a, s, mu, L = ctx.alpha, ctx.s, ctx.mu, ctx.lipschitz
    sG2 = float(np.sum((s * G) ** 2))
    xy2 = float(np.sum((x_k - y_k) ** 2))
    xs2 = float(np.sum((x_k - ctx.x_star) ** 2))
    return (-(1.0 - s * L) * (k + a - 1.0) ** 2 / 2.0 * sG2
            - mu * s * k * (k + a - 1.0) / 2.0 * xy2
            - mu * s * (a - 1.0) * (k + a - 1.0) / 2.0 * xs2)


def prop2_rhs(ctx: EnergyContext, k: int, x_k: Vector, y_k: Vector, G: Vector,
              omega: float = 0.5, lam: float = 0.5, sigma: float = 1.0) -> float:
    """Certified upper bound on E_{k+1} for free parameters omega, lam, sigma > 0.

    The defaults reproduce the choice that yields the closed-form linear rate.
    Requires mu > 0 (the last coefficient divides by mu s).
    """
    if ctx.mu <= 0.0:
        raise RejectedInputError("prop2 bound needs mu > 0")
    if min(omega, lam, sigma) <= 0.0:
        raise RejectedInputError("omega, lam, sigma must all be > 0")
    a, s, mu, L = ctx.alpha, ctx.s, ctx.mu, ctx.lipschitz
    sG2 = float(np.sum((s * G) ** 2))
    xy2 = float(np.sum((x_k - y_k) ** 2))
    xs2 = float(np.sum((x_k - ctx.x_star) ** 2))
    return (k ** 2 / 2.0 * (1.0 + omega + lam) * xy2
            + (a - 1.0) ** 2 / 2.0 * (1.0 + 1.0 / omega + 1.0 / sigma) * xs2
            + (k + a - 1.0) ** 2 / 2.0
            * (1.0 + 1.0 / lam + sigma + (1.0 - mu * s * (2.0 - s * L)) / (mu * s))
            * sG2)


def comparison_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """min_i a_i / b_i: if A <= -sum a_i W_i and B <= sum b_i W_i with all
    quantities positive, then A + rho B <= 0 for rho = comparison_rho(a, b)."""
    if len(a) != len(b) or len(a) < 1:
        raise RejectedInputError("need two equal-length nonempty lists")
    if min(a) <= 0.0 or min(b) <= 0.0:
        raise RejectedInputError("all entries must be > 0")
    return min(ai / bi for ai, bi in zip(a, b))


def rho_lower_bound(ctx: EnergyContext) -> float:
    """Closed-form lower bound on the per-iteration linear factor.

    min{ mu s (1 - sL) / (1 + mu s (sL + 2)),  mu s / 2 }; legitimately 0 when
    mu = 0 or s = 1/L.
    """
    s, mu, L = ctx.s, ctx.mu, ctx.lipschitz
    first = mu * s * (1.0 - s * L) / (1.0 + mu * s * (s * L + 2.0))
    return max(min(first, mu * s / 2.0), 0.0)


def theorem1_envelope(ctx: EnergyContext, k: int, dist0: float) -> float:
    """Linear-rate gap envelope, defined for k >= k_alpha = ceil(alpha - 1)."""
    ka = k_alpha(ctx.alpha)
    if k < ka:
        raise RejectedInputError(f"envelope is asserted from k_alpha = {ka}, got k = {k}")
    rho = rho_lower_bound(ctx)
    a, s = ctx.alpha, ctx.s
    return ((a - 1.0) ** 2 * dist0 ** 2 / (2.0 * s * k * (k + a - 1.0))
            * (1.0 + rho) ** (-(k - ka)))


def theorem2_envelope(ctx: EnergyContext, k: int, dist0: float) -> float:
    """Sublinear gap envelope, valid for merely convex f; defined for k >= 1."""
    if k < 1:
        raise RejectedInputError("sublinear envelope starts at k = 1")
    a, s = ctx.alpha, ctx.s
    return (a - 1.0) ** 2 * dist0 ** 2 / (2.0 * s * k * (k + a - 1.0))


def descent_lemma_sides(s: float, lipschitz: float, mu: float, x: Vector,
                        y: Vector, G: Vector, f_prox: float, f_y: float):
    """(lhs, rhs) of the prox descent inequality at (x, y).

    lhs = F(x - s G_s(x)); rhs = F(y) + <G_s(x), x - y>
          - s (2 - sL)/2 ||G_s(x)||^2 - mu/2 ||x - y||^2.
    With mu = 0 the inequality covers merely convex f.
    """
    rhs = (f_y + float(G @ (x - y))
           - s * (2.0 - s * lipschitz) / 2.0 * float(G @ G)
           - mu / 2.0 * float(np.sum((x - y) ** 2)))
    return f_prox, rhs


def inertial_residual(alpha: float, s: float, k: int, x_k: Vector, y_k: Vector,
                      x_next: Vector, y_next: Vector, G: Vector) -> float:
    """Norm of (k+1)(x_{k+1}-y_{k+1}) - k(x_k-y_k) + (a-1)(x_{k+1}-x_k)
    + (k+a-1) s G_s(x_k); zero in exact arithmetic for apm/mapm updates."""
    r = ((k + 1.0) * (x_next - y_next) - k * (x_k - y_k)
         + (alpha - 1.0) * (x_next - x_k) + (k + alpha - 1.0) * s * G)
    return float(np.linalg.norm(r))


def _report(k: int, name: str, lhs: float, rhs: float,
            tol: Optional[float] = None) -> CertificateReport:
    """Report for the inequality lhs <= rhs at the given (or default) tolerance."""
    if tol is None:
        tol = ineq_tolerance(lhs, rhs)
    passed = bool(lhs <= rhs + tol)
    return CertificateReport(k=k, name=name, lhs=lhs, rhs=rhs,
                             slack=rhs - lhs, passed=passed)


def _not_applicable(name: str) -> CertificateReport:
    return CertificateReport(k=0, name=name, lhs=math.nan, rhs=math.nan,
                             slack=math.nan, passed=True, status="not_applicable")


def certify_trace(ctx: EnergyContext, trace, variant: str = "mapm") -> list:
    """Evaluate every applicable certificate on a recorded trace.

    The trace must carry iterates (x, y, grad_map, f_z per record).  For mapm
    traces all seven certificates run, gated as proved: prop2 and the linear
    envelope need mu > 0, the linear envelope also needs s < 1/L and k >= k_alpha,
    the sublinear envelope starts at k = 1.  apm traces keep the descent and
    inertial checks; ista / strongly_convex_apm traces keep only the descent
    check.  Skipped families are reported once with status "not_applicable".
    Reports are sorted by (k, name).  A variant outside solvers.VARIANTS is
    rejected.
    """
    if variant not in VARIANTS:
        raise RejectedInputError(
            f"unknown variant {variant!r}; valid: {', '.join(VARIANTS)}"
        )
    trace = list(trace)
    if not trace:
        return []
    for rec in trace:
        if rec.x is None or rec.y is None or rec.grad_map is None or rec.f_z is None:
            raise RejectedInputError(
                f"record k={rec.k} has no stored iterates; re-run with iterate "
                "recording enabled"
            )
    reports = []
    a, s, mu, L = ctx.alpha, ctx.s, ctx.mu, ctx.lipschitz

    for rec in trace:
        lhs, rhs = descent_lemma_sides(s, L, mu, rec.x, rec.y, rec.grad_map,
                                       rec.f_z, rec.f_y)
        reports.append(_report(rec.k, "descent_lemma", lhs, rhs))

    if variant in ("mapm", "apm"):
        for prev, nxt in zip(trace, trace[1:]):
            resid = inertial_residual(a, s, prev.k, prev.x, prev.y, nxt.x,
                                      nxt.y, prev.grad_map)
            tol = 1e-10 * (1.0 + float(np.linalg.norm(prev.x)))
            rep = _report(prev.k, "inertial_identity", resid, 0.0, tol=tol)
            reports.append(rep)
    else:
        reports.append(_not_applicable("inertial_identity"))

    if variant == "mapm":
        energies = [energy(ctx, r.k, r.x, r.y, r.f_y) for r in trace]
        for i, (prev, nxt) in enumerate(zip(trace, trace[1:])):
            e_prev, e_next = energies[i], energies[i + 1]
            reports.append(_report(prev.k, "energy_nonincreasing", e_next, e_prev))
            reports.append(_report(prev.k, "prop1", e_next - e_prev,
                                   prop1_rhs(ctx, prev.k, prev.x, prev.y,
                                             prev.grad_map)))
            if mu > 0.0:
                reports.append(_report(prev.k, "prop2", e_next,
                                       prop2_rhs(ctx, prev.k, prev.x, prev.y,
                                                 prev.grad_map)))
        if mu <= 0.0:
            reports.append(_not_applicable("prop2"))

        dist0 = float(np.linalg.norm(trace[0].x - ctx.x_star))
        linear_ok = mu > 0.0 and s * L < 1.0 - 1e-9
        ka = k_alpha(a)
        any_linear = False
        for rec in trace:
            gap = rec.f_y - ctx.f_star
            if linear_ok and rec.k >= ka:
                reports.append(_report(rec.k, "theorem1_envelope", gap,
                                       theorem1_envelope(ctx, rec.k, dist0)))
                any_linear = True
            if rec.k >= 1:
                reports.append(_report(rec.k, "theorem2_envelope", gap,
                                       theorem2_envelope(ctx, rec.k, dist0)))
        if not any_linear:
            reports.append(_not_applicable("theorem1_envelope"))
        if len(trace) < 2:
            reports.append(_not_applicable("theorem2_envelope"))
    else:
        for name in ("energy_nonincreasing", "prop1", "prop2",
                     "theorem1_envelope", "theorem2_envelope"):
            reports.append(_not_applicable(name))

    reports.sort(key=lambda r: (r.k, r.name))
    return reports
