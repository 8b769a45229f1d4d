"""Numerical certificates for a solver trace.

Every proved inequality is evaluated on concrete iterates with floating-point
slack reported per iteration: the energy decrement bound, the energy upper
bound with its three free parameters, the prox descent inequality, the
inertial iterate identity, and the linear/sublinear envelopes on the gap.
Inequalities hold exactly in real arithmetic, so the only slack granted is
rounding accumulation: 1e-8 * (1 + |lhs| + |rhs|) for inequalities and
1e-10 * (1 + ||x_k||) for the inertial identity.

Each formula works over the last axis.  Given one record (vectors of shape
(d,), an int k) it returns Python floats; given a block of n records (vectors
of shape (n, d), k of shape (n,)) it returns arrays of n values, bit for bit
the values it gives record by record.  `certify_blocks` is the one engine:
it consumes a stream of `solvers.Trace` blocks that overlap by one row (a
replay's, or views of a whole trace that `certify_trace` checks once), so the
(k, k+1) certificates cross block edges, and evaluates every certificate once
per block.  Each family's hypotheses are stated once, in `_first_ks`, the
first k of each family that applies to a trace of a given length; the others
are one "not_applicable" line each.  Knowing the trace's length, the engine
makes each block's lines final as it certifies the block, and holds nothing
of a block past its turn.

`certify_trace` returns a `CertificateTable`: one array per column (`k`, the
certificate name's index, `lhs`, `rhs`, `slack`, `passed`, `applies`), one
entry per line in (k, name) order.  A verdict reads the columns (the first
violation is the first true entry of `applies & ~passed`); iterating the table
yields one `CertificateReport` per line, built only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (_FLOAT_MAX, DataCorruptionError, ProxCertError, RejectedInputError,
                     check_setting)
from .problems import Vector, as_vector
from .solvers import IDENTITY_TOL, Columns, Trace, _block_rows, _first, bind_step

CERTIFICATE_NAMES = (
    "energy_nonincreasing",
    "prop1",
    "prop2",
    "descent_lemma",
    "inertial_identity",
    "theorem1_envelope",
    "theorem2_envelope",
)
# k of one record, or the ks of a block; a value for one record, or a block's
# array of them.
Index = Union[int, np.ndarray]
Values = Union[float, np.ndarray]

# Report order within one k.
_ORDER = tuple(sorted(CERTIFICATE_NAMES))

# Hard floor below which a negative gap means the reference optimum is wrong,
# not rounding: -1e-9 * (1 + |F*|).
_GAP_FLOOR = 1e-9


@dataclass(frozen=True)
class EnergyContext:
    """Constants the energy-based certificates need; alpha and s meet the run's
    rules (SETTING_RULES and bind_step) and f_star is finite, else RejectedInputError."""

    alpha: float
    s: float
    mu: float
    lipschitz: float
    x_star: Vector
    f_star: float

    def __post_init__(self):
        check_setting("alpha", self.alpha, RejectedInputError)
        check_setting("step", self.s, RejectedInputError)
        bind_step(self.lipschitz, self.s, RejectedInputError)
        if not -_FLOAT_MAX <= self.f_star <= _FLOAT_MAX:
            raise RejectedInputError(f"f_star must be a finite number, got {self.f_star!r}")
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


@dataclass(frozen=True, eq=False)
class CertificateTable(Columns):
    """Certificate lines as columns, one array each, in (k, name) order.

    `k` is int64, `name` an index into NAMES, `lhs`, `rhs` and `slack` float64,
    `passed` and `applies` bool; a line's status is STATUSES[applies].  Its
    rows are CertificateReports of Python values (int, str, float, bool).
    """

    k: np.ndarray
    name: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    passed: np.ndarray
    applies: np.ndarray

    NAMES = _ORDER
    STATUSES = ("not_applicable", "ok")
    _DTYPES = (np.int64, np.int64, np.float64, np.float64, np.float64, bool, bool)

    def _row(self, k, name, lhs, rhs, slack, passed, applies) -> CertificateReport:
        return CertificateReport(k, self.NAMES[name], lhs, rhs, slack, passed,
                                 self.STATUSES[applies])


def ineq_tolerance(lhs: float, rhs: float) -> float:
    """Relative slack granted to an inequality certificate."""
    return 1e-8 * (1.0 + abs(lhs) + abs(rhs))


def k_alpha(alpha: float) -> int:
    """First index from which the linear envelope is asserted: ceil(alpha - 1)."""
    return int(math.ceil(alpha - 1.0))


def _scalar(value):
    """A value for one record as a Python float; a block's array as it is."""
    return float(value) if np.ndim(value) == 0 else value


def _column(k):
    """k shaped to scale vectors along the last axis."""
    return np.asarray(k)[..., None]


def _pow(base, exponent):
    """base ** exponent with Python floats, entry by entry.

    CPython's float power (libm pow) and numpy's array power differ in the
    last bit for some entries, so a block must not use the latter.
    """
    if np.ndim(base) == 0 and np.ndim(exponent) == 0:
        return base ** exponent
    base, exponent = np.broadcast_arrays(base, exponent)
    return np.array([b ** e for b, e in zip(base.tolist(), exponent.tolist())],
                    dtype=np.float64).reshape(base.shape)


def phi(ctx: EnergyContext, k: Index, x_k: Vector, y_k: Vector) -> Vector:
    """k (x_k - y_k) + (alpha - 1) (x_k - x*)."""
    return _column(k) * (x_k - y_k) + (ctx.alpha - 1.0) * (x_k - ctx.x_star)


def theta(ctx: EnergyContext, k: Index) -> Values:
    """k (k + alpha - 1) s."""
    return k * (k + ctx.alpha - 1.0) * ctx.s


def energy(ctx: EnergyContext, k: Index, x_k: Vector, y_k: Vector,
           f_yk: Values) -> Values:
    """E_k = 1/2 ||phi_k||^2 + theta_k (F(y_k) - F*).

    A tiny negative gap is clamped to 0 before multiplying; a gap below
    -1e-9 (1 + |F*|) raises DataCorruptionError since it signals a wrong F*.
    """
    gap = f_yk - ctx.f_star
    low = gap < -_GAP_FLOOR * (1.0 + abs(ctx.f_star))
    if np.any(low):
        raise DataCorruptionError(
            f"F(y_{_first(low, k)}) = {_first(low, f_yk)} is below the reference "
            f"optimum {ctx.f_star} beyond the numerical floor; the reference "
            "looks wrong"
        )
    p = phi(ctx, k, x_k, y_k)
    th = theta(ctx, k)
    # theta_0 = 0 kills the gap term even when F(y_0) = +inf (infeasible
    # start against an indicator g); 0 * inf must not poison E_0.
    gap_term = th * np.where(th > 0.0, np.where(0.0 > gap, 0.0, gap), 0.0)
    return _scalar(0.5 * np.vecdot(p, p) + gap_term)


def prop1_rhs(ctx: EnergyContext, k: Index, x_k: Vector, y_k: Vector,
              G: Vector) -> Values:
    """Certified upper bound on the energy decrement E_{k+1} - E_k."""
    a, s, mu, L = ctx.alpha, ctx.s, ctx.mu, ctx.lipschitz
    sG2 = np.sum((s * G) ** 2, axis=-1)
    xy2 = np.sum((x_k - y_k) ** 2, axis=-1)
    xs2 = np.sum((x_k - ctx.x_star) ** 2, axis=-1)
    return _scalar(-(1.0 - s * L) * _pow(k + a - 1.0, 2) / 2.0 * sG2
                   - mu * s * k * (k + a - 1.0) / 2.0 * xy2
                   - mu * s * (a - 1.0) * (k + a - 1.0) / 2.0 * xs2)


def prop2_rhs(ctx: EnergyContext, k: Index, x_k: Vector, y_k: Vector, G: Vector,
              omega: float = 0.5, lam: float = 0.5, sigma: float = 1.0) -> Values:
    """Certified upper bound on E_{k+1} for free parameters omega, lam, sigma > 0.

    The defaults reproduce the choice that yields the closed-form linear rate.
    Requires mu > 0 (the last coefficient divides by mu s).
    """
    if ctx.mu <= 0.0:
        raise RejectedInputError("prop2 bound needs mu > 0")
    if min(omega, lam, sigma) <= 0.0:
        raise RejectedInputError("omega, lam, sigma must all be > 0")
    a, s, mu, L = ctx.alpha, ctx.s, ctx.mu, ctx.lipschitz
    sG2 = np.sum((s * G) ** 2, axis=-1)
    xy2 = np.sum((x_k - y_k) ** 2, axis=-1)
    xs2 = np.sum((x_k - ctx.x_star) ** 2, axis=-1)
    return _scalar(k ** 2 / 2.0 * (1.0 + omega + lam) * xy2
                   + (a - 1.0) ** 2 / 2.0 * (1.0 + 1.0 / omega + 1.0 / sigma) * xs2
                   + _pow(k + a - 1.0, 2) / 2.0
                   * (1.0 + 1.0 / lam + sigma + (1.0 - mu * s * (2.0 - s * L)) / (mu * s))
                   * sG2)


def rho_lower_bound(ctx: EnergyContext) -> float:
    """Closed-form lower bound on the per-iteration linear factor.

    min{ mu s (1 - sL) / (1 + mu s (sL + 2)),  mu s / 2 }; legitimately 0 when
    mu = 0 or s = 1/L.
    """
    s, mu, L = ctx.s, ctx.mu, ctx.lipschitz
    first = mu * s * (1.0 - s * L) / (1.0 + mu * s * (s * L + 2.0))
    return max(min(first, mu * s / 2.0), 0.0)


def theorem1_envelope(ctx: EnergyContext, k: Index, dist0: float) -> Values:
    """Linear-rate gap envelope, defined for k >= k_alpha = ceil(alpha - 1)."""
    ka = k_alpha(ctx.alpha)
    early = np.less(k, ka)
    if np.any(early):
        raise RejectedInputError(
            f"envelope is asserted from k_alpha = {ka}, got k = {_first(early, k)}"
        )
    rho = rho_lower_bound(ctx)
    a, s = ctx.alpha, ctx.s
    return _scalar((a - 1.0) ** 2 * dist0 ** 2 / (2.0 * s * k * (k + a - 1.0))
                   * _pow(1.0 + rho, -(k - ka)))


def theorem2_envelope(ctx: EnergyContext, k: Index, dist0: float) -> Values:
    """Sublinear gap envelope, valid for merely convex f; defined for k >= 1."""
    if np.any(np.less(k, 1)):
        raise RejectedInputError("sublinear envelope starts at k = 1")
    a, s = ctx.alpha, ctx.s
    return _scalar((a - 1.0) ** 2 * dist0 ** 2 / (2.0 * s * k * (k + a - 1.0)))


def descent_lemma_sides(s: float, lipschitz: float, mu: float, x: Vector,
                        y: Vector, G: Vector, f_prox: Values, f_y: Values):
    """(lhs, rhs) of the prox descent inequality at (x, y).

    lhs = F(x - s G_s(x)); rhs = F(y) + <G_s(x), x - y>
          - s (2 - sL)/2 ||G_s(x)||^2 - mu/2 ||x - y||^2.
    With mu = 0 the inequality covers merely convex f.
    """
    xy = x - y
    rhs = (f_y + np.vecdot(G, xy)
           - s * (2.0 - s * lipschitz) / 2.0 * np.vecdot(G, G)
           - mu / 2.0 * np.sum(xy ** 2, axis=-1))
    return f_prox, _scalar(rhs)


def inertial_residual(alpha: float, s: float, k: Index, x_k: Vector, y_k: Vector,
                      x_next: Vector, y_next: Vector, G: Vector) -> Values:
    """Norm of (k+1)(x_{k+1}-y_{k+1}) - k(x_k-y_k) + (a-1)(x_{k+1}-x_k)
    + (k+a-1) s G_s(x_k); zero in exact arithmetic for apm/mapm updates."""
    kc = _column(k)
    r = ((kc + 1.0) * (x_next - y_next) - kc * (x_k - y_k)
         + (alpha - 1.0) * (x_next - x_k) + (kc + alpha - 1.0) * s * G)
    return _scalar(np.sqrt(np.vecdot(r, r)))


class _Lines:
    """One block's certificate lines on a (row, name) grid, read in (k, name)
    order."""

    def __init__(self, k):
        self.k = k
        grid = (len(k), len(_ORDER))
        self.lhs = np.full(grid, np.nan)
        self.rhs = np.full(grid, np.nan)
        self.tol = np.full(grid, np.nan)
        self.present = np.zeros(grid, dtype=bool)
        self.applies = np.ones(grid, dtype=bool)

    def put(self, name: str, row: int, lhs, rhs, tol=None) -> None:
        """lhs <= rhs for rows row, row+1, ... at the given (or default) tolerance."""
        rows = slice(row, row + len(lhs))
        col = _ORDER.index(name)
        self.lhs[rows, col] = lhs
        self.rhs[rows, col] = rhs
        self.tol[rows, col] = ineq_tolerance(lhs, rhs) if tol is None else tol
        self.present[rows, col] = True

    def not_applicable(self, name: str) -> None:
        """One k = 0 line saying that a family does not apply to the trace."""
        col = _ORDER.index(name)
        self.present[0, col] = True
        self.applies[0, col] = False

    def table(self, own: int) -> CertificateTable:
        """The present lines of the first `own` rows, in (k, name) order."""
        passed = np.where(self.applies, self.lhs <= self.rhs + self.tol, True)
        cells = np.flatnonzero(self.present[:own])
        rows, names = np.divmod(cells, len(_ORDER))
        lhs, rhs = self.lhs.ravel()[cells], self.rhs.ravel()[cells]
        return CertificateTable(self.k[rows], names, lhs, rhs, rhs - lhs,
                                passed.ravel()[cells], self.applies.ravel()[cells])


def _first_ks(ctx: EnergyContext, variant: str, last: int) -> dict:
    """{name: first k} of each certificate family whose hypotheses hold on a
    `variant` trace whose last row is k = `last`: its lines run from that k
    to the last row, or to the last but one for a family of a row and its
    successor.  Every variant has the descent lemma; apm and mapm the
    inertial identity; mapm the energy families, Prop 2 if mu > 0, Theorem 1
    if also s < 1/L and the trace reaches k_alpha, and Theorem 2 if it
    reaches k = 1."""
    first = {"descent_lemma": 0}
    if variant in ("apm", "mapm"):
        first["inertial_identity"] = 0
    if variant == "mapm":
        first.update(energy_nonincreasing=0, prop1=0)
        if ctx.mu > 0.0:
            first["prop2"] = 0
            ka = k_alpha(ctx.alpha)
            if ctx.s * ctx.lipschitz < 1.0 - 1e-9 and last >= ka:
                first["theorem1_envelope"] = ka
        if last >= 1:
            first["theorem2_envelope"] = 1
    return first


def certify_trace(ctx: EnergyContext, trace: Trace,
                  variant: str = "mapm") -> CertificateTable:
    """Evaluate every applicable certificate on a recorded trace.

    The trace must carry iterates in every row, else RejectedInputError: the
    x, y, grad_map and f_z that `run` records and `Trace.replayed` gives a
    trace read from a file.  A trace that `Trace.check` refuses against the
    problem's shape (ctx.x_star's) is corrupt: its k does not run 0, 1, 2,
    ..., or it has a NaN f_y, f_z, grad_map_norm or iterate coordinate, or a
    vector of another shape.  The checked trace goes through `certify_blocks`
    in blocks of `_block_rows(d)` rows and the next block's first, views of
    its columns.
    """
    def blocks():
        trace.require(("x", "y", "grad_map", "f_z"), len(trace))
        trace.check(ctx.x_star.shape)
        rows = _block_rows(ctx.x_star.size)
        for start in range(0, max(len(trace) - 1, 1), rows):
            yield trace[start:start + rows + 1]

    return certify_blocks(ctx, blocks() if len(trace) else (), len(trace), variant)


def certify_blocks(ctx: EnergyContext, blocks, length: int,
                   variant: str = "mapm") -> CertificateTable:
    """The certificate lines of a trace of `length` rows given as a stream of
    checked Trace blocks (rows 0, 1, ... in order, each with x, y, grad_map
    and f_z) that overlap by one row: each block but the last ends with the
    first row of the next.  Lines come in (k, name) order.

    The families of `_first_ks` run, each from its first k, as proved; the
    others are reported once, at k = 0, with status "not_applicable".  A
    variant outside errors.VARIANTS is rejected, and so is a stream whose
    rows are not rows 0 to length - 1 in overlapping blocks.

    Each block's lines are final when they are made: those of each of its
    rows that has its successor in the block, and of the trace's last row.
    No block is copied or held past its turn.  An error of the certificates
    (a gap below the floor) is raised only after the stream is drained, so
    an error of the stream itself (a replay's disagreement) comes first.
    """
    check_setting("variant", variant, RejectedInputError)
    last, end = length - 1, -1  # the k of the trace's last row, and of the stream's
    tables, dist0, error = [], None, None
    for block in blocks:
        k = block.k
        if not len(k) or k[0] != max(end, 0) or k[-1] > last:
            rows = f"rows {k[0]} to {k[-1]}" if len(k) else "no rows"
            raise RejectedInputError(f"a block of {rows} does not go on from row "
                                     f"{max(end, 0)} of a stream of {length} rows")
        end = k[-1]
        if dist0 is None:
            dist0 = float(np.linalg.norm(block.x[0] - ctx.x_star))
        if error is None:
            try:
                tables.append(_block_lines(ctx, variant, last, dist0, block))
            except ProxCertError as exc:
                error = exc  # raised once the stream is drained
        del block  # not held while the next block is made
    if end != last:
        raise RejectedInputError(f"the stream ends at row {end} of a trace of {length} rows")
    if error is not None:
        raise error
    return CertificateTable.concat(tables)


def _block_lines(ctx: EnergyContext, variant: str, last: int, dist0: float,
                 block: Trace) -> CertificateTable:
    """The final lines of a block of rows k_0, k_0+1, ... of a trace whose
    last row is k = `last`: each family of `_first_ks` on each row from its
    first k, and, for a family of a row and its successor, on each row but
    the block's last.  The lines of the block's last row are left to the
    next block, which starts with it, unless that row is the trace's last; a
    block that starts at k = 0 also has the not_applicable lines."""
    a, s, mu, L = ctx.alpha, ctx.s, ctx.mu, ctx.lipschitz
    k, f_y, f_z = block.k, block.f_y, block.f_z
    x, y, G = block.x, block.y, block.grad_map
    p = len(k) - 1  # rows that have a successor
    first = _first_ks(ctx, variant, last)
    lines = _Lines(k)

    lines.put("descent_lemma", 0, *descent_lemma_sides(s, L, mu, x, y, G, f_z, f_y))
    if "inertial_identity" in first:
        resid = inertial_residual(a, s, k[:p], x[:p], y[:p], x[1:], y[1:], G[:p])
        tol = IDENTITY_TOL * (1.0 + np.sqrt(np.vecdot(x[:p], x[:p])))
        lines.put("inertial_identity", 0, resid, 0.0, tol)
    if "energy_nonincreasing" in first:
        e = energy(ctx, k, x, y, f_y)
        lines.put("energy_nonincreasing", 0, e[1:], e[:p])
        lines.put("prop1", 0, e[1:] - e[:p],
                  prop1_rhs(ctx, k[:p], x[:p], y[:p], G[:p]))
    if "prop2" in first:
        lines.put("prop2", 0, e[1:], prop2_rhs(ctx, k[:p], x[:p], y[:p], G[:p]))
    for name, envelope in (("theorem1_envelope", theorem1_envelope),
                           ("theorem2_envelope", theorem2_envelope)):
        if name in first:
            row = max(first[name] - k[0], 0)
            lines.put(name, row, f_y[row:] - ctx.f_star, envelope(ctx, k[row:], dist0))
    if k[0] == 0:
        for name in _ORDER:
            if name not in first:
                lines.not_applicable(name)
    return lines.table(len(k) if k[-1] == last else p)
