"""Composite problems: smooth oracles, prox-friendly regularizers, and generators.

A problem is min F(x) = f(x) + g(x) over real coordinate vectors, with f convex
and L-smooth (optionally mu-strongly convex) and g convex with a cheap proximal
operator.  Oracles are plain callables bundled in frozen dataclasses; problem
objects are immutable and safe to share between concurrent runs.

Oracle callables assume finite float64 vectors of the problem's dimension and
do not check their arguments: f's value and gradient and g's value and prox
each run once per solver iteration.
Validation happens at the boundary instead: problem construction checks the
defining data, `solvers.iterate` checks x_0 and the step once at entry, and the
public `prox_l1`, `prox_box` and `prox_zero` check every call.  The one
exception is `box_regularizer`'s prox, which rejects a non-finite point: its
clamp would otherwise turn an infinite gradient step into a finite iterate.

On small vectors a step's cost is mostly numpy's call dispatch, not its
arithmetic, so the per-iteration oracles write each product as one
`ndarray.dot` call (`Q.dot(x)`, not `Q @ x`), the box clamp as
`np.minimum(np.maximum(v, lo), hi)` (not `np.clip`) and each sum as
`np.add.reduce` (not `.sum()`, which adds a Python wrapper).  Each pair runs
the same BLAS routine or loop and gives the same bytes; on small vectors the
product and the clamp cost about half the dispatch of their other forms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import RejectedInputError, check_setting

Vector = NDArray[np.float64]

# Scale-aware tolerances for validating generator inputs.
_SYM_TOL = 1e-12
_EIG_TOL = 1e-10


def as_vector(x, dim: Optional[int] = None) -> Vector:
    """Validate and convert `x` to a finite 1-D float64 vector."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise RejectedInputError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise RejectedInputError(f"expected a vector of dim {dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise RejectedInputError("vector has non-finite coordinates")
    return v


@dataclass(frozen=True)
class SmoothOracle:
    """First-order oracle for the smooth term f.

    `lipschitz` is the gradient Lipschitz constant L and `strong_convexity` the
    declared mu; L >= mu >= 0.  mu is never estimated from data: unknown strong
    convexity is declared as 0.
    """

    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    lipschitz: float
    strong_convexity: float = 0.0

    def __post_init__(self):
        if not (self.lipschitz >= self.strong_convexity >= 0.0):
            raise RejectedInputError(
                f"need L >= mu >= 0, got L={self.lipschitz}, mu={self.strong_convexity}"
            )


@dataclass(frozen=True)
class ProxOracle:
    """Oracle for the nonsmooth term g: value (may be +inf) and prox.

    prox(v, t) returns argmin_u { g(u) + ||u - v||^2 / (2 t) } for t > 0.
    Both callables assume a finite float64 vector of the problem's dimension
    and t > 0; they are not re-checked on each call.
    """

    value: Callable[[Vector], float]
    prox: Callable[[Vector, float], Vector]


@dataclass(frozen=True)
class CompositeProblem:
    """An immutable f + g instance, optionally carrying a known minimizer."""

    smooth: SmoothOracle
    nonsmooth: ProxOracle
    dim: int
    known_minimizer: Optional[Vector] = None
    known_optimum: Optional[float] = None
    content_hash: Optional[str] = None
    name: Optional[str] = None

    def __post_init__(self):
        check_setting("dim", self.dim, RejectedInputError)
        if self.known_minimizer is not None:
            x_star = as_vector(self.known_minimizer, self.dim)
            object.__setattr__(self, "known_minimizer", x_star)
            s = 0.5 / self.smooth.lipschitz if self.smooth.lipschitz > 0 else 1.0
            _, G = prox_gradient(self, s, x_star)
            if norm(G) > 1e-8 * (1.0 + norm(x_star)):
                raise RejectedInputError(
                    "known_minimizer fails the gradient-mapping fixed-point check"
                )
            if self.known_optimum is not None:
                f_star = float(self.known_optimum)
                if abs(self.value(x_star) - f_star) > 1e-10 * (1.0 + abs(f_star)):
                    raise RejectedInputError(
                        "known_optimum is inconsistent with F(known_minimizer)"
                    )

    def value(self, x: Vector) -> float:
        """F(x) = f(x) + g(x); may be +inf outside dom(g)."""
        return float(self.smooth.value(x)) + float(self.nonsmooth.value(x))

    def with_reference(self, x_star, f_star: float) -> "CompositeProblem":
        """Return a copy with known_minimizer/known_optimum set (and validated)."""
        return dataclasses.replace(
            self, known_minimizer=as_vector(x_star, self.dim), known_optimum=float(f_star)
        )


def prox_gradient(problem: CompositeProblem, s: float, x: Vector):
    """(z, G) with z = prox_{sg}(x - s grad f(x)) and G = (x - z)/s, unchecked."""
    z = problem.nonsmooth.prox(x - s * problem.smooth.gradient(x), s)
    return z, (x - z) / s


def norm(v: Vector) -> float:
    """||v||_2 as np.linalg.norm computes it for a 1-D vector, bit for bit."""
    return math.sqrt(float(v.dot(v)))


# ---------------------------------------------------------------------------
# Proximal operators and regularizers
# ---------------------------------------------------------------------------

def _soft_threshold(v: Vector, t: float) -> Vector:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def prox_l1(v: Vector, t: float) -> Vector:
    """Coordinatewise soft threshold: sign(v_i) * max(|v_i| - t, 0)."""
    if t <= 0:
        raise RejectedInputError(f"threshold t must be > 0, got {t}")
    return _soft_threshold(as_vector(v), t)


def _box_bounds(lo, hi, dim: Optional[int] = None):
    lo = as_vector(lo, dim)
    hi = as_vector(hi, lo.size)
    if np.any(lo > hi):
        raise RejectedInputError("box bounds must satisfy lo <= hi coordinatewise")
    return lo, hi


def _clamp(v: Vector, lo: Vector, hi: Vector) -> Vector:
    return np.minimum(np.maximum(v, lo), hi)


def prox_box(v: Vector, lo, hi) -> Vector:
    """Clamp v into [lo, hi] coordinatewise (prox of the box indicator)."""
    v = as_vector(v)
    lo, hi = _box_bounds(lo, hi, v.size)
    return _clamp(v, lo, hi)


def prox_zero(v: Vector, t: float) -> Vector:
    """Prox of g = 0 is the identity."""
    if t <= 0:
        raise RejectedInputError(f"threshold t must be > 0, got {t}")
    return as_vector(v)


def l1_regularizer(lam: float) -> ProxOracle:
    """g(x) = lam * ||x||_1 with its soft-threshold prox; lam meets its rule."""
    check_setting("lam", lam, RejectedInputError)
    return ProxOracle(
        value=lambda x: lam * float(np.add.reduce(np.abs(x))),
        prox=lambda v, t: _soft_threshold(v, t * lam),
    )


def box_regularizer(lo, hi) -> ProxOracle:
    """Indicator of the box [lo, hi]: 0 inside, +inf outside; prox is the clamp."""
    lo, hi = _box_bounds(lo, hi)

    def value(x: Vector) -> float:
        return 0.0 if ((x >= lo) & (x <= hi)).all() else math.inf

    def prox(v: Vector, t: float) -> Vector:
        # The clamp would map an infinite gradient step back into the box,
        # where no later check could see it.
        if not np.isfinite(v).all():
            raise RejectedInputError("box prox got a non-finite point: the "
                                     "gradient step overflowed or an oracle "
                                     "returned inf or nan")
        return _clamp(v, lo, hi)

    return ProxOracle(value=value, prox=prox)


def zero_regularizer() -> ProxOracle:
    """g = 0; reduces the proximal step to a plain gradient step."""
    return ProxOracle(value=lambda x: 0.0, prox=lambda v, t: v)


# ---------------------------------------------------------------------------
# Problem generators
# ---------------------------------------------------------------------------

def _content_hash(kind: str, *arrays) -> str:
    """Hash of the defining data in a canonical byte order (little-endian f8)."""
    h = hashlib.sha256()
    h.update(kind.encode("ascii"))
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
        h.update(np.array(a.shape, dtype="<i8").tobytes())
        h.update(a.astype("<f8").tobytes())
    return h.hexdigest()


def _quadratic_smooth(Q: np.ndarray, b: Vector) -> SmoothOracle:
    """Smooth oracle for f(x) = 1/2 x'Qx - b'x with L, mu from the spectrum of Q."""
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise RejectedInputError(f"Q must be square, got shape {Q.shape}")
    b = as_vector(b, Q.shape[0])
    scale = 1.0 + float(np.max(np.abs(Q))) if Q.size else 1.0
    if float(np.max(np.abs(Q - Q.T))) > _SYM_TOL * scale:
        raise RejectedInputError("Q is not symmetric within tolerance")
    eigs = np.linalg.eigvalsh(Q)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min < -_EIG_TOL * (1.0 + abs(lam_max)):
        raise RejectedInputError(f"Q is indefinite (lambda_min = {lam_min})")
    mu = lam_min if lam_min > _EIG_TOL * (1.0 + abs(lam_max)) else 0.0
    return SmoothOracle(
        value=lambda x: 0.5 * float(x.dot(Q.dot(x))) - float(b.dot(x)),
        gradient=lambda x: Q.dot(x) - b,
        lipschitz=max(lam_max, 0.0),
        strong_convexity=mu,
    )


def quadratic_problem(Q, b) -> CompositeProblem:
    """f(x) = 1/2 x'Qx - b'x with g = 0.

    Q must be symmetric positive semidefinite.  When Q is positive definite the
    minimizer Q^{-1} b and its objective value are attached to the problem.
    """
    Q = np.asarray(Q, dtype=np.float64)
    smooth = _quadratic_smooth(Q, b)
    b = as_vector(b, Q.shape[0])
    x_star = f_star = None
    if smooth.strong_convexity > 0.0:
        x_star = np.linalg.solve(Q, b)
        f_star = smooth.value(x_star)
    return CompositeProblem(
        smooth=smooth,
        nonsmooth=zero_regularizer(),
        dim=Q.shape[0],
        known_minimizer=x_star,
        known_optimum=f_star,
        content_hash=_content_hash("quadratic", Q, b),
    )


def box_quadratic_problem(Q, b, lo, hi) -> CompositeProblem:
    """Strongly convex quadratic f with g the indicator of the box [lo, hi]."""
    Q = np.asarray(Q, dtype=np.float64)
    smooth = _quadratic_smooth(Q, b)
    b = as_vector(b, Q.shape[0])
    lo = as_vector(lo, Q.shape[0])
    hi = as_vector(hi, Q.shape[0])
    return CompositeProblem(
        smooth=smooth,
        nonsmooth=box_regularizer(lo, hi),
        dim=Q.shape[0],
        content_hash=_content_hash("box_quadratic", Q, b, lo, hi),
    )


def lasso_problem(A, b, lam: float) -> CompositeProblem:
    """f(x) = 1/2 ||Ax - b||^2 with g(x) = lam * ||x||_1.

    L = lambda_max of the smaller Gram matrix (A'A, or AA' when A is fat) and
    mu = lambda_min(A'A), both by eigvalsh; mu is 0 whenever A has a
    nontrivial null space.  Reference fields are left unset (the harness
    computes them by a long run).
    """
    nonsmooth = l1_regularizer(lam)  # checks lam
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise RejectedInputError(f"A must be a matrix, got shape {A.shape}")
    m, n = A.shape
    b = as_vector(b, m)
    eigs = np.linalg.eigvalsh(A @ A.T if m < n else A.T @ A)
    lipschitz, lam_min = float(eigs[-1]), float(eigs[0])
    mu = lam_min if m >= n and lam_min > _EIG_TOL * (1.0 + lipschitz) else 0.0
    AT = A.T
    smooth = SmoothOracle(
        value=lambda x: 0.5 * float(np.add.reduce((A.dot(x) - b) ** 2)),
        gradient=lambda x: AT.dot(A.dot(x) - b),
        lipschitz=lipschitz,
        strong_convexity=mu,
    )
    return CompositeProblem(
        smooth=smooth,
        nonsmooth=nonsmooth,
        dim=n,
        content_hash=_content_hash("lasso", A, b, np.array([lam])),
    )
