"""Oracle and generator tests for the problems module."""

import math

import numpy as np
import pytest

from proxcert import (
    RejectedInputError,
    SmoothOracle,
    box_regularizer,
    l1_regularizer,
    lasso_problem,
    prox_box,
    prox_l1,
    prox_zero,
    quadratic_problem,
    zero_regularizer,
)
from proxcert.problems import as_vector


def finite_difference_gradient_check(oracle, x, h):
    """Max relative mismatch between central differences and oracle.gradient(x),
    coordinate i measured against 1 + |gradient(x)_i| so that a zero gradient
    stays well defined."""
    g = oracle.gradient(x)
    worst = 0.0
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        diff = (oracle.value(x + step) - oracle.value(x - step)) / (2.0 * h)
        worst = max(worst, abs(diff - float(g[i])) / (1.0 + abs(float(g[i]))))
    return worst


def brute_force_prox_l1_1d(v, t, span=6.0, points=2_000_001):
    """Independent oracle: grid-minimize 1/2 (u - v)^2 + t |u| over one coordinate."""
    grid = np.linspace(v - span, v + span, points)
    objective = 0.5 * (grid - v) ** 2 + t * np.abs(grid)
    return grid[int(np.argmin(objective))]


class TestQuadraticProblem:
    def test_identity_case(self):
        p = quadratic_problem(np.eye(2), np.zeros(2))
        assert p.smooth.lipschitz == pytest.approx(1.0)
        assert p.smooth.strong_convexity == pytest.approx(1.0)
        assert np.allclose(p.known_minimizer, 0.0)
        assert p.known_optimum == pytest.approx(0.0)

    def test_diagonal_case_solved_by_hand(self):
        # Qx = b gives x* = (1, 1); F* = 1/2 (1 + 100) - (1 + 100) = -50.5.
        p = quadratic_problem(np.diag([1.0, 100.0]), [1.0, 100.0])

        assert np.allclose(p.known_minimizer, [1.0, 1.0], atol=1e-12)
        assert p.known_optimum == pytest.approx(-50.5, abs=1e-12)
        assert p.smooth.lipschitz == pytest.approx(100.0)
        assert p.smooth.strong_convexity == pytest.approx(1.0)

    def test_semidefinite_degenerate_case(self):
        p = quadratic_problem(np.diag([1.0, 0.0]), np.zeros(2))
        assert p.smooth.strong_convexity == 0.0
        assert p.known_minimizer is None
        # A caller may still attach any valid minimizer.
        attached = p.with_reference(np.zeros(2), 0.0)
        assert np.allclose(attached.known_minimizer, 0.0)

    def test_rejects_non_symmetric(self):
        with pytest.raises(RejectedInputError):
            quadratic_problem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_rejects_non_square(self):
        with pytest.raises(RejectedInputError, match=r"Q must be square, got shape \(2, 3\)"):
            quadratic_problem(np.ones((2, 3)), np.zeros(2))

    def test_rejects_indefinite(self):
        with pytest.raises(RejectedInputError):
            quadratic_problem(np.diag([1.0, -1.0]), np.zeros(2))

    def test_rejects_bad_known_minimizer(self):
        p = quadratic_problem(np.eye(2), np.array([1.0, 1.0]))
        with pytest.raises(RejectedInputError):
            p.with_reference(np.array([5.0, 5.0]), 0.0)

    def test_rejects_known_optimum_other_than_f_of_the_minimizer(self):
        p = quadratic_problem(np.diag([1.0, 0.0]), np.zeros(2))
        with pytest.raises(RejectedInputError, match="known_optimum is inconsistent"):
            p.with_reference(np.zeros(2), 1e-6)


class TestLassoProblem:
    def test_zero_data(self):
        p = lasso_problem(np.eye(1), np.zeros(1), 1.0)
        assert p.value(np.zeros(1)) == pytest.approx(0.0)
        # 0 is optimal by subgradient optimality: |A'b| = 0 <= lam.
        z = p.nonsmooth.prox(np.zeros(1) - 0.5 * p.smooth.gradient(np.zeros(1)), 0.5)
        assert np.allclose(z, 0.0)

    def test_identity_soft_threshold_optimum(self):
        p = lasso_problem(np.eye(2), np.array([3.0, 0.5]), 1.0)
        x_star = np.array([2.0, 0.0])  # per-coordinate: max(|b_i| - lam, 0) sign(b_i)
        assert p.value(x_star) == pytest.approx(2.625)
        g = p.smooth.gradient(x_star)
        # Subgradient optimality: g_i = -lam sign(x_i) on the support, |g_i| <= lam off it.
        assert g[0] == pytest.approx(-1.0)
        assert abs(g[1]) <= 1.0

    def test_rank_deficient_reports_mu_zero(self):
        p = lasso_problem(np.array([[1.0, 1.0]]), np.array([1.0]), 0.1)
        assert p.smooth.strong_convexity == 0.0
        assert p.smooth.lipschitz == pytest.approx(2.0, rel=1e-9)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(RejectedInputError):
            lasso_problem(np.eye(2), np.zeros(2), 0.0)

    def test_rejects_a_vector_as_a(self):
        with pytest.raises(RejectedInputError, match=r"A must be a matrix, got shape \(2,\)"):
            lasso_problem(np.ones(2), np.zeros(2), 0.5)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), "0.5", True])
    def test_rejects_lam_outside_its_rule(self, lam):
        # nan and inf passed `lam > 0`; a run then failed at k = 0
        with pytest.raises(RejectedInputError, match="lam must be a finite number > 0"):
            lasso_problem(np.eye(2), np.zeros(2), lam)

    # A power iteration's Rayleigh quotient stays below L, so a step of 1/L
    # from it breaks s <= 1/L; L must be the eigenvalue itself.
    @pytest.mark.parametrize("rows, cols", [(12, 7), (30, 30), (40, 80), (200, 400)])
    def test_lipschitz_matches_eigsolve(self, rows, cols):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((rows, cols))
        p = lasso_problem(a, rng.standard_normal(rows), 0.3)
        lam_max = float(np.linalg.eigvalsh(a.T @ a)[-1])
        assert p.smooth.lipschitz == pytest.approx(lam_max, rel=1e-12)


class TestProxOperators:
    def test_prox_l1_against_grid_oracle(self):
        v = np.array([3.0, -0.5, 0.0])
        got = prox_l1(v, 1.0)
        expected = np.array([brute_force_prox_l1_1d(c, 1.0) for c in v])
        assert np.allclose(got, expected, atol=1e-5)
        assert np.allclose(got, [2.0, 0.0, 0.0], atol=1e-12)

    def test_prox_l1_vanishing_threshold(self):
        v = np.array([0.3, -1.7, 2.2])
        assert np.allclose(prox_l1(v, 1e-300), v, atol=1e-12)

    def test_prox_l1_threshold_equals_magnitude(self):
        assert prox_l1(np.array([-2.0]), 2.0)[0] == 0.0

    def test_prox_box_clamps(self):
        assert prox_box(np.array([5.0]), np.array([0.0]), np.array([1.0]))[0] == 1.0
        inside = np.array([0.25, 0.75])
        assert np.array_equal(prox_box(inside, np.zeros(2), np.ones(2)), inside)
        assert np.allclose(
            prox_box(np.array([-3.0, 0.5]), np.zeros(2), np.ones(2)), [0.0, 0.5]
        )

    def test_prox_box_rejects_crossed_bounds(self):
        with pytest.raises(RejectedInputError):
            prox_box(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_prox_zero_identity(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(prox_zero(v, 0.7), v)
        assert np.array_equal(prox_zero(np.zeros(3), 1.0), np.zeros(3))


def prox_box_of_half_width(v, t):
    """prox_box on [-t, t]^d; a negative t gives crossed bounds."""
    return prox_box(v, -t * np.ones_like(v), t * np.ones_like(v))


# The public proxes validate every call; the oracles a problem holds do not.
PUBLIC_PROX_CASES = [
    (prox, v, t)
    for prox in (prox_l1, prox_zero, prox_box_of_half_width)
    for v, t in (([1.0, math.nan], 1.0), ([math.inf, 0.0], 1.0),
                 ([1.0, -2.0], -1.0))
] + [(prox, [1.0, -2.0], 0.0) for prox in (prox_l1, prox_zero)]


@pytest.mark.parametrize("prox, v, t", PUBLIC_PROX_CASES,
                         ids=lambda c: getattr(c, "__name__", repr(c)))
def test_public_prox_rejects_non_finite_input_and_bad_t(prox, v, t):
    with pytest.raises(RejectedInputError):
        prox(np.array(v), t)


def _registered_prox_oracles():
    return [
        ("l1", l1_regularizer(0.8)),
        ("box", box_regularizer(-0.5 * np.ones(4), 0.5 * np.ones(4))),
        ("zero", zero_regularizer()),
    ]


class TestProxProperties:
    def test_nonexpansiveness(self):
        rng = np.random.default_rng(11)
        for name, oracle in _registered_prox_oracles():
            for _ in range(200):
                u = rng.standard_normal(4)
                v = rng.standard_normal(4)
                t = rng.uniform(1e-3, 1.0)
                lhs = np.linalg.norm(oracle.prox(u, t) - oracle.prox(v, t))
                assert lhs <= np.linalg.norm(u - v) + 1e-12, name

    def test_prox_optimality_against_random_probes(self):
        rng = np.random.default_rng(12)
        for name, oracle in _registered_prox_oracles():
            for _ in range(20):
                v = rng.standard_normal(4)
                t = rng.uniform(1e-2, 1.0)
                u = oracle.prox(v, t)
                assert np.isfinite(oracle.value(u)), name
                best = oracle.value(u) + np.sum((u - v) ** 2) / (2 * t)
                for _ in range(100):
                    w = u + rng.standard_normal(4)
                    trial = oracle.value(w) + np.sum((w - v) ** 2) / (2 * t)
                    assert best <= trial + 1e-12, name


def _registered_smooth_oracles():
    """(oracle, dim) pairs covering strongly convex, ill-conditioned, lasso, affine."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 6))
    return [
        (quadratic_problem(np.eye(2), np.zeros(2)).smooth, 2),
        (quadratic_problem(np.diag([1.0, 100.0]), [1.0, 100.0]).smooth, 2),
        (lasso_problem(a, rng.standard_normal(10), 0.2).smooth, 6),
        (quadratic_problem(np.zeros((2, 2)), np.array([1.0, -2.0])).smooth, 2),
    ]


class TestSmoothOracleBounds:
    def test_two_sided_quadratic_bounds(self):
        rng = np.random.default_rng(6)
        for oracle, dim in _registered_smooth_oracles():
            mu, big_l = oracle.strong_convexity, oracle.lipschitz
            for _ in range(1000):
                x = rng.standard_normal(dim)
                y = x + rng.standard_normal(dim)
                fx, fy = oracle.value(x), oracle.value(y)
                linear = fx + float(oracle.gradient(x) @ (y - x))
                dist2 = float(np.sum((y - x) ** 2))
                scale = 1e-9 * (1 + abs(fy) + abs(linear))
                assert fy >= linear + 0.5 * mu * dist2 - scale
                assert fy <= linear + 0.5 * big_l * dist2 + scale

    def test_finite_difference_check_quadratic(self):
        oracle = quadratic_problem(np.eye(2), np.zeros(2)).smooth
        err = finite_difference_gradient_check(oracle, np.array([1.0, -2.0]), 1e-5)
        assert err <= 1e-6

    def test_finite_difference_check_affine(self):
        oracle = quadratic_problem(np.zeros((2, 2)), np.array([1.0, -2.0])).smooth
        err = finite_difference_gradient_check(oracle, np.array([0.4, 2.2]), 1e-5)
        assert err <= 1e-10

    def test_finite_difference_check_zero_gradient(self):
        oracle = quadratic_problem(np.eye(2), np.zeros(2)).smooth
        err = finite_difference_gradient_check(oracle, np.zeros(2), 1e-5)
        assert math.isfinite(err) and err <= 1e-6

    def test_finite_difference_sweep_over_registered_oracles(self):
        rng = np.random.default_rng(7)
        for oracle, dim in _registered_smooth_oracles():
            for _ in range(10):
                x = rng.standard_normal(dim)
                assert finite_difference_gradient_check(oracle, x, 1e-5) <= 1e-5


class TestAsVector:
    def test_a_scalar_is_a_1_vector(self):
        v = as_vector(3.0)
        assert v.shape == (1,) and v[0] == 3.0

    def test_rejects_a_matrix(self):
        with pytest.raises(RejectedInputError, match=r"expected a 1-D vector, got shape \(2, 2\)"):
            as_vector(np.eye(2))


class TestSmoothOracleValidation:
    def test_rejects_mu_above_lipschitz(self):
        with pytest.raises(RejectedInputError):
            SmoothOracle(value=lambda x: 0.0, gradient=lambda x: x,
                         lipschitz=1.0, strong_convexity=2.0)
