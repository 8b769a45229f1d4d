"""Stepper and driver tests for the solvers module."""

import ast
import dataclasses
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from proxcert import (
    CompositeProblem,
    ConfigurationError,
    DataCorruptionError,
    ReferenceUnavailableError,
    RejectedInputError,
    SolverConfig,
    constant_momentum,
    descent_lemma_sides,
    inertial_residual,
    l1_regularizer,
    lasso_problem,
    quadratic_problem,
    random_box_quadratic,
    random_lasso,
    random_quadratic,
    reference_solution,
    attach_reference,
    generate_suite,
    run,
    solvers,
)
from proxcert.errors import VARIANTS
from proxcert.problems import prox_gradient


def scalar_l1_problem():
    """f(x) = x^2/2, g = |.|; the scalar soft-threshold workhorse."""
    base = quadratic_problem(np.eye(1), np.zeros(1))
    return CompositeProblem(smooth=base.smooth, nonsmooth=l1_regularizer(1.0), dim=1)


def transcription(problem, variant, s, x0, alpha=3.0,
                  chooses=lambda k, accepted: accepted is not False):
    """README's variant table transcribed step by step, sharing no code with
    `solvers`: yield (k, F(y_k), ||G_k||, accepted, x_k, y_k, G_k, F(z_k)) for
    k = 0, 1, ...  y_{k+1} = z_k if chooses(k, accepted), else y_k; by
    default, unless mapm's test F(z_k) <= F(y_k) fails."""
    if variant == "strongly_convex_apm":
        r = math.sqrt(problem.smooth.strong_convexity / problem.smooth.lipschitz)
        beta = (1.0 - r) / (1.0 + r)
    x = y = x0
    f_y = problem.value(x0)
    for k in itertools.count():
        z, big_g = prox_gradient(problem, s, x)
        f_z = problem.value(z)
        accepted = f_z <= f_y if variant == "mapm" else None
        yield k, f_y, float(np.linalg.norm(big_g)), accepted, x, y, big_g, f_z
        y_k = y
        if chooses(k, accepted):
            y, f_y = z, f_z
        x = y
        if variant in ("apm", "mapm"):
            x = x + (k / (k + alpha)) * (y - y_k)
        elif variant == "strongly_convex_apm":
            x = x + beta * (y - y_k)
        if variant == "mapm":
            x = x + ((k + alpha - 1.0) / (k + alpha)) * (z - y)


def random_lasso_matrices(seed, rows, cols):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    b = rng.standard_normal(rows)
    return a, b


class TestGradientMapping:
    def test_reduces_to_gradient_when_g_is_zero(self):
        p = quadratic_problem(np.diag([1.0, 4.0]), np.array([0.5, -1.0]))
        x = np.array([2.0, 3.0])
        z, big_g = prox_gradient(p, 0.125, x)
        assert np.allclose(big_g, p.smooth.gradient(x), atol=1e-12)
        assert np.allclose(z, x - 0.125 * big_g, atol=1e-15)

    def test_vanishes_at_minimizer(self):
        p = quadratic_problem(np.diag([1.0, 100.0]), [1.0, 100.0])
        _, big_g = prox_gradient(p, 0.5 / 100.0, p.known_minimizer)
        assert np.linalg.norm(big_g) <= 1e-8 * (1 + np.linalg.norm(p.known_minimizer))

    def test_scalar_soft_threshold_case(self):
        # grad f(3) = 3, prox_l1(0, 1) = 0, so z = 0 and G = 3.
        p = scalar_l1_problem()
        z, big_g = prox_gradient(p, 1.0, np.array([3.0]))
        assert z[0] == 0.0
        assert big_g[0] == 3.0


class TestIstaStep:
    def test_hand_computed_step(self):
        p = quadratic_problem(np.eye(1), np.zeros(1))
        nxt = run(p, SolverConfig(variant="ista", step=1.0, max_iters=1), np.array([1.0]))[1]
        assert nxt.x[0] == 0.0 and nxt.y[0] == 0.0 and nxt.k == 1

    @pytest.mark.parametrize("p", [quadratic_problem(np.diag([2.0, 0.5]), np.array([1.0, 1.0])),
                                   random_quadratic(3, 5, 10)], ids=["diagonal", "random"])
    def test_fixed_point_at_minimizer(self, p):
        # from x*, ista stays there until G_k is exactly 0, where the run stops
        x_star = p.known_minimizer
        trace = run(p, SolverConfig(variant="ista", step=0.25, max_iters=50), x_star)
        assert trace.grad_map_norm[-1] == 0.0
        assert np.allclose(trace.x, x_star, atol=1e-10)
        assert np.allclose(trace.y, x_star, atol=1e-10)

    def test_monotone_along_lasso_trace(self):
        a, b = random_lasso_matrices(42, 50, 100)
        p = lasso_problem(a, b, 1.0)
        cfg = SolverConfig(variant="ista", step=1.0 / p.smooth.lipschitz,
                           max_iters=500)
        records = run(p, cfg, np.zeros(100))
        f_values = [r.f_y for r in records]
        assert all(b <= a for a, b in zip(f_values, f_values[1:]))

    def test_monotone_across_problem_families(self):
        # Unlike mapm (monotone exactly, by construction), ista re-evaluates F
        # each step, so monotonicity holds up to the standard rounding slack.
        from proxcert import random_box_quadratic
        problems = [random_quadratic(4, 10, 1000),
                    random_box_quadratic(4, 10),
                    lasso_problem(*random_lasso_matrices(4, 10, 20), 0.3)]
        for p in problems:
            cfg = SolverConfig(variant="ista", step=1.0 / p.smooth.lipschitz,
                               max_iters=300)
            records = run(p, cfg, np.zeros(p.dim))
            for earlier, later in zip(records, records[1:]):
                tol = 1e-8 * (1 + abs(earlier.f_y) + abs(later.f_y))
                assert later.f_y <= earlier.f_y + tol


class TestApmStep:
    def test_first_step_has_no_momentum(self):
        p = quadratic_problem(np.diag([1.0, 3.0]), np.array([1.0, 0.0]))
        nxt = run(p, SolverConfig(variant="apm", step=0.1, max_iters=1), np.array([2.0, 2.0]))[1]
        assert np.array_equal(nxt.x, nxt.y)

    def test_huge_alpha_matches_ista(self):
        p = quadratic_problem(np.diag([1.0, 3.0]), np.array([1.0, 0.0]))
        cfg = SolverConfig(variant="apm", alpha=1e12, step=0.2, max_iters=50)
        cfg_ista = SolverConfig(variant="ista", step=0.2, max_iters=50)
        ra = run(p, cfg, np.array([2.0, -1.0]))
        ri = run(p, cfg_ista, np.array([2.0, -1.0]))
        for a, i in zip(ra, ri):
            assert np.max(np.abs(a.x - i.x)) <= 1e-9
            assert np.max(np.abs(a.y - i.y)) <= 1e-9

    def test_hand_computed_step(self):
        # Q = I, b = 0, s = 1/2, x0 = y0 = 1: y1 = 1/2 and x1 = 1/2 (no momentum).
        p = quadratic_problem(np.eye(1), np.zeros(1))
        config = SolverConfig(variant="apm", alpha=3.0, step=0.5, max_iters=1)
        nxt = run(p, config, np.array([1.0]))[1]
        assert nxt.y[0] == 0.5 and nxt.x[0] == 0.5

    def test_alpha_below_three_rejected(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(variant="apm", alpha=2.5)
        with pytest.raises(ConfigurationError):
            SolverConfig(variant="mapm", alpha=2.9)

    @pytest.mark.parametrize("field, value", [("alpha", np.inf),
                                              ("grad_map_tol", np.nan)])
    def test_infinite_alpha_or_nan_tolerance_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SolverConfig(variant="mapm", **{field: value})

    def test_classical_sublinear_envelope(self):
        # F(y_k) - F* <= (alpha-1)^2 d0^2 / (2 s (k+1)^2), factor 1.01 slack.
        a, b = random_lasso_matrices(6, 12, 20)
        lasso = lasso_problem(a, b, 0.5)
        problems = [random_quadratic(3, 20, 100),
                    attach_reference(lasso, reference_solution(lasso))]
        for p in problems:
            s = 0.5 / p.smooth.lipschitz
            cfg = SolverConfig(variant="apm", alpha=3.0, step=s, max_iters=1500)
            records = run(p, cfg, np.zeros(p.dim))
            d0 = float(np.linalg.norm(p.known_minimizer))
            for rec in records:
                if rec.k >= 1:
                    bound = (3.0 - 1.0) ** 2 * d0 ** 2 / (2 * s * (rec.k + 1) ** 2)
                    assert rec.f_y - p.known_optimum <= 1.01 * bound


class TestMapmStep:
    def test_k0_substitution(self):
        # x_1 = y_1 + ((alpha-1)/alpha)(z_0 - y_1).
        p = scalar_l1_problem()
        x0 = np.array([3.0])
        cfg = SolverConfig(variant="mapm", alpha=3.0, step=1.0, max_iters=1)
        z, _ = prox_gradient(p, 1.0, x0)
        nxt = run(p, cfg, x0)[1]
        expected = nxt.y + (2.0 / 3.0) * (z - nxt.y)
        assert np.allclose(nxt.x, expected, atol=1e-15)

    @pytest.mark.parametrize("problem", [random_quadratic(1, 4, 100), random_lasso(3, 10, 20),
                                         random_box_quadratic(2, 4)], ids=lambda p: p.name)
    def test_rejected_rows(self, problem):
        # F(z_k) > F(y_k) forces y_{k+1} = y_k and
        # x_{k+1} = y_k + ((k+a-1)/(k+a))(z_k - y_k): the beta term is zero
        s = 0.5 / problem.smooth.lipschitz
        trace = run(problem, SolverConfig(variant="mapm", alpha=3.0, max_iters=200),
                    np.zeros(problem.dim))
        rejected = [row for row in trace[:-1] if row.accepted is False]
        assert len(rejected) >= 40
        for row in rejected:
            nxt, k = trace[row.k + 1], row.k
            z, _ = prox_gradient(problem, s, row.x)
            assert same_bits(nxt.y, row.y) and nxt.f_y == row.f_y
            assert np.array_equal(nxt.x, row.y + ((k + 2.0) / (k + 3.0)) * (z - row.y))

    def test_monotone_by_construction_everywhere(self):
        a, b = random_lasso_matrices(9, 30, 60)
        p = lasso_problem(a, b, 0.5)
        cfg = SolverConfig(variant="mapm", alpha=3.0, max_iters=400)
        records = run(p, cfg, np.zeros(60))
        f_values = [r.f_y for r in records]
        assert all(later <= earlier for earlier, later in zip(f_values, f_values[1:]))

    def test_collapse_onto_apm_while_accepting(self):
        # Conditional form: on the all-accepted prefix the traces are identical.
        p = random_quadratic(5, 2, 1)
        x0 = np.array([2.0, -1.0])
        rm = run(p, SolverConfig(variant="mapm", alpha=3.0, max_iters=500), x0)
        ra = run(p, SolverConfig(variant="apm", alpha=3.0, max_iters=500), x0)
        first_rejection = next((r.k for r in rm if not r.accepted), len(rm))
        assert first_rejection >= 1
        for m, a in zip(rm[: first_rejection + 1], ra[: first_rejection + 1]):
            rel = 1e-12 * (1.0 + np.max(np.abs(m.x)))
            assert np.max(np.abs(m.x - a.x)) <= rel
            assert np.max(np.abs(m.y - a.y)) <= rel


class TestStronglyConvexStep:
    def test_momentum_coefficient_values(self):
        assert constant_momentum(1.0, 1.0) == 0.0
        assert constant_momentum(0.25, 1.0) == pytest.approx(1.0 / 3.0)

    def test_mu_equal_l_reduces_to_ista(self):
        p = quadratic_problem(np.eye(2), np.array([1.0, -1.0]))
        x0 = np.array([3.0, 3.0])
        sc = run(p, SolverConfig(variant="strongly_convex_apm", step=0.4, max_iters=20), x0)
        it = run(p, SolverConfig(variant="ista", step=0.4, max_iters=20), x0)
        assert len(sc) == len(it) == 21
        assert np.array_equal(sc.x, it.x) and np.array_equal(sc.y, it.y)

    def test_rejects_mu_zero(self):
        p = lasso_problem(np.array([[1.0, 1.0]]), np.array([1.0]), 0.1)
        with pytest.raises(ConfigurationError):
            run(p, SolverConfig(variant="strongly_convex_apm", max_iters=5),
                np.zeros(2))

    def test_linear_decay_at_known_mu_rate(self):
        # Gap decays at least as fast as C (1 - sqrt(mu/L))^k on a quadratic.
        p = quadratic_problem(np.diag([1.0, 100.0]), np.zeros(2))
        s = 1.0 / p.smooth.lipschitz
        cfg = SolverConfig(variant="strongly_convex_apm", step=s, max_iters=2000)
        records = run(p, cfg, np.array([1.0, 1.0]))
        rate = 1.0 - np.sqrt(p.smooth.strong_convexity / p.smooth.lipschitz)
        gaps = records.f_y - p.known_optimum
        for k, gap in enumerate(gaps):
            if gap <= 1e-14 * (1 + abs(p.known_optimum)):
                break
            assert gap <= 10.0 * gaps[0] * rate ** k


class TestRunDriver:
    def test_zero_iterations_gives_single_record(self):
        p = quadratic_problem(np.eye(2), np.zeros(2))
        records = run(p, SolverConfig(variant="mapm", max_iters=0), np.ones(2))
        assert len(records) == 1
        assert records[0].f_y == pytest.approx(p.value(np.ones(2)))

    def test_stationary_start_stops_immediately(self):
        p = quadratic_problem(np.diag([1.0, 100.0]), [1.0, 100.0])
        cfg = SolverConfig(variant="mapm", max_iters=100, grad_map_tol=1e-8)
        records = run(p, cfg, p.known_minimizer)
        assert len(records) == 1 and records[0].k == 0

    def test_mapm_lasso_gap_nonincreasing(self):
        a, b = random_lasso_matrices(42, 50, 100)
        p = lasso_problem(a, b, 1.0)
        p = attach_reference(p, reference_solution(p))
        cfg = SolverConfig(variant="mapm", alpha=3.0, max_iters=500)
        records = run(p, cfg, np.zeros(100))
        gaps = (records.f_y - p.known_optimum).tolist()
        assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] <= gaps[0]

    def test_rejects_step_above_inverse_l(self):
        p = quadratic_problem(np.eye(2), np.zeros(2))
        with pytest.raises(ConfigurationError):
            run(p, SolverConfig(variant="mapm", step=2.0, max_iters=5), np.ones(2))

    @pytest.mark.parametrize("error", [ConfigurationError, RejectedInputError])
    def test_no_default_step_when_l_is_0(self, error):
        with pytest.raises(error, match="cannot default the step size when L = 0"):
            solvers.bind_step(0.0, None, error)

    @pytest.mark.parametrize("x0", [[np.nan, 0.0], [0.0, np.inf], [0.0, 0.0, 0.0]])
    def test_rejects_a_bad_x0(self, x0):
        # prox_gradient checks nothing; `iterate` checks x_0 once
        p = quadratic_problem(np.eye(2), np.zeros(2))
        with pytest.raises(RejectedInputError):
            run(p, SolverConfig(variant="ista", step=0.5, max_iters=5), np.array(x0))

    def test_records_accepted_flag_only_for_mapm(self):
        p = quadratic_problem(np.eye(2), np.zeros(2))
        rm = run(p, SolverConfig(variant="mapm", max_iters=3), np.ones(2))
        ra = run(p, SolverConfig(variant="apm", max_iters=3), np.ones(2))
        assert all(r.accepted is not None for r in rm)
        assert all(r.accepted is None for r in ra)

    def test_full_run_has_max_iters_plus_one_records(self):
        p = random_quadratic(1, 4, 100)
        records = run(p, SolverConfig(variant="mapm", max_iters=250), np.zeros(4))
        assert len(records) == 251
        assert [r.k for r in records] == list(range(251))

    def test_step_keeps_signed_zeros(self):
        # Terms with an always-zero coefficient are left out of the x-update;
        # adding 0.0 would turn the soft-threshold's -0.0 coordinates into 0.0.
        p = random_lasso(3, 20, 40)
        ista = run(p, SolverConfig(variant="ista", max_iters=100), np.zeros(40))
        assert any(np.signbit(r.y[r.y == 0.0]).any() for r in ista)
        assert all(r.x.tobytes() == r.y.tobytes() for r in ista)
        apm = run(p, SolverConfig(variant="apm", max_iters=1), np.zeros(40))
        assert apm[1].x.tobytes() == apm[1].y.tobytes()


class TestTraceIdentities:
    def test_inertial_identity_along_mapm_trace(self):
        p = random_quadratic(2, 10, 50)
        s = 0.5 / p.smooth.lipschitz
        records = run(p, SolverConfig(variant="mapm", alpha=3.0, step=s,
                                      max_iters=300), np.zeros(10))
        for prev, nxt in zip(records, records[1:]):
            resid = inertial_residual(3.0, s, prev.k, prev.x, prev.y,
                                      nxt.x, nxt.y, prev.grad_map)
            assert resid <= 1e-10 * (1.0 + np.linalg.norm(prev.x))

    def test_descent_inequality_on_random_pairs(self):
        problems = [
            quadratic_problem(np.diag([1.0, 100.0]), [1.0, 100.0]),
            lasso_problem(*random_lasso_matrices(4, 8, 12), 0.4),
        ]
        rng = np.random.default_rng(13)
        for p in problems:
            mu, big_l = p.smooth.strong_convexity, p.smooth.lipschitz
            s = 0.5 / big_l
            for _ in range(100):
                x = rng.standard_normal(p.dim)
                y = rng.standard_normal(p.dim)
                z, big_g = prox_gradient(p, s, x)
                lhs, rhs = descent_lemma_sides(s, big_l, mu, x, y, big_g,
                                               p.value(z), p.value(y))
                assert lhs <= rhs + 1e-8 * (1 + abs(lhs) + abs(rhs))


def checked_run(problem, config, x0):
    """run()'s rows rebuilt by the transcription, up to its stop rule."""
    rows = []
    for row in transcription(problem, config.variant, config.step, x0, config.alpha):
        rows.append(row)
        k, _, gnorm = row[:3]
        if gnorm <= config.grad_map_tol or k >= config.max_iters:
            return rows


def bits(v):
    return np.asarray(v, dtype=np.float64).view(np.int64)


IDENTITY_PROBLEMS = [
    random_quadratic(5, 2, 10),
    random_quadratic(6, 20, 100),
    random_lasso(7, 20, 20),
    random_lasso(8, 20, 40),
    random_box_quadratic(9, 20),
]


class TestRunBitIdentity:
    @pytest.mark.parametrize("block_rows", [None, 7])  # 7: blocks of 7 rows
    @pytest.mark.parametrize("problem", IDENTITY_PROBLEMS, ids=lambda p: p.name)
    def test_run_equals_the_checked_loop(self, monkeypatch, problem, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(solvers, "_BLOCK_BYTES", 8 * problem.dim * block_rows)
            assert solvers._block_rows(problem.dim) == block_rows
        variants = [v for v in VARIANTS if v != "strongly_convex_apm"
                    or problem.smooth.strong_convexity > 0.0]
        x0 = np.zeros(problem.dim)
        for variant in variants:
            config = SolverConfig(variant=variant, step=1.0 / problem.smooth.lipschitz,
                                  max_iters=100)
            records = run(problem, config, x0)
            expected = checked_run(problem, config, x0)
            assert len(records) == len(expected)
            for rec, (k, f_y, gnorm, accepted, x, y, big_g, f_z) in zip(records, expected):
                assert ((rec.k, rec.f_y, rec.grad_map_norm, rec.accepted, rec.f_z)
                        == (k, f_y, gnorm, accepted, f_z))
                for got, want in ((rec.x, x), (rec.y, y), (rec.grad_map, big_g)):
                    assert np.array_equal(bits(got), bits(want)), (variant, k)


class TestBlockStream:
    """`_blocks` yields blocks that overlap by one row; `run` joins them, and
    with iterates=False keeps only what a trace file stores."""

    @pytest.mark.parametrize("max_iters", [0, 6, 7, 13, 20])  # blocks of 7 rows
    def test_blocks_overlap_by_one_row(self, monkeypatch, max_iters):
        problem = random_quadratic(5, 4, 10)
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 8 * problem.dim * 7)
        config = SolverConfig(variant="mapm", max_iters=max_iters)
        steps = solvers.iterate(problem, config, np.zeros(problem.dim))
        blocks = list(solvers._blocks(steps, config.stops, 7))
        whole = run(problem, config, np.zeros(problem.dim))
        assert [list(b.k) for b in blocks] == [
            list(range(start, min(start + 8, max_iters + 1)))
            for start in range(0, max(max_iters, 1), 7)]
        for block in blocks:
            rows = whole[block.k[0]:block.k[-1] + 1]
            for name in ("x", "y", "grad_map", "f_z", "f_y", "grad_map_norm"):
                assert same_bits(getattr(block, name), getattr(rows, name)), name
            assert list(block.accepted) == list(rows.accepted)

    @pytest.mark.parametrize("variant", ["mapm", "apm"])
    def test_run_without_iterates_keeps_the_stored_columns(self, monkeypatch, variant):
        problem = random_quadratic(5, 4, 10)
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 8 * problem.dim * 7)
        config = SolverConfig(variant=variant, max_iters=30)
        whole = run(problem, config, np.linspace(-1.0, 1.0, problem.dim))
        stored = run(problem, config, np.linspace(-1.0, 1.0, problem.dim), iterates=False)
        for name in ("k", "f_y", "grad_map_norm"):
            assert same_bits(getattr(stored, name), getattr(whole, name)), name
        assert list(stored.accepted) == list(whole.accepted)
        assert same_bits(stored.x, whole.x[:1])
        assert stored.y is None and stored.grad_map is None and stored.f_z is None

    def test_run_without_iterates_holds_no_block_column(self):
        # it stacked each block's x, y and G and then kept x_0: 614 KB here
        problem = random_quadratic(1, 1000, 100)
        config = SolverConfig(variant="mapm", max_iters=200)
        x0 = np.zeros(problem.dim)
        run(problem, config, x0, iterates=False)  # what a first run allocates once
        tracemalloc.start()
        try:
            trace = run(problem, config, x0, iterates=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < solvers._BLOCK_BYTES  # one (rows, d) column of a block
        assert len(trace) == 201 and trace.x.shape == (1, problem.dim)
        x0 += 1.0  # the caller's x_0 is not the trace's
        assert not trace.x.any()


def applicable_variants(problem):
    return [v for v in VARIANTS if v != "strongly_convex_apm"
            or problem.smooth.strong_convexity > 0.0]


@pytest.fixture(scope="module")
def suite():
    return generate_suite(20260808)


def same_bits(got, want):
    """Equal values and equal signs, so that -0.0 and 0.0 differ."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestReplay:
    """`Trace.replayed` chains a trace file's x_k, y_k, G_k and F(z_k) from x_0
    and `accepted`, and checks the stored cells against them."""

    @pytest.mark.parametrize("index", range(21), ids=lambda i: f"suite-{i}")
    def test_replay_equals_run(self, suite, index):
        # one GEMV per row, as `iterate` evaluates it: a batched gradient
        # changes the last bits.  (A trace read from a file holds the same
        # x_0: tests/test_traceio.py replays one.)
        problem = suite[index]
        for variant in applicable_variants(problem):
            config = SolverConfig(variant=variant, step=0.5 / problem.smooth.lipschitz,
                                  max_iters=300)
            trace = run(problem, config, np.zeros(problem.dim))
            replayed = dataclasses.replace(trace, x=trace.x[:1], y=None, grad_map=None,
                                           f_z=None).replayed(problem, config)
            assert same_bits(replayed.x, trace.x), (problem.name, variant)
            assert same_bits(replayed.y, trace.y), (problem.name, variant)
            assert same_bits(replayed.grad_map, trace.grad_map), (problem.name, variant)
            assert same_bits(replayed.f_z, trace.f_z), (problem.name, variant)

    @staticmethod
    def mapm_trace(near_minimizer=False):
        """A d5 mapm run from 0, or from 1e-6 off the minimizer."""
        problem = random_quadratic(3, 5, 10)
        config = SolverConfig(variant="mapm", max_iters=20)
        x0 = problem.known_minimizer + 1e-6 if near_minimizer else np.zeros(5)
        return problem, config, run(problem, config, x0)

    def test_replay_yields_no_stored_cell_but_accepted(self, monkeypatch):
        # a stored f_y that replay tolerates was certified, and theta_k
        # (F(y_k) - F*) carried it into the energy; here every f_y and
        # ||G_k|| is moved inside the band, and the last row, a tie, takes
        # the other choice
        problem, config, trace = self.mapm_trace(near_minimizer=True)
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 8 * problem.dim * 7)
        accepted = trace.accepted.copy()
        accepted[-1] = not accepted[-1]
        stored = solvers.Trace(trace.k, trace.f_y + 0.5e-10 * (1.0 + np.abs(trace.f_y)),
                               trace.grad_map_norm * (1.0 + 0.5e-10) + 0.5e-10,
                               accepted, trace.x[:1])
        blocks = list(stored.replay(problem, config))
        assert len(blocks) == 3
        for block in blocks:
            rows = slice(block.k[0], block.k[-1] + 1)
            for name in ("f_y", "grad_map_norm", "x", "y", "grad_map", "f_z"):
                assert same_bits(getattr(block, name), getattr(trace, name)[rows]), name
            assert list(block.accepted) == list(accepted[rows])
        replayed = stored.replayed(problem, config)
        assert same_bits(replayed.f_y, trace.f_y)
        assert same_bits(replayed.grad_map_norm, trace.grad_map_norm)

    @pytest.mark.parametrize("edit, agrees", [
        ("double", False), (2e-10, False), (-2e-10, False), (0.5e-10, True)])
    def test_grad_map_norm_off_the_replayed_norm(self, edit, agrees):
        # a number: the stored norm moves by that many times 1 + ||G_k||
        problem, config, trace = self.mapm_trace()
        norm = float(trace.grad_map_norm[10])
        stored = 2.0 * norm if edit == "double" else norm + edit * (1.0 + norm)
        trace.grad_map_norm[10] = stored
        if agrees:  # within 1e-10 (1 + ||G_k||)
            trace.replayed(problem, config)
            return
        with pytest.raises(DataCorruptionError, match=re.escape(
                f"record k=10 has grad_map_norm {stored!r}, but its x gives ||G_k|| = ")):
            trace.replayed(problem, config)

    @pytest.mark.parametrize("k", [0, 10, 20])
    @pytest.mark.parametrize("edit, agrees", [
        ("-1e-6", False), (2e-10, False), (-2e-10, False), (0.5e-10, True)])
    def test_f_y_off_the_derived_objective(self, k, edit, agrees):
        # f_y - 1e-6 on row 10 certified with exit 0; a number: f_y moves by
        # that many times 1 + |F(y_k)|
        problem, config, trace = self.mapm_trace()
        f_y = float(trace.f_y[k])
        stored = f_y - 1e-6 if edit == "-1e-6" else f_y + edit * (1.0 + abs(f_y))
        trace.f_y[k] = stored
        if agrees:
            trace.replayed(problem, config)
            return
        with pytest.raises(DataCorruptionError, match=re.escape(
                f"record k={k} has f_y {stored!r}, but the replay gives F(y_k) = {f_y!r}")):
            trace.replayed(problem, config)

    @pytest.mark.parametrize("stored", [math.inf, -math.inf, 1e300])
    def test_infinite_f_y_only_where_the_start_is_infeasible(self, stored):
        # F(y_0) = F(x_0) is +inf for a box problem started outside its box,
        # and agrees only with itself
        problem = random_box_quadratic(2, 4)
        config = SolverConfig(variant="mapm", max_iters=20)
        trace = run(problem, config, np.full(4, 3.0))
        assert trace.f_y[0] == math.inf and trace.f_y[1] < math.inf
        trace.replayed(problem, config)
        trace.f_y[0] = stored
        if stored != math.inf:
            with pytest.raises(DataCorruptionError, match="record k=0 has f_y"):
                trace.replayed(problem, config)
        trace.f_y[0], trace.f_y[1] = math.inf, stored
        with pytest.raises(DataCorruptionError, match="record k=1 has f_y"):
            trace.replayed(problem, config)

    def test_every_flipped_accepted(self):
        problem, config, trace = self.mapm_trace()
        for i in range(len(trace)):
            flipped = dataclasses.replace(trace, accepted=trace.accepted.copy())
            flipped.accepted[i] = not flipped.accepted[i]
            with pytest.raises(DataCorruptionError, match=re.escape(
                    f"record k={i} has accepted {flipped.accepted[i]!r}, but its x gives "
                    f"F(z_k) <= F(y_k) = {trace.accepted[i]!r}")):
                flipped.replayed(problem, config)
        # apm steps on without the test, so its records' `accepted` is empty
        dataclasses.replace(trace, accepted=np.full(len(trace), None)).replayed(
            problem, dataclasses.replace(config, variant="apm"))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("k", [0, 10])
    def test_accepted_of_the_wrong_variant(self, variant, k):
        # an apm row's `accepted` set to true certified with exit 0; an empty
        # mapm cell must not read as a reject
        problem, config, trace = self.mapm_trace()
        config = dataclasses.replace(config, variant=variant)
        if variant == "mapm":
            value, rule = None, "mapm records true or false in every row"
        else:
            trace = run(problem, config, np.zeros(5))
            value = True
            rule = f"{variant} has no acceptance test, so its accepted is empty"
        trace.accepted[k] = value
        with pytest.raises(DataCorruptionError, match=re.escape(
                f"record k={k} has accepted {value!r}; {rule}")):
            trace.replayed(problem, config)

    @staticmethod
    def run_choosing_otherwise(problem, config, x0, flip):
        """The columns a trace file stores of a mapm run that takes the other
        choice of y_{k+1} at k = flip, as another BLAS build may where F(z_k)
        ties F(y_k)."""
        def chooses(k, accepted):
            return accepted != (k == flip)

        rows = transcription(problem, "mapm", 0.5 / problem.smooth.lipschitz, x0,
                             config.alpha, chooses)
        k, f_y, gnorm, accepted, x, *_ = zip(*itertools.islice(rows, config.max_iters + 1))
        return solvers.Trace(k, f_y, gnorm, list(map(chooses, k, accepted)), x)

    @pytest.mark.parametrize("start, judged", [("zeros", True), ("near x*", False)])
    def test_accepted_is_not_judged_where_f_z_ties_f_y(self, start, judged):
        # where F(z_k) and F(y_k) differ by at most 1e-10 (1 + |F(y_k)|), another
        # BLAS build may take the other decision; so they do on every row of a
        # run started 1e-6 from the minimizer
        problem, config, trace = self.mapm_trace(near_minimizer=start == "near x*")
        f_y, f_z = trace.f_y[10], trace.f_z[10]
        assert (abs(f_z - f_y) <= 1e-10 * (1.0 + abs(f_y))) != judged
        other = self.run_choosing_otherwise(problem, config, trace.x[0], flip=10)
        assert other.accepted[10] != trace.accepted[10]
        if judged:
            with pytest.raises(DataCorruptionError, match="record k=10 has accepted"):
                other.replayed(problem, config)
            return
        # the replay follows the stored choice, whose F(y_11) ties the run's
        replayed = other.replayed(problem, config)
        assert np.array_equal(replayed.x, other.x)
        z = prox_gradient(problem, 0.5 / problem.smooth.lipschitz, other.x[10])[0]
        assert np.array_equal(replayed.y[11], z if other.accepted[10] else replayed.y[10])
        # a flipped choice alone sends the chain off the run's later rows
        trace.accepted[10] = other.accepted[10]
        with pytest.raises(DataCorruptionError, match="record k=11 has grad_map_norm "):
            trace.replayed(problem, config)

    def test_empty_trace_replays_to_empty_columns(self):
        problem, config, trace = self.mapm_trace()
        assert list(trace[:0].replay(problem, config)) == []
        replayed = trace[:0].replayed(problem, config)
        assert len(replayed) == 0 and replayed.f_z.shape == (0,)
        for column in (replayed.x, replayed.y, replayed.grad_map):
            assert column.shape == (0, problem.dim)

    @pytest.mark.parametrize("k", [1, 10, 20])
    def test_x_past_row_0_is_not_read(self, k):
        # every x_k is chained from x_0; a trace file stores no other
        problem, config, trace = self.mapm_trace()
        want = trace.x.copy()
        trace.x[k] += 1.0
        assert same_bits(trace.replayed(problem, config).x, want)

    @pytest.mark.parametrize("variant", ["mapm", "apm"])
    def test_alpha_other_than_the_runs(self, variant):
        # a trace certified with another alpha exited 1 (inertial_identity at
        # k=1): the x_2 that alpha gives is not the run's
        problem = random_quadratic(3, 5, 10)
        config = SolverConfig(variant=variant, max_iters=20)
        trace = run(problem, config, np.zeros(5))
        with pytest.raises(DataCorruptionError, match="record k=2 has grad_map_norm "):
            trace.replayed(problem, dataclasses.replace(config, alpha=3.5))


def checked_reference(problem, budget):
    """reference_solution's long run rebuilt by the transcription, in chunks
    of 25 steps.  Returns (x*, F*, residual), or the text of the
    ReferenceUnavailableError it should raise."""
    s = 0.5 / problem.smooth.lipschitz

    def advance(rows, steps):  # (y_k, F(y_k)) of the last of `steps` more rows
        *_, (_, f_y, _, _, _, y, _, _) = itertools.islice(rows, steps)
        return y, f_y

    def y_residual(y):
        _, big_g = prox_gradient(problem, s, y)
        return float(np.linalg.norm(big_g))

    def met(y, residual, tol=0.5 * 1e-12):
        return residual <= tol * (1.0 + float(np.linalg.norm(y)))

    rows = transcription(problem, "mapm", s, np.zeros(problem.dim))
    y, f_y = advance(rows, 1)
    best, stalled, spent = np.inf, 0, 0
    while spent < budget and stalled < 80:
        steps = min(25, budget - spent)
        (y, f_y), spent = advance(rows, steps), spent + steps
        residual = y_residual(y)
        if met(y, residual):
            break
        if residual < 0.98 * best:
            best, stalled = residual, 0
        else:
            stalled += 1
    if not met(y, residual):
        rows = transcription(problem, "ista", s, y)
        y, f_y = advance(rows, 1)
        while spent < budget:
            steps = min(25, budget - spent)
            (y, f_y), spent = advance(rows, steps), spent + steps
            residual = y_residual(y)
            if met(y, residual):
                break
    if not met(y, residual, tol=1e-12):
        return (f"budget {budget} exhausted with residual {residual:.3e}; "
                "certificates needing F* must be skipped")
    return y, f_y, residual


def without_reference(problem):
    return CompositeProblem(smooth=problem.smooth, nonsmooth=problem.nonsmooth,
                            dim=problem.dim, name=f"{problem.name}-no-reference")


REFERENCE_PROBLEMS = [
    random_lasso(7, 20, 20),
    random_lasso(21, 15, 30),
    random_box_quadratic(1, 5),
    dataclasses.replace(lasso_problem(np.eye(2), [3.0, 0.5], 1.0), name="lasso-eye2"),
    # mapm stalls at k = 3725, so the ista polish runs, and at budget 6010
    # it exhausts the budget between two multiples of 25.
    without_reference(random_quadratic(0, 2, 1000)),
]


class TestReferenceBitIdentity:
    @pytest.mark.parametrize("budget", [100_000, 1000, 1010, 6010])
    @pytest.mark.parametrize("problem", REFERENCE_PROBLEMS, ids=lambda p: p.name)
    def test_reference_equals_the_checked_phases(self, problem, budget):
        expected = checked_reference(problem, budget)
        if isinstance(expected, str):
            with pytest.raises(ReferenceUnavailableError) as info:
                reference_solution(problem, budget)
            assert str(info.value) == expected
            return
        ref = reference_solution(problem, budget)
        x_star, f_star, residual = expected
        assert np.array_equal(bits(ref.x_star), bits(x_star))
        assert (ref.f_star, ref.residual, ref.method) == (f_star, residual, "long_run")


def gradient_turning(problem, after_calls, factor=np.nan):
    """The problem with a gradient multiplied by `factor` (NaN or inf) from call
    `after_calls` on, and without a known reference, so that
    reference_solution iterates."""
    calls = [0]
    gradient = problem.smooth.gradient

    def poisoned(x):
        calls[0] += 1
        g = gradient(x)
        return g * factor if calls[0] > after_calls else g

    smooth = dataclasses.replace(problem.smooth, gradient=poisoned)
    return CompositeProblem(smooth=smooth, nonsmooth=problem.nonsmooth, dim=problem.dim)


class TestNonFiniteOracleOutput:
    @pytest.mark.parametrize("problem", [random_quadratic(1, 5, 10),
                                         random_lasso(2, 10, 20)],
                             ids=lambda p: p.name)
    def test_run_raises_naming_k(self, problem):
        bad = gradient_turning(problem, after_calls=30)
        with pytest.raises(RejectedInputError, match="iteration k=30"):
            run(bad, SolverConfig(variant="mapm", max_iters=100), np.zeros(bad.dim))

    @pytest.mark.parametrize("problem", [random_quadratic(1, 5, 10),
                                         random_lasso(2, 10, 20)],
                             ids=lambda p: p.name)
    # Calls 1-25 are the steps k = 0..24.  Call 26 computes z_25 and F(z_25),
    # call 27 the first residual check at y_25; call 31 computes z_29.
    @pytest.mark.parametrize("after_calls, message", [
        (25, "iteration k=25: F(z_k) = nan"),
        (26, "iteration k=25: ||G(y_k)|| = nan"),
        (30, "iteration k=29: F(z_k) = nan"),
    ], ids=["25", "26", "30"])
    def test_reference_raises(self, problem, after_calls, message):
        bad = gradient_turning(problem, after_calls)
        with pytest.raises(RejectedInputError, match=re.escape(message)):
            reference_solution(bad)

    def test_box_prox_rejects_an_infinite_gradient_step(self):
        # The clamp of the box prox would turn the infinite step into a
        # finite iterate, and the run into a finite, silent trace.
        bad = gradient_turning(random_box_quadratic(1, 5), after_calls=10,
                               factor=np.inf)
        with pytest.raises(RejectedInputError, match="box prox got a non-finite"):
            run(bad, SolverConfig(variant="mapm", max_iters=50), np.zeros(bad.dim))


    @pytest.mark.parametrize("problem, factor, after_calls, message", [
        (random_quadratic(1, 5, 10), np.nan, 30, "iteration k=30: F(z_k) = nan"),
        (random_box_quadratic(1, 5), np.inf, 10, "box prox got a non-finite"),
    ], ids=["nan F(z_k)", "box prox refusal"])
    def test_replay_names_the_record_where_it_stops(self, problem, factor,
                                                    after_calls, message):
        config = SolverConfig(variant="mapm", max_iters=50)
        trace = run(problem, config, np.zeros(problem.dim))
        bad = gradient_turning(problem, after_calls, factor)
        with pytest.raises(DataCorruptionError, match=re.escape(
                f"the replay from the trace's x_0 fails at record k={after_calls}: "
                f"{message}")):
            trace.replayed(bad, config)


def _named(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _where_in_package(matches):
    """(module, dotted name of the enclosing function) of each AST node of
    the package's modules for which matches(node) holds, in file order."""
    found = []

    def visit(node, module, scope):
        if matches(node):
            found.append((module, scope))
        if isinstance(node, ast.FunctionDef):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(solvers.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_the_update_is_written_in_iterate_alone():
    # the update once lived in `step`, which `iterate` alone called with its
    # state; mapm's gamma_k and the beta_k that `momentum` resolves are now
    # applied where the step's decisions are made
    def gamma(node):
        return (isinstance(node, ast.BinOp)
                and ast.unparse(node) == "(k + a - 1.0) / (k + a)")

    def calls_momentum(node):
        return isinstance(node, ast.Call) and _named(node.func, "momentum")

    assert _where_in_package(gamma) == [("solvers", "iterate")]
    assert _where_in_package(calls_momentum) == [("solvers", "iterate")]


def test_mapm_test_is_written_in_iterate_alone():
    # the run, its block stream and the replay's check once each wrote
    # F(z_k) <= F(y_k); iterate now makes the decision and yields it as the
    # row's `accepted`, so a change of the test is one line
    def compares_f_z_with_f_y(node):
        return (isinstance(node, ast.Compare) and _named(node.left, "f_z")
                and any(isinstance(op, ast.LtE) for op in node.ops)
                and any(_named(c, "f_y") for c in node.comparators))

    assert _where_in_package(compares_f_z_with_f_y) == [("solvers", "iterate")]
