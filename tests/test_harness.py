"""Reference solutions, suite generation, rate fitting, and comparisons."""

import numpy as np
import pytest

from proxcert import (
    EnergyContext,
    FitUnavailableError,
    ReferenceUnavailableError,
    RejectedInputError,
    SolverConfig,
    attach_reference,
    box_quadratic_problem,
    compare_solvers,
    fit_linear_rate,
    generate_suite,
    lasso_problem,
    quadratic_problem,
    random_box_quadratic,
    random_lasso,
    random_quadratic,
    reference_solution,
    rho_lower_bound,
    run,
)

SUITE_SEED = 20260808


class TestReferenceSolution:
    def test_closed_form_for_strongly_convex_quadratic(self):
        c = np.array([1.0, -2.0, 0.5])
        p = quadratic_problem(np.eye(3), c)  # f = ||x - c||^2/2 - ||c||^2/2
        ref = reference_solution(p)
        assert ref.method == "closed_form"
        assert np.allclose(ref.x_star, c, atol=1e-12)
        assert ref.f_star == pytest.approx(-0.5 * float(c @ c))
        assert ref.residual <= 1e-12 * (1 + np.linalg.norm(ref.x_star))

    def test_lasso_long_run_matches_soft_threshold_optimum(self):
        p = lasso_problem(np.eye(2), np.array([3.0, 0.5]), 1.0)
        ref = reference_solution(p)
        assert ref.method == "long_run"
        assert np.allclose(ref.x_star, [2.0, 0.0], atol=1e-9)
        assert ref.f_star == pytest.approx(2.625, abs=1e-10)

    def test_rank_deficient_lasso_long_run(self):
        p = random_lasso(21, 15, 30)
        ref = reference_solution(p)
        assert ref.method == "long_run"
        assert ref.residual <= 1e-12 * (1 + np.linalg.norm(ref.x_star))

    def test_budget_exhaustion_fails_loudly(self):
        # Condition number 1e6 cannot reach the residual criterion in 1000 steps.
        rng = np.random.default_rng(0)
        q_mat, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        q = (q_mat * np.geomspace(1e-6, 1.0, 10)) @ q_mat.T
        q = 0.5 * (q + q.T)
        p = box_quadratic_problem(q, q @ rng.uniform(-1, 1, 10),
                                  -0.5 * np.ones(10), 0.5 * np.ones(10))
        with pytest.raises(ReferenceUnavailableError):
            reference_solution(p, budget=1000)

    def test_rejects_tiny_budget(self):
        with pytest.raises(RejectedInputError):
            reference_solution(random_quadratic(1, 2, 10), budget=10)

    def test_hash_binding(self):
        p1 = random_quadratic(1, 4, 10)
        p2 = random_quadratic(2, 4, 10)
        ref1 = reference_solution(p1)
        with pytest.raises(RejectedInputError):
            attach_reference(p2, ref1)


class TestFitLinearRate:
    def test_exact_geometric_sequence(self):
        gaps = [3.0 * 1.25 ** (-k) for k in range(200)]
        fit = fit_linear_rate(gaps)
        assert fit.rho_hat == pytest.approx(0.25, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.window[1] - fit.window[0] >= 50

    def test_constant_gaps_give_zero_rate(self):
        fit = fit_linear_rate([2.0] * 120)
        assert fit.rho_hat == pytest.approx(0.0, abs=1e-14)

    def test_explicit_window_truncates_at_nonpositive(self):
        gaps = [1.0 * 2.0 ** (-k) for k in range(40)] + [0.0] * 10
        fit = fit_linear_rate(gaps, window=(5, 50))
        assert fit.window == (5, 40)
        assert fit.rho_hat == pytest.approx(1.0, rel=1e-9)

    def test_unavailable_without_positive_gaps(self):
        with pytest.raises(FitUnavailableError):
            fit_linear_rate([0.0, 0.0, 0.0])
        with pytest.raises(FitUnavailableError):
            fit_linear_rate([1.0, 0.5], window=(5, 9))

    def test_noise_floor_exclusion(self):
        # Gaps below 1e2 * 1e-14 * |F*| * k drop out of the default window.
        f_star = 1.0
        gaps = [10.0 ** (-k) for k in range(20)] + [1e-18] * 200
        fit = fit_linear_rate(gaps, f_star=f_star)
        assert fit.window[1] <= 20

    def test_suite_problem_rate_exceeds_bound(self):
        p = random_quadratic(6, 20, 100)
        s = 0.5 / p.smooth.lipschitz
        records = run(p, SolverConfig(variant="mapm", step=s, max_iters=2000),
                      np.zeros(p.dim))
        fit = fit_linear_rate(records.f_y - p.known_optimum, f_star=p.known_optimum)
        ctx = EnergyContext(alpha=3.0, s=s, mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        assert fit.rho_hat >= rho_lower_bound(ctx) - 1e-6


class TestGenerateSuite:
    def test_determinism(self):
        s1 = generate_suite(SUITE_SEED)
        s2 = generate_suite(SUITE_SEED)
        assert [p.content_hash for p in s1] == [p.content_hash for p in s2]
        s3 = generate_suite(SUITE_SEED + 1)
        assert [p.content_hash for p in s3] != [p.content_hash for p in s1]

    def test_size_and_composition(self):
        suite = generate_suite(SUITE_SEED)
        assert len(suite) >= 20
        names = [p.name for p in suite]
        assert len(set(names)) == len(names)
        assert sum(1 for p in suite if p.smooth.strong_convexity > 0) >= 15
        assert sum(1 for p in suite if p.smooth.strong_convexity == 0) >= 3

    def test_condition_one_has_mu_equal_l(self):
        suite = generate_suite(SUITE_SEED)
        cond1 = [p for p in suite if p.name and "-c1" == p.name[-3:]]
        assert cond1
        for p in cond1:
            assert p.smooth.strong_convexity == pytest.approx(
                p.smooth.lipschitz, rel=1e-10)

    def test_fat_lasso_reports_mu_zero(self):
        suite = generate_suite(SUITE_SEED)
        fat = [p for p in suite if p.name and p.name.startswith("lasso-fat")]
        assert len(fat) == 3
        assert all(p.smooth.strong_convexity == 0.0 for p in fat)


class TestGeneratorsApplyTheProblemRules:
    """Each generator checks its parameters by their rules, whoever calls it."""

    @pytest.mark.parametrize("generate, message", [
        # seed 2.7 built seed 2's problem under the name "...-s2.7"
        (lambda: random_quadratic(2.7, 4, 10), "seed must be an integer in [0, 2**64)"),
        (lambda: random_quadratic(1, True, 10), "dim must be a positive integer, got True"),
        (lambda: random_quadratic(1, 4, 0), "cond must be a positive integer, got 0"),
        (lambda: random_lasso(1, 3, 3, lam="0.5"), "lam must be a finite number > 0"),
        (lambda: random_lasso(1, 5, 3), "cols must be >= rows = 5, got 3"),
        (lambda: random_box_quadratic(1, 0), "dim must be a positive integer, got 0"),
        (lambda: generate_suite(-1), "seed must be an integer in [0, 2**64), got -1"),
        (lambda: generate_suite(2 ** 64), "seed must be an integer in [0, 2**64)"),
    ], ids=["quadratic-seed", "quadratic-dim", "quadratic-cond", "lasso-lam",
            "lasso-cols", "box-dim", "suite-seed", "suite-seed-2**64"])
    def test_rejects_a_parameter_outside_its_rule(self, generate, message):
        with pytest.raises(RejectedInputError) as info:
            generate()
        assert message in str(info.value)


class TestCompareSolvers:
    def test_apm_beats_ista_on_ill_conditioned_quadratic(self):
        p = random_quadratic(17, 20, 1000)
        configs = [SolverConfig(variant="ista", max_iters=1500),
                   SolverConfig(variant="apm", max_iters=1500)]
        cmp_ = compare_solvers(p, configs, np.zeros(p.dim))
        def first_crossing(label, tol=1e-6):
            for k, gap in zip(cmp_.ks, cmp_.gaps[label]):
                if gap is not None and gap <= tol:
                    return k
            return len(cmp_.ks)
        assert first_crossing("apm") < first_crossing("ista")

    def test_mapm_monotone_apm_may_oscillate(self):
        p = random_quadratic(17, 2, 1000)
        configs = [SolverConfig(variant="apm", max_iters=800),
                   SolverConfig(variant="mapm", max_iters=800)]
        cmp_ = compare_solvers(p, configs, np.zeros(p.dim))
        mapm_gaps = [g for g in cmp_.gaps["mapm"] if g is not None]
        assert all(b <= a for a, b in zip(mapm_gaps, mapm_gaps[1:]))
        apm_gaps = [g for g in cmp_.gaps["apm"] if g is not None]
        rises = any(b > a for a, b in zip(apm_gaps, apm_gaps[1:]))
        if not rises:
            pytest.skip("apm trace showed no oscillation on this instance")

    def test_known_mu_variant_fits_faster_rate(self):
        p = random_quadratic(3, 20, 100)  # mu/L = 0.01
        configs = [SolverConfig(variant="strongly_convex_apm", max_iters=2000),
                   SolverConfig(variant="mapm", max_iters=2000)]
        cmp_ = compare_solvers(p, configs, np.zeros(p.dim))
        fit_sc = cmp_.fits["strongly_convex_apm"]
        fit_m = cmp_.fits["mapm"]
        assert fit_sc is not None and fit_m is not None
        assert fit_sc.rho_hat >= fit_m.rho_hat
        assert cmp_.sqrt_mu_over_l == pytest.approx(0.1, rel=1e-6)

    def test_duplicate_variants_get_distinct_labels(self):
        p = random_quadratic(1, 4, 10)
        configs = [SolverConfig(variant="mapm", max_iters=50),
                   SolverConfig(variant="mapm", alpha=4.0, max_iters=50)]
        cmp_ = compare_solvers(p, configs, np.zeros(p.dim))
        assert len(set(cmp_.labels)) == 2

    def test_third_repeat_of_a_variant_gets_its_own_label(self):
        p = random_quadratic(1, 4, 10)
        configs = [SolverConfig(variant="mapm", alpha=a, max_iters=50)
                   for a in (3.0, 4.0, 5.0)]
        cmp_ = compare_solvers(p, configs, np.zeros(p.dim))
        assert cmp_.labels == ["mapm", "mapm#2", "mapm#3"]
        columns = [tuple(cmp_.gaps[label]) for label in cmp_.labels]
        assert len(set(columns)) == 3
