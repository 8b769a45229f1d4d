"""Certificate engine tests: formulas, the comparison lemma, and trace audits."""

import dataclasses
import itertools

import numpy as np
import pytest

from proxcert import (
    CertificateReport,
    DataCorruptionError,
    EnergyContext,
    RejectedInputError,
    SolverConfig,
    attach_reference,
    certify_trace,
    descent_lemma_sides,
    energy,
    inertial_residual,
    k_alpha,
    phi,
    prop1_rhs,
    prop2_rhs,
    quadratic_problem,
    random_lasso,
    random_quadratic,
    reference_solution,
    rho_lower_bound,
    run,
    theorem1_envelope,
    theorem2_envelope,
    theta,
)
from proxcert import certificates
from proxcert.certificates import ineq_tolerance
from proxcert.problems import prox_gradient


def make_ctx(alpha=3.0, s=0.5, mu=1.0, lipschitz=1.0, x_star=None, f_star=0.0):
    if x_star is None:
        x_star = np.zeros(1)
    return EnergyContext(alpha=alpha, s=s, mu=mu, lipschitz=lipschitz,
                         x_star=np.asarray(x_star, dtype=float), f_star=f_star)


def certified_trace(problem, alpha=3.0, s=None, max_iters=300, x0=None,
                    variant="mapm"):
    if problem.known_optimum is None:
        problem = attach_reference(problem, reference_solution(problem))
    s = 0.5 / problem.smooth.lipschitz if s is None else s
    cfg = SolverConfig(variant=variant, alpha=alpha, step=s, max_iters=max_iters)
    records = run(problem, cfg, np.zeros(problem.dim) if x0 is None else x0)
    ctx = EnergyContext(alpha=alpha, s=s, mu=problem.smooth.strong_convexity,
                        lipschitz=problem.smooth.lipschitz,
                        x_star=problem.known_minimizer,
                        f_star=problem.known_optimum)
    return ctx, records


class TestPhiTheta:
    def test_phi_at_k0_with_equal_iterates(self):
        ctx = make_ctx(alpha=3.0, x_star=np.array([0.5]))
        x0 = np.array([2.0])
        assert phi(ctx, 0, x0, x0) == pytest.approx([(3.0 - 1) * 1.5])

    def test_phi_vanishes_at_stationary_optimum(self):
        ctx = make_ctx(x_star=np.array([1.0, -1.0]))
        x = np.array([1.0, -1.0])
        assert np.allclose(phi(ctx, 7, x, x), 0.0)

    def test_phi_direct_evaluation(self):
        ctx = make_ctx(alpha=3.0, x_star=np.array([0.0]))
        got = phi(ctx, 2, np.array([1.0]), np.array([0.0]))
        assert got[0] == pytest.approx(4.0)

    def test_theta_values(self):
        assert theta(make_ctx(alpha=3.0, s=1.0), 0) == 0.0
        assert theta(make_ctx(alpha=3.0, s=0.5), 2) == pytest.approx(4.0)

    def test_theta_difference_identity(self):
        # theta_{k+1} - theta_k = (2k + alpha) s.
        ctx = make_ctx(alpha=3.5, s=0.3)
        for k in range(11):
            diff = theta(ctx, k + 1) - theta(ctx, k)
            assert diff == pytest.approx((2 * k + 3.5) * 0.3)


class TestEnergy:
    def test_initial_energy_formula(self):
        # x_0 = y_0 gives E_0 = (alpha-1)^2 ||x_0 - x*||^2 / 2.
        ctx = make_ctx(alpha=3.0, x_star=np.array([0.0, 0.0]))
        x0 = np.array([1.0, 2.0])
        expected = 0.5 * 4.0 * 5.0
        assert energy(ctx, 0, x0, x0, 3.0) == pytest.approx(expected)

    def test_zero_at_minimized_state(self):
        ctx = make_ctx(x_star=np.array([2.0]))
        x = np.array([2.0])
        assert energy(ctx, 5, x, x, ctx.f_star) == 0.0

    def test_scalar_hand_computation(self):
        # alpha = 3, s = 1, k = 1, x_1 = y_1 = x* + 1 on f = (x - x*)^2 / 2:
        # phi_1 = 2, theta_1 = 3, gap = 1/2, so E_1 = 2 + 1.5 = 3.5.
        ctx = make_ctx(alpha=3.0, s=1.0, mu=1.0, lipschitz=1.0,
                       x_star=np.array([0.0]), f_star=0.0)
        x1 = np.array([1.0])
        assert energy(ctx, 1, x1, x1, 0.5) == pytest.approx(3.5)

    def test_raises_on_strongly_negative_gap(self):
        ctx = make_ctx()
        with pytest.raises(DataCorruptionError):
            energy(ctx, 0, np.array([1.0]), np.array([1.0]), ctx.f_star - 1.0)

    def test_clamps_tiny_negative_gap(self):
        ctx = make_ctx()
        value = energy(ctx, 3, np.array([0.0]), np.array([0.0]), -1e-12)
        assert value >= 0.0

    def test_infinite_objective_at_k0(self):
        # Infeasible start against an indicator g: theta_0 = 0 must win over
        # the infinite gap, giving the plain phi_0 energy.
        ctx = make_ctx(alpha=3.0, x_star=np.array([0.0]))
        x0 = np.array([2.0])
        value = energy(ctx, 0, x0, x0, float("inf"))
        assert value == pytest.approx(0.5 * 4.0 * 4.0)


class TestProp1:
    def test_vanishes_at_minimizer(self):
        ctx = make_ctx(x_star=np.array([1.0]))
        x = np.array([1.0])
        assert prop1_rhs(ctx, 4, x, x, np.zeros(1)) == 0.0

    def test_critical_step_leaves_mu_terms(self):
        # s = 1/L kills the first coefficient; only mu-weighted terms remain.
        ctx = make_ctx(s=1.0, mu=0.5, lipschitz=1.0, x_star=np.array([0.0]))
        x, y, g = np.array([2.0]), np.array([1.0]), np.array([0.7])
        k, a, s, mu = 3, 3.0, 1.0, 0.5
        expected = (-mu * s * k * (k + a - 1) / 2 * 1.0
                    - mu * s * (a - 1) * (k + a - 1) / 2 * 4.0)
        assert prop1_rhs(ctx, k, x, y, g) == pytest.approx(expected)

    def test_bounds_decrement_along_trace(self):
        ctx, records = certified_trace(quadratic_problem(np.diag([1.0, 10.0]),
                                                         np.array([0.3, 1.0])),
                                       max_iters=400)
        energies = [energy(ctx, r.k, r.x, r.y, r.f_y) for r in records]
        for i, rec in enumerate(records[:-1]):
            lhs = energies[i + 1] - energies[i]
            rhs = prop1_rhs(ctx, rec.k, rec.x, rec.y, rec.grad_map)
            assert lhs <= rhs + 1e-8 * (1 + abs(lhs) + abs(rhs))


class TestProp2:
    def test_default_parameters_reproduce_proof_instantiation(self):
        # omega = lam = 1/2, sigma = 1 gives coefficients 2, 4, and
        # 2 + 1 + 1 + (1 - mu s (2 - sL)) / (mu s) on the three norms.
        ctx = make_ctx(alpha=3.0, s=0.5, mu=0.4, lipschitz=1.0,
                       x_star=np.array([0.0]))
        k = 2
        x, y, g = np.array([1.5]), np.array([0.5]), np.array([0.3])
        mu_s = 0.4 * 0.5
        coeff_g = 1.0 + 2.0 + 1.0 + (1.0 - mu_s * (2.0 - 0.5)) / mu_s
        expected = (k ** 2 / 2 * 2.0 * 1.0
                    + 2.0 * 4.0 * 2.25
                    + (k + 2) ** 2 / 2 * coeff_g * (0.5 * 0.3) ** 2)
        assert prop2_rhs(ctx, k, x, y, g) == pytest.approx(expected)

    def test_vanishes_at_stationary_point(self):
        ctx = make_ctx(x_star=np.array([1.0]))
        x = np.array([1.0])
        assert prop2_rhs(ctx, 3, x, x, np.zeros(1)) == 0.0

    def test_requires_positive_mu(self):
        ctx = make_ctx(mu=0.0)
        with pytest.raises(RejectedInputError):
            prop2_rhs(ctx, 1, np.ones(1), np.zeros(1), np.ones(1))

    def test_bounds_energy_on_strongly_convex_lasso(self):
        ctx, records = certified_trace(random_lasso(7, 25, 25), max_iters=400)
        energies = [energy(ctx, r.k, r.x, r.y, r.f_y) for r in records]
        for i, rec in enumerate(records[:-1]):
            lhs = energies[i + 1]
            rhs = prop2_rhs(ctx, rec.k, rec.x, rec.y, rec.grad_map)
            assert lhs <= rhs + 1e-8 * (1 + abs(lhs) + abs(rhs))

    def test_grid_of_free_parameters(self):
        ctx, records = certified_trace(random_quadratic(8, 6, 50), max_iters=300)
        energies = [energy(ctx, r.k, r.x, r.y, r.f_y) for r in records]
        grid = (0.25, 0.5, 1.0, 2.0)
        for omega, lam, sigma in itertools.product(grid, grid, grid):
            for i, rec in enumerate(records[:-1]):
                lhs = energies[i + 1]
                rhs = prop2_rhs(ctx, rec.k, rec.x, rec.y, rec.grad_map,
                                omega=omega, lam=lam, sigma=sigma)
                assert lhs <= rhs + 1e-8 * (1 + abs(lhs) + abs(rhs))


class TestComparisonRho:
    def test_soundness_on_random_instances(self):
        # If A <= -sum a_i W_i and B <= sum b_i W_i with every a_i, b_i > 0,
        # then A + rho B <= 0 for rho = min_i a_i / b_i.
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = rng.integers(1, 5)
            a = rng.uniform(0.1, 3.0, n)
            b = rng.uniform(0.1, 3.0, n)
            w = rng.uniform(0.0, 2.0, n)
            big_a = -float(a @ w) - rng.uniform(0, 1)
            big_b = float(b @ w) - rng.uniform(0, 1)
            rho = float(np.min(a / b))
            assert big_a + rho * big_b <= 1e-12


class TestRhoLowerBound:
    def test_half_step_matches_corollary_constant(self):
        # mu = L = 1, s = 1/2: min{(1/4)/(9/4), 1/4} = 1/9 = mu/(4L + 5mu).
        ctx = make_ctx(mu=1.0, lipschitz=1.0, s=0.5)
        assert rho_lower_bound(ctx) == pytest.approx(1.0 / 9.0)
        assert rho_lower_bound(ctx) == pytest.approx(1.0 / (4.0 + 5.0))

    def test_zero_at_critical_step(self):
        assert rho_lower_bound(make_ctx(s=1.0, mu=0.5, lipschitz=1.0)) == 0.0

    def test_zero_without_strong_convexity(self):
        assert rho_lower_bound(make_ctx(mu=0.0)) == 0.0

    def test_corollary_constant_at_general_conditioning(self):
        for mu, big_l in ((0.01, 1.0), (0.5, 2.0), (1e-3, 1.0)):
            ctx = make_ctx(mu=mu, lipschitz=big_l, s=0.5 / big_l)
            assert rho_lower_bound(ctx) == pytest.approx(
                mu / (4 * big_l + 5 * mu), rel=1e-12)


class TestEnvelopes:
    def test_theorem1_direct_value(self):
        # mu = 0, alpha = 3, s = 1, d0 = 1, k = 2: 4 / (2*1*2*4) = 0.25.
        ctx = make_ctx(alpha=3.0, s=1.0, mu=0.0, lipschitz=1.0)
        assert theorem1_envelope(ctx, 2, 1.0) == pytest.approx(0.25)

    def test_theorem1_rejects_small_k(self):
        ctx = make_ctx(alpha=3.0)
        with pytest.raises(RejectedInputError):
            theorem1_envelope(ctx, 1, 1.0)

    def test_k_alpha_ceiling(self):
        assert k_alpha(3.0) == 2
        assert k_alpha(3.5) == 3
        assert k_alpha(4.0) == 3

    def test_envelopes_agree_at_k_alpha(self):
        ctx = make_ctx(alpha=3.0, s=0.25, mu=0.7, lipschitz=1.0)
        ka = k_alpha(ctx.alpha)
        assert theorem1_envelope(ctx, ka, 2.0) == theorem2_envelope(ctx, ka, 2.0)

    def test_theorem2_direct_value(self):
        ctx = make_ctx(alpha=3.0, s=1.0)
        assert theorem2_envelope(ctx, 1, 1.0) == pytest.approx(2.0 / 3.0)

    def test_theorem2_rejects_k0(self):
        with pytest.raises(RejectedInputError):
            theorem2_envelope(make_ctx(), 0, 1.0)

    def test_theorem2_quadratic_scaling(self):
        ctx = make_ctx(alpha=3.0, s=0.5)
        k = 10 ** 6
        ratio = theorem2_envelope(ctx, 2 * k, 1.0) / theorem2_envelope(ctx, k, 1.0)
        assert ratio == pytest.approx(0.25, abs=1e-5)

    def test_gap_below_theorem1_envelope_along_trace(self):
        p = quadratic_problem(np.diag([1.0, 10.0]), np.array([1.0, 10.0]))
        ctx, records = certified_trace(p, max_iters=2000)
        d0 = float(np.linalg.norm(records[0].x - ctx.x_star))
        for rec in records:
            if rec.k >= k_alpha(ctx.alpha):
                env = theorem1_envelope(ctx, rec.k, d0)
                gap = rec.f_y - ctx.f_star
                assert gap <= env + 1e-8 * (1 + abs(gap) + env)


class TestDescentLemma:
    def test_equality_witness(self):
        # f = x^2/2, g = 0, s = 1, x = 1, y = 0: both sides are exactly 0.
        p = quadratic_problem(np.eye(1), np.zeros(1))
        x, y = np.array([1.0]), np.array([0.0])
        z, g = prox_gradient(p, 1.0, x)
        lhs, rhs = descent_lemma_sides(1.0, 1.0, 1.0, x, y, g,
                                       p.value(z), p.value(y))
        assert lhs == 0.0
        assert abs(rhs - lhs) <= 1e-12


class TestCertifyTrace:
    def test_stationary_trace_all_pass_with_zero_slack(self):
        p = quadratic_problem(np.diag([1.0, 100.0]), [1.0, 100.0])
        s = 0.5 / p.smooth.lipschitz
        cfg = SolverConfig(variant="mapm", max_iters=3, grad_map_tol=0.0)
        records = run(p, cfg, p.known_minimizer)
        ctx = EnergyContext(alpha=3.0, s=s, mu=1.0, lipschitz=100.0,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        for rep in certify_trace(ctx, records, variant="mapm"):
            assert rep.passed
            if rep.status == "ok" and rep.name not in ("theorem1_envelope",
                                                       "theorem2_envelope"):
                assert abs(rep.slack) <= 1e-10

    def test_full_pipeline_zero_violations(self):
        ctx, records = certified_trace(random_lasso(7, 30, 30), max_iters=500)
        reports = certify_trace(ctx, records, variant="mapm")
        assert all(r.passed for r in reports if r.status == "ok")
        names = {r.name for r in reports if r.status == "ok"}
        assert {"energy_nonincreasing", "prop1", "prop2", "descent_lemma",
                "inertial_identity", "theorem1_envelope",
                "theorem2_envelope"} <= names

    def test_corrupted_reference_raises(self):
        p = quadratic_problem(np.diag([1.0, 10.0]), np.array([1.0, 1.0]))
        s = 0.5 / p.smooth.lipschitz
        records = run(p, SolverConfig(variant="mapm", step=s, max_iters=50),
                      np.zeros(2))
        bad_ctx = EnergyContext(alpha=3.0, s=s, mu=p.smooth.strong_convexity,
                                lipschitz=p.smooth.lipschitz,
                                x_star=p.known_minimizer,
                                f_star=p.known_optimum + 1.0)
        with pytest.raises(DataCorruptionError):
            certify_trace(bad_ctx, records, variant="mapm")

    def test_apm_trace_keeps_descent_and_inertial_only(self):
        p = random_quadratic(4, 5, 10)
        s = 0.5 / p.smooth.lipschitz
        records = run(p, SolverConfig(variant="apm", step=s, max_iters=80),
                      np.zeros(5))
        ctx = EnergyContext(alpha=3.0, s=s, mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        reports = certify_trace(ctx, records, variant="apm")
        by_status = {}
        for rep in reports:
            by_status.setdefault(rep.status, set()).add(rep.name)
        assert by_status["ok"] == {"descent_lemma", "inertial_identity"}
        assert by_status["not_applicable"] == {
            "energy_nonincreasing", "prop1", "prop2",
            "theorem1_envelope", "theorem2_envelope"}
        assert all(r.passed for r in reports if r.status == "ok")

    def test_ista_trace_keeps_descent_only(self):
        p = random_quadratic(4, 5, 10)
        records = run(p, SolverConfig(variant="ista", max_iters=40), np.zeros(5))
        ctx = EnergyContext(alpha=3.0, s=0.5 / p.smooth.lipschitz,
                            mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        reports = certify_trace(ctx, records, variant="ista")
        ok_names = {r.name for r in reports if r.status == "ok"}
        assert ok_names == {"descent_lemma"}

    def test_infeasible_start_certifies_cleanly(self):
        # x0 outside the box: F(y_0) = +inf; the first step lands inside and
        # every applicable certificate still passes.
        from proxcert import box_quadratic_problem, reference_solution, attach_reference
        rng = np.random.default_rng(3)
        q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q = (q_mat * np.geomspace(0.1, 1.0, 4)) @ q_mat.T
        q = 0.5 * (q + q.T)
        p = box_quadratic_problem(q, q @ rng.uniform(-1, 1, 4),
                                  -0.5 * np.ones(4), 0.5 * np.ones(4))
        p = attach_reference(p, reference_solution(p))
        s = 0.5 / p.smooth.lipschitz
        x0 = np.full(4, 3.0)  # infeasible
        assert p.value(x0) == float("inf")
        records = run(p, SolverConfig(variant="mapm", step=s, max_iters=200), x0)
        assert records[0].accepted and np.isfinite(records[1].f_y)
        ctx = EnergyContext(alpha=3.0, s=s, mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        reports = certify_trace(ctx, records, variant="mapm")
        assert all(r.passed for r in reports if r.status == "ok")

    def test_file_round_trip_certifies_identically(self, tmp_path):
        # Shortest round-trip float serialization: certificates recomputed
        # from a re-parsed trace match the in-memory ones bit for bit.
        from proxcert.traceio import TraceMeta, read_trace, write_trace
        p = random_quadratic(12, 6, 100)
        s = 0.5 / p.smooth.lipschitz
        records = run(p, SolverConfig(variant="mapm", step=s, max_iters=150),
                      np.zeros(6))
        ctx = EnergyContext(alpha=3.0, s=s, mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        direct = certify_trace(ctx, records, variant="mapm")
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"t.{fmt}"
            meta = TraceMeta(variant="mapm", alpha=3.0, step=s,
                             problem_hash=p.content_hash, max_iters=150,
                             grad_map_tol=0.0)
            write_trace(path, meta, records, fmt)
            _, parsed = read_trace(path)
            reparsed = certify_trace(ctx, parsed.replayed(p, meta.config()),
                                     variant="mapm")
            assert len(direct) == len(reparsed)
            for a, b in zip(direct, reparsed):
                assert (a.k, a.name, a.status, a.passed) == (b.k, b.name,
                                                             b.status, b.passed)
                if a.status == "ok":
                    assert a.lhs == b.lhs and a.rhs == b.rhs and a.slack == b.slack

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", float("inf"), "alpha must be"),
        ("alpha", float("nan"), "alpha must be"),
        ("alpha", 2.0, "alpha must be"),
        ("f_star", float("nan"), "f_star must be a finite number"),
        ("f_star", float("inf"), "f_star must be a finite number"),
        ("f_star", float("-inf"), "f_star must be a finite number"),
        ("f_star", 10 ** 400, "f_star must be a finite number"),
    ], ids=["alpha-inf", "alpha-nan", "alpha-2.0", "f_star-nan", "f_star-inf",
            "f_star--inf", "f_star-1e400-int"])
    def test_rejects_alpha_or_f_star_outside_their_rules(self, field, value, message):
        # alpha = inf passed `alpha >= 3` and certify_trace raised OverflowError;
        # a verdict against a NaN or infinite F* reported violations
        p = random_quadratic(1, 5, 10)
        records = run(p, SolverConfig(variant="mapm", max_iters=20), np.zeros(5))
        context = dict(alpha=3.0, s=0.5 / p.smooth.lipschitz,
                       mu=p.smooth.strong_convexity, lipschitz=p.smooth.lipschitz,
                       x_star=p.known_minimizer, f_star=p.known_optimum)
        with pytest.raises(RejectedInputError, match=message):
            certify_trace(EnergyContext(**{**context, field: value}), records)

    def test_rejects_trace_without_iterates(self):
        # a trace file's Trace holds x_0 alone and none of the others until replayed
        p = random_quadratic(4, 3, 10)
        trace = run(p, SolverConfig(variant="mapm", max_iters=5), np.zeros(3))
        ctx = EnergyContext(alpha=3.0, s=0.5 / p.smooth.lipschitz, mu=0.1,
                            lipschitz=1.0, x_star=p.known_minimizer,
                            f_star=p.known_optimum)
        for column in ("x", "y", "grad_map", "f_z"):
            message = f"trace has no '{column}' value in each of its first 6 rows"
            for lacking in (None, getattr(trace, column)[:1]):
                with pytest.raises(RejectedInputError, match=message):
                    certify_trace(ctx, dataclasses.replace(trace, **{column: lacking}))


class TestNegativeControls:
    def test_ista_trace_mislabeled_as_mapm_fails_inertial(self):
        # ista has no alpha-momentum structure, so the inertial identity must
        # flag an ista trace passed off as mapm.
        p = random_quadratic(17, 4, 100)
        s = 0.5 / p.smooth.lipschitz
        records = run(p, SolverConfig(variant="ista", step=s, max_iters=60),
                      np.ones(4))
        ctx = EnergyContext(alpha=3.0, s=s, mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        reports = certify_trace(ctx, records, variant="mapm")
        failed = {r.name for r in reports if r.status == "ok" and not r.passed}
        assert "inertial_identity" in failed

    def test_tampered_objective_fails_energy_certificates(self):
        p = random_quadratic(17, 4, 100)
        s = 0.5 / p.smooth.lipschitz
        records = run(p, SolverConfig(variant="mapm", step=s, max_iters=60),
                      np.ones(4))
        records.f_y[30] = records.f_y[0]  # inject a large objective rise
        ctx = EnergyContext(alpha=3.0, s=s, mu=p.smooth.strong_convexity,
                            lipschitz=p.smooth.lipschitz,
                            x_star=p.known_minimizer, f_star=p.known_optimum)
        reports = certify_trace(ctx, records, variant="mapm")
        failed = {(r.name, r.k) for r in reports
                  if r.status == "ok" and not r.passed}
        assert any(name == "energy_nonincreasing" for name, _ in failed)

    def test_overclaimed_strong_convexity_fails_descent(self):
        # Claiming mu > 0 for a merely convex f must break the descent check;
        # probe along the null space of A'A, where f really is flat.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 12))  # fat: mu = 0 truly
        from proxcert import lasso_problem
        p = lasso_problem(a, rng.standard_normal(5), 0.3)
        s = 0.5 / p.smooth.lipschitz
        null_dir = np.linalg.svd(a)[2][-1]
        x, y = np.zeros(12), 5.0 * null_dir
        z, g = prox_gradient(p, s, x)
        lhs, rhs = descent_lemma_sides(s, p.smooth.lipschitz, 0.5, x, y, g,
                                       p.value(z), p.value(y))
        assert lhs > rhs + 1e-8 * (1 + abs(lhs) + abs(rhs))
        # with the honest mu = 0 the same pair satisfies the inequality
        lhs0, rhs0 = descent_lemma_sides(s, p.smooth.lipschitz, 0.0, x, y, g,
                                         p.value(z), p.value(y))
        assert lhs0 <= rhs0 + 1e-8 * (1 + abs(lhs0) + abs(rhs0))


class TestProofChainConsistency:
    def test_per_iteration_rho_contracts_energy(self):
        # Combining the prop1/prop2 coefficient triples through the comparison
        # lemma yields rho_k with (1 + rho_k) E_{k+1} <= E_k, and rho_k is at
        # least the closed-form bound once k >= k_alpha.
        p = random_quadratic(9, 8, 100)
        ctx, records = certified_trace(p, max_iters=600)
        a_, s, mu, big_l = ctx.alpha, ctx.s, ctx.mu, ctx.lipschitz
        energies = [energy(ctx, r.k, r.x, r.y, r.f_y) for r in records]
        bound = rho_lower_bound(ctx)
        omega = lam = 0.5
        sigma = 1.0
        checked_bound = 0
        for i, rec in enumerate(records[:-1]):
            k = rec.k
            if k < 1:
                continue
            a_triple = [
                (1 - s * big_l) * (k + a_ - 1) ** 2 / 2,
                mu * s * k * (k + a_ - 1) / 2,
                mu * s * (a_ - 1) * (k + a_ - 1) / 2,
            ]
            b_triple = [
                (k + a_ - 1) ** 2 / 2
                * (1 + 1 / lam + sigma + (1 - mu * s * (2 - s * big_l)) / (mu * s)),
                k ** 2 / 2 * (1 + omega + lam),
                (a_ - 1) ** 2 / 2 * (1 + 1 / omega + 1 / sigma),
            ]
            rho_k = min(ai / bi for ai, bi in zip(a_triple, b_triple))
            lhs = (1 + rho_k) * energies[i + 1]
            rhs = energies[i]
            assert lhs <= rhs + 1e-8 * (1 + abs(lhs) + abs(rhs))
            if k >= k_alpha(a_):
                assert rho_k >= bound - 1e-12
                checked_bound += 1
        assert checked_bound > 100


def one_at_a_time(ctx, records, variant):
    """(k, name) -> (lhs, rhs, tolerance), each formula applied to one record
    or one (k, k+1) pair at a time."""
    a, s, mu, big_l = ctx.alpha, ctx.s, ctx.mu, ctx.lipschitz
    pairs = list(zip(records, records[1:]))
    lines = {}

    def put(k, name, lhs, rhs, tol=None):
        lines[k, name] = (lhs, rhs, ineq_tolerance(lhs, rhs) if tol is None else tol)

    for r in records:
        put(r.k, "descent_lemma",
            *descent_lemma_sides(s, big_l, mu, r.x, r.y, r.grad_map, r.f_z, r.f_y))
    if variant in ("apm", "mapm"):
        for prev, nxt in pairs:
            put(prev.k, "inertial_identity",
                inertial_residual(a, s, prev.k, prev.x, prev.y, nxt.x, nxt.y,
                                  prev.grad_map),
                0.0, 1e-10 * (1.0 + float(np.linalg.norm(prev.x))))
    if variant == "mapm":
        for prev, nxt in pairs:
            e0 = energy(ctx, prev.k, prev.x, prev.y, prev.f_y)
            e1 = energy(ctx, nxt.k, nxt.x, nxt.y, nxt.f_y)
            put(prev.k, "energy_nonincreasing", e1, e0)
            put(prev.k, "prop1", e1 - e0,
                prop1_rhs(ctx, prev.k, prev.x, prev.y, prev.grad_map))
            if mu > 0.0:
                put(prev.k, "prop2", e1,
                    prop2_rhs(ctx, prev.k, prev.x, prev.y, prev.grad_map))
        dist0 = float(np.linalg.norm(records[0].x - ctx.x_star))
        for r in records:
            if mu > 0.0 and s * big_l < 1.0 - 1e-9 and r.k >= k_alpha(a):
                put(r.k, "theorem1_envelope", r.f_y - ctx.f_star,
                    theorem1_envelope(ctx, r.k, dist0))
            if r.k >= 1:
                put(r.k, "theorem2_envelope", r.f_y - ctx.f_star,
                    theorem2_envelope(ctx, r.k, dist0))
    return lines


def bits(*values):
    return tuple(float(v).hex() for v in values)


class TestBlockedCertification:
    """Certifying in blocks of records changes no bit of any report line."""

    @pytest.mark.parametrize("variant, problem, alpha, not_applicable", [
        ("mapm", random_quadratic(5, 5, 100), 3.3, set()),
        ("mapm", random_lasso(3, 4, 8), 3.0, {"prop2", "theorem1_envelope"}),
        ("apm", random_quadratic(5, 5, 100), 5.0,
         {"energy_nonincreasing", "prop1", "prop2", "theorem1_envelope",
          "theorem2_envelope"}),
        ("ista", random_quadratic(5, 5, 100), 3.0,
         {"energy_nonincreasing", "prop1", "prop2", "theorem1_envelope",
          "theorem2_envelope", "inertial_identity"}),
    ])
    def test_small_blocks_match_one_record_at_a_time(self, monkeypatch, variant,
                                                     problem, alpha,
                                                     not_applicable):
        monkeypatch.setattr(certificates, "_BLOCK_BYTES", 8 * problem.dim * 16)
        assert certificates._block_rows(problem.dim) == 16
        ctx, records = certified_trace(problem, alpha=alpha, max_iters=52,
                                       variant=variant)
        assert len(records) == 53  # blocks of 16, 16, 16 and 5 records
        self.assert_blocked_equals_one_at_a_time(ctx, records, variant,
                                                 not_applicable)

    def test_default_blocks_match_one_record_at_a_time(self):
        problem = random_quadratic(6, 200, 100)
        rows = certificates._block_rows(problem.dim)
        ctx, records = certified_trace(problem, max_iters=3 * rows + 10)
        assert len(records) > 3 * rows and len(records) % rows != 0
        self.assert_blocked_equals_one_at_a_time(ctx, records, "mapm", set())

    def test_one_record_gives_python_floats(self):
        ctx, records = certified_trace(random_quadratic(5, 5, 100), max_iters=5)
        r, n = records[3], records[4]
        values = [
            theta(ctx, r.k),
            energy(ctx, r.k, r.x, r.y, r.f_y),
            prop1_rhs(ctx, r.k, r.x, r.y, r.grad_map),
            prop2_rhs(ctx, r.k, r.x, r.y, r.grad_map),
            descent_lemma_sides(ctx.s, ctx.lipschitz, ctx.mu, r.x, r.y,
                                r.grad_map, r.f_z, r.f_y)[1],
            inertial_residual(ctx.alpha, ctx.s, r.k, r.x, r.y, n.x, n.y,
                              r.grad_map),
            theorem1_envelope(ctx, r.k, 1.0),
            theorem2_envelope(ctx, r.k, 1.0),
        ]
        assert all(type(v) is float for v in values)

    @staticmethod
    def assert_blocked_equals_one_at_a_time(ctx, records, variant,
                                            not_applicable):
        reports = certify_trace(ctx, records, variant=variant)
        assert [(r.k, r.name) for r in reports] == sorted((r.k, r.name)
                                                          for r in reports)
        for r in reports:
            assert type(r) is CertificateReport
            assert type(r.k) is int and type(r.passed) is bool
            assert all(type(v) is float for v in (r.lhs, r.rhs, r.slack))
        skipped = [r for r in reports if r.status == "not_applicable"]
        assert {r.name for r in skipped} == not_applicable
        for r in skipped:
            assert r.k == 0 and r.passed and bits(r.lhs, r.rhs, r.slack) == (
                "nan", "nan", "nan")
        expected = one_at_a_time(ctx, records, variant)
        got = {(r.k, r.name): r for r in reports if r.status == "ok"}
        assert got.keys() == expected.keys()
        for key, (lhs, rhs, tol) in expected.items():
            r = got[key]
            assert bits(r.lhs, r.rhs, r.slack) == bits(lhs, rhs, rhs - lhs), key
            assert r.passed is (lhs <= rhs + tol), key
