import math

import numpy as np
import pytest
from scipy.optimize import minimize

from ltpfleo.analysis import (
    BoundParams,
    ConvexityConstants,
    check_one_step_contraction,
    compute_bound_params,
    confusion_matrix,
    estimate_constants,
    extreme_eigenvalues,
    fairness_gap,
    loglog_slope,
    rounds_estimate,
    solve_optimum,
    theorem_bound,
    theory_rate,
)
from ltpfleo.scheduling import ParticipationLog, record_round
from ltpfleo.training import (
    Dataset,
    LossSpec,
    SgdConfig,
    local_sgd,
    make_loss_model,
    synthesize_data,
)


def quadratic_instance(rng, sats=5, n=30, d=4, heterogeneity=1.0, reg=0.1):
    datasets = synthesize_data(
        "linear-regression", 0, [n] * sats, "iid", seed=int(rng.integers(1 << 30)),
        feature_dim=d, noise=0.3, heterogeneity=heterogeneity,
    )
    return datasets, LossSpec("quadratic", regularization=reg, clip_radius=10.0)


class TestExtremeEigenvalues:
    def test_against_eigvalsh(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            mat = a @ a.T + 0.05 * np.eye(6)
            lo_hi = np.linalg.eigvalsh(mat)
            lam_max, lam_min = extreme_eigenvalues(mat, seed=3)
            assert lam_max == pytest.approx(lo_hi[-1], rel=1e-6)
            assert lam_min == pytest.approx(lo_hi[0], rel=1e-4, abs=1e-8)


class TestEstimateConstants:
    def test_identical_satellites_have_zero_heterogeneity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        datasets = [Dataset(X.copy(), y.copy(), owner=i) for i in range(4)]
        spec = LossSpec("quadratic", regularization=0.1, clip_radius=5.0)
        constants = estimate_constants(spec, datasets, 5.0, 8, probe_points=5)
        assert constants.heterogeneity == pytest.approx(0.0, abs=1e-10)

    def test_one_dim_quadratic_curvature(self):
        # f(w) = a/2 (w - b)^2 from the sample (sqrt(a), sqrt(a) b); no ridge.
        a, b = 2.5, 1.0
        ds = Dataset(np.array([[math.sqrt(a)]]), np.array([math.sqrt(a) * b]))
        spec = LossSpec("quadratic", regularization=0.0, clip_radius=3.0)
        constants = estimate_constants(spec, [ds], 3.0, 4, probe_points=3)
        assert constants.smoothness == pytest.approx(a, rel=1e-9)
        assert constants.strong_convexity == pytest.approx(a, rel=1e-9)

    def test_heterogeneity_matches_independent_minimizer_oracle(self):
        rng = np.random.default_rng(2)
        datasets, spec = quadratic_instance(rng, sats=5)
        constants = estimate_constants(spec, datasets, 10.0, 8, probe_points=3)
        kernel = make_loss_model(spec, datasets[0].feature_dim)
        total = sum(d.size for d in datasets)

        def global_f(w):
            return sum(
                (d.size / total) * kernel.loss(w, d.features, d.labels) for d in datasets
            )

        res_g = minimize(global_f, np.zeros(4), method="BFGS", tol=1e-14)
        locals_ = [
            minimize(lambda w, d=d: kernel.loss(w, d.features, d.labels),
                     np.zeros(4), method="BFGS", tol=1e-14)
            for d in datasets
        ]
        oracle = res_g.fun - sum(
            (d.size / total) * r.fun for d, r in zip(datasets, locals_)
        )
        assert constants.heterogeneity == pytest.approx(oracle, abs=1e-10)

    def test_rejects_mlp(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError, match="mlp"):
            estimate_constants(LossSpec("mlp-small", num_classes=2), [ds], 1.0, 4)

    def test_logistic_constants(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30)
        spec = LossSpec("logistic-l2", regularization=0.05, num_classes=2, clip_radius=4.0)
        constants = estimate_constants(spec, [Dataset(X, y)], 4.0, 8, probe_points=5)
        max_row = np.max(np.sum(X**2, axis=1) + 1.0)
        assert constants.smoothness == pytest.approx(0.25 * max_row + 0.05)
        assert constants.strong_convexity == 0.05
        assert constants.grad_bound > 0

    def test_sigma_zero_for_full_batch_identical_samples(self):
        ds = Dataset(np.ones((6, 2)), np.full(6, 2.0))
        spec = LossSpec("quadratic", regularization=0.1, clip_radius=2.0)
        constants = estimate_constants(spec, [ds], 2.0, 8, probe_points=3)
        assert constants.sigma[0] == pytest.approx(0.0, abs=1e-12)


class TestSolveOptimum:
    def test_quadratic_closed_form_matches_bfgs(self):
        rng = np.random.default_rng(4)
        datasets, spec = quadratic_instance(rng, sats=3)
        w_star, f_star = solve_optimum(spec, datasets)
        kernel = make_loss_model(spec, 4)
        total = sum(d.size for d in datasets)
        res = minimize(
            lambda w: sum((d.size / total) * kernel.loss(w, d.features, d.labels)
                          for d in datasets),
            np.zeros(4),
            method="BFGS",
            tol=1e-14,
        )
        np.testing.assert_allclose(w_star, res.x, atol=1e-6)
        assert f_star == pytest.approx(res.fun, abs=1e-10)

    def test_logistic_gradient_norm_tolerance(self):
        rng = np.random.default_rng(5)
        datasets = synthesize_data("blobs", 3, [30, 30], "iid", seed=6)
        spec = LossSpec("logistic-l2", regularization=0.1, num_classes=3)
        w_star, _ = solve_optimum(spec, datasets)
        kernel = make_loss_model(spec, 2)
        total = sum(d.size for d in datasets)
        g = sum((d.size / total) * kernel.grad(w_star, d.features, d.labels) for d in datasets)
        assert np.linalg.norm(g) <= 1e-12


def toy_constants(**over):
    base = dict(
        smoothness=4.0,
        strong_convexity=0.5,
        sigma={0: 1.0, 1: 2.0},
        grad_bound=3.0,
        heterogeneity=0.2,
        weights={0: 0.5, 1: 0.5},
    )
    base.update(over)
    return ConvexityConstants(**base)


class TestTheoremBound:
    def test_independent_formula_reevaluation(self):
        constants = toy_constants()
        params = compute_bound_params(constants, local_steps=5, initial_gap=2.0, f_star=0.0)
        for t in (1, 7, 100, 500):
            got = theorem_bound(constants, params, 5, t)
            # One-line literal checker, written separately from the library.
            kappa = 4.0 / 0.5
            upsilon = max(8 * kappa, 5)
            lam = 0.25 * 1.0 + 0.25 * 4.0 + 6 * 4.0 * 0.2 + 8 * (5 - 1) ** 2 * 9.0
            nu = 4 * 25 * 9.0 / 2
            expected = (2 * kappa / (upsilon + 5 * t)) * ((lam + nu) / 0.5 + 0.5 * upsilon / 4 * 2.0)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_rounds(self):
        constants = toy_constants()
        params = compute_bound_params(constants, 5, 2.0, 0.0)
        values = [theorem_bound(constants, params, 5, t) for t in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] / 10

    def test_affine_in_initial_gap(self):
        constants = toy_constants()
        p1 = compute_bound_params(constants, 5, 1.0, 0.0)
        p2 = compute_bound_params(constants, 5, 2.0, 0.0)
        p0 = compute_bound_params(constants, 5, 0.0, 0.0)
        t = 13
        b1 = theorem_bound(constants, p1, 5, t)
        b2 = theorem_bound(constants, p2, 5, t)
        b0 = theorem_bound(constants, p0, 5, t)
        assert b2 - b0 == pytest.approx(2 * (b1 - b0), rel=1e-12)

    def test_monotone_in_noise_terms(self):
        constants = toy_constants()
        base = compute_bound_params(constants, 5, 1.0, 0.0)
        bumped_lam = BoundParams(base.kappa, base.upsilon, base.lam * 2, base.nu,
                                 base.initial_gap, base.f_star)
        bumped_nu = BoundParams(base.kappa, base.upsilon, base.lam, base.nu * 2,
                                base.initial_gap, base.f_star)
        t = 50
        assert theorem_bound(constants, bumped_lam, 5, t) > theorem_bound(constants, base, 5, t)
        assert theorem_bound(constants, bumped_nu, 5, t) > theorem_bound(constants, base, 5, t)

    def test_theory_rate_respects_premise(self):
        constants = toy_constants()
        params = compute_bound_params(constants, 5, 1.0, 0.0)
        rate = theory_rate(constants, params)
        assert rate(1) <= 1.0 / (4.0 * constants.smoothness) + 1e-15
        assert rate(100) < rate(1)


class TestRoundsEstimate:
    def test_inverse_scaling_in_rho(self):
        constants = toy_constants()
        t1, _ = rounds_estimate(constants, 5, 3, 0.1)
        t2, _ = rounds_estimate(constants, 5, 3, 0.05)
        assert t2 == pytest.approx(2 * t1, rel=1e-12)

    def test_noiseless_homogeneous_limit(self):
        constants = toy_constants(
            sigma={0: 0.0, 1: 0.0}, heterogeneity=0.0, grad_bound=1e-12
        )
        t, _ = rounds_estimate(constants, 5, 3, 0.1)
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_optimal_local_steps_grid_scan(self):
        constants = toy_constants()
        h2 = constants.grad_bound**2
        noise = sum(constants.weights[k] ** 2 * constants.sigma[k] ** 2 for k in (0, 1))
        fixed = noise + constants.smoothness * constants.heterogeneity \
            + constants.condition_number * h2

        def bracket(i):
            return (1 + 1 / 3) * i * h2 + fixed / i + h2

        _, i_star = rounds_estimate(constants, 5, 3, 0.1)
        grid = [bracket(i) for i in range(1, 1001)]
        assert i_star == int(np.argmin(grid)) + 1
        # decreases then increases around the optimum
        assert bracket(max(1, i_star - 1)) >= bracket(i_star) <= bracket(i_star + 1)


class TestContraction:
    def test_frozen_dynamics_zero_margin(self):
        constants = toy_constants()
        params = compute_bound_params(constants, 1, 1.0, 0.0)
        w_star = np.zeros(2)
        traj = [[np.ones(2)] * 5 for _ in range(3)]
        margins = check_one_step_contraction(traj, w_star, constants, params,
                                             lambda step: 0.0, 1)
        assert all(m.margin == pytest.approx(0.0, abs=1e-15) for m in margins)
        assert not any(m.violation for m in margins)

    def test_noiseless_quadratic_closed_form(self):
        # Single client, full batch: the linear recursion w-w* scaling by
        # (1 - eta*h) per step must satisfy the inequality with slack.
        a = 2.0
        ds = Dataset(np.array([[math.sqrt(a)]]), np.array([0.0]))
        spec = LossSpec("quadratic")
        constants = estimate_constants(
            LossSpec("quadratic", regularization=0.0, clip_radius=4.0), [ds], 4.0, 8,
            probe_points=3,
        )
        params = compute_bound_params(constants, 1, 4.0, 0.0)
        eta = 1.0 / (4.0 * a)
        w = np.array([2.0])
        traj = [w]
        for _ in range(10):
            w = local_sgd(w, ds, spec, SgdConfig(local_steps=1, learning_rate=eta, mini_batch=4))
            traj.append(w)
        # Closed-form oracle for the iterates.
        expected = [2.0 * (1 - eta * a) ** i for i in range(11)]
        np.testing.assert_allclose([float(v[0]) for v in traj], expected, rtol=1e-12)
        margins = check_one_step_contraction([traj], np.zeros(1), constants, params,
                                             lambda step: eta, 1)
        assert all(m.margin >= 0 for m in margins)

    def test_rejects_rate_violating_premise(self):
        constants = toy_constants()
        params = compute_bound_params(constants, 1, 1.0, 0.0)
        traj = [[np.zeros(1)] * 3]
        with pytest.raises(ValueError, match="premise"):
            check_one_step_contraction(traj, np.zeros(1), constants, params,
                                       lambda step: 1.0, 1)


class TestFairnessGap:
    def test_full_participation_zero_gap(self):
        log = ParticipationLog([0, 1, 2])
        for t in range(1, 61):
            record_round(log, {0, 1, 2}, t)
        report = fairness_gap(log)
        assert report.gap == 0.0

    def test_extreme_rates(self):
        log = ParticipationLog([0, 1])
        for t in range(1, 11):
            record_round(log, {0}, t)
        report = fairness_gap(log)
        assert report.gap == 1.0

    def test_hand_tally_oracle(self):
        selections = [{0}, {1}, {0, 1}, set(), {0}, {0}, {1}, {0, 1}, {0}, set()]
        log = ParticipationLog([0, 1])
        for t, sel in enumerate(selections, start=1):
            record_round(log, sel, t)
        report = fairness_gap(log, 10)
        # Hand tally: partition 0 participated 6 times, partition 1 four.
        assert report.rates[0] == pytest.approx(0.6)
        assert report.rates[1] == pytest.approx(0.4)
        assert report.gap == pytest.approx(0.2)

    def test_confusion_matrix_outputs(self):
        datasets = synthesize_data("blobs", 3, [60], "iid", seed=9)
        spec = LossSpec("logistic-l2", regularization=0.01, num_classes=3)
        kernel = make_loss_model(spec, 2)
        w = np.zeros(kernel.dim)
        w = local_sgd(w, datasets[0], spec,
                      SgdConfig(local_steps=200, learning_rate=0.5, mini_batch=10**9))
        log = ParticipationLog([0])
        record_round(log, {0}, 1)
        report = fairness_gap(log, 1, model=w, loss=spec, eval_dataset=datasets[0])
        assert report.confusion is not None
        assert report.confusion.sum() == 60
        assert set(report.per_class_accuracy) == {0, 1, 2}
        assert np.trace(report.confusion) >= 50


class TestUtilities:
    def test_confusion_matrix_counts(self):
        pred = np.array([0, 1, 1, 2])
        true = np.array([0, 1, 2, 2])
        mat = confusion_matrix(pred, true, 3)
        assert mat[0, 0] == 1 and mat[1, 1] == 1 and mat[2, 1] == 1 and mat[2, 2] == 1

    def test_loglog_slope_recovers_power_law(self):
        t = np.arange(10, 200)
        gaps = 5.0 / t
        assert loglog_slope(t, gaps) == pytest.approx(-1.0, abs=1e-9)
