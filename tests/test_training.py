import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltpfleo.training import (
    Dataset,
    InverseDecayRate,
    LossSpec,
    SgdConfig,
    blob_centers,
    global_accuracy,
    global_loss,
    load_csv,
    local_sgd,
    make_loss_model,
    orbit_classes,
    save_csv,
    split_holdout,
    synthesize_data,
)


def numeric_gradient(f, w, h=1e-6):
    """Central-difference oracle, independent of the analytic path."""
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def random_classification_data(rng, n=20, d=3, classes=3):
    X = rng.normal(size=(n, d))
    y = rng.integers(0, classes, size=n)
    return X, y


class TestGradientCorrectness:
    @pytest.mark.parametrize(
        "spec",
        [
            LossSpec("quadratic", regularization=0.1),
            LossSpec("logistic-l2", regularization=0.05, num_classes=3),
            LossSpec("mlp-small", regularization=0.01, num_classes=3, hidden_units=5),
        ],
        ids=["quadratic", "logistic-l2", "mlp-small"],
    )
    def test_matches_central_differences(self, spec):
        rng = np.random.default_rng(42)
        d = 3
        kernel = make_loss_model(spec, d)
        if spec.kind == "quadratic":
            X = rng.normal(size=(20, d))
            y = rng.normal(size=20)
        else:
            X, y = random_classification_data(rng, d=d, classes=spec.num_classes)
        for _ in range(100):
            w = rng.normal(size=kernel.dim)
            ga = kernel.grad(w, X, y)
            gn = numeric_gradient(lambda v: kernel.loss(v, X, y), w)
            denom = max(np.linalg.norm(ga), np.linalg.norm(gn), 1e-6)
            assert np.linalg.norm(ga - gn) / denom < 1e-4


class TestSampleGrads:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["quadratic", "logistic-l2"]),
        n=st.integers(1, 25),
        d=st.integers(1, 6),
        classes=st.integers(2, 6),
        reg=st.sampled_from([0.0, 1e-3, 0.1, 2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_single_sample_grads(self, kind, n, d, classes, reg, seed):
        spec = LossSpec(kind, regularization=reg, num_classes=classes)
        kernel = make_loss_model(spec, d)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n) if kind == "quadratic" else rng.integers(0, classes, size=n)
        w = rng.normal(size=kernel.dim)
        rows = kernel.sample_grads(w, X, y)
        # oracle: grad on one sample at a time
        oracle = np.stack([kernel.grad(w, X[j : j + 1], y[j : j + 1]) for j in range(n)])
        assert rows.shape == (n, kernel.dim)
        scale = max(float(np.max(np.abs(oracle))), 1e-300)
        np.testing.assert_allclose(rows, oracle, rtol=1e-12, atol=1e-12 * scale)
        batch = kernel.grad(w, X, y)
        np.testing.assert_allclose(
            rows.mean(axis=0), batch, rtol=1e-12,
            atol=1e-12 * max(float(np.max(np.abs(batch))), scale),
        )


class TestLocalSgd:
    def test_zero_rate_is_identity(self):
        ds = Dataset(np.array([[1.0]]), np.array([3.0]))
        out = local_sgd(
            np.array([5.0]),
            ds,
            LossSpec("quadratic"),
            SgdConfig(local_steps=4, learning_rate=0.0, mini_batch=8),
        )
        assert out[0] == 5.0

    def test_one_dim_closed_form_step(self):
        # F(w) = (w - 3)^2 / 2, w0 = 0, eta = 0.5, one full-batch step -> 1.5.
        ds = Dataset(np.array([[1.0]]), np.array([3.0]))
        out = local_sgd(
            np.array([0.0]),
            ds,
            LossSpec("quadratic"),
            SgdConfig(local_steps=1, learning_rate=0.5, mini_batch=8),
        )
        assert out[0] == pytest.approx(1.5, abs=1e-15)

    def test_logistic_loss_decreases(self):
        rng = np.random.default_rng(1)
        spec = LossSpec("logistic-l2", regularization=0.01, num_classes=2)
        X, y = random_classification_data(rng, n=20, d=2, classes=2)
        ds = Dataset(X, y)
        kernel = make_loss_model(spec, 2)
        w0 = np.zeros(kernel.dim)
        w1 = local_sgd(w0, ds, spec, SgdConfig(local_steps=5, learning_rate=0.2, mini_batch=64))
        # Independent evaluation path: direct mean over raw samples.
        def eval_loss(vec):
            return kernel.loss(vec, X, y)

        assert eval_loss(w1) <= eval_loss(w0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, size=40))
        spec = LossSpec("logistic-l2", regularization=0.01, num_classes=2)
        cfg = SgdConfig(local_steps=10, learning_rate=0.1, mini_batch=4, seed=99)
        w0 = np.zeros(make_loss_model(spec, 3).dim)
        a = local_sgd(w0, ds, spec, cfg)
        b = local_sgd(w0, ds, spec, cfg)
        assert a.tobytes() == b.tobytes()

    def test_projection_keeps_iterates_in_ball(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30) * 50)
        spec = LossSpec("quadratic", clip_radius=1.0)
        cfg = SgdConfig(local_steps=25, learning_rate=0.5, mini_batch=5, seed=1)
        out = local_sgd(np.zeros(2), ds, spec, cfg)
        assert np.linalg.norm(out) <= 1.0 + 1e-12

    def test_dimension_mismatch_rejected(self):
        ds = Dataset(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            local_sgd(np.zeros(2), ds, LossSpec("quadratic"), SgdConfig())

    def test_non_finite_gradient_aborts_with_diagnostics(self):
        ds = Dataset(np.array([[1e200]]), np.array([-1e200]))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="local step"):
            local_sgd(
                np.array([1e200]),
                ds,
                LossSpec("quadratic"),
                SgdConfig(local_steps=3, learning_rate=1.0, mini_batch=4),
            )

    def test_overflowing_step_aborts(self):
        # The gradient 1e308 is finite; the step 2 * 1e308 overflows the model.
        ds = Dataset(np.array([[1.0]]), np.array([0.0]))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite model"):
            local_sgd(
                np.array([1e308]),
                ds,
                LossSpec("quadratic"),
                SgdConfig(local_steps=1, learning_rate=2.0, mini_batch=4),
            )

    def test_inverse_decay_schedule(self):
        sched = InverseDecayRate(c=2.0, offset=8.0)
        cfg = SgdConfig(local_steps=1, learning_rate=sched)
        assert cfg.rate_at(1) == pytest.approx(2.0 / 9.0)
        assert cfg.rate_at(10) == pytest.approx(2.0 / 18.0)

    @pytest.mark.parametrize("c,offset", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_inverse_decay_rejects_bad_parameters(self, c, offset):
        with pytest.raises(ValueError, match="c > 0"):
            InverseDecayRate(c, offset)


class TestGlobalLoss:
    def test_single_satellite_reduction(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(10, 2)), rng.normal(size=10))
        spec = LossSpec("quadratic", regularization=0.2)
        w = rng.normal(size=2)
        kernel = make_loss_model(spec, 2)
        assert global_loss(w, [ds], spec) == pytest.approx(
            kernel.loss(w, ds.features, ds.labels)
        )

    def test_identical_satellites_symmetry(self):
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(8, 2)), rng.normal(size=8)
        spec = LossSpec("quadratic")
        w = rng.normal(size=2)
        d1 = Dataset(X, y, owner=0)
        d2 = Dataset(X.copy(), y.copy(), owner=1)
        assert global_loss(w, [d1, d2], spec) == pytest.approx(global_loss(w, [d1], spec))

    def test_pooled_data_oracle(self):
        # Weighted per-satellite mean must equal the flat pooled mean.
        rng = np.random.default_rng(6)
        spec = LossSpec("quadratic", regularization=0.05)
        datasets = [
            Dataset(rng.normal(size=(n, 3)), rng.normal(size=n), owner=i)
            for i, n in enumerate([5, 17, 8, 30, 11])
        ]
        w = rng.normal(size=3)
        pooled = Dataset(
            np.vstack([d.features for d in datasets]),
            np.concatenate([d.labels for d in datasets]),
        )
        kernel = make_loss_model(spec, 3)
        pooled_loss = kernel.loss(w, pooled.features, pooled.labels)
        assert abs(global_loss(w, datasets, spec) - pooled_loss) < 1e-12


class TestSynthesizeData:
    def test_iid_covers_all_classes(self):
        datasets = synthesize_data("blobs", 10, [400] * 4, "iid", seed=0)
        for ds in datasets:
            assert set(np.unique(ds.labels)) == set(range(10))

    def test_non_iid_orbit_class_protocol(self):
        datasets = synthesize_data(
            "blobs", 10, [60] * 10, "non-iid-2class", seed=1, num_orbits=5
        )
        for sat, ds in enumerate(datasets):
            orbit = sat // 2
            assert set(np.unique(ds.labels)) <= set(orbit_classes(orbit, 10))
        assert [orbit_classes(p, 10) for p in range(5)] == [
            (0, 1), (2, 3), (4, 5), (6, 7), (8, 9)
        ]

    def test_sample_conservation(self):
        sizes = [3, 14, 15, 9, 2]
        datasets = synthesize_data("blobs", 4, sizes, "iid", seed=2)
        assert [d.size for d in datasets] == sizes

    def test_deterministic(self):
        a = synthesize_data("blobs", 3, [10, 20], "iid", seed=7)
        b = synthesize_data("blobs", 3, [10, 20], "iid", seed=7)
        for x, y in zip(a, b):
            assert x.features.tobytes() == y.features.tobytes()
            assert x.labels.tobytes() == y.labels.tobytes()

    def test_rejects_bad_split_combo(self):
        with pytest.raises(ValueError, match="iid"):
            synthesize_data("linear-regression", 2, [5], "non-iid-2class", seed=0)
        with pytest.raises(ValueError, match="num_orbits"):
            synthesize_data("blobs", 4, [5, 5, 5], "non-iid-2class", seed=0, num_orbits=2)

    def test_blob_centers_unit_spacing(self):
        centers = blob_centers(10, 2)
        gaps = np.linalg.norm(np.diff(np.vstack([centers, centers[:1]]), axis=0), axis=1)
        np.testing.assert_allclose(gaps, 1.0)

    def test_regression_heterogeneity_spreads_coefficients(self):
        homo = synthesize_data("linear-regression", 0, [200] * 3, "iid", seed=3,
                               feature_dim=2, noise=0.0, heterogeneity=0.0)
        hetero = synthesize_data("linear-regression", 0, [200] * 3, "iid", seed=3,
                                 feature_dim=2, noise=0.0, heterogeneity=1.0)
        coef = [np.linalg.lstsq(d.features, d.labels, rcond=None)[0] for d in homo]
        assert np.allclose(coef[0], coef[1])
        coef_h = [np.linalg.lstsq(d.features, d.labels, rcond=None)[0] for d in hetero]
        assert not np.allclose(coef_h[0], coef_h[1])

    def test_centralized_logistic_accuracy_headroom(self):
        # Blob geometry must leave >= 95% achievable for a linear model.
        datasets = synthesize_data("blobs", 10, [200] * 5, "iid", seed=11)
        pooled = Dataset(
            np.vstack([d.features for d in datasets]),
            np.concatenate([d.labels for d in datasets]),
        )
        spec = LossSpec("logistic-l2", regularization=1e-3, num_classes=10)
        w = np.zeros(make_loss_model(spec, 2).dim)
        cfg = SgdConfig(local_steps=400, learning_rate=0.5, mini_batch=10**9, seed=0)
        w = local_sgd(w, pooled, spec, cfg)
        assert global_accuracy(w, pooled, spec) >= 0.95


class TestHoldoutSplit:
    def test_fraction_zero_is_identity(self):
        datasets = synthesize_data("blobs", 3, [10, 10], "iid", seed=0)
        train, hold = split_holdout(datasets, 0.0, seed=1)
        assert hold is None
        assert [d.size for d in train] == [10, 10]

    def test_split_sizes_and_disjointness(self):
        datasets = synthesize_data("blobs", 3, [50, 30], "iid", seed=0)
        train, hold = split_holdout(datasets, 0.1, seed=1)
        assert [d.size for d in train] == [45, 27]
        assert hold.size == 8


class TestCsvRoundTrip:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,y\n1.0,2.0,0\n3.5,-1.25,1\n0.0,0.5,2\n")
        ds = load_csv(path)
        assert ds.size == 3
        assert ds.feature_dim == 2
        assert ds.labels.tolist() == [0, 1, 2]

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,y\n1.0,0\nboom,1\n")
        with pytest.raises(ValueError, match=r"line 3.*column f0"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_round_trip_bitwise(self, tmp_path):
        for kind, classes in (("blobs", 4), ("linear-regression", 0)):
            (ds,) = synthesize_data(kind, classes, [23], "iid", seed=5)
            p1 = tmp_path / f"{kind}.csv"
            save_csv(ds, p1)
            back = load_csv(p1, owner=ds.owner)
            assert back.features.tobytes() == ds.features.tobytes()
            assert np.array_equal(back.labels, ds.labels)
            p2 = tmp_path / f"{kind}2.csv"
            save_csv(back, p2)
            assert p1.read_bytes() == p2.read_bytes()
