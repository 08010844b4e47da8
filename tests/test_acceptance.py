"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The heavyweight fixtures (30-seed quadratic runs, convergence smoke)
are shared across criteria.
"""
import functools
import logging
import time
import warnings

import numpy as np
import pytest

from conftest import lockstep_schedule, make_schedule
from ltpfleo.aggregation import compute_weights
from ltpfleo.analysis import (
    check_one_step_contraction,
    compute_bound_params,
    estimate_constants,
    fairness_gap,
    loglog_slope,
    solve_optimum,
    theorem_bound,
    theory_rate,
)
from ltpfleo.eventlog import read_event_log
from ltpfleo.orbital import (
    ConstellationSpec,
    GroundStation,
    build_walker_delta,
    compute_visibility,
)
from ltpfleo.partitioning import build_partitions
from ltpfleo.privacy_audit import (
    build_observation_matrix,
    check_partition_structure,
    differencing_attack,
    direct_min_support,
    ltp_verdict_over_run,
    observation_records,
)
from ltpfleo.scheduling import staleness_filter
from ltpfleo.simulator import BaselineEngine, SimulationEngine, run
from ltpfleo.training import (
    Dataset,
    LossSpec,
    SgdConfig,
    global_accuracy,
    local_sgd,
    make_loss_model,
    split_holdout,
    synthesize_data,
)


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:02d}] FAIL  {title}")
                raise
            print(f"\n[criterion {num:02d}] PASS  {title}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Shared heavyweight instances

@pytest.fixture(scope="module")
def theorem_instance():
    """12-satellite heterogeneous quadratic: constants, optimum, and 30
    seeded 500-round runs under the theory's decaying step schedule."""
    t0 = time.perf_counter()
    k, d, local_steps, rounds, seeds = 12, 4, 5, 500, 30
    datasets = synthesize_data(
        "linear-regression", 0, [40] * k, "iid", seed=2024,
        feature_dim=d, noise=0.4, heterogeneity=0.8,
    )
    probe_opt, _ = solve_optimum(LossSpec("quadratic", regularization=0.5), datasets)
    radius = 2.0 * float(np.linalg.norm(probe_opt)) + 1.0
    loss = LossSpec("quadratic", regularization=0.5, clip_radius=radius)
    constants = estimate_constants(loss, datasets, radius, 8, seed=7)
    w_star, f_star = solve_optimum(loss, datasets)
    params = compute_bound_params(
        constants, local_steps, float(np.sum(w_star**2)), f_star
    )
    rate = theory_rate(constants, params)
    schedule = lockstep_schedule(k, cycles=600)
    partitions = build_partitions(schedule, 2)
    losses = np.zeros((seeds, rounds))
    trajectories = []
    results = []
    for s in range(seeds):
        engine = SimulationEngine(
            schedule=schedule,
            partitions=partitions,
            datasets=datasets,
            loss=loss,
            sgd=SgdConfig(local_steps=local_steps, learning_rate=rate, mini_batch=8),
            alpha="t",
            seed=1000 + s,
            rounds=rounds,
            initial_model=np.zeros(d),
        )
        res = engine.run()
        assert len(res.records) == rounds
        losses[s] = [r.global_loss for r in res.records]
        trajectories.append([np.zeros(d)] + [np.asarray(r.global_after) for r in res.records])
        results.append(res)
    return {
        "constants": constants,
        "params": params,
        "rate": rate,
        "w_star": w_star,
        "f_star": f_star,
        "local_steps": local_steps,
        "rounds": rounds,
        "losses": losses,
        "trajectories": trajectories,
        "results": results,
        "elapsed_s": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def smoke_runs():
    """Non-IID two-class blobs over 5 orbits, federated at two privacy levels
    plus a centralized pooled reference."""
    t0 = time.perf_counter()
    k, classes, orbits = 30, 10, 5
    datasets = synthesize_data(
        "blobs", classes, [40] * k, "non-iid-2class", seed=77,
        feature_dim=2, noise=0.2, num_orbits=orbits,
    )
    train, holdout = split_holdout(datasets, 0.1, 77)
    loss = LossSpec("logistic-l2", regularization=0.01, num_classes=classes)
    kernel = make_loss_model(loss, 2)

    pooled = Dataset(
        np.vstack([d.features for d in train]),
        np.concatenate([d.labels for d in train]),
        owner=0,
    )
    w = np.zeros(kernel.dim)
    w = local_sgd(
        w, pooled, loss, SgdConfig(local_steps=400, learning_rate=0.5, mini_batch=10**9)
    )
    centralized_acc = global_accuracy(w, holdout, loss)

    schedule = lockstep_schedule(k, cycles=300)
    by_level = {}
    for level in (2, 6):
        engine = SimulationEngine(
            schedule=schedule,
            partitions=build_partitions(schedule, level),
            datasets=train,
            loss=loss,
            sgd=SgdConfig(local_steps=5, learning_rate=0.3, mini_batch=16),
            alpha=3,
            seed=55,
            rounds=200,
            initial_model=np.zeros(kernel.dim),
            holdout=holdout,
        )
        by_level[level] = engine.run()
    return {
        "centralized_acc": centralized_acc,
        "by_level": by_level,
        "elapsed_s": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# Criteria

@criterion(1, "worked staleness-filter example reproduced exactly, under 1 ms")
def test_criterion_01_staleness_example():
    freqs = {1: 3, 2: 1, 3: 9, 4: 7}
    staleness_filter([1, 2, 3, 4], freqs, 10, 3)  # warm-up
    t0 = time.perf_counter()
    selected = staleness_filter([1, 2, 3, 4], freqs, 10, 3)
    elapsed = time.perf_counter() - t0
    assert selected == [3, 4]
    assert elapsed < 1e-3


@criterion(2, "LTP holds on 1000 random runs; exhaustive oracle agrees for K <= 12")
def test_criterion_02_ltp_property_suite():
    logging.getLogger("ltpfleo.aggregation").setLevel(logging.ERROR)
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240810)
    alphas = [1, 2, 3, "t"]
    runs = direct_checked = 0
    from ltpfleo.orbital import ContactSchedule, VisibilityWindow

    for _ in range(1000):
        level = int(rng.choice([2, 3, 4, 6]))
        groups = int(rng.integers(1, 24 // level + 1))
        k = level * groups
        windows = {}
        for s in range(k):
            start = float(rng.uniform(0.0, 200.0))
            width = float(rng.uniform(400.0, 800.0))
            windows[s] = tuple(
                VisibilityWindow(s, n * 1500.0 + start, n * 1500.0 + start + width)
                for n in range(8)
            )
        schedule = ContactSchedule(horizon_s=12000.0, sample_step_s=10.0, windows=windows)
        datasets = synthesize_data(
            "linear-regression", 0,
            [int(rng.integers(2, 9)) for _ in range(k)], "iid",
            seed=int(rng.integers(1 << 30)), feature_dim=2, noise=0.2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            engine = SimulationEngine(
                schedule=schedule,
                partitions=build_partitions(schedule, level),
                datasets=datasets,
                loss=LossSpec("quadratic", regularization=0.2),
                sgd=SgdConfig(local_steps=1, learning_rate=0.05, mini_batch=10**9),
                alpha=alphas[int(rng.integers(0, 4))],
                seed=int(rng.integers(1 << 30)),
                rounds=6,
            )
            result = engine.run()
        reports = ltp_verdict_over_run(result.header, result.records, window_rounds=5)
        for rep in reports:
            assert rep.passed, f"violation: K={k} L={level} window={rep.window}"
            assert rep.min_support is None or rep.min_support >= level
            assert rep.individually_exposed == ()
        if k <= 12:
            for rep in reports:
                matrix = build_observation_matrix(result.header, result.records, rep.window)
                assert check_partition_structure(matrix, result.header.data_sizes)
                assert direct_min_support(matrix) == rep.min_support
                direct_checked += 1
        runs += 1
    elapsed = time.perf_counter() - t0
    assert runs == 1000
    assert direct_checked > 100
    assert elapsed < 600.0


@criterion(3, "baseline leaks; differencing attack exact when static, drift-limited live")
def test_criterion_03_attack_demonstration():
    # (a) the no-partition baseline produces a failing window: satellite 2
    # rises a few rounds into the run, handing the server a one-satellite
    # participation delta.
    schedule = make_schedule(
        {0: [(0.0, 1e9)], 1: [(0.0, 1e9)], 2: [(350.0, 1e9)]}, horizon_s=1e9
    )
    datasets = synthesize_data(
        "linear-regression", 0, [8, 12, 10], "iid", seed=3,
        feature_dim=3, noise=0.2, heterogeneity=0.5,
    )
    engine = BaselineEngine(
        schedule=schedule,
        datasets=datasets,
        loss=LossSpec("quadratic", regularization=0.1),
        sgd=SgdConfig(local_steps=3, learning_rate=0.05, mini_batch=4),
        seed=11,
        rounds=10,
    )
    result = engine.run()
    reports = ltp_verdict_over_run(result.header, result.records, window_rounds=5)
    assert any(not rep.passed for rep in reports)
    assert any(2 in rep.individually_exposed for rep in reports)

    # (b) static-model synthetic log: exact recovery
    w1, w2, w3 = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 2.0])
    from fractions import Fraction as F

    attack = differencing_attack(
        w1 + w2,
        w1 + w2 + w3,
        {1: F(1), 2: F(1)},
        {1: F(1), 2: F(1), 3: F(1)},
        true_models={3: w3},
    )
    np.testing.assert_allclose(attack.estimate, w3, atol=1e-12)
    assert attack.residual <= 1e-12

    # (c) live SGD run: residual equals the measured inter-round drift
    obs = observation_records(result.header, result.records)
    join = next(
        i for i in range(len(obs) - 1)
        if set(obs[i + 1].coefficients) - set(obs[i].coefficients) == {2}
    )
    rec_t, rec_t1 = result.records[join], result.records[join + 1]
    c_t, c_t1 = obs[join].coefficients, obs[join + 1].coefficients
    truth = {k: np.asarray(v) for k, v in rec_t1.member_models.items()}
    attack = differencing_attack(
        np.asarray(rec_t.global_after),
        np.asarray(rec_t1.global_after),
        c_t,
        c_t1,
        true_models=truth,
    )
    assert attack.residual > 0
    rho = float(c_t1[0] / c_t[0])
    drift = sum(
        float(c_t[k]) * (np.asarray(rec_t1.member_models[k]) - np.asarray(rec_t.member_models[k]))
        for k in (0, 1)
    )
    measured = float(np.linalg.norm(rho * drift / float(c_t1[2])))
    assert attack.residual == pytest.approx(measured, abs=1e-9)


@criterion(4, "full-fairness gap exactly zero; adversarial tight band gap >= 0.5")
def test_criterion_04_fairness():
    # alpha = t over 55 rounds, with one partition going dark after cycle 0:
    # cached models keep it participating and the gap is exactly zero.
    spans = [(n * 1000.0, n * 1000.0 + 400.0) for n in range(80)]
    schedule = make_schedule(
        {0: spans, 1: spans, 2: [(0.0, 400.0)], 3: [(0.0, 400.0)]}, horizon_s=80000.0
    )
    datasets = synthesize_data(
        "linear-regression", 0, [6] * 4, "iid", seed=5, feature_dim=2, noise=0.1
    )
    common = dict(
        datasets=datasets,
        loss=LossSpec("quadratic", regularization=0.1),
        sgd=SgdConfig(local_steps=1, learning_rate=0.05, mini_batch=4),
        seed=9,
    )
    full = SimulationEngine(
        schedule=schedule, partitions=build_partitions(schedule, 2),
        alpha="t", rounds=55, **common,
    ).run()
    assert len(full.records) == 55
    report = fairness_gap(full.participation_log)
    assert report.gap == 0.0

    # alpha = 1 with adversarial visibility: partition {2,3} misses round 2
    # and can never re-enter the band.
    schedule2 = make_schedule(
        {
            0: [(0.0, 1e9)],
            1: [(0.0, 1e9)],
            2: [(0.0, 300.0), (1e6, 1e9)],
            3: [(0.0, 300.0), (1e6, 1e9)],
        },
        horizon_s=1e9,
    )
    tight = SimulationEngine(
        schedule=schedule2, partitions=build_partitions(schedule2, 2),
        alpha=1, rounds=50, **common,
    ).run()
    report2 = fairness_gap(tight.participation_log)
    assert report2.gap >= 0.5


@criterion(5, "weights sum to one at 1e-12 over 500 rounds; scaling is bit-exact")
def test_criterion_05_weight_correctness(theorem_instance):
    result = theorem_instance["results"][0]
    assert len([r for r in result.records if not r.skipped]) == 500
    for rec in result.records:
        total = sum(rec.beta.values())
        assert total == 1  # exact rational identity
        float_total = sum(float(b) for b in rec.beta.values())
        assert abs(float_total - 1.0) < 1e-12
        assert all(b >= 0 for b in rec.beta.values())

    # scaling equivariance replayed from logged frequencies
    sizes = {
        pid: sum(result.header.data_sizes[k] for k in members)
        for pid, members in result.header.partitions.items()
    }
    for rec in result.records[:: 50]:
        selected = sorted(rec.beta)
        a = compute_weights(selected, rec.frequencies, sizes, rec.round_index)
        b = compute_weights(
            selected, rec.frequencies, {p: 7 * n for p, n in sizes.items()}, rec.round_index
        )
        assert a.beta == b.beta
        for pid in selected:
            assert a.beta_float(pid) == b.beta_float(pid)


@criterion(6, "empirical gap under the theoretical bound for T=1..500; slope in band")
def test_criterion_06_convergence_bound(theorem_instance):
    inst = theorem_instance
    losses = inst["losses"]
    seeds = losses.shape[0]
    assert seeds == 30
    gaps = losses.mean(axis=0) - inst["f_star"]
    stderr = losses.std(axis=0, ddof=1) / np.sqrt(seeds)
    bounds = np.array(
        [
            theorem_bound(inst["constants"], inst["params"], inst["local_steps"], t)
            for t in range(1, inst["rounds"] + 1)
        ]
    )
    assert np.all(gaps <= bounds + 2.0 * stderr)
    slope = loglog_slope(range(250, 501), gaps[249:500])
    assert -1.3 <= slope <= -0.7
    assert inst["elapsed_s"] < 300.0


@criterion(7, "one-step contraction margins nonnegative on >= 95% of sync steps")
def test_criterion_07_contraction(theorem_instance):
    inst = theorem_instance
    margins = check_one_step_contraction(
        inst["trajectories"],
        inst["w_star"],
        inst["constants"],
        inst["params"],
        inst["rate"],
        inst["local_steps"],
    )
    assert len(margins) == inst["rounds"]
    nonneg = sum(m.margin >= 0 for m in margins) / len(margins)
    assert nonneg >= 0.95
    assert not any(m.violation for m in margins)


@criterion(8, "non-IID smoke reaches 90% of centralized; higher level no faster")
def test_criterion_08_convergence_smoke(smoke_runs):
    inst = smoke_runs
    target = 0.9 * inst["centralized_acc"]
    assert inst["centralized_acc"] >= 0.9  # sanity: the reference itself is strong

    def accuracy_curve(result):
        return [(r.t_end_s, r.accuracy) for r in result.records if not r.skipped]

    final = {}
    hours_to_target = {}
    for level, result in inst["by_level"].items():
        curve = accuracy_curve(result)
        final[level] = curve[-1][1]
        hours_to_target[level] = next(
            (t / 3600.0 for t, acc in curve if acc is not None and acc >= target),
            float("inf"),
        )
    assert final[2] >= target
    assert hours_to_target[2] < float("inf")
    assert hours_to_target[6] >= hours_to_target[2]
    assert inst["elapsed_s"] < 600.0


@criterion(9, "orbital period matches Kepler; visible time stable under refinement")
def test_criterion_09_orbital_sanity():
    spec = ConstellationSpec(
        num_orbits=5, sats_per_orbit=10, altitude_km=780.0, inclination_deg=80.0
    )
    station = GroundStation(latitude_deg=45.0, longitude_deg=-100.0, min_elevation_deg=15.0)
    for el in build_walker_delta(spec):
        assert abs(el.period_s - 6018.0) <= 2.0
    coarse = compute_visibility(spec, station, 86400.0, 10.0)
    fine = compute_visibility(spec, station, 86400.0, 1.0)
    rel = abs(coarse.total_visible_s() - fine.total_visible_s()) / fine.total_visible_s()
    assert rel < 0.01


@criterion(10, "gradients match finite differences; identical configs, identical logs")
def test_criterion_10_gradients_and_determinism(tmp_path):
    rng = np.random.default_rng(1234)
    specs = [
        LossSpec("quadratic", regularization=0.1),
        LossSpec("logistic-l2", regularization=0.05, num_classes=3),
        LossSpec("mlp-small", regularization=0.01, num_classes=3, hidden_units=6),
    ]
    for spec in specs:
        kernel = make_loss_model(spec, 3)
        if spec.kind == "quadratic":
            X, y = rng.normal(size=(15, 3)), rng.normal(size=15)
        else:
            X, y = rng.normal(size=(15, 3)), rng.integers(0, 3, size=15)
        for _ in range(100):
            w = rng.normal(size=kernel.dim)
            analytic = kernel.grad(w, X, y)
            numeric = np.zeros_like(w)
            for i in range(w.size):
                e = np.zeros_like(w)
                e[i] = 1e-6
                numeric[i] = (kernel.loss(w + e, X, y) - kernel.loss(w - e, X, y)) / 2e-6
            denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4

    from test_simulator import smoke_config

    cfg = smoke_config(seed=33)
    log1, log2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    run(cfg, event_log_path=log1)
    run(cfg, event_log_path=log2)
    assert log1.read_bytes() == log2.read_bytes()
    header, records = read_event_log(log1)
    assert records, "determinism check needs a non-empty run"
