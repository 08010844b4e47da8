import warnings

import numpy as np
import pytest

from conftest import lockstep_schedule, make_schedule
from ltpfleo.aggregation import ModelCache
from ltpfleo.config import config_from_header_payload
from ltpfleo.eventlog import (
    SchemaMismatchError,
    load_checkpoint,
    read_event_log,
    save_checkpoint,
    write_event_log,
)
from ltpfleo.partitioning import build_partitions
from ltpfleo.simulator import (
    BaselineEngine,
    DataSpec,
    SimConfig,
    SimulationEngine,
    SimulationError,
    _jsonable,
    config_digest,
    run,
    run_baseline,
)
from ltpfleo.training import InverseDecayRate, LossSpec, SgdConfig, synthesize_data


def quadratic_datasets(k, n=12, seed=0, heterogeneity=0.5):
    return synthesize_data(
        "linear-regression", 0, [n] * k, "iid", seed=seed,
        feature_dim=3, noise=0.2, heterogeneity=heterogeneity,
    )


def small_engine(schedule, ltp=2, alpha=3, rounds=20, seed=1, k=6, **over):
    datasets = quadratic_datasets(k, seed=seed)
    kwargs = dict(
        schedule=schedule,
        partitions=build_partitions(schedule, ltp),
        datasets=datasets,
        loss=LossSpec("quadratic", regularization=0.1),
        sgd=SgdConfig(local_steps=2, learning_rate=0.05, mini_batch=6, seed=seed),
        alpha=alpha,
        seed=seed,
        rounds=rounds,
    )
    kwargs.update(over)
    return SimulationEngine(**kwargs)


def replay_global_updates(header, records):
    """Independent checker: rebuild every w^{t+1} from logged inputs only."""
    worst = 0.0
    for rec in records:
        if rec.skipped:
            continue
        expected = np.zeros(header.model_dim)
        for pid, beta in rec.beta.items():
            members = header.partitions[pid]
            total = sum(header.data_sizes[k] for k in members)
            inner = np.zeros(header.model_dim)
            for k in members:
                share = (
                    header.data_sizes[k] / total
                    if header.aggregation_mode != "literal"
                    else 1.0
                )
                inner += share * np.asarray(rec.member_models[k])
            expected += float(beta) * inner
        worst = max(worst, float(np.max(np.abs(expected - np.asarray(rec.global_after)))))
    return worst


class TestEngineBasics:
    def test_example_topology_full_run(self):
        sched = lockstep_schedule(6, cycles=40)
        engine = small_engine(sched, ltp=2, alpha=3, rounds=20)
        result = engine.run()
        assert len(result.records) == 20
        members = {p.id: set(p.members) for p in result.partitions.partitions}
        for rec in result.records:
            assert not rec.skipped
            for pid in rec.selected:
                logged = {k for k in rec.member_models if k in members[pid]}
                assert logged == members[pid]  # all-or-none

    def test_zero_rounds_returns_untouched_model(self):
        sched = lockstep_schedule(4, cycles=5)
        init = np.array([1.0, 2.0, 3.0])
        engine = small_engine(sched, ltp=2, rounds=0, k=4, initial_model=init)
        result = engine.run()
        assert result.records == []
        np.testing.assert_array_equal(result.final_model, init)

    def test_monotone_sim_time(self):
        sched = lockstep_schedule(6, cycles=60)
        result = small_engine(sched, rounds=30).run()
        times = [(r.t_start_s, r.t_end_s) for r in result.records]
        for (s0, e0), (s1, e1) in zip(times, times[1:]):
            assert e0 > s0
            assert s1 >= e0

    def test_aborts_without_any_common_visibility(self):
        sched = make_schedule({0: [(0, 100)], 1: [(200, 300)]}, horizon_s=400)
        datasets = quadratic_datasets(2)
        with pytest.warns(UserWarning):
            partitions = build_partitions(sched, 2)
        engine = SimulationEngine(
            schedule=sched,
            partitions=partitions,
            datasets=datasets,
            loss=LossSpec("quadratic", regularization=0.1),
            sgd=SgdConfig(local_steps=1, learning_rate=0.05, mini_batch=4),
            alpha=3,
            seed=0,
            rounds=5,
        )
        with pytest.raises(SimulationError, match="common visibility"):
            engine.run()

    def test_time_budget_mode(self):
        sched = lockstep_schedule(4, cycles=60)
        engine = small_engine(sched, k=4, rounds=None, time_budget_s=3600.0)
        result = engine.run()
        assert result.records
        assert result.sim_time_s >= 3600.0
        assert result.records[0].t_start_s < 3600.0

    def test_replay_oracle(self):
        sched = lockstep_schedule(6, cycles=40)
        result = small_engine(sched, rounds=20).run()
        assert replay_global_updates(result.header, result.records) < 1e-12

    def test_skipped_rounds_advance_time_and_index(self):
        # Partition 1's satellites show up once and then vanish: with a
        # tight band, later rounds where only they fit are skipped.
        spans0 = [(n * 1000.0, n * 1000.0 + 400.0) for n in range(40)]
        sched = make_schedule(
            {
                0: spans0,
                1: spans0,
                2: [(0.0, 400.0), (5000.0, 5400.0)],
                3: [(0.0, 400.0), (5000.0, 5400.0)],
            },
            horizon_s=45000.0,
        )
        engine = small_engine(sched, k=4, ltp=2, alpha=1, rounds=12)
        result = engine.run()
        assert len(result.records) == 12
        f = result.participation_log.frequencies(13)
        assert max(f.values()) > min(f.values())


def stall_warnings(caught):
    return [w for w in caught if "staleness band" in str(w.message)]


class TestEngineModels:
    def test_rejects_non_finite_initial_model(self):
        sched = lockstep_schedule(4, cycles=5)
        with pytest.raises(ValueError, match="finite"):
            small_engine(sched, k=4, initial_model=np.array([1.0, np.nan, 0.0]))

    def test_rejects_matrix_initial_model(self):
        sched = lockstep_schedule(4, cycles=5)
        with pytest.raises(ValueError, match="shape"):
            small_engine(sched, k=4, initial_model=np.zeros((3, 3)))

    def test_produced_and_cached_models_are_read_only(self, monkeypatch):
        # Partition {2, 3} is visible only at first, so later rounds fetch
        # its models from the cache.
        spans0 = [(n * 1000.0, n * 1000.0 + 400.0) for n in range(40)]
        sched = make_schedule(
            {0: spans0, 1: spans0, 2: [(0.0, 400.0)], 3: [(0.0, 400.0)]},
            horizon_s=41000.0,
        )
        handed_out = []
        original = ModelCache.fetch_or_cache

        def recording(self, *args, **kwargs):
            models, age = original(self, *args, **kwargs)
            handed_out.append((age, models))
            return models, age

        monkeypatch.setattr(ModelCache, "fetch_or_cache", recording)
        init = np.zeros(3)
        engine = small_engine(sched, k=4, ltp=2, alpha="t", rounds=6, initial_model=init)
        result = engine.run()
        assert any(age > 0 for age, _ in handed_out)
        produced = [m for _, models in handed_out for m in models.values()]
        produced += [engine.initial_model, result.final_model]
        for model in produced:
            assert model.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                model[0] = 1.0
        init[0] = 5.0  # the caller's array stays the caller's
        assert engine.initial_model[0] == 0.0


class TestIntegerAlphaStall:
    def test_stall_warns_once_naming_round_and_alpha(self):
        # Two partitions with alternating passes: under alpha = 1 each one
        # drops out the first time a round anchors on the other.
        sched = make_schedule(
            {
                0: [(n * 1000.0, n * 1000.0 + 400.0) for n in range(60)],
                1: [(n * 1000.0, n * 1000.0 + 400.0) for n in range(60)],
                2: [(n * 1000.0 + 500.0, n * 1000.0 + 900.0) for n in range(60)],
                3: [(n * 1000.0 + 500.0, n * 1000.0 + 900.0) for n in range(60)],
            },
            horizon_s=60000.0,
        )
        engine = small_engine(sched, k=4, ltp=2, alpha=1, rounds=30)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = engine.run()
        # first round t > alpha with every logged f_G < t - alpha
        stall = next(
            rec.round_index
            for rec in result.records
            if rec.round_index > 1
            and all(f < rec.round_index - 1 for f in rec.frequencies.values())
        )
        (warned,) = stall_warnings(caught)
        assert f"round {stall}:" in str(warned.message)
        assert "alpha = 1" in str(warned.message)
        assert all(rec.skipped for rec in result.records[stall - 1 :])
        assert not all(rec.skipped for rec in result.records[: stall - 1])

    def test_no_warning_while_one_partition_stays_in_band(self):
        # Criterion 4's tight band: partition {2, 3} falls out for good, but
        # {0, 1} is visible every round and stays in the band.
        sched = make_schedule(
            {
                0: [(0.0, 1e9)],
                1: [(0.0, 1e9)],
                2: [(0.0, 300.0), (1e6, 1e9)],
                3: [(0.0, 300.0), (1e6, 1e9)],
            },
            horizon_s=1e9,
        )
        engine = small_engine(sched, k=4, ltp=2, alpha=1, rounds=50)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = engine.run()
        assert stall_warnings(caught) == []
        assert not any(rec.skipped for rec in result.records)


class TestFullFairnessMode:
    def test_cached_partitions_fill_in(self):
        # Partition of sats {2,3} only visible early; with the sentinel it
        # keeps contributing through the cache afterwards.
        spans0 = [(n * 1000.0, n * 1000.0 + 400.0) for n in range(40)]
        sched = make_schedule(
            {
                0: spans0,
                1: spans0,
                2: [(0.0, 400.0)],
                3: [(0.0, 400.0)],
            },
            horizon_s=41000.0,
        )
        engine = small_engine(sched, k=4, ltp=2, alpha="t", rounds=10)
        result = engine.run()
        assert len(result.records) == 10
        # everyone recorded as participating every round
        rates = result.participation_log.rates()
        assert set(rates.values()) == {1.0}
        cached_rounds = [r for r in result.records if r.cached]
        assert cached_rounds, "expected cache-backed rounds"
        ages = [age for r in cached_rounds for age in r.cached.values()]
        assert max(ages) >= 1
        # after every partition has appeared once, aggregation uses all of them
        for rec in result.records[1:]:
            assert len(rec.beta) == len(result.partitions.partitions)

    def test_round_one_cache_miss_excluded_with_warning(self):
        spans0 = [(n * 1000.0, n * 1000.0 + 400.0) for n in range(40)]
        sched = make_schedule(
            {0: spans0, 1: spans0, 2: [(5000.0, 5400.0)], 3: [(5000.0, 5400.0)]},
            horizon_s=41000.0,
        )
        engine = small_engine(sched, k=4, ltp=2, alpha="t", rounds=3)
        with pytest.warns(UserWarning, match="no cached models"):
            result = engine.run()
        first = result.records[0]
        assert first.excluded
        assert set(first.selected) == {p.id for p in result.partitions.partitions}


class TestDeterminism:
    def test_identical_configs_byte_identical_logs(self, tmp_path):
        cfg = smoke_config(seed=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(cfg, event_log_path=p1)
        run(cfg, event_log_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_digest_sensitivity(self):
        a = smoke_config(seed=1)
        b = smoke_config(seed=2)
        assert config_digest(a) == config_digest(smoke_config(seed=1))
        assert config_digest(a) != config_digest(b)

    def test_header_round_trip_restores_schedule(self, tmp_path):
        rate = InverseDecayRate(0.4, 12.0)
        cfg = smoke_config(sgd=SgdConfig(local_steps=2, learning_rate=rate, mini_batch=4))
        path = tmp_path / "events.jsonl"
        run(cfg, event_log_path=path)
        header, _ = read_event_log(path)
        restored = config_from_header_payload(header.config)
        assert restored.sgd.learning_rate == rate
        assert restored == cfg

    def test_value_without_stable_form_is_rejected(self):
        cfg = smoke_config(sgd=SgdConfig(learning_rate=lambda step: 0.1))
        with pytest.raises(TypeError, match="no stable JSON form"):
            _jsonable(cfg)


class TestBaseline:
    def test_single_satellite_network(self):
        sched = make_schedule({0: [(n * 500.0, n * 500.0 + 300.0) for n in range(30)]},
                              horizon_s=16000.0)
        engine = BaselineEngine(
            schedule=sched,
            datasets=quadratic_datasets(1),
            loss=LossSpec("quadratic", regularization=0.1),
            sgd=SgdConfig(local_steps=2, learning_rate=0.05, mini_batch=4),
            seed=0,
            rounds=8,
        )
        result = engine.run()
        assert len(result.records) == 8
        for rec in result.records:
            assert rec.selected == (0,)

    def test_visible_subset_aggregated_each_round(self):
        sched = make_schedule(
            {
                0: [(0.0, 10000.0)],
                1: [(0.0, 10000.0)],
                2: [(4000.0, 10000.0)],
            },
            horizon_s=10000.0,
        )
        engine = BaselineEngine(
            schedule=sched,
            datasets=quadratic_datasets(3),
            loss=LossSpec("quadratic", regularization=0.1),
            sgd=SgdConfig(local_steps=1, learning_rate=0.05, mini_batch=4),
            seed=3,
            rounds=40,
        )
        result = engine.run()
        early = result.records[0]
        late = result.records[-1]
        assert set(early.selected) == {0, 1}
        assert set(late.selected) == {0, 1, 2}
        assert replay_global_updates(result.header, result.records) < 1e-12

    def test_baseline_reaches_target_in_no_more_rounds_paired_seeds(self):
        # Pins "no more rounds": a decoy pair with exclusive passes and zero
        # history captures anchors that the staleness band then skips, yet
        # the baseline still needs no more rounds than the partitioned run to
        # halve the loss gap. This is not a measured waiting cost: on all ten
        # seeds both runs reach the target at round 3, a tie. alpha = 20 keeps
        # the partitioned run training (alpha = 3 stalls it for good by round
        # 9-15 of 40) while 2-5 of its rounds are still skipped. 10 paired
        # seeds, full-batch (deterministic) local gradients on homogeneous data.
        period = 2000.0
        main = [(n * period, n * period + 600.0) for n in range(40)]
        decoy = [(n * period + 1000.0, n * period + 1300.0) for n in range(40)]
        sched = make_schedule(
            {**{k: list(main) for k in range(6)}, 6: list(decoy), 7: list(decoy)},
            horizon_s=period * 41,
        )
        loss = LossSpec("quadratic", regularization=0.2)
        for seed in range(10):
            datasets = quadratic_datasets(8, n=16, seed=100 + seed, heterogeneity=0.0)
            sgd = SgdConfig(local_steps=2, learning_rate=0.1, mini_batch=10**9)
            common = dict(loss=loss, sgd=sgd, seed=seed, rounds=40)
            base = BaselineEngine(schedule=sched, datasets=datasets, **common).run()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                part = SimulationEngine(
                    schedule=sched,
                    partitions=build_partitions(sched, 2),
                    datasets=datasets,
                    alpha=20,
                    **common,
                ).run()
            assert stall_warnings(caught) == []
            assert any(rec.skipped for rec in part.records)
            assert not any(rec.skipped for rec in base.records)

            start = base.records[0].global_loss
            floor = min(r.global_loss for r in base.records + part.records if not r.skipped)
            target = floor + 0.5 * (start - floor)

            def rounds_to(records):
                for rec in records:
                    if not rec.skipped and rec.global_loss <= target:
                        return rec.round_index
                return float("inf")

            assert rounds_to(base.records) <= rounds_to(part.records)


class TestEventLogIO:
    def test_round_trip(self, tmp_path):
        sched = lockstep_schedule(4, cycles=20)
        result = small_engine(sched, k=4, rounds=6).run()
        path = tmp_path / "events.jsonl"
        write_event_log(path, result.header, result.records)
        header, records = read_event_log(path)
        assert header.partitions == result.header.partitions
        assert header.data_sizes == result.header.data_sizes
        assert len(records) == 6
        for a, b in zip(records, result.records):
            assert a.beta == b.beta
            assert a.global_after == b.global_after
            assert a.member_models == b.member_models

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "header", "schema": "other-v9"}\n')
        with pytest.raises(SchemaMismatchError, match="other-v9"):
            read_event_log(path)

    def test_checkpoint_round_trip(self, tmp_path):
        vec = np.random.default_rng(0).normal(size=17)
        path = tmp_path / "model.bin"
        save_checkpoint(path, vec)
        assert path.stat().st_size == 8 + 17 * 8
        back = load_checkpoint(path)
        assert back.tobytes() == vec.tobytes()


def smoke_config(seed=0, **over):
    from ltpfleo.orbital import ConstellationSpec, GroundStation

    defaults = dict(
        constellation=ConstellationSpec(
            num_orbits=3, sats_per_orbit=2, altitude_km=780.0, inclination_deg=80.0
        ),
        station=GroundStation(latitude_deg=45.0, longitude_deg=-100.0, min_elevation_deg=-90.0),
        horizon_s=30000.0,
        sample_step_s=30.0,
        data=DataSpec(kind="linear-regression", feature_dim=2, samples_per_satellite=10,
                      noise=0.1),
        loss=LossSpec("quadratic", regularization=0.1),
        sgd=SgdConfig(local_steps=2, learning_rate=0.05, mini_batch=4),
        ltp_level=2,
        alpha=3,
        rounds=6,
        eval_fraction=0.0,
        seed=seed,
    )
    defaults.update(over)
    return SimConfig(**defaults)


class TestConfigLevelRun:
    def test_run_produces_artifacts(self, tmp_path):
        cfg = smoke_config(checkpoint_every=2)
        log = tmp_path / "events.jsonl"
        ckpt = tmp_path / "ckpt"
        result = run(cfg, event_log_path=log, checkpoint_dir=ckpt)
        assert log.exists()
        assert (ckpt / "final.bin").exists()
        final = load_checkpoint(ckpt / "final.bin")
        assert final.tobytes() == result.final_model.tobytes()

    def test_run_baseline_header_mode(self, tmp_path):
        cfg = smoke_config()
        result = run_baseline(cfg, event_log_path=tmp_path / "b.jsonl")
        assert result.header.aggregation_mode == "baseline"
        assert result.header.ltp_level == 1
        assert all(len(m) == 1 for m in result.header.partitions.values())
