"""Relations every run must satisfy, on both participant policies.

Truth: every satellite the audit exposes in a window trained in that window.
Relabeling: permuting the satellite ids of the schedule and the datasets,
with the partitions permuted alike, leaves ranks, minimum supports and
verdicts unchanged and maps exposures by the permutation. Coefficients
depend only on data sizes and participation, so this holds although local
training seeds depend on the satellite id.
"""
import warnings

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import make_schedule
from ltpfleo.config import load_config
from ltpfleo.partitioning import Partition, PartitionSet, build_partitions, common_windows
from ltpfleo.privacy_audit import ltp_verdict_over_run
from ltpfleo.simulator import BaselineEngine, SimulationEngine, run_baseline
from ltpfleo.training import Dataset, LossSpec, SgdConfig, synthesize_data

NUM_SATS = 8
ROUNDS = 12
WINDOW = 4
PERIOD_S = 1500.0

runs = st.fixed_dictionaries(
    {
        "starts": st.lists(st.integers(0, 1000), min_size=NUM_SATS, max_size=NUM_SATS),
        "widths": st.lists(st.integers(300, 700), min_size=NUM_SATS, max_size=NUM_SATS),
        "sizes": st.lists(st.integers(2, 9), min_size=NUM_SATS, max_size=NUM_SATS),
        "data_seed": st.integers(0, 2**20),
        "seed": st.integers(0, 2**20),
        "alpha": st.sampled_from([1, 2, 3, "t"]),
    }
)
relation_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _windows(run):
    return {
        s: [(n * PERIOD_S + lo, n * PERIOD_S + lo + w) for n in range(8)]
        for s, (lo, w) in enumerate(zip(run["starts"], run["widths"]))
    }


def _simulate(policy, run, windows, datasets, partitions=None):
    common = dict(
        schedule=make_schedule(windows, horizon_s=PERIOD_S * 9),
        datasets=datasets,
        loss=LossSpec("quadratic", regularization=0.2),
        sgd=SgdConfig(local_steps=1, learning_rate=0.05, mini_batch=10**9),
        seed=run["seed"],
        rounds=ROUNDS,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if policy == "baseline":
            return BaselineEngine(**common).run()
        return SimulationEngine(partitions=partitions, alpha=run["alpha"], **common).run()


def _audit(result):
    return ltp_verdict_over_run(result.header, result.records, window_rounds=WINDOW)


def _assert_exposed_trained(result, reports):
    # Who trained comes from the member models, which are keyed by the
    # satellite that produced them, less the members of cached partitions.
    trained_in = {}
    for rec in result.records:
        cached = {k for pid in rec.cached for k in result.header.partitions[pid]}
        trained_in[rec.round_index] = set(rec.member_models or ()) - cached
    for rep in reports:
        lo, hi = rep.window
        trained = set().union(*(trained_in[t] for t in range(lo, hi + 1)))
        assert set(rep.individually_exposed) <= trained, (rep.window, trained)


def _run_both(policy, run, perm=None):
    """The run as drawn, and with satellite k renamed perm[k]."""
    datasets = synthesize_data(
        "linear-regression", 0, run["sizes"], "iid", seed=run["data_seed"],
        feature_dim=2, noise=0.2,
    )
    windows = _windows(run)
    schedule = make_schedule(windows, horizon_s=PERIOD_S * 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a partition may have no common window
        partitions = build_partitions(schedule, 2)
    if policy == "partitioned":
        assume(any(common_windows(p.members, schedule) for p in partitions.partitions))
    original = _simulate(policy, run, windows, datasets, partitions)
    if perm is None:
        return original, None
    relabeled = _simulate(
        policy,
        run,
        {perm[k]: spans for k, spans in windows.items()},
        [Dataset(ds.features, ds.labels, owner=perm[ds.owner]) for ds in datasets],
        PartitionSet(
            tuple(
                Partition(id=p.id, members=tuple(perm[k] for k in p.members))
                for p in partitions.partitions
            ),
            target_ltp=partitions.target_ltp,
        ),
    )
    return original, relabeled


class TestTruthRelation:
    @relation_settings
    @given(runs)
    def test_baseline_exposes_only_trained_satellites(self, run):
        result, _ = _run_both("baseline", run)
        _assert_exposed_trained(result, _audit(result))

    @relation_settings
    @given(runs)
    def test_partitioned_exposes_only_trained_satellites(self, run):
        result, _ = _run_both("partitioned", run)
        _assert_exposed_trained(result, _audit(result))


class TestRelabelingRelation:
    def _check(self, policy, run, perm):
        original, relabeled = _run_both(policy, run, perm)
        a, b = _audit(original), _audit(relabeled)
        assert [r.window for r in a] == [r.window for r in b]
        for ra, rb in zip(a, b):
            assert (ra.rank, ra.min_support, ra.verdict) == (rb.rank, rb.min_support, rb.verdict)
            assert sorted(perm[k] for k in ra.individually_exposed) == sorted(
                rb.individually_exposed
            )

    @relation_settings
    @given(runs, st.permutations(range(NUM_SATS)))
    def test_baseline_exposures_follow_permutation(self, run, perm):
        self._check("baseline", run, perm)

    @relation_settings
    @given(runs, st.permutations(range(NUM_SATS)))
    def test_partitioned_exposures_follow_permutation(self, run, perm):
        self._check("partitioned", run, perm)


def test_baseline_partitions_are_satellites_on_orbital_schedule():
    # audit32-quadratic's constellation, few rounds: the baseline exposes
    # satellites, and each one it names trained in the window.
    cfg = load_config(
        None,
        [
            "num_orbits=4", "sats_per_orbit=8", "raan_spread_deg=40",
            "horizon_s=43200", "rounds=30", "loss_kind=quadratic",
            "data_kind=linear-regression", "clip_radius=5", "seed=41",
        ],
    )
    result = run_baseline(cfg)
    assert result.header.partitions == {k: (k,) for k in range(32)}
    reports = ltp_verdict_over_run(result.header, result.records, window_rounds=5)
    assert any(rep.individually_exposed for rep in reports)
    _assert_exposed_trained(result, reports)
    for rec in result.records:
        assert set(rec.beta) == set(rec.member_models) == set(rec.selected)
