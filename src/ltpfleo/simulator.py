"""The round-driving engine.

Advances simulated time along visibility windows: each round anchors on the
earliest fully-visible partition, extends to window-overlapping peers,
filters them through the staleness band, trains the visible members, and
aggregates with the fair weights. The no-partition baseline runs the same
loop with another participant policy: every satellite visible at the
earliest contact trains, weighted by data size. Every decision lands in the
event log that the privacy auditor and the analysis tooling consume.

All randomness flows from the single root seed; subsystem generators are
derived with fixed tags: (seed, 1) data synthesis, (seed, 2) model init,
(seed, 3) round overheads, (seed, 5, round, satellite) local training.
"""
from __future__ import annotations

import hashlib
import json
import logging
import warnings
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .aggregation import (
    CacheMissError,
    ModelCache,
    ModelVector,
    aggregate,
    compute_weights,
)
from .eventlog import EventLogHeader, RoundRecord, save_checkpoint, write_event_log
from .orbital import ConstellationSpec, ContactSchedule, GroundStation, compute_visibility
from .partitioning import (
    Partition,
    PartitionSet,
    build_partitions,
    common_window_index,
    select_candidates,
)
from .scheduling import FULL_FAIRNESS, ParticipationLog, record_round, staleness_filter
from .training import (
    Dataset,
    LossSpec,
    SgdConfig,
    global_accuracy,
    global_loss,
    load_csv,
    local_sgd,
    make_loss_model,
    split_holdout,
    synthesize_data,
)

logger = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class DataSpec:
    """What data each satellite holds."""

    kind: str = "blobs"  # blobs | linear-regression | csv
    num_classes: int = 10
    feature_dim: int = 2
    samples_per_satellite: int | tuple[int, ...] = 40
    split: str = "iid"
    noise: float = 0.2
    heterogeneity: float = 0.0
    csv_dir: str | None = None

    def sizes(self, num_satellites: int) -> list[int]:
        if isinstance(self.samples_per_satellite, int):
            return [self.samples_per_satellite] * num_satellites
        sizes = list(self.samples_per_satellite)
        if len(sizes) != num_satellites:
            raise ValueError(
                f"{len(sizes)} per-satellite sizes given for {num_satellites} satellites"
            )
        return sizes


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one run; hashable into the manifest."""

    constellation: ConstellationSpec
    station: GroundStation
    horizon_s: float
    data: DataSpec
    loss: LossSpec
    sgd: SgdConfig
    ltp_level: int = 2
    alpha: object = 3
    sample_step_s: float = 10.0
    rounds: int | None = None
    time_budget_s: float | None = None
    overhead_range_s: tuple[float, float] = (60.0, 180.0)
    aggregation_mode: str = "normalized"
    checkpoint_every: int = 0
    eval_fraction: float = 0.1
    init_scale: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.rounds is None) == (self.time_budget_s is None):
            raise ValueError("set exactly one of rounds / time_budget_s")
        if self.rounds is not None and self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        lo, hi = self.overhead_range_s
        if not 0 < lo <= hi:
            raise ValueError("overhead range must be positive and ordered")
        if self.alpha != FULL_FAIRNESS and (not isinstance(self.alpha, int) or self.alpha < 1):
            raise ValueError("alpha must be an integer >= 1 or the 't' sentinel")
        if self.aggregation_mode not in ("normalized", "literal"):
            raise ValueError("aggregation_mode must be 'normalized' or 'literal'")


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def config_digest(config: SimConfig) -> str:
    """Stable hash over every result-affecting config field."""
    payload = json.dumps(_jsonable(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class SimulationResult:
    header: EventLogHeader
    records: list[RoundRecord]
    final_model: ModelVector
    participation_log: ParticipationLog
    partitions: PartitionSet
    schedule: ContactSchedule
    train_datasets: list[Dataset]
    holdout: Dataset | None
    sim_time_s: float

    @property
    def global_losses(self) -> list[float]:
        return [r.global_loss for r in self.records if not r.skipped]


class _RoundPlan(NamedTuple):
    """What a participant policy decided for one round."""

    anchor: float
    span_end: float
    candidates: tuple[int, ...]
    selected: list[int]
    fresh: set[int]  # selected partitions that train now; the rest use cached models
    weight_frequencies: Mapping[int, int]  # f_G for the weights; all zero: data size alone


class SimulationEngine:
    """Drives rounds over a prepared schedule and datasets.

    One loop serves both participant policies: ``_plan_round`` decides who
    trains in a round and how they are weighted, and everything after it
    (training, caching, weighting, aggregation, the log record) is shared.
    This class plans partitioned rounds; ``BaselineEngine`` plans the
    no-partition baseline.
    """

    no_round_error = "no partition ever achieves common visibility within the schedule horizon"

    def __init__(
        self,
        *,
        schedule: ContactSchedule,
        partitions: PartitionSet,
        datasets: list[Dataset],
        loss: LossSpec,
        sgd: SgdConfig,
        alpha,
        seed: int,
        rounds: int | None = None,
        time_budget_s: float | None = None,
        overhead_range_s: tuple[float, float] = (60.0, 180.0),
        aggregation_mode: str = "normalized",
        initial_model: np.ndarray | None = None,
        holdout: Dataset | None = None,
        config_hash: str = "",
        config_payload: dict | None = None,
        log_member_models: bool = True,
    ):
        if (rounds is None) == (time_budget_s is None):
            raise ValueError("set exactly one of rounds / time_budget_s")
        self.schedule = schedule
        self.partitions = partitions
        self.datasets = {ds.owner: ds for ds in datasets}
        if sorted(self.datasets) != partitions.satellites:
            raise ValueError("datasets must cover exactly the partitioned satellites")
        self.loss = loss
        self.sgd = sgd
        self.alpha = alpha
        self.seed = seed
        self.rounds = rounds
        self.time_budget_s = time_budget_s
        self.overhead_range_s = overhead_range_s
        self.aggregation_mode = aggregation_mode
        self.holdout = holdout
        self.config_hash = config_hash
        self.config_payload = config_payload or {}
        self.log_member_models = log_member_models

        feature_dim = datasets[0].feature_dim
        self.kernel_dim = make_loss_model(loss, feature_dim).dim
        if initial_model is None:
            initial_model = np.zeros(self.kernel_dim)
        if initial_model.shape != (self.kernel_dim,):
            raise ValueError("initial model dimension mismatch")
        self.initial_model = np.asarray(initial_model, dtype=float)

        self.member_sizes = {k: ds.size for k, ds in self.datasets.items()}
        self.partition_sizes = {
            p.id: sum(self.member_sizes[k] for k in p.members) for p in partitions.partitions
        }
        self.members_map = {p.id: p.members for p in partitions.partitions}
        self.window_index = common_window_index(partitions, schedule)

    def _header(self) -> EventLogHeader:
        return EventLogHeader(
            config_hash=self.config_hash,
            seed=self.seed,
            ltp_level=self.partitions.target_ltp,
            alpha=self.alpha,
            aggregation_mode=self.aggregation_mode,
            partitions=dict(self.members_map),
            data_sizes=dict(self.member_sizes),
            model_dim=self.kernel_dim,
            loss_kind=self.loss.kind,
            config=self.config_payload,
        )

    def _train_partition(self, members, global_model: ModelVector, round_index: int):
        offset = (round_index - 1) * self.sgd.local_steps
        trained = {}
        for k in members:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 5, round_index, k)))
            model = local_sgd(
                global_model, self.datasets[k], self.loss, self.sgd, rng=rng, step_offset=offset
            )
            trained[k] = ModelVector(model.values, owner=k, round_produced=round_index)
        return trained

    def _snapshot(self, model: ModelVector) -> tuple[float, float | None]:
        loss_value = global_loss(model, list(self.datasets.values()), self.loss)
        accuracy = None
        if self.holdout is not None and self.loss.kind != "quadratic":
            accuracy = global_accuracy(model, self.holdout, self.loss)
        return loss_value, accuracy

    def _plan_round(self, now: float, t: int, freqs, rng_overhead) -> _RoundPlan | None:
        """Partitioned policy; None once the schedule is exhausted.

        Anchor the round on the earliest fully-visible partition whose common
        window can hold the round overhead, retrying past windows that are
        too short; keep the partitions whose common window covers the round,
        and pass them through the staleness band.
        """
        attempt_now = now
        while True:
            cs = select_candidates(self.partitions, self.schedule, attempt_now, self.window_index)
            if cs.empty:
                return None
            overhead = float(rng_overhead.uniform(*self.overhead_range_s))
            lo, hi = cs.common_windows[cs.best_id]
            anchor = max(attempt_now, lo)
            if hi - anchor >= overhead:
                break
            attempt_now = hi + 1e-6

        span_end = anchor + overhead
        fitting = [
            pid
            for pid in cs.partition_ids
            if cs.common_windows[pid][0] <= anchor and cs.common_windows[pid][1] >= span_end
        ]
        if self.alpha == FULL_FAIRNESS:
            selected = staleness_filter(
                fitting, freqs, t, FULL_FAIRNESS, all_partitions=self.partitions.ids
            )
            fresh = set(fitting)
        else:
            selected = staleness_filter(fitting, freqs, t, self.alpha)
            fresh = set(selected)
        return _RoundPlan(anchor, span_end, tuple(cs.partition_ids), selected, fresh, freqs)

    def run(self) -> SimulationResult:
        rng_overhead = np.random.default_rng(np.random.SeedSequence((self.seed, 3)))
        plog = ParticipationLog(self.partitions.ids)
        cache = ModelCache()
        model = ModelVector(self.initial_model.copy(), owner="global", round_produced=0)
        records: list[RoundRecord] = []
        warned_cache_miss: set[int] = set()
        warned_stall = False
        now = 0.0
        t = 1
        exhausted = False

        def keep_going() -> bool:
            if self.rounds is not None:
                return t <= self.rounds
            return now < self.time_budget_s

        while keep_going():
            freqs = plog.frequencies(t)
            plan = self._plan_round(now, t, freqs, rng_overhead)
            if plan is None:
                exhausted = True
                break
            selected = plan.selected

            if not selected:
                # f_G grows by at most one per round and the band floor
                # t - alpha by exactly one, so once every partition is below
                # the floor none can ever return.
                if (
                    not warned_stall
                    and self.alpha != FULL_FAIRNESS
                    and t > self.alpha
                    and all(f < t - self.alpha for f in freqs.values())
                ):
                    warned_stall = True
                    warnings.warn(
                        f"round {t}: every partition has fallen below the staleness band "
                        f"[t - {self.alpha}, t - 1] of alpha = {self.alpha} and none can "
                        "re-enter it; every later round is skipped",
                        stacklevel=2,
                    )
                record_round(plog, set(), t)
                records.append(
                    RoundRecord(
                        round_index=t,
                        t_start_s=plan.anchor,
                        t_end_s=plan.span_end,
                        skipped=True,
                        candidates=plan.candidates,
                        frequencies=freqs,
                    )
                )
                now = plan.span_end
                t += 1
                continue

            aggregating: dict[int, dict[int, ModelVector]] = {}
            cached_ages: dict[int, int] = {}
            excluded: list[int] = []
            for pid in selected:
                if pid in plan.fresh:
                    fresh = self._train_partition(self.members_map[pid], model, t)
                    cache.fetch_or_cache(pid, True, t, fresh)
                    aggregating[pid] = fresh
                else:
                    try:
                        models, age = cache.fetch_or_cache(pid, False, t)
                    except CacheMissError:
                        excluded.append(pid)
                        if pid not in warned_cache_miss:
                            warned_cache_miss.add(pid)
                            warnings.warn(
                                f"partition {pid} admitted at round {t} but has no cached "
                                "models yet; excluded from aggregation",
                                stacklevel=2,
                            )
                        continue
                    aggregating[pid] = models
                    cached_ages[pid] = age

            weights = compute_weights(
                sorted(aggregating), plan.weight_frequencies, self.partition_sizes, t
            )
            new_model = aggregate(
                weights,
                aggregating,
                self.member_sizes,
                self.members_map,
                mode=self.aggregation_mode,
            )
            if self.aggregation_mode == "normalized":
                max_norm = max(
                    float(np.linalg.norm(m.values))
                    for ms in aggregating.values()
                    for m in ms.values()
                )
                if float(np.linalg.norm(new_model.values)) > max_norm + 1e-9:
                    raise SimulationError(
                        f"round {t}: aggregate norm exceeds member maximum; "
                        "convexity violated"
                    )

            record_round(plog, selected, t)
            loss_value, accuracy = self._snapshot(new_model)
            member_payload = None
            if self.log_member_models:
                member_payload = {
                    k: m.values.tolist()
                    for ms in aggregating.values()
                    for k, m in sorted(ms.items())
                }
            records.append(
                RoundRecord(
                    round_index=t,
                    t_start_s=plan.anchor,
                    t_end_s=plan.span_end,
                    skipped=False,
                    candidates=plan.candidates,
                    selected=tuple(selected),
                    fresh=tuple(sorted(set(aggregating) - set(cached_ages))),
                    cached=cached_ages,
                    excluded=tuple(excluded),
                    frequencies=freqs,
                    beta=dict(weights.beta),
                    weight_starved=weights.weight_starved,
                    member_models=member_payload,
                    global_after=new_model.values.tolist(),
                    global_loss=loss_value,
                    accuracy=accuracy,
                )
            )
            model = new_model
            now = plan.span_end
            t += 1

        if exhausted and not records:
            raise SimulationError(self.no_round_error)
        if exhausted:
            logger.warning(
                "schedule exhausted after %d rounds (requested %s)", t - 1, self.rounds
            )
        return SimulationResult(
            header=self._header(),
            records=records,
            final_model=model,
            participation_log=plog,
            partitions=self.partitions,
            schedule=self.schedule,
            train_datasets=list(self.datasets.values()),
            holdout=self.holdout,
            sim_time_s=now,
        )


class BaselineEngine(SimulationEngine):
    """No-partition asynchronous baseline: every round aggregates whichever
    satellites are visible at the anchor with plain data-size weights.

    Every satellite is a partition of its own under the satellite's id, so
    the log's partition ids, beta keys and satellite ids agree. Takes the
    engine's arguments except ``partitions``, ``alpha`` and
    ``aggregation_mode``.
    """

    no_round_error = "no satellite is ever visible within the schedule horizon"

    def __init__(self, *, schedule: ContactSchedule, **engine_args):
        singletons = PartitionSet(
            tuple(Partition(id=k, members=(k,)) for k in schedule.satellites), target_ltp=1
        )
        super().__init__(
            schedule=schedule,
            partitions=singletons,
            alpha=1,
            aggregation_mode="normalized",
            **engine_args,
        )

    # Bound in this class's own namespace so that wrapping
    # BaselineEngine.__dict__["run"] (as perfbench/tracing.py does) times
    # baseline runs apart from partitioned ones.
    run = SimulationEngine.run

    def _header(self) -> EventLogHeader:
        return replace(super()._header(), aggregation_mode="baseline")

    def _plan_round(self, now: float, t: int, freqs, rng_overhead) -> _RoundPlan | None:
        """Anchor at the earliest contact of any satellite and train every
        satellite visible there, weighted by data size alone."""
        contacts = [self.schedule.next_contact_time(k, now) for k in self.schedule.satellites]
        upcoming = [max(c, now) for c in contacts if c is not None]
        if not upcoming:
            return None
        anchor = min(upcoming)
        participants = [k for k in self.schedule.satellites if self.schedule.visible_at(k, anchor)]
        span_end = anchor + float(rng_overhead.uniform(*self.overhead_range_s))
        return _RoundPlan(
            anchor,
            span_end,
            tuple(participants),
            participants,
            set(participants),
            dict.fromkeys(participants, 0),
        )


# ---------------------------------------------------------------------------
# Config-level entry points

def build_datasets(config: SimConfig) -> list[Dataset]:
    k = config.constellation.num_satellites
    data = config.data
    if data.kind == "csv":
        if not data.csv_dir:
            raise ValueError("csv data kind needs csv_dir")
        out = []
        for sat in range(k):
            path = Path(data.csv_dir) / f"sat_{sat:03d}.csv"
            if not path.exists():
                raise FileNotFoundError(f"dataset file missing: {path}")
            out.append(load_csv(path, owner=sat))
        return out
    return synthesize_data(
        data.kind,
        data.num_classes,
        data.sizes(k),
        data.split,
        config.seed,
        feature_dim=data.feature_dim,
        noise=data.noise,
        num_orbits=config.constellation.num_orbits,
        heterogeneity=data.heterogeneity,
    )


def _prepare(config: SimConfig):
    schedule = compute_visibility(
        config.constellation, config.station, config.horizon_s, config.sample_step_s
    )
    datasets = build_datasets(config)
    train, holdout = split_holdout(datasets, config.eval_fraction, config.seed)
    initial = draw_initial_model(config, make_loss_model(config.loss, train[0].feature_dim).dim)
    return schedule, train, holdout, initial


def draw_initial_model(config: SimConfig, dim: int) -> np.ndarray:
    """The run's initial global model w^1, drawn from its (seed, 2) generator."""
    rng_init = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
    return config.init_scale * rng_init.normal(size=dim)


def run(config: SimConfig, *, event_log_path=None, checkpoint_dir=None) -> SimulationResult:
    """Full partitioned run from a config; optionally persists artifacts."""
    return _run(config, event_log_path, checkpoint_dir, baseline=False)


def run_baseline(config: SimConfig, *, event_log_path=None, checkpoint_dir=None) -> SimulationResult:
    """Asynchronous no-partition baseline on the same configuration."""
    return _run(config, event_log_path, checkpoint_dir, baseline=True)


def _run(config: SimConfig, event_log_path, checkpoint_dir, *, baseline: bool) -> SimulationResult:
    schedule, train, holdout, initial = _prepare(config)
    common = dict(
        schedule=schedule,
        datasets=train,
        loss=config.loss,
        sgd=config.sgd,
        seed=config.seed,
        rounds=config.rounds,
        time_budget_s=config.time_budget_s,
        overhead_range_s=config.overhead_range_s,
        initial_model=initial,
        holdout=holdout,
        config_hash=config_digest(config),
        config_payload=_jsonable(config),
    )
    if baseline:
        engine = BaselineEngine(**common)
    else:
        engine = SimulationEngine(
            partitions=build_partitions(schedule, config.ltp_level),
            alpha=config.alpha,
            aggregation_mode=config.aggregation_mode,
            **common,
        )
    result = engine.run()
    _persist(result, config, event_log_path, checkpoint_dir)
    return result


def _persist(result: SimulationResult, config: SimConfig, event_log_path, checkpoint_dir):
    if event_log_path is not None:
        write_event_log(event_log_path, result.header, result.records)
    if checkpoint_dir is not None and config.checkpoint_every > 0:
        ckpt = Path(checkpoint_dir)
        ckpt.mkdir(parents=True, exist_ok=True)
        for rec in result.records:
            if not rec.skipped and rec.round_index % config.checkpoint_every == 0:
                save_checkpoint(
                    ckpt / f"round_{rec.round_index:06d}.bin", np.asarray(rec.global_after)
                )
        save_checkpoint(ckpt / "final.bin", result.final_model.values)
