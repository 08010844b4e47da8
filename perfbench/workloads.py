"""The three benchmark workloads and the pipeline each one drives.

A pipeline run does in one process what a user does with
``ltpfleo simulate`` -> ``ltpfleo audit`` -> ``ltpfleo analyze``, through the
functions those commands call: parse a config file, predict visibility and
build data (``simulator._prepare``, the set-up step of ``simulator.run``),
build partitions and the engine(s), run them, write the event log(s), read
them back and audit windows of them, then run ``analyze`` on the
partitioned log. Every program function is looked up on its module at
call time, so the tracer's wrappers see each call.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

BUDGET_ERROR = "subset enumeration budget exceeded"
WINDOW_ROUNDS = 5  # rounds per audit window, on every workload


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict[str, str]
    baseline: bool = False
    # Audit the windows lying inside one of these round ranges; None audits
    # every window of the run.
    audit_rounds: tuple[tuple[int, int], ...] | None = None
    # Windows inside this range may fail with the named budget fault.
    fault_rounds: tuple[int, int] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="walker48-fullfair",
            config={
                "num_orbits": "6",
                "sats_per_orbit": "8",
                "raan_spread_deg": "60",
                "horizon_s": "1209600",
                "ltp_level": "2",
                "alpha": "t",
                "rounds": "600",
            },
            # Windows in rounds 1-30 pass on every seed tried. From about
            # round 40 a window without a join event fails on some seeds only
            # (the same budget fault), so those windows are left out. By
            # round 595 every partition has joined, so the last two windows
            # weight all 24 partitions equally whatever the seed, and fail
            # every time.
            audit_rounds=((1, 30), (595, 600)),
            fault_rounds=(595, 600),
        ),
        Workload(
            name="mlp-train",
            config={
                "num_orbits": "3",
                "sats_per_orbit": "4",
                "raan_spread_deg": "6",
                # 7 days, not the default 2: the 60 rounds and the log stay
                # the same, and set-up grows to about 0.24 s, long enough to
                # time steadily on a shared host.
                "horizon_s": "604800",
                "ltp_level": "3",
                "alpha": "t",
                "rounds": "60",
                "loss_kind": "mlp-small",
                "hidden_units": "64",
                "feature_dim": "32",
                "num_classes": "10",
                "samples_per_satellite": "4000",
                "noise": "0.5",
                "local_steps": "100",
                "mini_batch": "128",
            },
        ),
        Workload(
            name="audit32-quadratic",
            config={
                "num_orbits": "4",
                "sats_per_orbit": "8",
                "raan_spread_deg": "40",
                # Round 480 ends near day 4.7. 480 rounds over 8 days make the
                # engine (about 0.8 s) and set-up (about 0.6 s) long enough to
                # time steadily; at 120 rounds they took 0.14 s and 0.16 s.
                "horizon_s": "691200",
                "ltp_level": "2",
                "alpha": "t",
                "rounds": "480",
                "loss_kind": "quadratic",
                "data_kind": "linear-regression",
                "clip_radius": "5",
            },
            baseline=True,
            # The join phase (cheap windows, rank 2-4) and the steady phase
            # after all 16 partitions joined (about round 50), where each
            # partitioned window needs the exhaustive support search.
            audit_rounds=((1, 30), (461, 480)),
        ),
    )
}

# Reduced sizes for the self-check: each pipeline runs in a few seconds.
REDUCED = {
    "walker48-fullfair": dict(
        config={"horizon_s": "172800", "rounds": "60"},
        audit_rounds=((1, 30),),
        fault_rounds=None,
    ),
    "mlp-train": dict(
        config={
            "horizon_s": "172800",
            "rounds": "10",
            "samples_per_satellite": "400",
            "local_steps": "50",
        },
    ),
    "audit32-quadratic": dict(
        config={"horizon_s": "172800", "rounds": "12"}, audit_rounds=None
    ),
}


def reduced(workload: Workload) -> Workload:
    changes = dict(REDUCED[workload.name])
    changes["config"] = {**workload.config, **changes.get("config", {})}
    return replace(workload, **changes)


def config_text(workload: Workload) -> str:
    return "".join(f"{k} = {v}\n" for k, v in workload.config.items())


def audit_plan(workload: Workload, last_round: int) -> list[tuple[int, int]]:
    """(first, last) round of every window to audit, in order."""
    w = WINDOW_ROUNDS
    ranges = workload.audit_rounds or ((1, last_round),)
    return [
        (s, s + w - 1)
        for lo, hi in ranges
        for s in range(lo, min(hi, last_round) - w + 2)
    ]


def in_fault_range(workload: Workload, window: tuple[int, int]) -> bool:
    if workload.fault_rounds is None:
        return False
    lo, hi = workload.fault_rounds
    return lo <= window[0] and window[1] <= hi


@dataclass
class WindowResult:
    log: str
    window: tuple[int, int]
    report: object | None  # the program's LeakageReport
    error: str | None


@dataclass
class Outcome:
    """Timings, operation counts and artifacts of one pipeline run."""

    timings: dict[str, float]
    rounds_requested: int
    rounds_recorded: int
    windows: list[WindowResult]
    log_paths: dict[str, Path]
    log_bytes: int
    peak_rss_mb: float
    analysis: dict
    config: object  # the program's SimConfig
    schedule: object
    train: list
    holdout: object | None


def run_pipeline(workload: Workload, seed: int, work_dir: Path) -> Outcome:
    from ltpfleo import cli, config, eventlog, partitioning, privacy_audit, simulator

    warnings.filterwarnings(
        "ignore", message="partition .* admitted at round 1 but has no cached models"
    )
    cfg_path = work_dir / "run.cfg"
    cfg_path.write_text(config_text(workload))
    cfg = config.load_config(cfg_path, [f"seed={seed}"])
    clock = time.perf_counter
    t = {}

    start = clock()
    schedule, train, holdout, initial = simulator._prepare(cfg)
    partitions = partitioning.build_partitions(schedule, cfg.ltp_level)
    common = dict(
        schedule=schedule,
        datasets=train,
        loss=cfg.loss,
        sgd=cfg.sgd,
        seed=cfg.seed,
        rounds=cfg.rounds,
        time_budget_s=cfg.time_budget_s,
        overhead_range_s=cfg.overhead_range_s,
        initial_model=initial,
        holdout=holdout,
        config_hash=simulator.config_digest(cfg),
        config_payload=simulator._jsonable(cfg),  # as simulator.run() builds it
    )
    engines = {
        "partitioned": simulator.SimulationEngine(
            partitions=partitions,
            alpha=cfg.alpha,
            aggregation_mode=cfg.aggregation_mode,
            **common,
        )
    }
    if workload.baseline:
        engines["baseline"] = simulator.BaselineEngine(**common)
    t["setup_s"] = clock() - start

    mark = clock()
    results = {name: engine.run() for name, engine in engines.items()}
    t["engine_s"] = clock() - mark
    rounds_recorded = sum(len(r.records) for r in results.values())

    log_paths = {name: work_dir / f"{name}.jsonl" for name in results}
    mark = clock()
    for name, result in results.items():
        eventlog.write_event_log(log_paths[name], result.header, result.records)
    t["write_s"] = clock() - mark
    del results  # as after `ltpfleo simulate` exits

    windows: list[WindowResult] = []
    t["read_s"] = t["audit_s"] = 0.0
    for name, path in log_paths.items():
        mark = clock()
        header, records = eventlog.read_event_log(path)
        t["read_s"] += clock() - mark
        last = max(r.round_index for r in records)
        for lo, hi in audit_plan(workload, last):
            sub = [r for r in records if lo <= r.round_index <= hi]
            mark = clock()
            try:
                (report,) = privacy_audit.ltp_verdict_over_run(
                    header, sub, window_rounds=WINDOW_ROUNDS
                )
                error = None
            except ValueError as exc:
                report, error = None, str(exc)
            t["audit_s"] += clock() - mark
            windows.append(WindowResult(name, (lo, hi), report, error))
        del header, records

    out_dir = work_dir / "analysis"
    mark = clock()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["analyze", "--log", str(log_paths["partitioned"]), "--out-dir", str(out_dir)])
    t["analyze_s"] = clock() - mark
    t["total_s"] = clock() - start
    if code != 0:
        raise RuntimeError(f"ltpfleo analyze exited with code {code}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    return Outcome(
        timings=t,
        rounds_requested=cfg.rounds * len(engines),
        rounds_recorded=rounds_recorded,
        windows=windows,
        log_paths=log_paths,
        log_bytes=sum(p.stat().st_size for p in log_paths.values()),
        peak_rss_mb=peak_rss_mb,
        analysis=json.loads((out_dir / "analysis.json").read_text()),
        config=cfg,
        schedule=schedule,
        train=train,
        holdout=holdout,
    )
