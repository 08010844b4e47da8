"""One pipeline run of one workload in a fresh process.

Started by run.py, once per measured iteration, so that peak resident
memory belongs to that run alone. Prints one JSON object as its last line:
the end-to-end figures of the run, its operation counts, the failures with
their error text, the result of every correctness check and, when traced,
the per-layer figures.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import BUDGET_ERROR, WORKLOADS, in_fault_range, run_pipeline  # noqa: E402


def import_program():
    """Import ltpfleo from this checkout's source tree, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ltpfleo
    import ltpfleo.cli  # noqa: F401  (imports every layer module)

    if Path(ltpfleo.__file__).resolve().parent != (src / "ltpfleo").resolve():
        raise ImportError(f"ltpfleo imported from {ltpfleo.__file__}, not from {src}")


def evaluate(workload, outcome) -> tuple[dict[str, list[str]], dict]:
    """Run every correctness check and count the operations of one pipeline run."""
    cfg = outcome.config
    logs = {name: checks.load_log(path) for name, path in outcome.log_paths.items()}
    header, rounds = logs["partitioned"]
    errors = {
        "visibility": checks.check_visibility(cfg, outcome.schedule),
        "weights": checks.check_weights(header, rounds),
        "staleness": checks.check_staleness(header, rounds),
        "global_models": checks.check_global_models(header, rounds),
    }
    errors["losses"], f_star = checks.check_losses(
        rounds, cfg.loss.kind, outcome.train, cfg.loss.regularization
    )
    if cfg.loss.kind != "quadratic":
        errors["accuracy"] = checks.check_accuracy(
            rounds, outcome.analysis, outcome.holdout, cfg.loss.num_classes
        )
    errors["analysis"] = checks.check_analysis(header, rounds, outcome.analysis, f_star)
    by_log = {name: [w for w in outcome.windows if w.log == name] for name in logs}
    errors["partitioned_windows"] = checks.check_partitioned_windows(
        header, rounds, by_log["partitioned"], header["ltp_level"]
    )
    exposures = 0
    if "baseline" in logs:
        errors["baseline_windows"], exposures = checks.check_baseline_windows(
            *logs["baseline"], by_log["baseline"]
        )

    # The fault range exists to meet the named fault on input that does not
    # depend on the seed: every partition has joined before it starts, so
    # each of its rounds weights all partitions equally.
    errors["fault_windows"] = []
    if workload.fault_rounds:
        first = workload.fault_rounds[0]
        joined = {p for r in rounds if r["round"] < first for p in r["fresh"]}
        if joined != set(header["partitions"]):
            errors["fault_windows"].append(
                f"only {len(joined)} of {len(header['partitions'])} partitions joined "
                f"before round {first}"
            )
    failures = [w for w in outcome.windows if w.error is not None]
    errors["failures"] = [
        f"{w.log} window {w.window} failed unexpectedly: {w.error}"
        for w in failures
        if not (
            w.log == "partitioned"
            and in_fault_range(workload, w.window)
            and BUDGET_ERROR in w.error
        )
    ]
    counts = {
        "rounds_requested": outcome.rounds_requested,
        "rounds_recorded": outcome.rounds_recorded,
        "windows_attempted": len(outcome.windows),
        "windows_failed": len(failures),
        "baseline_exposures": exposures,
        "failure_texts": sorted({w.error for w in failures}),
    }
    return errors, counts


def end_to_end(outcome) -> dict[str, float]:
    t = outcome.timings
    verdicts = sum(1 for w in outcome.windows if w.report is not None)
    return {
        "setup_s": t["setup_s"],
        "rounds_per_s": outcome.rounds_recorded / t["engine_s"],
        "audit_windows_per_s": verdicts / t["audit_s"],
        "analyze_s": t["analyze_s"],
        "total_s": t["total_s"],
        "event_log_mb": outcome.log_bytes / 1e6,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    import_program()
    workload = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    layers = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            outcome = run_pipeline(workload, args.seed, work_dir)
        tracer.write(work_dir / "spans.jsonl")
        layers = tracer.layer_metrics()
    else:
        outcome = run_pipeline(workload, args.seed, work_dir)
    errors, counts = evaluate(workload, outcome)
    failed_rounds = outcome.rounds_requested - outcome.rounds_recorded
    print(
        json.dumps(
            {
                "metrics": end_to_end(outcome),
                "timings": outcome.timings,
                "layers": layers,
                "errors": {k: v for k, v in errors.items() if v},
                "counts": counts,
                "attempted": outcome.rounds_requested + counts["windows_attempted"],
                "failed": failed_rounds + counts["windows_failed"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
