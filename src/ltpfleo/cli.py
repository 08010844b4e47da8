"""Command-line orchestrator.

Subcommands: visibility, simulate, audit, analyze, report. Exit codes:
0 success, 1 usage/config error, 2 runtime failure, 3 failed expectation
(audit FAIL under --expect-pass). All outputs are deterministic: repeated
invocations on identical inputs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    compute_bound_params,
    estimate_constants,
    fairness_gap,
    solve_optimum,
    theorem_bound,
)
from .aggregation import ModelVector
from .config import config_from_header_payload, load_config
from .eventlog import SchemaMismatchError, read_event_log
from .orbital import compute_visibility
from .privacy_audit import ltp_verdict_over_run
from .scheduling import ParticipationLog, record_round
from .simulator import (
    SimulationError,
    build_datasets,
    config_digest,
    draw_initial_model,
    run,
    run_baseline,
)
from .training import split_holdout

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_EXPECTATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_visibility(args) -> int:
    config = load_config(args.config, args.set)
    schedule = compute_visibility(
        config.constellation, config.station, config.horizon_s, config.sample_step_s
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    schedule.to_csv(out)
    for sat in schedule.satellites:
        wins = schedule.windows_for(sat)
        mean = sum(w.duration_s for w in wins) / len(wins) if wins else 0.0
        print(f"satellite {sat}: {len(wins)} passes, mean duration {mean:.1f} s")
    print(f"schedule written to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.set)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "events.jsonl"
    ckpt_dir = out_dir / "checkpoints"
    runner = run_baseline if args.baseline else run
    result = runner(config, event_log_path=log_path, checkpoint_dir=ckpt_dir)
    result.partitions.to_csv(out_dir / "partitions.csv")
    effective = [r for r in result.records if not r.skipped]
    print(
        f"{len(result.records)} rounds ({len(result.records) - len(effective)} skipped), "
        f"simulated {result.sim_time_s / 3600.0:.2f} h"
    )
    if effective:
        last = effective[-1]
        acc = f", accuracy {last.accuracy:.4f}" if last.accuracy is not None else ""
        print(f"final global loss {last.global_loss:.6f}{acc}")
    # manifest last: its presence marks a complete run
    manifest = {
        "tool_version": __version__,
        "config_hash": config_digest(config),
        "seed": config.seed,
        "baseline": bool(args.baseline),
        "artifacts": {
            "event_log": str(log_path),
            "partitions_csv": str(out_dir / "partitions.csv"),
            "checkpoints": str(ckpt_dir) if config.checkpoint_every > 0 else None,
        },
    }
    _dump_json(out_dir / "manifest.json", manifest)
    return EXIT_OK


def _audit_reports(log_path, window, ltp_level, colluders):
    header, records = read_event_log(log_path)
    reports = ltp_verdict_over_run(
        header,
        records,
        ltp_level=ltp_level,
        window_rounds=window,
        colluders=colluders or (),
    )
    return header, reports


def cmd_audit(args) -> int:
    colluders = [int(c) for c in args.colluders.split(",") if c] if args.colluders else []
    header, reports = _audit_reports(args.log, args.window, args.ltp_level, colluders)
    payload = {
        "ltp_level": args.ltp_level if args.ltp_level is not None else header.ltp_level,
        "window_rounds": args.window,
        "colluders": colluders,
        "windows": [r.to_jsonable() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _dump_json(out, payload)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        exposed = f", exposed {list(r.individually_exposed)}" if r.individually_exposed else ""
        print(f"window {r.window}: {r.verdict} (min support {r.min_support}{exposed})")
    print(
        f"audited {len(reports)} windows: "
        f"{'all PASS' if not failed else f'{len(failed)} FAIL'}"
    )
    if args.expect_pass and failed:
        return EXIT_EXPECTATION
    return EXIT_OK


def _analyze_payload(log_path):
    header, records = read_event_log(log_path)
    effective = [r for r in records if not r.skipped]
    plog = ParticipationLog(sorted(header.partitions))
    for rec in records:
        record_round(plog, set(rec.selected), rec.round_index)
    report = fairness_gap(plog)

    weights_ok = True
    for rec in effective:
        total = sum(rec.beta.values())
        if total != 1 or any(b < 0 for b in rec.beta.values()):
            weights_ok = False
    payload = {
        "rounds": len(records),
        "skipped": len(records) - len(effective),
        "fairness": {
            "rates": {str(p): r for p, r in sorted(report.rates.items())},
            "gap": report.gap,
        },
        "weights_ok": weights_ok,
        "final_loss": effective[-1].global_loss if effective else None,
        "final_accuracy": effective[-1].accuracy if effective else None,
        "bound": None,
    }

    curve_rows = [
        (rec.round_index, rec.global_loss, rec.accuracy) for rec in effective
    ]
    bound_rows = []
    confusion_rows = []
    if header.config:
        config = config_from_header_payload(header.config)
        if header.loss_kind == "quadratic" and config.loss.clip_radius is not None:
            datasets = build_datasets(config)
            train, _ = split_holdout(datasets, config.eval_fraction, config.seed)
            constants = estimate_constants(
                config.loss, train, config.loss.clip_radius, config.sgd.mini_batch,
                seed=config.seed,
            )
            w_star, f_star = solve_optimum(config.loss, train)
            w1 = draw_initial_model(config, header.model_dim)
            gap0 = float(np.sum((w1 - w_star) ** 2))
            params = compute_bound_params(
                constants, config.sgd.local_steps, gap0, f_star
            )
            payload["bound"] = {
                "kappa": params.kappa,
                "upsilon": params.upsilon,
                "lambda": params.lam,
                "nu": params.nu,
                "f_star": f_star,
            }
            for rec in effective:
                bound_rows.append(
                    (
                        rec.round_index,
                        rec.global_loss - f_star,
                        theorem_bound(constants, params, config.sgd.local_steps, rec.round_index),
                    )
                )
        if (
            header.loss_kind in ("logistic-l2", "mlp-small")
            and effective
            and config.eval_fraction > 0
        ):
            datasets = build_datasets(config)
            _, holdout = split_holdout(datasets, config.eval_fraction, config.seed)
            if holdout is not None:
                final = ModelVector(np.asarray(effective[-1].global_after))
                rep = fairness_gap(
                    plog, model=final, loss=config.loss, eval_dataset=holdout
                )
                confusion_rows = rep.confusion.tolist()
                payload["per_class_accuracy"] = {
                    str(c): a for c, a in sorted(rep.per_class_accuracy.items())
                }
    return payload, curve_rows, bound_rows, confusion_rows


def _write_csv(path: Path, headers, rows) -> None:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join("" if v is None else repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def cmd_analyze(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload, curve, bound_rows, confusion = _analyze_payload(args.log)
    _dump_json(out_dir / "analysis.json", payload)
    _write_csv(out_dir / "gap_vs_round.csv", ["round", "global_loss", "accuracy"], curve)
    if bound_rows:
        _write_csv(out_dir / "bound_vs_round.csv", ["round", "empirical_gap", "bound"], bound_rows)
    if confusion:
        _write_csv(
            out_dir / "confusion_matrix.csv",
            [f"pred_{i}" for i in range(len(confusion))],
            confusion,
        )
    print(f"fairness gap {payload['fairness']['gap']:.6f} over {payload['rounds']} rounds")
    print(f"analysis written to {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text())
    log_path = Path(manifest["artifacts"]["event_log"])
    if not log_path.exists():
        raise FileNotFoundError(f"event log missing: {log_path}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    shutil.copyfile(log_path, out_dir / "events.jsonl")
    partitions_csv = manifest["artifacts"].get("partitions_csv")
    if partitions_csv and Path(partitions_csv).exists():
        shutil.copyfile(partitions_csv, out_dir / "partitions.csv")

    header, reports = _audit_reports(log_path, args.window, None, [])
    _dump_json(
        out_dir / "leakage.json",
        {
            "ltp_level": header.ltp_level,
            "window_rounds": args.window,
            "windows": [r.to_jsonable() for r in reports],
            "all_pass": all(r.passed for r in reports),
        },
    )
    payload, curve, bound_rows, confusion = _analyze_payload(log_path)
    _dump_json(out_dir / "analysis.json", payload)
    _write_csv(out_dir / "gap_vs_round.csv", ["round", "global_loss", "accuracy"], curve)
    if bound_rows:
        _write_csv(out_dir / "bound_vs_round.csv", ["round", "empirical_gap", "bound"], bound_rows)
    if confusion:
        _write_csv(
            out_dir / "confusion_matrix.csv",
            [f"pred_{i}" for i in range(len(confusion))],
            confusion,
        )
    summary = {
        "tool_version": __version__,
        "config_hash": manifest["config_hash"],
        "ltp_all_pass": all(r.passed for r in reports),
        "fairness_gap": payload["fairness"]["gap"],
        "rounds": payload["rounds"],
    }
    _dump_json(out_dir / "summary.json", summary)
    print(f"report written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ltpfleo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("visibility", help="predict contact windows and export CSV")
    p.add_argument("--config", help="run configuration file (defaults are the smoke profile)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--out", default="schedule.csv")
    p.set_defaults(func=cmd_visibility)

    p = sub.add_parser("simulate", help="run the full training simulation")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out-dir", default="run")
    p.add_argument("--baseline", action="store_true",
                   help="no-partition asynchronous baseline instead of the partitioned run")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="long-term-privacy audit of an event log")
    p.add_argument("--log", required=True)
    p.add_argument("--window", type=int, default=5, help="audit window in rounds")
    p.add_argument("--ltp-level", type=int, default=None,
                   help="override the log's privacy level")
    p.add_argument("--colluders", default="",
                   help="comma-separated satellite ids colluding with the server")
    p.add_argument("--out", default=None, help="write the leakage report JSON here")
    p.add_argument("--expect-pass", action="store_true",
                   help="exit 3 if any window fails")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("analyze", help="fairness / convergence analysis of an event log")
    p.add_argument("--log", required=True)
    p.add_argument("--out-dir", default="analysis")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="consolidate run artifacts into one directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--out-dir", default="report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, KeyError, FileNotFoundError, SchemaMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
