"""Self-check of the benchmark at reduced size.

    python3 perfbench/selfcheck.py

Runs every workload once at reduced size (a few seconds each), requires
every correctness check to pass on the program's real outputs, then feeds
each checker a deliberately corrupted copy of those outputs and requires
it to reject it. Exits 0 when every line reads PASS.
"""
from __future__ import annotations

import copy
import dataclasses
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.pop("LTP_FLEO_THREADS", None)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import operation_errors  # noqa: E402
from worker import evaluate, import_program  # noqa: E402
from workloads import BUDGET_ERROR, WORKLOADS, WindowResult, reduced, run_pipeline  # noqa: E402

SEED = 7


class Report:
    def __init__(self):
        self.failures = 0

    def line(self, ok: bool, text: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {text}")
        self.failures += not ok

    def rejects(self, what: str, errors) -> None:
        self.line(bool(errors), f"rejects {what}" + (f": {errors[0]}" if errors else ""))


def corrupt_schedule(schedule, horizon_s: float):
    """Pull one window's end 20 s early: the satellite is still above the mask there."""
    windows = {s: list(ws) for s, ws in schedule.windows.items()}
    sat, i = next(
        (s, i)
        for s, ws in windows.items()
        for i, w in enumerate(ws)
        if w.end_s - w.start_s > 60 and w.end_s < horizon_s - 1
    )
    w = windows[sat][i]
    windows[sat][i] = SimpleNamespace(start_s=w.start_s, end_s=w.end_s - 20.0)
    return SimpleNamespace(windows=windows)


def joining_partition(window, rounds):
    """A partition weighted in some but not all aggregated rounds of the window."""
    inside = [r for r in checks.effective(rounds) if window[0] <= r["round"] <= window[1]]
    weighted = [{p for p, b in r["beta"].items() if b} for r in inside]
    changing = set.union(*weighted) - set.intersection(*weighted)
    return min(changing) if changing else None


def first_weighted(rounds):
    """The first aggregated round that weights at least two partitions."""
    return next(r for r in checks.effective(rounds) if len(r["beta"]) >= 2)


def check_partitioned_run(rep: Report, name: str, outcome, header, rounds) -> None:
    cfg = outcome.config
    rep.rejects(f"{name}: a visibility window ending 20 s early",
                checks.check_visibility(cfg, corrupt_schedule(outcome.schedule, cfg.horizon_s)))

    bad = copy.deepcopy(rounds)
    r = first_weighted(bad)
    a, b = sorted(r["beta"])[:2]
    shift = min(r["beta"][a], r["beta"][b]) / 2
    r["beta"][a] += shift
    r["beta"][b] -= shift
    rep.rejects(f"{name}: one beta moved to another partition (sum still 1)",
                checks.check_weights(header, bad))
    bad = copy.deepcopy(rounds)
    first_weighted(bad)["beta"][a] += Fraction(1, 10**6)
    rep.rejects(f"{name}: one beta changed", checks.check_weights(header, bad))

    bad = copy.deepcopy(rounds)
    r = bad[len(bad) // 2]
    r["frequencies"][sorted(r["frequencies"])[0]] += 1
    rep.rejects(f"{name}: one logged frequency off by one", checks.check_staleness(header, bad))
    bad = copy.deepcopy(rounds)
    bad[len(bad) // 2]["selected"] = bad[len(bad) // 2]["selected"][1:]
    rep.rejects(f"{name}: a partition dropped from a full-fairness round",
                checks.check_staleness(header, bad))

    bad = copy.deepcopy(rounds)
    r = first_weighted(bad)
    sat = sorted(r["member_models"])[0]
    r["member_models"][sat] = r["member_models"][sat] + 1e-6
    rep.rejects(f"{name}: one member model perturbed by 1e-6",
                checks.check_global_models(header, bad))

    bad = copy.deepcopy(rounds)
    eff = checks.effective(bad)
    eff[-1]["global_loss"] = eff[0]["global_loss"] + 1.0
    rep.rejects(f"{name}: final loss above the initial loss",
                checks.check_losses(bad, cfg.loss.kind, outcome.train, cfg.loss.regularization)[0])

    bad = copy.deepcopy(outcome.analysis)
    bad["fairness"]["gap"] += 0.01
    f_star = checks.check_losses(rounds, cfg.loss.kind, outcome.train, cfg.loss.regularization)[1]
    rep.rejects(f"{name}: analysis fairness gap changed",
                checks.check_analysis(header, rounds, bad, f_star))

    passed = [w for w in outcome.windows if w.log == "partitioned" and w.report is not None]
    w = next(w for w in passed if w.report.rank > 0)
    wrong_rank = dataclasses.replace(w, report=dataclasses.replace(w.report, rank=w.report.rank + 1))
    rep.rejects(f"{name}: an audit report with its rank off by one",
                checks.check_partitioned_windows(header, rounds, [wrong_rank], header["ltp_level"]))
    low = dataclasses.replace(w, report=dataclasses.replace(w.report, min_support=1))
    rep.rejects(f"{name}: an audit report with min support 1",
                checks.check_partitioned_windows(header, rounds, [low], header["ltp_level"]))
    # Moving one member of a partition that joins inside a window to a
    # partition of its own leaves the joining partition's difference vector
    # on a single satellite: the support search must find that exposure.
    w, pid = next(
        (w, p) for w in passed if (p := joining_partition(w.window, rounds)) is not None
    )
    split = copy.deepcopy(header)
    members = split["partitions"][pid]
    split["partitions"][pid] = members[:1]
    split["partitions"][max(split["partitions"]) + 1] = members[1:]
    rep.rejects(f"{name}: a joining partition cut to one member in the log header",
                checks.check_partitioned_windows(split, rounds, [w], header["ltp_level"]))


def check_failure_accounting(rep: Report, workload, outcome) -> None:
    stray = WindowResult("partitioned", (1, 5), None, BUDGET_ERROR)
    fake = dataclasses.replace(outcome, windows=[*outcome.windows, stray])
    errors, _ = evaluate(workload, fake)
    rep.rejects(f"{workload.name}: a budget failure outside the fault range", errors["failures"])
    # A fault range that starts before every partition has joined would audit
    # seed-dependent input.
    early = dataclasses.replace(workload, fault_rounds=(2, 6))
    errors, _ = evaluate(early, outcome)
    rep.rejects(f"{workload.name}: a fault range before all partitions joined",
                errors["fault_windows"])


def check_model_quality(rep: Report, name: str, outcome, header, rounds) -> None:
    cfg = outcome.config
    if cfg.loss.kind == "quadratic":
        bad = copy.deepcopy(rounds)
        checks.effective(bad)[1]["global_loss"] = -1.0
        rep.rejects(f"{name}: a logged loss below the least-squares optimum",
                    checks.check_losses(bad, "quadratic", outcome.train, cfg.loss.regularization)[0])
        f_star = checks.check_losses(rounds, "quadratic", outcome.train, cfg.loss.regularization)[1]
        bad = copy.deepcopy(outcome.analysis)
        bad["bound"]["f_star"] *= 1.001
        rep.rejects(f"{name}: analysis optimum off by 0.1%",
                    checks.check_analysis(header, rounds, bad, f_star))
        return
    classes = cfg.loss.num_classes
    bad = copy.deepcopy(rounds)
    checks.effective(bad)[-1]["accuracy"] = 1.0 / classes
    rep.rejects(f"{name}: hold-out accuracy at chance",
                checks.check_accuracy(bad, outcome.analysis, outcome.holdout, classes))
    bad = copy.deepcopy(outcome.analysis)
    top = max(bad["per_class_accuracy"], key=lambda c: bad["per_class_accuracy"][c])
    bad["per_class_accuracy"][top] -= 0.1
    rep.rejects(f"{name}: one class's accuracy in the analysis lowered",
                checks.check_accuracy(rounds, bad, outcome.holdout, classes))


def check_baseline(rep: Report, name: str, outcome) -> None:
    header, rounds = checks.load_log(outcome.log_paths["baseline"])
    windows = [w for w in outcome.windows if w.log == "baseline"]
    w = next(w for w in windows if w.report and w.report.individually_exposed)
    exposed = w.report.individually_exposed
    fewer = dataclasses.replace(w, report=dataclasses.replace(w.report, individually_exposed=exposed[1:]))
    rep.rejects(f"{name}: a baseline exposure dropped from the report",
                checks.check_baseline_windows(header, rounds, [fewer])[0])
    hidden = min(set(header["data_sizes"]) - set(exposed))
    more = dataclasses.replace(
        w, report=dataclasses.replace(w.report, individually_exposed=(*exposed, hidden))
    )
    rep.rejects(f"{name}: a baseline exposure invented in the report",
                checks.check_baseline_windows(header, rounds, [more])[0])


def main() -> int:
    import_program()
    rep = Report()
    state = HERE.parent / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=state) as tmp:
        for name, full in WORKLOADS.items():
            workload = reduced(full)
            work = Path(tmp) / name
            work.mkdir()
            outcome = run_pipeline(workload, SEED, work)
            errors, counts = evaluate(workload, outcome)
            problems = [f"{k}: {e}" for k, es in errors.items() for e in es]
            rep.line(not problems, f"{name} (reduced, {outcome.timings['total_s']:.1f} s): "
                     f"all checks pass on the program's outputs"
                     + (f" -- {problems[:3]}" if problems else ""))
            header, rounds = checks.load_log(outcome.log_paths["partitioned"])
            check_partitioned_run(rep, name, outcome, header, rounds)
            check_failure_accounting(rep, workload, outcome)
            check_model_quality(rep, name, outcome, header, rounds)
            if "baseline" in outcome.log_paths:
                check_baseline(rep, name, outcome)
            print(f"     counts: {counts}")
        same = {"attempted": 628, "failed": 2}
        rep.line(not operation_errors([same, dict(same)]),
                 "accepts iterations with the same operation counts")
        rep.rejects("an iteration with one more failed operation than the others",
                    operation_errors([same, same, {"attempted": 628, "failed": 3}]))
    print(f"{'all PASS' if not rep.failures else f'{rep.failures} FAIL'}")
    return 1 if rep.failures else 0


if __name__ == "__main__":
    sys.exit(main())
