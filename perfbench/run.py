"""Benchmark command: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload walker48-fullfair --seed 1 --seconds 20 --trace 0

Each measured iteration is one full pipeline run (setup -> engine -> event
log -> audit -> analyze) of the workload in a fresh worker process, with
BLAS pinned to one thread and LTP_FLEO_THREADS at its default. Iterations
repeat until --seconds have passed (at least five); every metric is the
median over them. "attempted" and "failed" count the operations (rounds
and audit windows) of one pipeline run, so they do not grow with the
number of iterations. With --trace 0 the end-to-end metrics are reported; with
--trace 1 untraced and traced iterations alternate, the per-layer metrics
come from the traced ones and trace.overhead_s is the difference of the two
median total_s. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = 5
HARD_LIMIT_S = 165.0  # the whole command must end within 180 s
STATE_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchmarkError(RuntimeError):
    pass


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("LTP_FLEO_THREADS", None)  # the program's default: one training thread
    return env


def run_worker(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    work_root = STATE_DIR / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)), "--work-dir", str(work),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{workload}: a pipeline run did not end in time") from None
        if proc.returncode != 0:
            raise BenchmarkError(
                f"{workload}: worker exited with {proc.returncode}\n{proc.stderr[-4000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if traced:
            trace_dir = STATE_DIR / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            shutil.move(work / "spans.jsonl", trace_dir / f"{workload}-seed{seed}.spans.jsonl")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Alternate runs (untraced only, or untraced/traced) for ``seconds``."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        done = len(plain) >= MIN_RUNS and (not trace or len(traced) >= MIN_RUNS)
        if done and time.monotonic() - start >= seconds:
            break
        if time.monotonic() + 1.5 * longest > deadline:
            if plain and (traced or not trace):
                break
            raise BenchmarkError(f"{workload}: no complete run fits in {HARD_LIMIT_S:.0f} s")
        use_trace = trace and len(traced) < len(plain)
        began = time.monotonic()
        (traced if use_trace else plain).append(run_worker(workload, seed, use_trace, deadline))
        longest = max(longest, time.monotonic() - began)
    return plain, traced


def operation_errors(runs: list[dict]) -> list[str]:
    """The work of a pipeline run is fixed by the workload and the seed, so
    every iteration must attempt and fail the same operations."""
    ops = {(r["attempted"], r["failed"]) for r in runs}
    if len(ops) > 1:
        return [f"operations: iterations differ in (attempted, failed): {sorted(ops)}"]
    return []


def summarize(workload: str, seed: int, plain: list, traced: list, trace: bool) -> dict:
    e2e_units, layer_units = metric_units()
    runs = plain + traced
    errors = sorted({f"{check}: {e}" for r in runs for check, es in r["errors"].items() for e in es})
    errors += operation_errors(runs)
    if trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in layer_units
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(
            r["metrics"]["total_s"] for r in traced
        ) - statistics.median(r["metrics"]["total_s"] for r in plain)
        units = layer_units
    else:
        values = {name: statistics.median(r["metrics"][name] for r in plain) for name in e2e_units}
        units = e2e_units

    counts = runs[0]["counts"]
    print(f"== {workload}  seed {seed}  {len(plain)} untraced + {len(traced)} traced runs")
    for i, r in enumerate(runs, 1):
        kind = "traced" if r["layers"] else "plain"
        t = r["timings"]
        print(
            f"   run {i} ({kind}): total {t['total_s']:.3f} s = setup {t['setup_s']:.3f} "
            f"+ engine {t['engine_s']:.3f} + write {t['write_s']:.3f} + read {t['read_s']:.3f} "
            f"+ audit {t['audit_s']:.3f} + analyze {t['analyze_s']:.3f} (+ glue)"
        )
    print(
        f"   per run: rounds requested {counts['rounds_requested']}, recorded "
        f"{counts['rounds_recorded']}; audit windows attempted {counts['windows_attempted']}, "
        f"failed {counts['windows_failed']}; baseline exposures {counts['baseline_exposures']}"
    )
    for text in counts["failure_texts"]:
        print(f"   failure: {text}")
    for name, value in values.items():
        print(f"   {name:<34} {value:>16.6g} {units[name]}")
    for e in errors:
        print(f"   CHECK FAILED {e}")
    print(f"   correct: {not errors}")
    return {
        "correct": not errors,
        "attempted": runs[0]["attempted"],
        "failed": runs[0]["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "ltpfleo" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'ltpfleo'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # kills a running worker

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            plain, traced = measure(name, args.seed, args.seconds, bool(args.trace))
            results[name] = summarize(name, args.seed, plain, traced, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(STATE_DIR / "work", ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "workloads": results,
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
