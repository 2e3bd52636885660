"""coopsgd benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh worker process (worker.py), so peak RSS is
per repetition. Repetitions start while the next one is expected to end
within S seconds, with at least MIN_REPS. With --trace 0 the result holds
the end-to-end metrics of untraced repetitions; with --trace 1, traced and
untraced repetitions alternate and the result holds the per-layer metrics
of the traced ones. The last line of standard output is one JSON object;
the exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

MIN_REPS = 3
SETUP_REPS = 10  # minimum set-ups timed per untraced repetition; setup_s is their median
TIME_LIMIT_S = 170.0  # every worker has ended by then

TIMINGS = ("wall_s", "setup_s")


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, quantiles(values, n=100, method="inclusive")[p - 1]


def machine_record() -> dict:
    import numpy as np

    blas_threads = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            blas_threads = getter()
    commit = "unknown"
    if (ROOT / ".git").exists():  # never let git search directories above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads,
            "python": platform.python_version(), "numpy": np.__version__, "commit": commit}


def run_worker(workload: str, seed: int, out: Path, traced: bool, setup_reps: int,
               timeout: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--setup-reps", str(setup_reps)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coopsgd" / "__init__.py").is_file():
        print(f"error: no coopsgd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import digest_mismatches, operations_of
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; available: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: need --seed >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = OUT_ROOT / workload.name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    start = monotonic()
    reps: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    baseline = None
    durations: list[float] = []
    while True:
        elapsed = monotonic() - start
        expected = sorted(durations)[len(durations) // 2] if durations else 0.0
        if len(durations) >= MIN_REPS and elapsed + expected > args.seconds:
            break
        index = len(durations)
        traced = bool(args.trace) and index % 2 == 1
        out = base / f"rep{index}"
        t0 = monotonic()
        result = run_worker(workload.name, args.seed, out, traced,
                            0 if args.trace else SETUP_REPS, max(1.0, TIME_LIMIT_S - elapsed))
        durations.append(monotonic() - t0)
        shutil.rmtree(out, ignore_errors=True)
        attempted += workload.operations
        if result is None:
            failed += workload.operations
            problems.append(f"rep{index}: worker failed")
            break
        bad = set(result["failed"])
        if baseline is None:
            baseline = result["digests"]
        mismatched = digest_mismatches(baseline, result["digests"])
        bad |= operations_of(mismatched, result["cell_seeds"])
        problems += [f"rep{index}: {path} differs from rep0" for path in mismatched]
        failed += len(bad) + max(0, workload.operations - result["operations_found"])
        problems += [f"rep{index}: {p}" for p in result["problems"]]
        result["traced"] = traced
        reps.append(result)

    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    samples: dict[str, list[float]] = {}
    if untraced:
        samples = {
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": [s for r in untraced for s in r["setup_s"]],
            "steps_per_s": [r["seed_steps"] / r["wall_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
    values: dict[str, float] = {}
    if args.trace and traced_reps and untraced:
        values = {name: median(r["layers"][name] for r in traced_reps)
                  for name in traced_reps[0]["layers"]}
        values["trace.overhead_frac"] = (median(r["wall_s"] for r in traced_reps)
                                         / median(samples["wall_s"]) - 1.0)
    elif not args.trace and untraced:
        values = {name: median(v) for name, v in samples.items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]} if values else {}

    correct = failed == 0 and not problems and bool(metrics)
    machine = machine_record()
    for line in problems:
        print(f"check failed: {line}")
    print(f"workload {workload.name} seed {args.seed}: {len(reps)} repetitions "
          f"({len(traced_reps)} traced)")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for name, metric in metrics.items():
        line = f"{name} = {metric['value']:.6g} {metric['unit']}"
        if name in samples:
            line += f" (median of {len(samples[name])})"
            tail = tail_percentile(samples[name]) if name in TIMINGS else None
            if tail is not None:
                line += f", p{tail[0]} = {tail[1]:.6g} {metric['unit']}"
        print(line)
    if untraced:
        print(f"uncorrected wall = {median(r['measured_wall_s'] for r in untraced):.6g} s, "
              f"speed factor = {median(r['speed_factor'] for r in untraced):.4g} "
              f"(medians of {len(untraced)} untraced repetitions)")
    print("machine: " + json.dumps(machine, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (base / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, machine=machine, workload=workload.name, seed=args.seed,
                        samples=samples), indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
