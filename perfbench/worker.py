"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-reps S]

Runs the workload into DIR, checks the outputs, times at least S extra
set-ups (for at least SETUP_MIN_S), and prints one JSON line: wall and
set-up times, peak RSS, the operations that failed, CSV digests and, with
--trace, the per-layer metrics. `run.py`
starts it with `src/` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import coopsgd
from checks import inspect_outputs
from probe import SpeedProbe
from spans import Tracer, describe_cell, installed, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
# Set-ups run for at least this long, so that their phase gets its own speed samples.
SETUP_MIN_S = 0.25


def _execute(workload, seed: int, out_dir: str) -> None:
    workload.run(workload.generate(seed, out_dir))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-reps", type=int, default=0)
    args = parser.parse_args(argv)

    package_dir = Path(coopsgd.__file__).resolve().parent
    if package_dir != HERE.parent / "src" / "coopsgd":
        print(f"error: imported coopsgd from {package_dir}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[workload.name]

    tracer = Tracer(run_id=out.name) if args.trace else None
    with SpeedProbe() as probe:
        if tracer is None:
            wall = probe.timed(_execute, workload, args.seed, str(out))
        else:
            with installed(tracer):
                wall = probe.timed(tracer.wrap("bench.workload", _execute),
                                   workload, args.seed, str(out))
        usage = [resource.getrusage(who)
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    factor = probe.factor()
    setups = []
    if args.setup_reps:
        with SpeedProbe() as setup_probe:
            start = perf_counter()
            while len(setups) < args.setup_reps or perf_counter() - start < SETUP_MIN_S:
                setups.append(setup_probe.timed(
                    lambda: workload.setup(workload.generate(args.seed, str(out)))))
        setups = [t * setup_probe.factor() for t in setups]

    report = inspect_outputs(out, reference)
    cells = [describe_cell(c["summary"]) for c in report["cells"]]
    result = {
        "wall_s": wall * factor,
        "measured_wall_s": wall,
        "speed_factor": factor,
        "peak_rss_mb": max(u.ru_maxrss for u in usage) / 1024.0,
        "seed_steps": sum(len(c["seeds"]) * c["K"] for c in cells),
        "operations_found": sum(len(c["seeds"]) for c in cells),
        "cell_seeds": {c["name"]: c["summary"]["config_echo"]["seeds"] for c in report["cells"]},
        "failed": report["failed"],
        "problems": report["problems"],
        "digests": report["digests"],
        "layers": None,
        "setup_s": setups,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, tracer.counts,
                                         dict(report, cells=cells), factor)
        tracer.write_csv(out.parent / f"spans-{out.name}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
