"""Output checks for one repetition of a workload.

An operation is one seed of one cell. It fails when the seed diverged, its
trace CSV lacks K+1 rows, its cell's recursion defect exceeds 1e-12, or its
cell's summary misses the reference values (checked at the default workload
seed only). Across repetitions, every CSV must have the same digest.

Run as a script on a finished output directory to print the values that
reference.json records:

    python3 perfbench/checks.py <output dir>
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DEFECT_MAX = 1e-12
REL_TOL = 1e-12  # the ROADMAP's trajectory tolerance
CSV_HEADER = b"k,loss,grad_norm_sq,network_error,wall_clock_s\n"
SUMMARY_FIELDS = ("final_loss", "mean_grad_norm_sq", "tail_worker_grad_norm_sq",
                  "tail_worker_loss")
PRESET_FIELDS = ("hybrid_faster_than_dpsgd", "pasgd_faster_than_hybrid",
                 "dpsgd_lowest_floor", "hybrid_to_pasgd_floor_ratio")
PRESET_CELL = "preset"


def _cell_dirs(out_dir: Path) -> list[Path]:
    return sorted(p.parent for p in out_dir.rglob("summary.json"))


def _cell_name(out_dir: Path, cell_dir: Path) -> str:
    return cell_dir.relative_to(out_dir).as_posix()


def reference_values(out_dir: Path) -> dict[str, dict]:
    """The summary fields compared against reference.json, keyed by cell."""
    values = {}
    for cell_dir in _cell_dirs(out_dir):
        summary = json.loads((cell_dir / "summary.json").read_text())
        values[_cell_name(out_dir, cell_dir)] = {f: summary[f] for f in SUMMARY_FIELDS}
    preset = out_dir / "preset_summary.json"
    if preset.exists():
        summary = json.loads(preset.read_text())
        values[PRESET_CELL] = {f: summary[f] for f in PRESET_FIELDS}
    return values


def _matches(value, expected) -> bool:
    if isinstance(expected, bool) or expected is None:
        return value == expected
    return value is not None and abs(value - expected) <= REL_TOL * abs(expected)


def reference_mismatches(values: dict[str, dict], reference: dict[str, dict]) -> list[tuple[str, str]]:
    """(cell, field) pairs whose value misses the reference; field "*" for a missing cell."""
    bad = []
    for cell, fields in reference.items():
        if cell not in values:
            bad.append((cell, "*"))
            continue
        bad += [(cell, f) for f, expected in fields.items()
                if not _matches(values[cell].get(f), expected)]
    return bad


def inspect_outputs(out_dir: Path, reference: dict[str, dict] | None = None) -> dict:
    """Check every cell under `out_dir` and collect what the metrics need.

    Returns `cells` (name, seeds and sizes per cell), `failed` ("cell:seed"
    for each failed operation), `problems` (one line per finding),
    `digests` (sha256 per CSV), and `csv_bytes` / `csv_rows` (data rows).
    """
    cells, failed, problems, digests = [], set(), [], {}
    csv_bytes = csv_rows = 0
    for cell_dir in _cell_dirs(out_dir):
        name = _cell_name(out_dir, cell_dir)
        summary = json.loads((cell_dir / "summary.json").read_text())
        echo = summary["config_echo"]
        seeds, steps = echo["seeds"], echo["algorithm"]["K"]
        cells.append({"name": name, "summary": summary})
        for seed in summary["diverged_seeds"]:
            failed.add(f"{name}:{seed}")
            problems.append(f"{name}: seed {seed} diverged")
        if not summary["recursion_defect_max"] <= DEFECT_MAX:
            failed.update(f"{name}:{s}" for s in seeds)
            problems.append(f"{name}: recursion_defect_max {summary['recursion_defect_max']!r}")
        for path in sorted(cell_dir.glob("*.csv")):
            data = path.read_bytes()
            digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
            csv_bytes += len(data)
            csv_rows += data.count(b"\n") - 1
        for seed in seeds:
            path = cell_dir / f"trace_seed{seed}.csv"
            rows = _data_rows(path)
            if rows != steps + 1:
                failed.add(f"{name}:{seed}")
                problems.append(f"{name}: trace_seed{seed}.csv has {rows} rows, want {steps + 1}")
        if _data_rows(cell_dir / "trace_mean.csv") != steps + 1:
            failed.update(f"{name}:{s}" for s in seeds)
            problems.append(f"{name}: trace_mean.csv does not have {steps + 1} rows")
    if reference is not None:
        for cell, field in reference_mismatches(reference_values(out_dir), reference):
            problems.append(f"{cell}: {field} differs from reference.json")
            for c in cells:
                if cell in (c["name"], PRESET_CELL):
                    failed.update(f"{c['name']}:{s}" for s in c["summary"]["config_echo"]["seeds"])
    return {"cells": cells, "failed": sorted(failed), "problems": problems,
            "digests": digests, "csv_bytes": csv_bytes, "csv_rows": csv_rows}


def _data_rows(path: Path) -> int:
    """Data rows of a trace CSV, or -1 if it is missing or has the wrong header."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return -1
    if not data.startswith(CSV_HEADER) or not data.endswith(b"\n"):
        return -1
    return data.count(b"\n") - 1


def digest_mismatches(baseline: dict[str, str], digests: dict[str, str]) -> list[str]:
    """CSV paths whose digest differs from the baseline repetition, or that one lacks."""
    return sorted(p for p in set(baseline) | set(digests) if baseline.get(p) != digests.get(p))


def operations_of(paths: list[str], cell_seeds: dict[str, list[int]]) -> set[str]:
    """Operations ("cell:seed") behind CSV paths; a seed-mean CSV stands for its whole cell."""
    ops = set()
    for path in paths:
        cell, _, fname = path.rpartition("/")
        cell = cell or "."
        seed = fname.removeprefix("trace_seed").removesuffix(".csv")
        ops.update(f"{cell}:{s}" for s in ([seed] if seed.isdigit() else cell_seeds.get(cell, [])))
    return ops


if __name__ == "__main__":
    print(json.dumps(reference_values(Path(sys.argv[1])), indent=2, sort_keys=True))
