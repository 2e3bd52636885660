"""Canned experiment families with fixed, reproducible parameters.

Every preset is a pure function of its seed list: the same seeds produce
byte-identical CSV outputs. Each preset runs a 10-dimensional diagonal
quadratic with eigenvalues spread over [0.1, 1] (so L = 1 and f_inf = 0
exactly) under unit-variance additive gradient noise, and a constant delay
model, so loss-vs-time comparisons are deterministic.

Long-run floors are measured on per-worker quantities (mean worker loss and
mean per-worker squared gradient norm) over the final 20% of iterations,
seed-averaged. On a quadratic the additive noise leaves the column-average
model's own trajectory independent of tau and W, so only worker-level
metrics can resolve how the topology and period move the floor.

Presets:

    floor-sweep        tau x zeta grid; floors ordered by both knobs
    easgd-alpha-sweep  elasticity grid at m=8 including a divergent setting
    hybrid-compare     decentralized vs periodic vs the combined variant
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from coopsgd.mixing import make_dense_with_zeta, make_easgd, make_fully_connected
from coopsgd.theory import max_stable_eta_tilde

DEFAULT_SEEDS = list(range(101, 121))

_DIM = 10
_SPECTRUM_LO = 0.1
_SPECTRUM_HI = 1.0
_INIT = 2.0
_DELAY = {"compute": 0.5, "jitter": 0.0, "latency": 1.0, "per_neighbor": 0.25,
          "nonblocking_aux": False}


def _quadratic_problem() -> dict:
    spectrum = np.linspace(_SPECTRUM_LO, _SPECTRUM_HI, _DIM)
    return {
        "type": "quadratic",
        "A": np.diag(spectrum).tolist(),
        "b": [0.0] * _DIM,
        "sigma_sq": 1.0,
        "beta": 0.0,
    }


def _algorithm(tau: int, mixing, v: int, eta: float, steps: int, rule: str = "post") -> dict:
    return {
        "tau": tau,
        "v": v,
        "eta": eta,
        "K": steps,
        "rule": rule,
        "mixing": {"n": mixing.n, "entries": mixing.entries.reshape(-1).tolist()},
        "init": _INIT,
    }


def _spec(out_dir: str, name: str, algorithm: dict, seeds: list[int]) -> tuple[str, dict]:
    return name, {
        "problem": _quadratic_problem(),
        "algorithm": algorithm,
        "delay": dict(_DELAY),
        "seeds": list(seeds),
        "output_dir": str(Path(out_dir) / name),
    }


FLOOR_TAUS = [1, 2, 8, 32]
FLOOR_ZETAS = [(0.0, "000"), (1.0 / 3.0, "033"), (0.8, "080")]
FLOOR_M = 8
FLOOR_STEPS = 20_000


def floor_cell(tau: int, label: str) -> str:
    """Name of the `floor-sweep` cell at period tau and the zeta `label`."""
    return f"tau{tau:02d}_zeta{label}"


def floor_sweep_specs(out_dir: str, seeds: list[int]) -> list[tuple[str, dict]]:
    """tau in {1,2,8,32} x zeta in {0, 1/3, 0.8} at a shared step size.

    The step is 90% of the largest one admissible for the harshest cell
    (tau=32, zeta=0.8), so all twelve runs sit inside the analyzable regime
    and their floors are comparable.
    """
    eta = 0.9 * max_stable_eta_tilde(_SPECTRUM_HI, max(FLOOR_TAUS),
                                     max(z for z, _ in FLOOR_ZETAS), FLOOR_M, 0)
    specs = []
    for zeta, label in FLOOR_ZETAS:
        mixing = make_dense_with_zeta(FLOOR_M, zeta)
        for tau in FLOOR_TAUS:
            specs.append(_spec(out_dir, floor_cell(tau, label),
                               _algorithm(tau, mixing, 0, eta, FLOOR_STEPS), seeds))
    return specs


EASGD_M = 8
EASGD_ALPHAS = [0.05, 0.1125, 0.2, 0.23]
EASGD_ETA = 0.1
EASGD_STEPS = 20_000


def easgd_cell(alpha: float) -> str:
    """Name of the `easgd-alpha-sweep` cell at elasticity alpha."""
    return "alpha" + f"{alpha:.4f}".replace(".", "p")


def easgd_alpha_sweep_specs(out_dir: str, seeds: list[int]) -> list[tuple[str, dict]]:
    """Elasticity grid at m=8: the optimum 0.2 plus the over-coupled 0.23.

    Runs the pre-multiply rule, under which the framework reproduces the
    anchor-based update literally. alpha = 0.23 exceeds 2/(m+1) and must
    diverge; it is included so non-convergence shows up as data.
    """
    specs = []
    for alpha in EASGD_ALPHAS:
        mixing = make_easgd(EASGD_M, alpha)
        specs.append(_spec(out_dir, easgd_cell(alpha),
                           _algorithm(1, mixing, 1, EASGD_ETA, EASGD_STEPS, rule="pre"), seeds))
    return specs


HYBRID_M = 7
HYBRID_ZETA = 0.75
HYBRID_TAU = 15
HYBRID_PASGD_TAU = 50
HYBRID_STEPS = 15_000


def pasgd_cell(tau: int) -> str:
    """Name of the `hybrid-compare` periodic-averaging cell at period tau."""
    return f"pasgd{tau}"


def hybrid_compare_specs(out_dir: str, seeds: list[int]) -> list[tuple[str, dict]]:
    """Decentralized (tau=1, zeta=0.75) vs periodic (tau=50) vs both combined.

    All three share the step admissible for the hybrid cell. The combined
    variant amortizes communication 15x relative to pure gossip while its
    floor stays near the tau=50 periodic one; which of those two floors ends
    up lower is parameter-dependent and reported as data, not asserted.
    """
    eta = 0.9 * max_stable_eta_tilde(_SPECTRUM_HI, HYBRID_TAU, HYBRID_ZETA, HYBRID_M, 0)
    sparse = make_dense_with_zeta(HYBRID_M, HYBRID_ZETA)
    full = make_fully_connected(HYBRID_M)
    return [
        _spec(out_dir, "dpsgd", _algorithm(1, sparse, 0, eta, HYBRID_STEPS), seeds),
        _spec(out_dir, pasgd_cell(HYBRID_PASGD_TAU),
              _algorithm(HYBRID_PASGD_TAU, full, 0, eta, HYBRID_STEPS), seeds),
        _spec(out_dir, "hybrid", _algorithm(HYBRID_TAU, sparse, 0, eta, HYBRID_STEPS), seeds),
    ]


PRESETS = {
    "floor-sweep": floor_sweep_specs,
    "easgd-alpha-sweep": easgd_alpha_sweep_specs,
    "hybrid-compare": hybrid_compare_specs,
}


def _floor_sweep_summary(results: dict[str, dict]) -> dict:
    floors = {name: res["tail_worker_grad_norm_sq"] for name, res in results.items()}
    # one row per zeta and one column per tau, each in increasing order
    grid = [[floors[floor_cell(tau, label)] for tau in FLOOR_TAUS] for _, label in FLOOR_ZETAS]
    return {
        "floors": floors,
        "nondecreasing_in_tau": all(a <= b for row in grid for a, b in zip(row, row[1:])),
        "nondecreasing_in_zeta": all(a <= b for lower, higher in zip(grid, grid[1:])
                                     for a, b in zip(lower, higher)),
        "extremes_strictly_ordered": bool(grid[0][0] < grid[-1][-1]),
    }


def _easgd_summary(results: dict[str, dict]) -> dict:
    losses = {str(alpha): results[easgd_cell(alpha)]["tail_worker_loss"] for alpha in EASGD_ALPHAS}
    diverged = {str(alpha): results[easgd_cell(alpha)]["diverged"] for alpha in EASGD_ALPHAS}
    converged = {a: v for a, v in losses.items() if v is not None}
    best = min(converged, key=converged.get) if converged else None
    return {
        "tail_worker_loss": losses,
        "diverged": diverged,
        "best_alpha": float(best) if best is not None else None,
    }


def _hybrid_summary(results: dict[str, dict]) -> dict:
    times = {name: res["timeline"]["total_time_s"] for name, res in results.items()}
    floors = {name: res["tail_worker_loss"] for name, res in results.items()}
    pasgd = pasgd_cell(HYBRID_PASGD_TAU)
    return {
        "total_time_s": times,
        "tail_worker_loss": floors,
        "hybrid_faster_than_dpsgd": bool(times["hybrid"] < times["dpsgd"]),
        "pasgd_faster_than_hybrid": bool(times[pasgd] < times["hybrid"]),
        "dpsgd_lowest_floor": bool(floors["dpsgd"] < min(floors["hybrid"], floors[pasgd])),
        "hybrid_to_pasgd_floor_ratio": floors["hybrid"] / floors[pasgd],
    }


_SUMMARIZERS = {
    "floor-sweep": _floor_sweep_summary,
    "easgd-alpha-sweep": _easgd_summary,
    "hybrid-compare": _hybrid_summary,
}


def _run_cell(spec) -> float:
    """Run one parsed cell in a pool process and return its seconds.

    `run_experiment` is looked up on `coopsgd.cli` in the pool process, so a
    wrapper installed on that name in the parent is neither called nor pickled.
    """
    from coopsgd import cli

    start = perf_counter()
    cli.run_experiment(spec)
    return perf_counter() - start


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_preset(name: str, out_dir: str, seeds: list[int] | None = None) -> dict:
    """Run every configuration of a preset and write its combined summary.

    `seeds=None` runs DEFAULT_SEEDS; any list, an empty one too, is parsed
    as given. Every cell is parsed before any runs, so an invalid one raises
    `SpecError` and leaves nothing behind. The cells then run in spawned processes, at
    most one per CPU and at most as many as `cli.MEMORY_BUDGET_BYTES` holds
    at the largest cell's estimate, so the cells running at once stay within
    the budget. One line per finished cell goes to stderr.
    """
    # imported here, so that importing `presets` costs no memory for the pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    from coopsgd.cli import MEMORY_BUDGET_BYTES, SpecError, _atomic_write_json, parse_experiment_spec

    if name not in PRESETS:
        raise SpecError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    seeds = list(DEFAULT_SEEDS) if seeds is None else list(seeds)
    cells = {cfg_name: parse_experiment_spec(payload)
             for cfg_name, payload in PRESETS[name](out_dir, seeds)}
    results: dict[str, dict] = dict.fromkeys(cells)
    # each cell fit in the budget at parse, so at least one process runs
    largest = max(spec.memory_bytes for spec in cells.values())
    workers = min(len(cells), _cpu_count(), MEMORY_BUDGET_BYTES // largest)
    # spawn, never fork: forking after the BLAS threads have started is unsafe
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {pool.submit(_run_cell, spec): cfg_name for cfg_name, spec in cells.items()}
        for future in as_completed(futures):
            cfg_name = futures[future]
            seconds = future.result()
            with open(Path(cells[cfg_name].output_dir) / "summary.json") as fh:
                results[cfg_name] = json.load(fh)
            print(f"{name}/{cfg_name}: {seconds:.2f} s, diverged seeds "
                  f"{results[cfg_name]['diverged_seeds']}", file=sys.stderr, flush=True)
    summary = {"preset": name, "seeds": seeds, "configs": sorted(results)}
    summary.update(_SUMMARIZERS[name](results))
    _atomic_write_json(Path(out_dir) / "preset_summary.json", summary)
    return summary
