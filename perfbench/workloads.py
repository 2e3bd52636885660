"""Workload generator: each workload is a pure function of its workload seed.

The program under test receives only what `generate` returns: a preset name
with a seed list, or a complete experiment spec. Every workload is sized so
that no seed diverges at any workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from coopsgd import cli, presets
from coopsgd.mixing import (
    best_generalized_elastic_alpha,
    make_dense_with_zeta,
    make_generalized_elastic,
    make_ring,
)

# At this seed the workloads reproduce the reference values in reference.json;
# for preset-hybrid it gives the preset's own default seed list 101..120.
DEFAULT_SEED = 101

HYBRID_SEEDS = 20
WIDE_DIM = 256
WIDE_WORKERS = 16
LOGISTIC_WORKERS = 8
SPEC_SEEDS = 4
_JITTERED_DELAY = {"compute": 0.5, "jitter": 0.2, "latency": 1.0, "per_neighbor": 0.25}


def _seed_list(seed: int, count: int) -> list[int]:
    return [seed + i for i in range(count)]


def _mixing_dict(mixing) -> dict:
    return {"n": mixing.n, "entries": [float(x) for x in mixing.entries.reshape(-1)],
            "zeta": mixing.zeta}


def hybrid_inputs(seed: int, out_dir: str) -> dict:
    return {"preset": "hybrid-compare", "seeds": _seed_list(seed, HYBRID_SEEDS),
            "out_dir": out_dir}


def wide_elastic_inputs(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((WIDE_DIM, WIDE_DIM)))
    spectrum = np.linspace(0.1, 1.0, WIDE_DIM)
    a = (rotation * spectrum) @ rotation.T
    a = 0.5 * (a + a.T)  # exactly symmetric, as the oracle requires
    ring = make_ring(WIDE_WORKERS)
    alpha, _ = best_generalized_elastic_alpha(ring.zeta, WIDE_WORKERS)
    return {
        "problem": {"type": "quadratic", "A": a.tolist(), "b": [0.0] * WIDE_DIM,
                    "sigma_sq": 1.0, "beta": 0.0},
        "algorithm": {"tau": 1, "v": 1, "eta": 0.05, "K": 3000, "rule": "pre",
                      "mixing": _mixing_dict(make_generalized_elastic(ring, alpha)),
                      "init": 1.0},
        "delay": dict(_JITTERED_DELAY, nonblocking_aux=True),
        "seeds": _seed_list(seed, SPEC_SEEDS),
        "output_dir": out_dir,
    }


def logistic_gossip_inputs(seed: int, out_dir: str) -> dict:
    return {
        "problem": {"type": "logistic", "n": 1000, "d": 20, "seed": seed, "l2": 0.01,
                    "batch": 8},
        "algorithm": {"tau": 4, "v": 0, "eta": 0.05, "K": 1000, "rule": "post",
                      "mixing": _mixing_dict(make_dense_with_zeta(LOGISTIC_WORKERS, 0.5)),
                      "init": 1.0},
        "delay": dict(_JITTERED_DELAY, nonblocking_aux=False),
        "seeds": _seed_list(seed, SPEC_SEEDS),
        "output_dir": out_dir,
    }


def run_preset_inputs(inputs: dict) -> None:
    presets.run_preset(inputs["preset"], inputs["out_dir"], seeds=inputs["seeds"])


def setup_preset_inputs(inputs: dict) -> list:
    """Everything `run_preset` does before each cell's first step: specs, then parses."""
    payloads = presets.PRESETS[inputs["preset"]](inputs["out_dir"], inputs["seeds"])
    return [cli.parse_experiment_spec(payload) for _, payload in payloads]


def run_spec(payload: dict) -> None:
    code = cli.run_experiment(cli.parse_experiment_spec(payload))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"run_experiment returned exit code {code}")


def setup_spec(payload: dict) -> list:
    return [cli.parse_experiment_spec(payload)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: int
    seeds_per_cell: int
    generate: Callable[[int, str], dict]
    run: Callable[[dict], None]
    setup: Callable[[dict], list]

    @property
    def operations(self) -> int:
        """One operation is one seed of one cell."""
        return self.cells * self.seeds_per_cell


# The `why` of each workload is also its entry in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="preset-hybrid",
        why=("the only multi-cell workload: 3 cells x 20 seeds x K=15000 at d=10, where "
             "per-step overhead, metric recording and 63 CSVs of 15001 rows dominate"),
        cells=3, seeds_per_cell=HYBRID_SEEDS,
        generate=hybrid_inputs, run=run_preset_inputs, setup=setup_preset_inputs,
    ),
    Workload(
        name="wide-elastic",
        why=("the kernel-heavy case: d=256 rotated quadratic, 16-ring plus elastic anchor, "
             "pre rule; noise refill and the d x d matmul dominate, with the largest noise "
             "buffer"),
        cells=1, seeds_per_cell=SPEC_SEEDS,
        generate=wide_elastic_inputs, run=run_spec, setup=setup_spec,
    ),
    Workload(
        name="logistic-gossip",
        why=("the only oracle without a batched path: most time is per-column Python calls, "
             "so quadratic-only changes must show no change here"),
        cells=1, seeds_per_cell=SPEC_SEEDS,
        generate=logistic_gossip_inputs, run=run_spec, setup=setup_spec,
    ),
]}
