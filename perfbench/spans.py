"""Spans around the package's public callables, and the per-layer metrics.

A span is (name, start, end, parent, run id); the name's first dotted part
is the layer (`cli`, `presets`, `mixing`, `objectives`, `engine`,
`timeline`, `theory`, or `bench` for the benchmark's own code). Wrappers are
installed on the attributes that `coopsgd.cli` and `coopsgd.presets` look
up at call time, so nothing inside the package changes. Spans stay in
memory until `write_csv` is called at the end of the run.
"""

from __future__ import annotations

import csv
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

from coopsgd import cli, presets

LAYERS = ("cli", "presets", "mixing", "objectives", "engine", "timeline", "theory")

# Callables as `coopsgd.cli` looks them up, with the span name each gets.
# `_atomic_write_json` is the only writer of summary.json.
CLI_CALLABLES = {
    "parse_experiment_spec": "cli.parse_experiment_spec",
    "run_experiment": "cli.run_experiment",
    "write_trace_csv": "cli.write_trace_csv",
    "average_traces": "cli.average_traces",
    "_atomic_write_json": "cli.summary",
    "oracle_from_dict": "objectives.oracle_from_dict",
    "mixing_from_dict": "mixing.mixing_from_dict",
    "simulate_timeline": "timeline.simulate_timeline",
    "theorem1_bound": "theory.theorem1_bound",
}
PRESETS_CALLABLES = {
    "run_preset": "presets.run_preset",
    "max_stable_eta_tilde": "theory.max_stable_eta_tilde",
}
# Methods the engine reaches only through the generic per-column loops.
PERCOL_METHODS = ("objective_value", "full_gradient", "stochastic_gradient")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run_id: str


class Tracer:
    """Records spans and counts for one run; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, run_id)

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "run_id"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, repr(s.start), repr(s.end), s.parent, s.run_id])


class ProxyOracle:
    """Stands in for the oracle passed to `run_many`.

    Times the sampler callable and `batch_objective_and_grads`, and counts
    single-vector calls by shadowing those methods on the wrapped instance
    (the generic batched loops call them through `self`).
    """

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer
        self.batch_objective_and_grads = tracer.wrap("objectives.eval",
                                                     oracle.batch_objective_and_grads)

    def batch_gradient_sampler(self, rng_table, horizon):
        sampler = self._oracle.batch_gradient_sampler(rng_table, horizon)
        return self._tracer.wrap("objectives.sample", sampler)

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    @contextmanager
    def counting_percol(self):
        for name in PERCOL_METHODS:
            setattr(self._oracle, name,
                    self._tracer.count("objectives.percol_calls", getattr(self._oracle, name)))
        try:
            yield
        finally:
            for name in PERCOL_METHODS:
                delattr(self._oracle, name)


def _traced_run_many(tracer: Tracer, run_many):
    def run_many_with_proxy(config, oracle, seeds, x0=1.0):
        proxy = ProxyOracle(oracle, tracer)
        with proxy.counting_percol():
            return run_many(config, proxy, seeds, x0=x0)

    return tracer.wrap("engine.run_many", run_many_with_proxy)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's callables for the duration of the block."""
    saved = [(cli, "run_many", cli.run_many)]
    saved += [(cli, attr, getattr(cli, attr)) for attr in CLI_CALLABLES]
    saved += [(presets, attr, getattr(presets, attr)) for attr in PRESETS_CALLABLES]
    saved_presets = dict(presets.PRESETS)
    try:
        cli.run_many = _traced_run_many(tracer, cli.run_many)
        for attr, name in CLI_CALLABLES.items():
            setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
        for attr, name in PRESETS_CALLABLES.items():
            setattr(presets, attr, tracer.wrap(name, getattr(presets, attr)))
        for key, fn in saved_presets.items():
            presets.PRESETS[key] = tracer.wrap("presets.specs", fn)
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
        presets.PRESETS.update(saved_presets)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[k].start, cursor)
            hi = min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span], counts: Counter, outputs: dict,
                  speed_factor: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    `outputs` carries what the output check read from disk: `csv_bytes`,
    `csv_rows` and `cells`, a list of (seeds, K, tau, d, n, m, noisy) per cell.
    Every time is multiplied by `speed_factor` (see probe.py).
    """
    selfs = [t * speed_factor for t in self_times(spans)]
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for s, self_s in zip(spans, selfs):
        total[s.name] += (s.end - s.start) * speed_factor
        own[s.name] += self_s
        calls[s.name] += 1
    wall = sum(s.end - s.start for s in spans if s.parent < 0) * speed_factor
    covered = sum(t for s, t in zip(spans, selfs) if s.name.split(".")[0] in LAYERS)
    cell_spans = [(s.end - s.start) * speed_factor for s in spans
                  if s.name == "cli.run_experiment" and s.parent >= 0
                  and spans[s.parent].name == "presets.run_preset"]
    sample_us = [(s.end - s.start) * speed_factor * 1e6
                 for s in spans if s.name == "objectives.sample"]

    cells = outputs["cells"]
    steps = sum(c["K"] for c in cells)
    seed_steps = sum(len(c["seeds"]) * c["K"] for c in cells)
    syncs = sum(len(c["seeds"]) * c["K"] // c["tau"] for c in cells)
    flops = sum(2 * c["d"] * c["n"] ** 2 * len(c["seeds"]) * c["K"] // c["tau"] for c in cells)
    noise = sum(8 * len(c["seeds"]) * c["m"] * c["d"] * c["K"] for c in cells if c["noisy"])
    return {
        "cli.parse_s": own["cli.parse_experiment_spec"],
        "cli.csv_s": total["cli.write_trace_csv"],
        "cli.csv_bytes": outputs["csv_bytes"],
        "cli.csv_rows": outputs["csv_rows"],
        "cli.summary_s": total["cli.summary"],
        "cli.average_s": total["cli.average_traces"],
        "presets.specs_s": own["presets.specs"],
        "presets.cells": len(cell_spans),
        "presets.cell_s_max": max(cell_spans, default=0.0),
        "mixing.setup_s": total["mixing.mixing_from_dict"],
        "mixing.syncs": syncs,
        "mixing.flops": flops,
        "objectives.setup_s": total["objectives.oracle_from_dict"],
        "objectives.sample_s": total["objectives.sample"],
        "objectives.sample_calls": calls["objectives.sample"],
        "objectives.sample_us_p50": statistics.median(sample_us) if sample_us else 0.0,
        "objectives.eval_s": total["objectives.eval"],
        "objectives.eval_calls": calls["objectives.eval"],
        "objectives.percol_calls": counts["objectives.percol_calls"],
        "objectives.noise_bytes": noise,
        "engine.run_s": total["engine.run_many"],
        "engine.self_s": own["engine.run_many"],
        "engine.self_us_per_step": own["engine.run_many"] / steps * 1e6 if steps else 0.0,
        "engine.seed_steps": seed_steps,
        "timeline.s": total["timeline.simulate_timeline"],
        "timeline.calls": calls["timeline.simulate_timeline"],
        "theory.s": total["theory.theorem1_bound"] + total["theory.max_stable_eta_tilde"],
        "trace.covered_frac": covered / wall if wall > 0 else 0.0,
    }


def describe_cell(summary: dict) -> dict:
    """The array sizes behind the computed metrics, read from a cell's config echo."""
    echo = summary["config_echo"]
    problem, algo = echo["problem"], echo["algorithm"]
    d = len(problem["b"]) if problem["type"] == "quadratic" else problem["d"]
    n = algo["mixing"]["n"]
    noisy = problem["type"] == "quadratic" and problem["sigma_sq"] > 0
    return {"seeds": echo["seeds"], "K": algo["K"], "tau": algo["tau"], "d": d, "n": n,
            "m": n - algo["v"], "noisy": noisy}
