"""Tests for the benchmark's own code: span arithmetic, the workload
generator, metric names, and the output checks."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from checks import digest_mismatches, inspect_outputs, operations_of
from coopsgd import cli, presets
from spans import Span, Tracer, describe_cell, installed, layer_metrics, self_times
from workloads import DEFAULT_SEED, WORKLOADS, run_spec

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny_spec(out_dir) -> dict:
    third = 1.0 / 3.0
    return {
        "problem": {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 0.5]], "b": [0.0, 0.0],
                    "sigma_sq": 1.0, "beta": 0.0},
        "algorithm": {"tau": 2, "v": 0, "eta": 0.1, "K": 10,
                      "mixing": {"n": 3, "entries": [third] * 9}},
        "delay": {"compute": 0.5},
        "seeds": [1, 2],
        "output_dir": str(out_dir),
    }


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("bench.workload", 0.0, 10.0, -1, "r"),
        Span("cli.run_experiment", 1.0, 4.0, 0, "r"),
        Span("engine.run_many", 3.0, 6.0, 0, "r"),    # overlaps its sibling
        Span("objectives.eval", 2.0, 3.0, 1, "r"),
        Span("timeline.simulate_timeline", 5.5, 7.0, 2, "r"),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 1.0, 1.5])


def test_generator_is_a_function_of_the_workload_seed():
    for workload in WORKLOADS.values():
        first = workload.generate(7, "out")
        assert first == workload.generate(7, "out")
        assert first != workload.generate(8, "out")
    default = WORKLOADS["preset-hybrid"].generate(DEFAULT_SEED, "out")
    assert default["seeds"] == presets.DEFAULT_SEEDS


def test_metric_names_follow_the_grammar_and_match_what_the_trace_reports(tmp_path):
    tracer = Tracer(run_id="t")
    with installed(tracer):
        tracer.wrap("bench.workload", run_spec)(_tiny_spec(tmp_path))
    report = inspect_outputs(tmp_path)
    cells = [describe_cell(c["summary"]) for c in report["cells"]]
    layers = layer_metrics(tracer.spans, tracer.counts, dict(report, cells=cells))

    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert set(layers) | {"trace.overhead_frac"} == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layers["engine.seed_steps"] == 20
    assert layers["mixing.syncs"] == 10
    assert layers["objectives.eval_calls"] == 11
    assert layers["objectives.percol_calls"] == 0
    assert 0.0 < layers["trace.covered_frac"] <= 1.0


def test_tracing_restores_the_package_callables():
    before = (cli.run_many, cli.parse_experiment_spec, presets.run_preset, dict(presets.PRESETS))
    with installed(Tracer(run_id="t")):
        assert cli.run_many is not before[0]
    assert (cli.run_many, cli.parse_experiment_spec, presets.run_preset,
            dict(presets.PRESETS)) == before


def test_output_check_fails_on_a_tampered_csv(tmp_path):
    run_spec(_tiny_spec(tmp_path))
    clean = inspect_outputs(tmp_path)
    assert clean["failed"] == [] and clean["problems"] == []

    path = tmp_path / "trace_seed2.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    truncated = inspect_outputs(tmp_path)
    assert truncated["failed"] == [".:2"]

    lines[-1] = lines[-1].replace("10,", "10,9", 1)
    path.write_text("".join(lines))
    edited = inspect_outputs(tmp_path)
    assert edited["failed"] == []
    mismatched = digest_mismatches(clean["digests"], edited["digests"])
    assert mismatched == ["trace_seed2.csv"]
    assert operations_of(mismatched, {".": [1, 2]}) == {".:2"}
    assert operations_of(["cell/trace_mean.csv"], {"cell": [1, 2]}) == {"cell:1", "cell:2"}


def test_output_check_compares_summaries_with_the_reference(tmp_path):
    run_spec(_tiny_spec(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    good = {".": {"final_loss": summary["final_loss"]}}
    bad = {".": {"final_loss": summary["final_loss"] * (1 + 1e-9)}}
    assert inspect_outputs(tmp_path, good)["failed"] == []
    assert inspect_outputs(tmp_path, bad)["failed"] == [".:1", ".:2"]
