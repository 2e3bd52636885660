"""CLI: spec validation, experiment outputs, exit codes, reproducibility."""

import concurrent.futures
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coopsgd
from coopsgd import cli, presets
from coopsgd.cli import (
    CSV_BLOCK_ROWS,
    ClockText,
    EXIT_ALL_DIVERGED,
    EXIT_INVALID,
    EXIT_OK,
    TRACE_CSV_COLUMNS,
    SpecError,
    main,
    parse_experiment_spec,
    run_experiment,
    write_trace_csv,
)
from coopsgd.engine import (
    METRIC_NAMES,
    AlgorithmConfig,
    RunTrace,
    record_block_rows,
    run_many,
    tail_start,
)
from coopsgd.mixing import (
    best_generalized_elastic_alpha,
    make_easgd,
    make_fully_connected,
    make_generalized_elastic,
    make_ring,
)
from coopsgd.objectives import LogisticProblem, QuadraticProblem
from coopsgd.timeline import simulate_timeline
from reference_updates import PoisonedOracle
from reference_writers import json_text, trace_csv_text


def quadratic_spec(tmp_path, **overrides) -> dict:
    spec = {
        "problem": {"type": "quadratic",
                    "A": [[1.0, 0.0], [0.0, 0.5]],
                    "b": [0.0, 0.0],
                    "sigma_sq": 1.0,
                    "beta": 0.0},
        "algorithm": {"tau": 2, "v": 0, "eta": 0.05, "K": 50, "rule": "post",
                      "mixing": {"n": 4, "entries": [0.25] * 16}, "init": 2.0},
        "delay": {"compute": 0.5, "latency": 1.0, "per_neighbor": 0.25},
        "seeds": [11, 12],
        "output_dir": str(tmp_path / "exp"),
    }
    spec.update(overrides)
    return spec


def traced_run_peak(spec_dict) -> tuple[int, cli.ExperimentSpec]:
    """Peak traced bytes of parsing and running `spec_dict`, and its parsed
    spec. An untraced first run pays for the modules numpy imports on first use."""
    run_experiment(parse_experiment_spec(spec_dict))
    tracemalloc.start()
    try:
        spec = parse_experiment_spec(spec_dict)
        assert run_experiment(spec) == EXIT_OK
        return tracemalloc.get_traced_memory()[1], spec
    finally:
        tracemalloc.stop()


def echo_text(echo) -> str:
    """An echo as the summary writer encodes it."""
    return "".join(cli._json_batches(echo))


def replace_at(spec, path: tuple, value):
    """`spec` with the value at `path` (keys and list indices) replaced."""
    if not path:
        return value
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


def value_paths(node, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from value_paths(child, prefix + (key,))


# A complete `bounds` report request; argparse keeps the last value of a
# repeated option, so appending one replaces it.
BOUND_ARGS = ["--f1-minus-finf", "1", "--lipschitz", "1", "--sigma-sq", "1", "--m", "4",
              "--tau", "1", "--zeta", "0", "--eta", "0.01", "--K", "10000"]

# Single-field mutations that crashed with a traceback or passed `validate`.
MALFORMED = [
    (("algorithm", "eta"), "fast"),
    (("problem", "A", 0, 1), "0"),
    (("problem", "A", 0, 0), math.nan),
    (("problem",), "type"),
    (("algorithm", "init"), [2.0, "2"]),
    (("algorithm", "mixing", "entries", 3), "0.25"),
    (("delay",), 5),
    (("algorithm", "eta"), "0.05"),
    (("algorithm", "eta"), True),
    (("algorithm", "eta"), math.nan),
    (("algorithm", "eta"), math.inf),
    (("problem", "sigma_sq"), "1"),
    (("delay", "compute"), "0.5"),
    (("problem", "sigma_sq"), math.nan),
    (("delay", "compute"), math.nan),
    (("problem", "b", 1), True),  # a bool among numbers takes their dtype in numpy
]


def json_containers(inner):
    """Lists (ragged ones included) and objects of `inner` values."""
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


# None, bools, floats with NaN and +-inf, text, small and huge integers, and containers
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.integers(min_value=-10**400, max_value=10**400),
    json_containers, max_leaves=10,
)


# Mostly bare numbers, which keep more mutated specs runnable
NUMBERS_FIRST = st.integers() | st.floats() | JSON_VALUES


def mutated_main(tmp_path, data, command: str, values=JSON_VALUES,
                 fixed=()) -> tuple[int, str, str]:
    """Run `command` on the test spec with one value or subtree, outside the
    paths in `fixed`, replaced by a drawn value; returns the exit code,
    stdout and stderr."""
    spec = quadratic_spec(tmp_path)
    paths = [p for p in value_paths(spec) if p not in fixed]
    path = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(values, label="value")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(replace_at(spec, path, value)))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the example
        code = main([command, str(spec_file)])
    if code == EXIT_INVALID:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
    return code, out.getvalue(), err.getvalue()


class TestSpecProperty:
    """Any one value or subtree of a valid spec replaced by any JSON value:
    `validate` exits 0 or 2, `run` exits 0, 2 or 3, and 2 comes with exactly
    one `error:` line."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_validate_exits_zero_or_two_with_one_line(self, tmp_path, data):
        code, out, err = mutated_main(tmp_path, data, "validate")
        assert code in (EXIT_OK, EXIT_INVALID)
        if code == EXIT_OK:
            assert err == "" and out.startswith("ok: ")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_run_exits_zero_two_or_three_with_one_line(self, tmp_path, monkeypatch, data):
        # a small budget turns every large K, seed list or dimension into a
        # rejection at parse; the output directory stays the test's own
        monkeypatch.setattr(cli, "MEMORY_BUDGET_BYTES", 2**18)
        monkeypatch.chdir(tmp_path)
        code, out, err = mutated_main(tmp_path, data, "run", NUMBERS_FIRST,
                                      fixed={("output_dir",)})
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_ALL_DIVERGED)
        if code != EXIT_INVALID:
            assert err == "" and out == ""


class TestSpecParsing:
    @pytest.mark.parametrize("path, payload, echo", [
        ((), None, None),
        (("problem",), {"type": "logistic", "n": 40, "d": 2, "seed": 3},
         {"type": "logistic", "n": 40, "d": 2, "seed": 3, "l2": 0.01, "batch": 8}),
        (("delay",), {"compute": 0.5},
         {"compute": 0.5, "jitter": 0.0, "latency": 0.0, "per_neighbor": 0.0,
          "nonblocking_aux": False}),
        (("algorithm", "init"), 2, 2.0),
        (("algorithm", "init"), [1, 2], [1.0, 2.0]),
    ], ids=["quadratic", "logistic", "bare_delay", "int_init", "int_init_vector"])
    def test_round_trip_identical(self, tmp_path, path, payload, echo):
        # the echo fills in every default, writes every number as a float,
        # and re-parses to itself, as the summary writer encodes it
        spec = quadratic_spec(tmp_path)
        if path:
            replace_at(spec, path, payload)
        first = parse_experiment_spec(spec)
        text = echo_text(first.echo)
        second = parse_experiment_spec(json.loads(text))
        assert echo_text(second.echo) == text
        if path:
            echoed = json.loads(text)
            for key in path:
                echoed = echoed[key]
            # 2 == 2.0 in Python, so compare the JSON text, where they differ
            assert json.dumps(echoed, sort_keys=True) == json.dumps(echo, sort_keys=True)

    def test_unknown_top_level_field(self, tmp_path):
        with pytest.raises(SpecError, match="surprise"):
            parse_experiment_spec(quadratic_spec(tmp_path, surprise=1))

    def test_unknown_nested_fields(self, tmp_path):
        spec = quadratic_spec(tmp_path)
        spec["algorithm"]["warp"] = 2
        with pytest.raises(SpecError, match="warp"):
            parse_experiment_spec(spec)
        spec = quadratic_spec(tmp_path)
        spec["problem"]["mystery"] = True
        with pytest.raises(SpecError, match="mystery"):
            parse_experiment_spec(spec)
        spec = quadratic_spec(tmp_path)
        spec["delay"]["turbo"] = 1
        with pytest.raises(SpecError, match="turbo"):
            parse_experiment_spec(spec)

    def test_seeds_must_be_distinct_nonempty(self, tmp_path):
        with pytest.raises(SpecError):
            parse_experiment_spec(quadratic_spec(tmp_path, seeds=[]))
        with pytest.raises(SpecError):
            parse_experiment_spec(quadratic_spec(tmp_path, seeds=[1, 1]))

    def test_horizon_divisibility_reported(self, tmp_path):
        spec = quadratic_spec(tmp_path)
        spec["algorithm"]["K"] = 51
        with pytest.raises(SpecError, match="nearest valid"):
            parse_experiment_spec(spec)

    def test_init_vector_dimension_checked(self, tmp_path):
        spec = quadratic_spec(tmp_path)
        spec["algorithm"]["init"] = [1.0, 2.0, 3.0]
        with pytest.raises(SpecError, match="init"):
            parse_experiment_spec(spec)

    def test_fractional_step_count_rejected(self, tmp_path):
        spec = quadratic_spec(tmp_path)
        spec["algorithm"]["K"] = 50.9
        with pytest.raises(SpecError, match="'K' must be an integer"):
            parse_experiment_spec(spec)

    def test_bool_period_rejected(self, tmp_path):
        spec = quadratic_spec(tmp_path)
        spec["algorithm"]["tau"] = True
        with pytest.raises(SpecError, match="'tau' must be an integer"):
            parse_experiment_spec(spec)

    def test_fractional_auxiliary_count_rejected(self, tmp_path):
        spec = quadratic_spec(tmp_path)
        spec["algorithm"]["v"] = 0.7
        with pytest.raises(SpecError, match="'v' must be an integer"):
            parse_experiment_spec(spec)

    def test_string_nonblocking_flag_rejected(self, tmp_path):
        spec = quadratic_spec(tmp_path)
        spec["delay"]["nonblocking_aux"] = "false"
        with pytest.raises(SpecError, match="nonblocking_aux"):
            parse_experiment_spec(spec)

    @pytest.mark.parametrize("field, value", [
        ("mixing n", 4.5), ("n", 40.5), ("d", True), ("seed", 3.2), ("batch", "4"), ("seed", -3),
    ])
    def test_other_integer_fields_strict(self, tmp_path, field, value):
        spec = quadratic_spec(tmp_path)
        if field == "mixing n":
            spec["algorithm"]["mixing"]["n"] = value
        else:
            spec["problem"] = {"type": "logistic", "n": 40, "d": 4, "seed": 3, "batch": 4,
                               field: value}
        with pytest.raises(SpecError, match=f"'{field.split()[-1]}' must be"):
            parse_experiment_spec(spec)

    def test_integral_float_accepted(self, tmp_path):
        spec = quadratic_spec(tmp_path)
        spec["algorithm"]["K"] = 50.0
        assert parse_experiment_spec(spec).config.steps == 50


class TestRunExperiment:
    def test_outputs_and_summary(self, tmp_path):
        spec = parse_experiment_spec(quadratic_spec(tmp_path))
        assert run_experiment(spec) == EXIT_OK
        out = tmp_path / "exp"
        names = sorted(f.name for f in out.iterdir())
        assert names == ["summary.json", "trace_mean.csv", "trace_seed11.csv",
                         "trace_seed12.csv"]
        header = (out / "trace_seed11.csv").read_text().splitlines()[0]
        assert header == ",".join(TRACE_CSV_COLUMNS)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is False
        assert summary["divergence"] == {}
        assert summary["bound_report"]["lr_ok"] in (True, False)
        assert summary["config_echo"]["seeds"] == [11, 12]
        assert summary["mean_grad_norm_sq"] > 0

    def test_wall_clock_column_filled(self, tmp_path):
        spec = parse_experiment_spec(quadratic_spec(tmp_path))
        run_experiment(spec)
        rows = (tmp_path / "exp" / "trace_seed11.csv").read_text().splitlines()[1:]
        clocks = [float(r.split(",")[4]) for r in rows]
        assert clocks[0] == 0.0
        assert all(b > a for a, b in zip(clocks, clocks[1:]))

    def test_seed_mean_csv_is_the_mean_of_the_seed_csvs(self, tmp_path):
        # the seed mean is summed without a stack; its file must still hold the
        # bits of np.mean over the stacked per-seed columns, clocks included,
        # which jitter makes differ from seed to seed
        spec_dict = quadratic_spec(tmp_path, seeds=[11, 12, 13, 14, 15])
        spec_dict["delay"]["jitter"] = 0.3
        assert run_experiment(parse_experiment_spec(spec_dict)) == EXIT_OK
        out = tmp_path / "exp"
        stack = [[[float(x) for x in row.split(",")]
                  for row in (out / f"trace_seed{seed}.csv").read_text().splitlines()[1:]]
                 for seed in spec_dict["seeds"]]
        mean = np.mean(stack, axis=0)
        expected = tmp_path / "expected.csv"
        worker_metrics = np.zeros((2, 51 - tail_start(50)))  # the CSV holds no worker metric
        write_trace_csv(RunTrace(mean[:, 1:4].T, worker_metrics, 50, 0.0), ClockText(mean[:, 4]),
                        expected)
        assert (out / "trace_mean.csv").read_bytes() == expected.read_bytes()

    @staticmethod
    def timeline_clock(spec, seed):
        config = spec.config
        return simulate_timeline(config.steps, config.tau, config.mixing, spec.delay_model,
                                 seed=seed, v=config.v).cumulative

    def test_shared_clock_keeps_every_byte(self, tmp_path):
        # without jitter every seed's CSV reuses one clock text; the over-coupled
        # elastic matrix diverges seed 1 at row 990, two rows before the horizon,
        # so its CSV takes the first rows of that text
        spec_dict = quadratic_spec(tmp_path, seeds=[1, 2, 8])
        spec_dict["algorithm"].update(tau=1, v=1, eta=0.1, K=992, rule="pre", mixing={
            "n": 3, "entries": make_easgd(2, 0.8).entries.reshape(-1).tolist()})
        spec = parse_experiment_spec(spec_dict)
        assert not spec.delay_model.depends_on_seed
        traces = run_many(spec.config, spec.oracle, spec.seeds, x0=spec.x0)
        assert [t.rows for t in traces] == [990, 993, 993]
        assert run_experiment(spec) == EXIT_OK
        out = tmp_path / "exp"
        for seed, trace in zip(spec.seeds, traces):
            expected = trace_csv_text(trace, self.timeline_clock(spec, seed))
            assert (out / f"trace_seed{seed}.csv").read_bytes() == expected.encode()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged_seeds"] == [1]
        assert summary["divergence"] == {"1": {"row": 990, "nonfinite": ["network_error"]}}

    def test_divergence_names_the_recorded_metrics(self, tmp_path):
        # an infinite gradient coordinate makes every recorded metric of its
        # row non-finite: before the tail, which starts at row 40 of 50, the
        # three of the column mean, and on the tail all five
        spec_dict = quadratic_spec(tmp_path, seeds=[11, 12, 13])
        spec_dict["problem"].update(A=np.diag([1.0, 0.5, 0.25]).tolist(), b=[0.0] * 3)
        spec = parse_experiment_spec(spec_dict)
        assert tail_start(spec.config.steps) == 40
        spec.oracle = PoisonedOracle(spec.oracle, {5: 0, 45: 1})
        assert run_experiment(spec) == EXIT_OK
        summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
        assert summary["divergence"] == {
            "11": {"row": 5, "nonfinite": ["loss", "grad_norm_sq", "network_error"]},
            "12": {"row": 45, "nonfinite": list(METRIC_NAMES)},
        }

    def test_jittered_clocks_are_per_seed(self, tmp_path):
        spec_dict = quadratic_spec(tmp_path, seeds=[11, 12, 13])
        spec_dict["delay"]["jitter"] = 0.3
        spec = parse_experiment_spec(spec_dict)
        assert spec.delay_model.depends_on_seed
        traces = run_many(spec.config, spec.oracle, spec.seeds, x0=spec.x0)
        assert run_experiment(spec) == EXIT_OK
        clocks = set()
        for seed, trace in zip(spec.seeds, traces):
            text = (tmp_path / "exp" / f"trace_seed{seed}.csv").read_bytes().decode()
            assert text == trace_csv_text(trace, self.timeline_clock(spec, seed))
            clocks.add(tuple(row.rsplit(",", 1)[1] for row in text.splitlines()[2:]))
        assert len(clocks) == 3

    def test_summary_seed_means_are_read_off_the_seed_mean_csv(self, tmp_path):
        # at these 20 seeds the mean of the per-seed numbers rounds unlike the
        # seed-mean trace, so only one of the two rules can match the file
        seeds = list(range(11, 31))
        spec = parse_experiment_spec(quadratic_spec(tmp_path, seeds=seeds))
        assert run_experiment(spec) == EXIT_OK
        out = tmp_path / "exp"
        summary = json.loads((out / "summary.json").read_text())

        def columns(name):
            return np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=(1, 2), unpack=True)

        loss, grad_sq = columns("trace_mean.csv")
        assert summary["mean_grad_norm_sq"] == grad_sq[:50].mean()
        assert summary["final_loss"] == loss[-1]
        per_seed = [columns(f"trace_seed{seed}.csv") for seed in seeds]
        assert np.mean([g[:50].mean() for _, g in per_seed]) != summary["mean_grad_norm_sq"]
        assert np.mean([f[-1] for f, _ in per_seed]) != summary["final_loss"]

    def test_all_diverged_exit_code(self, tmp_path):
        # a step far beyond 2/L diverges deterministically
        spec_dict = quadratic_spec(tmp_path)
        spec_dict["algorithm"]["eta"] = 3.0
        spec_dict["algorithm"]["K"] = 5000
        spec_dict["algorithm"]["tau"] = 1
        spec = parse_experiment_spec(spec_dict)
        assert run_experiment(spec) == EXIT_ALL_DIVERGED
        summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
        assert summary["diverged"] is True
        assert summary["mean_grad_norm_sq"] is None
        assert not (tmp_path / "exp" / "trace_mean.csv").exists()

    def test_rerun_leaves_only_its_own_files(self, tmp_path):
        out = tmp_path / "exp"
        for seeds in ([1, 2], [3]):
            assert run_experiment(parse_experiment_spec(quadratic_spec(tmp_path, seeds=seeds))) == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == [
            "summary.json", "trace_mean.csv", "trace_seed3.csv"]
        diverging = quadratic_spec(tmp_path, seeds=[4])
        diverging["algorithm"].update(eta=3.0, K=5000, tau=1)
        assert run_experiment(parse_experiment_spec(diverging)) == EXIT_ALL_DIVERGED
        assert sorted(f.name for f in out.iterdir()) == ["summary.json", "trace_seed4.csv"]

    def test_rerun_sweeps_interrupted_temporaries(self, tmp_path):
        # an interrupted run leaves `<trace>.csv.tmp` behind; a bare `.tmp` may be
        # the user's own file and stays
        out = tmp_path / "exp"
        out.mkdir()
        for name in ("trace_seed9.csv.tmp", "notes.tmp"):
            (out / name).write_text("partial")
        assert run_experiment(parse_experiment_spec(quadratic_spec(tmp_path, seeds=[1]))) == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == [
            "notes.tmp", "summary.json", "trace_mean.csv", "trace_seed1.csv"]
        # a dangling symlink under a name the run deletes is deleted as well
        (out / "trace_mean.csv").unlink()
        for name in ("trace_mean.csv", "trace_mean.csv.tmp"):
            (out / name).symlink_to(tmp_path / "missing")
        diverging = quadratic_spec(tmp_path, seeds=[4])
        diverging["algorithm"].update(eta=3.0, K=5000, tau=1)
        assert run_experiment(parse_experiment_spec(diverging)) == EXIT_ALL_DIVERGED
        assert sorted(f.name for f in out.iterdir()) == [
            "notes.tmp", "summary.json", "trace_seed4.csv"]

    def test_other_directories_stay(self, tmp_path):
        # only a directory named like a file the run writes or deletes is in its way
        out = tmp_path / "exp"
        for name in ("plots", "trace_seed11.csv.old"):
            (out / name).mkdir(parents=True)
        assert run_experiment(parse_experiment_spec(quadratic_spec(tmp_path))) == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == [
            "plots", "summary.json", "trace_mean.csv", "trace_seed11.csv",
            "trace_seed11.csv.old", "trace_seed12.csv"]

    def test_unlistable_output_dir_still_runs(self, tmp_path, monkeypatch):
        # a directory with write and execute but no read permission (mode
        # 0o300) holding a subdirectory cannot be listed; it is not checked,
        # and the run writes into it as the stale sweep skips it
        out = tmp_path / "exp"
        (out / "plots").mkdir(parents=True)
        scandir = os.scandir

        def unlistable(path="."):
            if os.fspath(path) == str(out):
                raise PermissionError(13, "Permission denied", str(out))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", unlistable)
        assert run_experiment(parse_experiment_spec(quadratic_spec(tmp_path))) == EXIT_OK
        monkeypatch.undo()
        assert sorted(f.name for f in out.iterdir()) == [
            "plots", "summary.json", "trace_mean.csv", "trace_seed11.csv", "trace_seed12.csv"]

    def test_invalid_mixing_runs_without_bound_report(self, tmp_path):
        w = make_easgd(2, 0.8)  # zeta > 1: outside every bound's regime
        spec_dict = quadratic_spec(tmp_path)
        spec_dict["algorithm"]["v"] = 1
        spec_dict["algorithm"]["mixing"] = {
            "n": 3, "entries": [float(x) for x in w.entries.reshape(-1)]}
        spec = parse_experiment_spec(spec_dict)
        run_experiment(spec)
        summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
        assert summary["bound_report"] is None

    def test_overflowing_bound_runs_without_bound_report(self, tmp_path):
        # L = 1e300: L^2 leaves the float range, while the run itself stays finite
        spec_dict = quadratic_spec(tmp_path, seeds=[1])
        spec_dict["problem"].update(A=[[1e300, 0.0], [0.0, 1.0]], b=[0.0, 0.0], sigma_sq=1.0)
        spec_dict["algorithm"].update(eta=1e-301, init=1e-200, K=10, tau=2, mixing={
            "n": 3, "entries": make_fully_connected(3).entries.reshape(-1).tolist()})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict))
        assert main(["run", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
        assert summary["bound_report"] is None
        assert summary["diverged_seeds"] == []

    def test_unbounded_objective_runs_without_bound_report(self, tmp_path):
        # b leaves the range of A = diag(1, 0), so F falls without bound along
        # the second axis, and no bound on the gradient norm holds
        spec_dict = quadratic_spec(tmp_path)
        spec_dict["problem"].update(A=[[1.0, 0.0], [0.0, 0.0]], b=[0.0, 1.0], sigma_sq=0.1)
        spec_dict["algorithm"].update(eta=0.1, K=100, mixing={"n": 2, "entries": [0.5] * 4})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict))
        assert main(["run", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
        assert summary["bound_report"] is None
        assert summary["mean_grad_norm_sq"] > 1.0

    @pytest.mark.parametrize("excess, published", [(1e-12, True), (1e-6, False)])
    def test_initial_gap_below_zero_only_by_rounding(self, tmp_path, excess, published):
        # an f_inf above F(x0) is no infimum: the gap clamps to 0 only when
        # it lies below zero by rounding
        spec = parse_experiment_spec(quadratic_spec(tmp_path))
        f0 = spec.oracle.objective_value(np.full(2, 2.0))
        spec.oracle.f_inf = f0 * (1.0 + excess)
        assert run_experiment(spec) == EXIT_OK
        report = json.loads((tmp_path / "exp" / "summary.json").read_text())["bound_report"]
        assert (report is not None) == published
        if published:
            assert report["opt_term"] == 0.0

    def test_memory_estimate_counts_the_index_block(self, tmp_path):
        # at d = 1 the logistic sampler's pre-drawn indices (batch per stream
        # and step, 4.1 MB here) outweigh d + 1 normals per stream and step;
        # an untraced first run pays for the modules numpy imports on first use.
        # The 31 rows that a recording block holds round down to one pack of
        # 17 means; the last pack before the tail's first row, 160, holds 6,
        # and on the tail the evaluation's workspace holds all 17 columns
        spec_dict = quadratic_spec(tmp_path, seeds=list(range(20)))
        spec_dict["problem"] = {"type": "logistic", "n": 8, "d": 1, "seed": 3, "batch": 8}
        spec_dict["algorithm"].update(K=200, mixing={"n": 16, "entries": [1 / 16] * 256})
        assert record_block_rows(20, 1, 16, 200, QuadraticProblem) == 31
        assert tail_start(200) == 160
        assert record_block_rows(20, 1, 16, 200, LogisticProblem) == 17
        peak, spec = traced_run_peak(spec_dict)
        assert peak <= spec.memory_bytes == cli.run_bytes(
            20, spec.config, 1, LogisticProblem.run_bytes(8, 1, 8, 20, 16, 16, 200),
            LogisticProblem)

    def test_memory_estimate_counts_one_seed_mean(self, tmp_path):
        # a noiseless quadratic draws no noise block, so at d = 2 and K = 5000
        # the metric rows dominate: a stack of the 20 seeds' metrics and clocks
        # (3.5 MB) would not fit in the estimate
        spec_dict = quadratic_spec(tmp_path, seeds=list(range(20)))
        spec_dict["problem"]["sigma_sq"] = 0.0
        spec_dict["algorithm"]["K"] = 5000
        peak, spec = traced_run_peak(spec_dict)
        assert peak <= spec.memory_bytes

    def test_memory_estimate_counts_the_jittered_timeline(self, tmp_path):
        # 255 workers and an anchor at d = 1: the timeline's K m compute draws
        # (20 MB) outweigh the rest of the run
        spec_dict = quadratic_spec(tmp_path, seeds=[5])
        spec_dict["problem"].update(A=[[1.0]], b=[0.0])
        spec_dict["algorithm"].update(tau=1, v=1, K=10_000, mixing={
            "n": 256, "entries": make_easgd(255, 0.005).entries.reshape(-1).tolist()})
        spec_dict["delay"]["jitter"] = 0.2
        peak, spec = traced_run_peak(spec_dict)
        assert peak <= spec.memory_bytes

    def test_memory_estimate_counts_the_summary_encoding(self, tmp_path):
        # the echo of a dense A at d = 512 puts 262,144 floats in summary.json;
        # their encoded text at once (about 88 bytes an entry), or A as Python
        # floats (32 bytes an entry), would not fit
        rng = np.random.default_rng(0)
        g = rng.standard_normal((512, 512))
        a = g @ g.T / 512 + 0.1 * np.eye(512)
        spec_dict = quadratic_spec(tmp_path, seeds=[1])
        spec_dict["problem"].update(A=(0.5 * (a + a.T)).tolist(), b=[0.0] * 512)
        spec_dict["algorithm"]["K"] = 10
        peak, spec = traced_run_peak(spec_dict)
        assert peak <= spec.memory_bytes

    def test_memory_estimate_counts_the_mixing_matrix(self, tmp_path):
        # a 256-node ring at d = 1: the matrix, the echo's validated entries,
        # the symmetry check's two temporaries and the summary's list of the
        # entries (about 2 MB) outweigh the rest of the run
        spec_dict = quadratic_spec(tmp_path, seeds=[1])
        spec_dict["problem"].update(A=[[1.0]], b=[0.0])
        spec_dict["algorithm"].update(tau=1, K=10, mixing={
            "n": 256, "entries": make_ring(256).entries.reshape(-1).tolist()})
        peak, spec = traced_run_peak(spec_dict)
        assert peak <= spec.memory_bytes

    def test_memory_estimate_fits_a_dense_matrix_at_d_4096(self):
        # the wide-elastic shape (a 16-node ring and an elastic anchor, 4
        # seeds, K = 3,000) at d = 4,096: A is charged once at 8 bytes an
        # entry, beside its build's two temporaries, and not again for the
        # echo. The estimate is computed without building the payload
        ring = make_ring(16)
        alpha, _ = best_generalized_elastic_alpha(ring.zeta, 16)
        config = AlgorithmConfig(tau=1, mixing=make_generalized_elastic(ring, alpha), v=1,
                                 eta=0.05, steps=3000, rule="pre")
        d = 4096
        need = cli.run_bytes(4, config, d,
                             QuadraticProblem.run_bytes(d, 1.0, 0.0, 4, 17, 16, 3000),
                             QuadraticProblem)
        assert 24 * d * d < need <= cli.MEMORY_BUDGET_BYTES

    def test_memory_estimate_counts_one_csv_block(self, tmp_path):
        # at d = 2 and K = 20,000 the metric rows dominate; a whole trace CSV
        # as Python text (about 364 bytes a row) would not fit
        spec_dict = quadratic_spec(tmp_path, seeds=[1])
        spec_dict["algorithm"]["K"] = 20_000
        peak, spec = traced_run_peak(spec_dict)
        assert peak <= spec.memory_bytes

    def test_memory_estimate_counts_the_shared_clock_text(self, tmp_path):
        # one worker and one seed at d = 1: no noise block and a timeline
        # simulation smaller than the writes, whose per-row holdings dominate.
        # The shared clock text stays while the seed mean's is formatted; at
        # 22-character reprs the three texts (1.3 MB) would not fit without
        # their 75 bytes a row
        spec_dict = quadratic_spec(tmp_path, seeds=[1])
        spec_dict["problem"].update(A=[[1.0]], b=[0.0], sigma_sq=0.0)
        spec_dict["algorithm"].update(tau=20_000, K=20_000, mixing={"n": 1, "entries": [1.0]})
        spec_dict["delay"] = {"compute": 1.4285714285714286e16}
        peak, spec = traced_run_peak(spec_dict)
        assert peak <= spec.memory_bytes
        assert peak > spec.memory_bytes - 75 * (20_000 + 1)

    def test_memory_budget_checked_at_parse(self, tmp_path, capsys, monkeypatch):
        huge = quadratic_spec(tmp_path)
        huge["algorithm"]["K"] = 10**13  # a 728 TiB metric array for 2 seeds
        samples = quadratic_spec(tmp_path)
        samples["problem"] = {"type": "logistic", "n": 10**6, "d": 10**6, "seed": 0}
        for name, payload in (("huge", huge), ("samples", samples)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            for command in ("validate", "run"):
                assert main([command, str(path)]) == EXIT_INVALID
                err = capsys.readouterr().err
                assert err.startswith("error: the run needs about ") and err.count("\n") == 1
        monkeypatch.setattr(cli, "MEMORY_BUDGET_BYTES", 2**20)
        out = tmp_path / "out"
        assert main(["preset", "hybrid-compare", "--out", str(out), "--seeds", "3"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: the run needs about ") and err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("make", [
        lambda _: "{" + ",".join(f'"{i}":0' for i in range(50_000)) + "}",
        lambda _: "[" + ",".join(["{}"] * 100_000) + "]",
        lambda _: "[" + ",".join(["[0]"] * 100_000) + "]",
        lambda _: "[" + ",".join(["0.5"] * 100_000) + "]",
        lambda _: "[" + ",".join(["0.12345678901234567"] * 20_000) + "]",
        # a list holding one list takes 88 bytes for its 2 bytes of text, and
        # one character beyond the BMP makes the whole text 4 bytes a character
        lambda _: '["\U0001F600",' + ",".join(["[" * 500 + "]" * 500] * 300) + "]",
        lambda _: "[" + ",".join(['{"":' * 500 + "0" + "}" * 500] * 100) + "]",
        # a valid spec: each 0 of A takes 2 bytes of text, and its parse holds
        # A and the symmetry check's temporaries beside the payload
        lambda tmp_path: json.dumps(quadratic_spec(tmp_path, problem={
            "type": "quadratic", "A": [[0] * 400] * 400, "b": [0] * 400}), separators=",:"),
    ], ids=["keys", "objects", "lists", "halves", "digits", "nested-lists", "nested-objects",
            "dense"])
    def test_spec_file_factor_covers_reading_it(self, tmp_path, make):
        path = tmp_path / "spec.json"
        path.write_text(make(tmp_path), encoding="utf-8")
        tracemalloc.start()
        try:
            with contextlib.suppress(SpecError):
                cli._load_spec_file(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli.SPEC_FILE_FACTOR * path.stat().st_size

    def test_oversized_spec_file_refused_unread(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(quadratic_spec(tmp_path)))
        cap = cli.SPEC_FILE_FACTOR * path.stat().st_size

        def unparsed(*args, **kwargs):
            raise AssertionError("the spec file was parsed")

        monkeypatch.setattr(json, "loads", unparsed)
        monkeypatch.setattr(cli, "MEMORY_BUDGET_BYTES", cap - 1)
        for command in ("validate", "run"):
            assert main([command, str(path)]) == EXIT_INVALID
            err = capsys.readouterr().err
            assert err.startswith("error: the spec file needs about ") and err.count("\n") == 1
        monkeypatch.undo()
        # at the cap the file is read, and then the run's estimate is over the budget
        monkeypatch.setattr(cli, "MEMORY_BUDGET_BYTES", cap)
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: the run needs about ")
        assert not (tmp_path / "exp").exists()

    def test_spec_through_a_fifo_is_capped_as_it_is_read(self, tmp_path, capsys, monkeypatch):
        # a FIFO, like a pipe, has no size to stat: the cap counts the bytes
        # read, and the writer sees the reader stop
        small = json.dumps(quadratic_spec(tmp_path))
        fifo = tmp_path / "spec.fifo"
        os.mkfifo(fifo)

        def main_fed(command, text):
            def write():
                with contextlib.suppress(BrokenPipeError), open(fifo, "w") as fh:
                    fh.write(text)
            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            code = main([command, str(fifo)])
            writer.join(timeout=30)
            assert not writer.is_alive()
            return code

        monkeypatch.setattr(cli, "MEMORY_BUDGET_BYTES", 2**20)
        big = small[:-1] + " " * (4 * 2**20 // cli.SPEC_FILE_FACTOR) + "}"
        # reading stops at most one chunk past the cap
        read_most = 2**20 // cli.SPEC_FILE_FACTOR + io.DEFAULT_BUFFER_SIZE
        for command in ("validate", "run"):
            assert main_fed(command, big) == EXIT_INVALID
            err = capsys.readouterr().err
            need = int(err.removeprefix("error: the spec file needs about ").split(" ")[0])
            assert 1 < need <= -(-cli.SPEC_FILE_FACTOR * read_most >> 20)
            assert err.endswith(" MiB, over the memory budget of 1 MiB\n") and err.count("\n") == 1
        monkeypatch.undo()
        assert main_fed("validate", small) == EXIT_OK
        assert capsys.readouterr().out.startswith("ok: 2 seed(s)")
        assert not (tmp_path / "exp").exists()


class TestBlockWriters:
    """The block writers give the bytes of the one-string forms."""

    @pytest.mark.parametrize("rows, steps", [
        (1, 10),
        (CSV_BLOCK_ROWS, CSV_BLOCK_ROWS - 1),
        (2 * CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS),
        (2 * CSV_BLOCK_ROWS + 1, 5 * CSV_BLOCK_ROWS),
    ], ids=["one-row-diverged", "one-block", "two-blocks-and-a-row", "diverged"])
    def test_trace_csv(self, tmp_path, rows, steps):
        rng = np.random.default_rng(rows + steps)
        # a diverged trace is truncated: views of the first rows of the metric
        # arrays, the three of the column mean and the tail's two worker metrics
        full = rng.standard_normal((5, steps + 1)) * np.logspace(-300, 300, steps + 1)
        full[:3, 0] = [-0.0, 5e-324, 1e16]
        tail = tail_start(steps)
        trace = RunTrace(full[:3, :rows], full[3:, tail:max(tail, rows)], steps, 0.0)
        assert trace.diverged == (rows < steps + 1)
        # a diverged trace takes the first rows of the full clock, as of a shared timeline
        clock = np.cumsum(rng.exponential(size=steps + 1))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, ClockText(clock), path)
        assert path.read_bytes() == trace_csv_text(trace, clock).encode()

    def test_json(self, tmp_path):
        payload = {
            "nested": [[1, 2.5, [3, -0.0]], {"b": 1, "a": 0.1}, [], {}],
            "ints_and_floats": [1, 1.0, 10**30, 1e300, -5e-324, True, None],
            "text": "naïve ☃ \"quoted\"\n",
            "non_finite": [math.nan, -math.inf, math.inf],
            "long": np.linspace(0.0, 1.0, 3 * CSV_BLOCK_ROWS).tolist(),
        }
        path = tmp_path / "summary.json"
        cli._atomic_write_json(path, payload)
        assert path.read_bytes() == json_text(payload).encode()

    def test_json_arrays(self, tmp_path):
        # the echo's float64 arrays: a matrix, written a row at a time, a
        # vector and an empty vector, as their nested lists of floats
        rng = np.random.default_rng(3)
        arrays = {"matrix": rng.standard_normal((3 * CSV_BLOCK_ROWS, 2)) * 1e300,
                  "vector": np.array([-0.0, 5e-324, 1e16, 0.1]), "empty": np.zeros(0)}
        path = tmp_path / "summary.json"
        cli._atomic_write_json(path, {"echo": arrays})
        lists = {key: value.tolist() for key, value in arrays.items()}
        assert path.read_bytes() == json_text({"echo": lists}).encode()
        # only arrays with axes are encoded
        for value in (np.array(0.5), np.float32(0.5)):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                "".join(cli._json_batches({"z": value}))

    def test_unencodable_payload_leaves_the_old_file(self, tmp_path):
        # the object json cannot encode sorts after more than one batch of chunks
        out = tmp_path / "exp"
        assert run_experiment(parse_experiment_spec(quadratic_spec(tmp_path))) == EXIT_OK
        old = (out / "summary.json").read_bytes()
        names = sorted(out.iterdir())
        payload = {"a": [0.5] * (3 * CSV_BLOCK_ROWS), "z": object()}
        with pytest.raises(TypeError):
            cli._atomic_write_json(out / "summary.json", payload)
        assert sorted(out.iterdir()) == names
        assert (out / "summary.json").read_bytes() == old

    def test_dense_echo_is_canonical_json(self, tmp_path):
        # a dense A at d = 64 with b != 0, an auxiliary column and an init
        # vector: the echo holds the arrays the run uses, and summary.json is
        # the canonical encoding of what it parses to
        rng = np.random.default_rng(5)
        g = rng.standard_normal((64, 64))
        a = g @ g.T / 64 + 0.1 * np.eye(64)
        spec_dict = quadratic_spec(tmp_path)
        spec_dict["problem"].update(A=(0.5 * (a + a.T)).tolist(),
                                    b=rng.standard_normal(64).tolist())
        spec_dict["algorithm"].update(v=1, init=rng.standard_normal(64).tolist(), K=20,
                                      mixing={"n": 4, "entries": make_easgd(3, 0.2).entries
                                              .reshape(-1).tolist()})
        spec = parse_experiment_spec(spec_dict)
        assert spec.echo["problem"]["A"] is spec.oracle.A
        assert spec.echo["problem"]["b"] is spec.oracle.b
        assert spec.echo["algorithm"]["init"] is spec.x0
        assert np.shares_memory(spec.echo["algorithm"]["mixing"]["entries"],
                                spec.config.mixing.entries)
        assert run_experiment(spec) == EXIT_OK
        text = (tmp_path / "exp" / "summary.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        echo = json.loads(text)["config_echo"]
        assert echo["problem"]["A"] == spec_dict["problem"]["A"]
        assert echo["algorithm"]["init"] == spec_dict["algorithm"]["init"]
        assert echo_text(parse_experiment_spec(echo).echo) == echo_text(spec.echo)

    def test_directory_destination_leaves_no_temporary(self, tmp_path):
        # the text is written, and the rename over the directory fails
        path = tmp_path / "summary.json"
        path.mkdir()
        with pytest.raises(IsADirectoryError):
            cli._atomic_write_json(path, {"a": 1})
        assert sorted(tmp_path.iterdir()) == [path]

    def test_failed_trace_leaves_the_old_file(self, tmp_path):
        # a clock one time short fails in the last block, after two were
        # written: a block missing altogether, or a block one row short
        path = tmp_path / "trace.csv"
        path.write_text("old\n")
        for rows in (2 * CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 2):
            trace = RunTrace(np.zeros((3, rows)), np.zeros((2, rows - tail_start(rows - 1))),
                             rows - 1, 0.0)
            with pytest.raises(ValueError):
                write_trace_csv(trace, ClockText(np.zeros(rows - 1)), path)
            assert sorted(tmp_path.iterdir()) == [path]
            assert path.read_text() == "old\n"


class TestMainEntry:
    def test_run_and_validate(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(quadratic_spec(tmp_path)))
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path)]) == EXIT_OK

    def test_bad_spec_exit_two(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(quadratic_spec(tmp_path, surprise=1)))
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert main(["run", str(path)]) == EXIT_INVALID

    def test_repeated_key_is_named(self, tmp_path, capsys):
        # JSON parsing keeps a repeated key's last value; a spec file may not
        # rely on that at any depth
        valid = json.dumps(quadratic_spec(tmp_path))
        path = tmp_path / "spec.json"
        for text, key in [
            (valid.replace('"seeds": [11, 12]', '"seeds": [1], "seeds": [2, 3]'), "seeds"),
            (valid.replace('"eta": 0.05', '"eta": 0.05, "eta": 0.1'), "eta"),
        ]:
            path.write_text(text)
            for command in ("validate", "run"):
                assert main([command, str(path)]) == EXIT_INVALID
                assert capsys.readouterr().err == f"error: spec file repeats the key '{key}'\n"
        assert not (tmp_path / "exp").exists()

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_INVALID

    def test_bounds_threshold_output(self, capsys):
        assert main(["bounds", "--tau", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["zeta_threshold"] == pytest.approx(0.70711, abs=1e-5)

    def test_bounds_best_alpha(self, capsys):
        assert main(["bounds", "--m", "8", "--best-easgd-alpha"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_easgd_alpha"] == {"alpha": 0.2, "zeta": 0.8}

    def test_bounds_best_alpha_single_worker(self, capsys):
        assert main(["bounds", "--m", "1", "--best-easgd-alpha"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_easgd_alpha"] == {"alpha": 0.5, "zeta": 0.0}

    def test_bounds_full_report(self, capsys):
        rc = main(["bounds", *BOUND_ARGS])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_report"]["network_term"] == 0.0

    def test_unknown_preset(self, tmp_path, capsys):
        assert main(["preset", "nonesuch", "--out", str(tmp_path)]) == EXIT_INVALID
        assert capsys.readouterr().err == ("error: unknown preset 'nonesuch'; available: "
                                           f"{sorted(presets.PRESETS)}\n")

    @pytest.mark.parametrize("argv", [
        ["preset", "hybrid-compare", "--out", "{out}", "--seeds", "1", "1"],
        ["preset", "hybrid-compare", "--out", "{out}", "--seeds", "-1"],
        ["preset", "hybrid-compare", "--out", "{out}", "--seeds", str(2**64)],
        ["run", "{huge_seed}"],  # its trace CSV name would be too long
        ["run", "{spec}"],
        ["validate", "{spec}"],
        ["bounds", "--tau", "0"],
        ["bounds", "--m", "0", "--best-easgd-alpha"],
        ["run", "{nonfinite}"],
        ["run", "{out_is_file}"],
        ["validate", "{out_is_file}"],
        ["run", "{out_in_file}"],
        ["validate", "{out_in_file}"],
        ["run", "{out_has_nul}"],
        ["validate", "{out_has_nul}"],
        ["run", "{out_too_long}"],
        ["run", "{out_unencodable}"],
        ["preset", "hybrid-compare", "--out", "{a_file}"],
        ["run", "{out_dangling}"],
        ["validate", "{out_dangling}"],
        ["run", "{out_under_dangling}"],
        ["validate", "{out_under_dangling}"],
        ["preset", "hybrid-compare", "--out", "{dangling}"],
        ["bounds", *BOUND_ARGS, "--eta", "nan"],
        ["bounds", *BOUND_ARGS, "--lipschitz", "inf"],
        ["bounds", *BOUND_ARGS, "--f1-minus-finf", "nan"],
        ["bounds", *BOUND_ARGS, "--beta", "nan"],
        ["bounds", "--tau", "1" + "0" * 400],
        ["bounds", *BOUND_ARGS, "--zeta", "0.9", "--tau", "1" + "0" * 308],  # an infinite bound
        ["bounds", "--m", "1" + "0" * 400, "--best-easgd-alpha"],
        ["bounds"],  # nothing to compute
        ["bounds", "--best-easgd-alpha"],  # no --m
        ["bounds", "--tau", "2", "--zeta", "1.0"],
        ["validate", "{repeated_top}"],
        ["run", "{repeated_top}"],
        ["validate", "{repeated_nested}"],
        ["run", "{repeated_nested}"],
        ["bounds", "--tau", "2", "--zeta", "-1"],
        ["bounds", "--tau", "2", "--zeta", "nan"],
        ["bounds", *BOUND_ARGS, "--f1-minus-finf", "-1"],
        ["bounds", *BOUND_ARGS, "--lipschitz", "0"],
        ["bounds", *BOUND_ARGS, "--sigma-sq", "-1"],
        ["bounds", *BOUND_ARGS, "--m", "0"],
        ["bounds", *BOUND_ARGS, "--eta", "0"],
        ["bounds", *BOUND_ARGS, "--K", "0"],
        ["run", "{zero_steps}"],
        ["validate", "{non_square_A}"],
        ["run", "{non_square_A}"],
        ["validate", "{b_longer_than_A}"],
        ["run", "{b_longer_than_A}"],
        ["validate", "{negative_sigma_sq}"],
        ["run", "{negative_sigma_sq}"],
        ["validate", "{negative_beta}"],
        ["run", "{negative_beta}"],
        ["run", "{many_nodes}"],
        ["run", "{negative_l2}"],
        ["run", "{batch_over_n}"],
        ["run", "{huge_integer}"],
        ["run", "{truncated}"],
        ["run", "{not_utf8}"],
        ["run", "{too_deep}"],
        ["bounds", "--tau", "x"],  # usage errors, which argparse ends itself
        ["nonesuch"],
        [],
    ])
    def test_invalid_input_exits_two_with_one_line(self, tmp_path, capsys, argv):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        dangling = tmp_path / "dangling"
        dangling.symlink_to(tmp_path / "missing")
        specs = {
            "spec": quadratic_spec(tmp_path, seeds=[-1]),
            "huge_seed": quadratic_spec(tmp_path, seeds=[1e240]),
            "nonfinite": quadratic_spec(tmp_path),
            "out_is_file": quadratic_spec(tmp_path, output_dir=str(a_file)),
            "out_in_file": quadratic_spec(tmp_path, output_dir=str(a_file / "exp")),
            "out_has_nul": quadratic_spec(tmp_path, output_dir=str(tmp_path / "exp\0")),
            "out_too_long": quadratic_spec(tmp_path, output_dir=str(tmp_path / ("x" * 300))),
            "out_unencodable": quadratic_spec(tmp_path, output_dir=str(tmp_path / "exp\ud800")),
            "out_dangling": quadratic_spec(tmp_path, output_dir=str(dangling)),
            "out_under_dangling": quadratic_spec(tmp_path, output_dir=str(dangling / "sub")),
            "zero_steps": quadratic_spec(tmp_path),
            "many_nodes": quadratic_spec(tmp_path),
            "negative_l2": quadratic_spec(tmp_path, problem={
                "type": "logistic", "n": 8, "d": 2, "seed": 0, "l2": -1}),
            "batch_over_n": quadratic_spec(tmp_path, problem={
                "type": "logistic", "n": 8, "d": 2, "seed": 0, "batch": 9}),
            "huge_integer": quadratic_spec(tmp_path),
            "non_square_A": quadratic_spec(tmp_path, problem={
                "type": "quadratic", "A": [[1.0, 0.0]], "b": [0.0]}),
            "b_longer_than_A": quadratic_spec(tmp_path, problem={
                "type": "quadratic", "A": [[1.0, 0.0], [0.0, 0.5]], "b": [0.0, 0.0, 0.0]}),
            "negative_sigma_sq": quadratic_spec(tmp_path, problem={
                "type": "quadratic", "A": [[1.0]], "b": [0.0], "sigma_sq": -1}),
            "negative_beta": quadratic_spec(tmp_path, problem={
                "type": "quadratic", "A": [[1.0]], "b": [0.0], "beta": -1}),
        }
        specs["nonfinite"]["algorithm"]["init"] = 1e200  # the objective overflows at x0
        specs["zero_steps"]["algorithm"]["K"] = 0
        specs["many_nodes"]["algorithm"]["mixing"] = {"n": 257, "entries": [0] * 257**2}
        specs["huge_integer"]["algorithm"]["eta"] = 10**400  # beyond the float range
        paths = {"out": tmp_path / "out", "a_file": a_file, "dangling": dangling}
        texts = {name: json.dumps(payload) for name, payload in specs.items()}
        valid = json.dumps(quadratic_spec(tmp_path))
        texts["repeated_top"] = valid[:-1] + ', "seeds": [2, 3]}'
        texts["repeated_nested"] = valid.replace('"sigma_sq": 1.0',
                                                 '"sigma_sq": 1.0, "sigma_sq": 2.0')
        texts["truncated"] = valid[:-5]
        texts["too_deep"] = "[" * 100_000 + "]" * 100_000  # past the recursion limit
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        paths["not_utf8"] = tmp_path / "not_utf8.json"
        paths["not_utf8"].write_bytes(valid.encode().replace(b"quadratic", b"quadr\xffatic"))
        argv = [a.format(**paths) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends a usage error itself
            code = exc.code
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "exp").exists()  # a rejected spec leaves no output directory
        assert not (tmp_path / "missing").exists()
        assert a_file.read_text() == ""

    @pytest.mark.parametrize("delay, seeds, steps", [
        ({"compute": 1e308, "latency": 1e308}, [11, 12], 50),
        ({"compute": 0.5, "jitter": 1e308}, [11, 12], 50),
        ({"compute": 0.5, "jitter": 5e307}, [2, 3], 2),
    ], ids=["constant", "jittered", "jittered-second-seed"])
    def test_overflowing_clock_exits_two(self, tmp_path, capsys, delay, seeds, steps):
        # a wall clock beyond the float range would be written as inf to every
        # CSV and as Infinity or NaN, which is not JSON, to summary.json. In the
        # last case only seed 3's clock overflows, and seed 2's CSV is not
        # written either
        spec = quadratic_spec(tmp_path, delay=delay, seeds=seeds)
        spec["algorithm"]["K"] = steps
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the jitter's overflowing sums warned
            assert main(["run", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: invalid delay model: ") and err.count("\n") == 1
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("argv, in_the_way", [
        (["run", "{spec}"], "exp/trace_seed11.csv"),  # a file the run writes
        (["validate", "{spec}"], "exp/trace_seed11.csv"),
        (["run", "{spec}"], "exp/trace_seed9.csv"),  # a stale trace the run deletes
        (["validate", "{spec}"], "exp/trace_seed9.csv"),
        (["run", "{spec}"], "exp/summary.json.tmp"),
        (["preset", "hybrid-compare", "--seeds", "3", "--out", "{out}"],
         "out/preset_summary.json"),
    ])
    def test_directory_in_the_way_exits_two_before_any_run(self, tmp_path, capsys, argv,
                                                           in_the_way):
        # a directory where a run writes or deletes a file would stop it
        # halfway: it is found before anything runs or is written
        (tmp_path / in_the_way).mkdir(parents=True)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(quadratic_spec(tmp_path)))
        before = sorted(tmp_path.rglob("*"))
        assert main([a.format(spec=spec, out=tmp_path / "out") for a in argv]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == ("error: a directory stands where a file is written: "
                                f"{str(tmp_path / in_the_way)!r}\n")
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("temporary", ["trace_seed11.csv.tmp", "summary.json.tmp"])
    @pytest.mark.parametrize("target", ["somedir", "victim.txt", None],
                             ids=["link-to-directory", "link-to-file", "stale-file"])
    def test_temporary_in_the_way_is_replaced_not_followed(self, tmp_path, temporary, target):
        # a temporary name belongs to the run: a stale temporary, or a link
        # left there to a directory or to a file outside the output
        # directory, is removed, and a link's target is never written
        out = tmp_path / "exp"
        out.mkdir()
        (tmp_path / "somedir").mkdir()
        (tmp_path / "victim.txt").write_text("keep\n")
        if target is None:
            (out / temporary).write_text("partial")
        else:
            (out / temporary).symlink_to(Path("..") / target)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(quadratic_spec(tmp_path)))
        assert main(["run", str(path)]) == EXIT_OK
        assert (tmp_path / "victim.txt").read_text() == "keep\n"
        assert list((tmp_path / "somedir").iterdir()) == []
        assert sorted(p.name for p in out.iterdir()) == [
            "summary.json", "trace_mean.csv", "trace_seed11.csv", "trace_seed12.csv"]
        assert all(p.is_file() and not p.is_symlink() for p in out.iterdir())

    def test_output_dir_under_symlink_to_directory(self, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real")
        path = tmp_path / "spec.json"
        spec = quadratic_spec(tmp_path, output_dir=str(tmp_path / "link" / "exp"))
        path.write_text(json.dumps(spec))
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path)]) == EXIT_OK
        assert (tmp_path / "real" / "exp" / "summary.json").is_file()

    @pytest.mark.parametrize("argv, code", [
        (["bounds", "--tau", "3"], EXIT_OK),
        (["preset", "hybrid-compare", "--out", "{a_file}"], EXIT_INVALID),
        (["preset", "hybrid-compare", "--seeds", "3", "--out", "{out}"], EXIT_OK),
        (["bounds", "--tau", "x"], EXIT_INVALID),  # argparse's usage errors
        ([], EXIT_INVALID),
    ])
    def test_module_entry_point(self, tmp_path, argv, code):
        # `python -m coopsgd.cli` warns if importing the package loaded `cli`
        # first, and `presets` must raise the `SpecError` that `main` catches;
        # the preset's spawned processes import the main module as `__mp_main__`
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        out = tmp_path / "out"
        src = str(Path(coopsgd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-W", "error", "-m", "coopsgd.cli",
                                 *(a.format(a_file=a_file, out=out) for a in argv)],
                                capture_output=True, text=True, env=env)
        assert result.returncode == code
        if argv[:1] == ["preset"] and code == EXIT_OK:  # one progress line per cell, nothing else
            lines = result.stderr.splitlines()
            assert sorted(line.split(":")[0] for line in lines) == [
                "hybrid-compare/dpsgd", "hybrid-compare/hybrid", "hybrid-compare/pasgd50"]
            assert all(line.endswith(" s, diverged seeds []") for line in lines)
            assert len(list(out.rglob("*.csv"))) == 6  # 3 cells x (1 seed + 1 mean)
        elif code == EXIT_OK:
            assert result.stderr == ""
        else:
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_runtime_imports_are_numpy_only(self):
        # every module of the package, and a command run, in a fresh
        # interpreter; what its site hooks preloaded is not counted
        script = "\n".join([
            "import sys",
            "before = set(sys.modules)",
            "import contextlib, importlib, io, pkgutil",
            "import coopsgd",
            "for info in pkgutil.iter_modules(coopsgd.__path__):",
            "    importlib.import_module(f'coopsgd.{info.name}')",
            "from coopsgd import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['bounds', '--tau', '3']) == 0",
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))",
        ])
        src = str(Path(coopsgd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, check=True)
        loaded = set(result.stdout.split())
        assert {"coopsgd", "numpy"} <= loaded
        assert loaded - sys.stdlib_module_names <= {"coopsgd", "numpy"}

    @pytest.mark.parametrize("path, value", MALFORMED, ids=[
        "/".join(map(str, path)) + f"={value!r}" for path, value in MALFORMED])
    def test_malformed_value_exits_two_with_one_line(self, tmp_path, capsys, path, value):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(replace_at(quadratic_spec(tmp_path), path, value)))
        assert main(["run", str(spec_file)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "exp").exists()


class TestPresetReproducibility:
    """Byte-identical preset reruns are acceptance criterion 12."""

    def test_logistic_spec_end_to_end(self, tmp_path):
        spec = {
            "problem": {"type": "logistic", "n": 40, "d": 4, "seed": 3,
                        "l2": 0.05, "batch": 4},
            "algorithm": {"tau": 2, "eta": 0.1, "K": 20,
                          "mixing": {"n": 2, "entries": [0.5, 0.5, 0.5, 0.5]}},
            "delay": {"compute": 1.0},
            "seeds": [1],
            "output_dir": str(tmp_path / "logit"),
        }
        parsed = parse_experiment_spec(spec)
        assert run_experiment(parsed) == EXIT_OK
        summary = json.loads((tmp_path / "logit" / "summary.json").read_text())
        assert summary["recursion_defect_max"] <= 1e-13


class TestRunPreset:
    """`run_preset` parses every cell, then runs the cells in spawned processes."""

    def test_pool_matches_cells_run_one_by_one(self, tmp_path):
        pooled, serial = tmp_path / "pooled", tmp_path / "serial"
        presets.run_preset("hybrid-compare", str(pooled), seeds=[3, 4])
        for _, payload in presets.hybrid_compare_specs(str(serial), [3, 4]):
            assert run_experiment(parse_experiment_spec(payload)) == EXIT_OK
        csvs = sorted(p.relative_to(serial) for p in serial.rglob("*.csv"))
        assert len(csvs) == 9
        for rel in csvs:
            assert (pooled / rel).read_bytes() == (serial / rel).read_bytes()
        for cell in ("dpsgd", "pasgd50", "hybrid"):
            summaries = [json.loads((root / cell / "summary.json").read_text())
                         for root in (pooled, serial)]
            for summary in summaries:
                del summary["config_echo"]["output_dir"]
            assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("name, seeds, cpus, budget, workers", [
        # the default budget holds every default cell, so each CPU takes one
        ("floor-sweep", None, 12, None, 12),
        ("easgd-alpha-sweep", None, 12, None, 4),
        ("hybrid-compare", None, 12, None, 3),
        ("hybrid-compare", None, 2, None, 2),
        # a budget for two of the largest cell runs two, and a byte less runs one
        ("hybrid-compare", [3], 12, lambda largest: 2 * largest, 2),
        ("hybrid-compare", [3], 12, lambda largest: 2 * largest - 1, 1),
    ])
    def test_pool_fits_the_memory_budget(self, tmp_path, monkeypatch, name, seeds, cpus,
                                         budget, workers):
        class PoolStarted(Exception):
            pass

        def recording_pool(max_workers, mp_context):
            sizes.append(max_workers)
            raise PoolStarted

        sizes = []
        if budget is not None:
            largest = max(parse_experiment_spec(payload).memory_bytes
                          for _, payload in presets.PRESETS[name](str(tmp_path), seeds))
            monkeypatch.setattr(cli, "MEMORY_BUDGET_BYTES", budget(largest))
        monkeypatch.setattr(presets, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        with pytest.raises(PoolStarted):
            presets.run_preset(name, str(tmp_path / "out"), seeds=seeds)
        assert sizes == [workers]

    def test_empty_seed_list_is_rejected_at_parse(self, tmp_path, monkeypatch):
        # only seeds=None selects the defaults; an empty list starts no process
        def no_pool(max_workers, mp_context):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(SpecError, match="'seeds' must be a non-empty list"):
            presets.run_preset("hybrid-compare", str(tmp_path / "out"), seeds=[])
        assert not (tmp_path / "out").exists()

    def test_invalid_last_cell_runs_no_cell(self, tmp_path, monkeypatch):
        def specs_with_bad_last_cell(out_dir, seeds):
            specs = presets.hybrid_compare_specs(out_dir, seeds)
            specs[-1][1]["algorithm"]["eta"] = -1.0
            return specs

        monkeypatch.setitem(presets.PRESETS, "hybrid-compare", specs_with_bad_last_cell)
        with pytest.raises(SpecError, match="eta must be positive"):
            presets.run_preset("hybrid-compare", str(tmp_path / "out"), seeds=[3])
        assert not (tmp_path / "out").exists()


def floor_results(floor) -> dict:
    """Hand-built `floor-sweep` cell results with `floor(tau, zeta)` as each floor."""
    return {presets.floor_cell(tau, label): {"tail_worker_grad_norm_sq": floor(tau, zeta)}
            for zeta, label in presets.FLOOR_ZETAS for tau in presets.FLOOR_TAUS}


def easgd_results(losses: dict) -> dict:
    """Hand-built `easgd-alpha-sweep` cell results; a loss of None is a diverged cell."""
    return {presets.easgd_cell(alpha): {"tail_worker_loss": loss, "diverged": loss is None}
            for alpha, loss in losses.items()}


PASGD = presets.pasgd_cell(presets.HYBRID_PASGD_TAU)


def hybrid_results(times: dict, floors: dict) -> dict:
    """Hand-built `hybrid-compare` cell results."""
    return {name: {"timeline": {"total_time_s": times[name]}, "tail_worker_loss": floors[name]}
            for name in times}


class TestPresetVerdicts:
    """Each preset's verdicts on hand-built cell results, both ways, with no simulation."""

    @pytest.mark.parametrize("floor, tau_ok, zeta_ok, extremes_ok", [
        (lambda tau, zeta: tau + 100 * zeta, True, True, True),
        # tau08 at zeta 1/3 drops below tau02 (35.33), still above its zeta-0 cell
        (lambda tau, zeta: 35.0 if (tau, zeta) == (8, 1 / 3) else tau + 100 * zeta,
         False, True, True),
        # tau02 at zeta 0.8 drops below zeta 1/3 (20.33), still above tau01 (10.8)
        (lambda tau, zeta: 20.2 if (tau, zeta) == (2, 0.8) else 10 * tau + zeta,
         True, False, True),
        # every floor tied: both orders hold, the extremes are not strictly ordered
        (lambda tau, zeta: 1.0, True, True, False),
    ], ids=["ordered", "tau_out_of_order", "zeta_out_of_order", "tied_extremes"])
    def test_floor_sweep(self, floor, tau_ok, zeta_ok, extremes_ok):
        results = floor_results(floor)
        summary = presets._floor_sweep_summary(results)
        assert summary == {
            "floors": {name: res["tail_worker_grad_norm_sq"] for name, res in results.items()},
            "nondecreasing_in_tau": tau_ok,
            "nondecreasing_in_zeta": zeta_ok,
            "extremes_strictly_ordered": extremes_ok,
        }

    @pytest.mark.parametrize("losses, best", [
        ({0.05: 3.0, 0.1125: 2.0, 0.2: 1.0, 0.23: None}, 0.2),
        ({0.05: 1.0, 0.1125: 2.0, 0.2: None, 0.23: None}, 0.05),
        ({0.05: None, 0.1125: None, 0.2: None, 0.23: None}, None),
    ], ids=["optimum", "optimum_at_the_edge", "all_diverged"])
    def test_easgd_alpha_sweep(self, losses, best):
        assert list(losses) == presets.EASGD_ALPHAS
        summary = presets._easgd_summary(easgd_results(losses))
        assert summary == {
            "tail_worker_loss": {str(alpha): loss for alpha, loss in losses.items()},
            "diverged": {str(alpha): loss is None for alpha, loss in losses.items()},
            "best_alpha": best,
        }
        assert json.loads(json.dumps(summary))["best_alpha"] == best  # null when all diverged

    @pytest.mark.parametrize("times, floors, verdict, ratio", [
        ({"dpsgd": 3.0, PASGD: 1.0, "hybrid": 2.0},
         {"dpsgd": 1.0, PASGD: 4.0, "hybrid": 2.0}, True, 0.5),
        ({"dpsgd": 1.0, PASGD: 3.0, "hybrid": 2.0},
         {"dpsgd": 3.0, PASGD: 1.0, "hybrid": 2.0}, False, 2.0),
        # ties are not strict wins
        ({"dpsgd": 2.0, PASGD: 2.0, "hybrid": 2.0},
         {"dpsgd": 2.0, PASGD: 2.0, "hybrid": 2.0}, False, 1.0),
    ], ids=["all_true", "all_false", "all_tied"])
    def test_hybrid_compare(self, times, floors, verdict, ratio):
        summary = presets._hybrid_summary(hybrid_results(times, floors))
        assert summary == {
            "total_time_s": times,
            "tail_worker_loss": floors,
            "hybrid_faster_than_dpsgd": verdict,
            "pasgd_faster_than_hybrid": verdict,
            "dpsgd_lowest_floor": verdict,
            "hybrid_to_pasgd_floor_ratio": ratio,
        }
