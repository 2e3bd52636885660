"""Command-line front end: experiment specs, presets, and bound evaluation.

Subcommands:

    run <spec.json>                 execute one experiment spec
    preset <name> --out DIR         run a named preset experiment family
    bounds [flags]                  print closed-form bound quantities
    validate <spec.json>            check a spec's form, run nothing

Exit codes: 0 success, 2 invalid input, 3 every seed diverged. `main` is the
only place that maps invalid input to exit 2: the subcommands raise, and it
prints the error as one line.

This module is the only reader and writer of spec JSON. Specs are strict:
unknown fields anywhere are hard errors, because silently ignored
configuration is the main reproducibility hazard. So are keys that a spec
file repeats anywhere, of which JSON parsing would keep the last value, and
every number must be a finite JSON number. Each reader returns, with the
object it builds, the canonical JSON of the values it validated, defaults
filled in; a run's `summary.json` echoes it as `config_echo`, which re-parses
to the same experiment. The domain constructors keep their semantic checks
(symmetry, PSD, row sums, K % tau), and their errors surface here as
`SpecError`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from itertools import accumulate, islice
from pathlib import Path

import numpy as np

from coopsgd.engine import (
    AlgorithmConfig,
    ConfigError,
    RunTrace,
    average_traces,
    metric_bytes,
    run_many,
    run_many_bytes,
    tail_start,
)
from coopsgd.mixing import MixingError, MixingMatrix, as_mixing, best_easgd_alpha
from coopsgd.objectives import GradientOracle, LogisticProblem, OracleError, QuadraticProblem
from coopsgd.theory import (
    BoundInputs,
    TheoryError,
    require_subunit_zeta,
    theorem1_bound,
    zeta_threshold,
)
from coopsgd.timeline import (
    DelayModel,
    TimelineError,
    simulate_timeline,
    simulate_timeline_bytes,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ALL_DIVERGED = 3

# Bytes one run may hold at once; `parse_experiment_spec` rejects a spec whose
# run would need more (see `run_bytes`) before it allocates anything large.
MEMORY_BUDGET_BYTES = 2**30
TRACE_CSV_COLUMNS = ["k", "loss", "grad_norm_sq", "network_error", "wall_clock_s"]
# Rows of a trace CSV formatted per write, and chunks of the JSON encoder
# joined per write: the output files are written in blocks of this many items,
# so writing one costs a constant number of bytes, not the file's size.
CSV_BLOCK_ROWS = 1024


class SpecError(ValueError):
    """Raised when an experiment spec or other command-line input fails validation."""


@dataclass
class ExperimentSpec:
    """Parsed experiment: oracle, algorithm, delays, seeds, output location,
    `echo`, the canonical spec JSON that re-parses to the same experiment,
    and `memory_bytes`, the run's byte estimate (see `run_bytes`)."""

    echo: dict
    seeds: list[int]
    output_dir: str
    oracle: object
    config: AlgorithmConfig
    delay_model: DelayModel
    x0: np.ndarray | float
    memory_bytes: int


def _object(payload, where: str, required: set[str], optional: set[str] = frozenset()) -> dict:
    """`payload` as a JSON object holding every required key and no unknown one."""
    if not isinstance(payload, dict):
        raise SpecError(f"{where} must be a JSON object")
    unknown = set(payload) - required - optional
    if unknown:
        raise SpecError(f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise SpecError(f"missing field(s) in {where}: {sorted(missing)}")
    return payload


def _int(value, where: str, least: int | None = None, most: int | None = None) -> int:
    """An integer spec value; bools, strings and fractional numbers are errors."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{where} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise SpecError(f"{where} must be >= {least}")
    if most is not None and value > most:
        raise SpecError(f"{where} must be <= {most}")
    return value


def _number(value, where: str) -> float:
    """A finite JSON number; bools, strings, NaN and infinities are errors."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise SpecError(f"{where} must be a finite number, got {value!r}")


def _numbers(value, where: str, ndim: int) -> np.ndarray:
    """A rectangular `ndim`-axis array of finite JSON numbers, as float64."""
    try:
        arr = np.asarray(value)  # no dtype: strings, bools and None keep their own kind
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.ndim != ndim or arr.dtype.kind not in "iuf"
            or not np.isfinite(arr).all()
            # a bool among numbers takes the numbers' dtype, so look for one
            or any(bool in map(type, row) for row in (value if ndim == 2 else [value]))):
        raise SpecError(f"{where} must be a rectangular {ndim}-d array of finite numbers")
    return arr.astype(float, copy=False)


def run_bytes(n_seeds: int, config: AlgorithmConfig, d: int, problem_bytes: int, *,
              packed: bool) -> int:
    """Peak bytes of one run of `config` on `n_seeds` seeds in dimension d, from above.

    `problem_bytes` (the oracle's own `run_bytes` and the echo's copy of its
    data) plus the larger of two phases that never overlap, whatever the
    seed count: `run_many`, with its `run_many_bytes` (recording blocks of
    whole packs when `packed`, for an oracle whose sampler reads no
    gradients), and what `run_experiment` holds once it returns. That is
    the metric arrays (`metric_bytes`), and the larger of two phases that
    never overlap either:

    - a timeline's simulation: its `simulate_timeline_bytes`, while the
      running sum of the completed seeds' wall clocks (8 bytes a row) and
      the last seed's timeline (16 bytes a row) are held;
    - the writing of the trace CSVs, at most 131 bytes a row and 16 more a
      tail row: that timeline, that sum and its mean (32 bytes), the seed
      mean of the metrics that `average_traces` sums into (24 bytes, and the
      worker metrics' 16 a tail row), and three clock texts (75 bytes): the
      `ClockText` of a timeline that every seed shares, and the seed mean's
      as its blocks and as the string they are joined into. A float's repr
      has at most 23 characters, so a text takes at most 24 bytes a row and a
      string header per block, within 25 bytes a row.

    Writing the outputs adds a constant, whatever K and the size of the
    summary: one block of CSV_BLOCK_ROWS trace rows as Python text (512
    bytes a row) plus one batch of CSV_BLOCK_ROWS JSON chunks (256 bytes a
    chunk), though the two are never held at once. The interpreter, numpy
    and BLAS add a fixed amount on top.
    """
    n, m, K = config.mixing.n, config.m, config.steps
    after_run = (metric_bytes(n_seeds, K)
                 + max(simulate_timeline_bytes(K, config.tau, n, m) + 24 * (K + 1),
                       131 * (K + 1) + 16 * (K + 1 - tail_start(K)))
                 + CSV_BLOCK_ROWS * (512 + 256))
    return problem_bytes + max(run_many_bytes(n_seeds, d, n, m, K, packed), after_run)


def _check_memory(n_seeds: int, config: AlgorithmConfig, d: int, problem_bytes: int,
                  oracle_class: type[GradientOracle]) -> int:
    """The run's `run_bytes` with an `oracle_class` oracle, which must fit in
    MEMORY_BUDGET_BYTES."""
    need = run_bytes(n_seeds, config, d, problem_bytes,
                     packed=not oracle_class.sampler_reads_gradients)
    if need > MEMORY_BUDGET_BYTES:
        raise SpecError(f"the run needs about {need >> 20} MiB, over the memory budget "
                        f"of {MEMORY_BUDGET_BYTES >> 20} MiB")
    return need


def oracle_from_dict(payload, n_seeds: int,
                     config: AlgorithmConfig) -> tuple[GradientOracle, dict, int]:
    """Build an oracle from a spec's "problem" object; returns it, its echo
    and the byte estimate of a run of `config` on `n_seeds` seeds.

    That estimate is first checked against MEMORY_BUDGET_BYTES, before the
    oracle allocates anything (a logistic problem draws its samples when
    built).
    """
    if not isinstance(payload, dict) or "type" not in payload:
        raise SpecError("'problem' must be a JSON object with a 'type' field")
    shape = (n_seeds, config.mixing.n, config.m, config.steps)
    if payload["type"] == "quadratic":
        p = _object(payload, "quadratic problem", {"type", "A", "b"}, {"sigma_sq", "beta"})
        A, b = _numbers(p["A"], "'A'", 2), _numbers(p["b"], "'b'", 1)
        sigma_sq = _number(p.get("sigma_sq", 0.0), "'sigma_sq'")
        beta = _number(p.get("beta", 0.0), "'beta'")
        # the echo holds A as Python floats, at most 56 bytes an entry
        need = _check_memory(n_seeds, config, b.size,
                             QuadraticProblem.run_bytes(b.size, sigma_sq, beta, *shape)
                             + 56 * A.size, QuadraticProblem)
        return QuadraticProblem(A, b, sigma_sq=sigma_sq, beta=beta), {
            "type": "quadratic", "A": A.tolist(), "b": b.tolist(), "sigma_sq": sigma_sq,
            "beta": beta}, need
    if payload["type"] == "logistic":
        p = _object(payload, "logistic problem", {"type", "n", "d", "seed"}, {"l2", "batch"})
        samples, d = _int(p["n"], "logistic 'n'", 1), _int(p["d"], "logistic 'd'", 1)
        seed = _int(p["seed"], "logistic 'seed'", 0)
        l2 = _number(p.get("l2", 0.01), "'l2'")
        batch = _int(p.get("batch", 8), "logistic 'batch'", 1)
        need = _check_memory(n_seeds, config, d,
                             LogisticProblem.run_bytes(samples, d, batch, *shape),
                             LogisticProblem)
        return LogisticProblem.synthetic(samples, d, seed, l2_reg=l2, batch_size=batch), {
            "type": "logistic", "n": samples, "d": d, "seed": seed, "l2": l2,
            "batch": batch}, need
    raise SpecError(f"unknown problem type: {payload['type']!r}")


def mixing_from_dict(payload) -> tuple[MixingMatrix, dict]:
    """Build a matrix from a {"n", "entries", "zeta"} object; returns it and
    its echo. `zeta` is informational: the echo holds the recomputed one."""
    p = _object(payload, "mixing", {"n", "entries"}, {"zeta"})
    n = _int(p["n"], "mixing 'n'", 1)
    flat = _numbers(p["entries"], "mixing 'entries'", 1)
    if "zeta" in p:
        _number(p["zeta"], "mixing 'zeta'")
    if flat.size != n * n:
        raise SpecError(f"mixing 'entries' must hold n*n values for n={n}, got {flat.size}")
    mixing = as_mixing(flat.reshape(n, n))
    return mixing, {"n": n, "entries": flat.tolist(), "zeta": mixing.zeta}


def delay_from_dict(payload) -> tuple[DelayModel, dict]:
    """Build a delay model from a spec's "delay" object; returns it and its echo."""
    p = _object(payload, "delay", {"compute"},
                {"jitter", "latency", "per_neighbor", "nonblocking_aux"})
    nonblocking_aux = p.get("nonblocking_aux", False)
    if not isinstance(nonblocking_aux, bool):
        raise SpecError("'nonblocking_aux' must be true or false")
    echo = {key: _number(p.get(key, 0.0), f"'{key}'")
            for key in ("compute", "jitter", "latency", "per_neighbor")}
    echo["nonblocking_aux"] = nonblocking_aux
    return DelayModel(compute_base=echo["compute"], compute_jitter_mean=echo["jitter"],
                      comm_latency=echo["latency"], comm_per_neighbor=echo["per_neighbor"],
                      nonblocking_aux=nonblocking_aux), echo


# What each constructor's error says about the spec.
_SECTIONS = {OracleError: "problem", MixingError: "mixing matrix", ConfigError: "algorithm",
             TimelineError: "delay model"}


def parse_experiment_spec(payload: dict) -> ExperimentSpec:
    """Validate a spec payload and build all runtime objects from it."""
    spec = _object(payload, "experiment spec",
                   {"problem", "algorithm", "delay", "seeds", "output_dir"})
    if not isinstance(spec["seeds"], list) or not spec["seeds"]:
        raise SpecError("'seeds' must be a non-empty list of non-negative integers")
    # a 64-bit bound keeps `trace_seed<seed>.csv` a valid file name
    seeds = [_int(s, "each seed", 0, 2**64 - 1) for s in spec["seeds"]]
    if len(set(seeds)) != len(seeds):
        raise SpecError("'seeds' must be distinct")
    algo = _object(spec["algorithm"], "algorithm", {"tau", "eta", "K", "mixing"},
                   {"v", "rule", "init"})
    init = algo.get("init", 1.0)
    x0 = _numbers(init, "'init'", 1) if isinstance(init, list) else _number(init, "'init'")
    output_dir = spec["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise SpecError("'output_dir' must be a non-empty string")
    try:
        mode = os.stat(output_dir).st_mode
    except FileNotFoundError:  # `run` creates it under the nearest existing component
        mode = stat.S_IFDIR
        path = Path(output_dir)
        nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not os.path.exists(nearest):
            raise SpecError(f"'output_dir' passes through a dangling symlink: {str(nearest)!r}")
    except (OSError, ValueError) as exc:  # a file on the way (ENOTDIR), a NUL, a bad name
        raise SpecError(f"'output_dir' cannot be created: {exc}") from exc
    if not stat.S_ISDIR(mode):
        raise SpecError(f"'output_dir' is not a directory: {output_dir!r}")

    try:
        mixing, mixing_echo = mixing_from_dict(algo["mixing"])
        config = AlgorithmConfig(tau=_int(algo["tau"], "'tau'"), mixing=mixing,
                                 v=_int(algo.get("v", 0), "'v'"), eta=_number(algo["eta"], "'eta'"),
                                 steps=_int(algo["K"], "'K'"), rule=algo.get("rule", "post"))
        oracle, problem_echo, memory_bytes = oracle_from_dict(spec["problem"], len(seeds), config)
        delay_model, delay_echo = delay_from_dict(spec["delay"])
    except tuple(_SECTIONS) as exc:
        raise SpecError(f"invalid {_SECTIONS[type(exc)]}: {exc}") from exc
    if isinstance(x0, np.ndarray) and x0.shape != (oracle.d,):
        raise SpecError(f"'init' vector must have dimension {oracle.d}")

    echo = {
        "problem": problem_echo,
        "algorithm": {"tau": config.tau, "v": config.v, "eta": config.eta, "K": config.steps,
                      "rule": config.rule, "mixing": mixing_echo,
                      "init": x0.tolist() if isinstance(x0, np.ndarray) else x0},
        "delay": delay_echo,
        "seeds": seeds,
        "output_dir": output_dir,
    }
    return ExperimentSpec(
        echo=echo,
        seeds=seeds,
        output_dir=output_dir,
        oracle=oracle,
        config=config,
        delay_model=delay_model,
        x0=x0,
        memory_bytes=memory_bytes,
    )


def _write_text_atomic(path, chunks) -> None:
    """Write the strings of `chunks` as they come under a temporary name,
    then rename it over `path`, so readers never see a partial file. If
    `chunks` raises, the temporary is deleted and `path` is left as it was."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _json_batches(payload):
    """`json.dumps(payload, indent=2, sort_keys=True) + "\n"` in pieces of
    CSV_BLOCK_ROWS encoder chunks: with `indent` set, both use the same
    pure-Python encoder, so the joined pieces are the same text."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while batch := list(islice(chunks, CSV_BLOCK_ROWS)):
        yield "".join(batch)
    yield "\n"


def _atomic_write_json(path: Path, payload: dict) -> None:
    _write_text_atomic(path, _json_batches(payload))


class ClockText:
    """A wall-clock column as `write_trace_csv` takes it: the shortest
    round-trip reprs of its values, newline-joined into one string, that
    iterates as the text of CSV_BLOCK_ROWS rows at a time.

    The blocks are formatted one at a time, then joined, and each is cut
    out of the whole again as it is asked for. One string, not one per
    block, because a shared clock outlives all of a run's writes, and
    fifteen 19 kB strings held across them raise the peak RSS of a
    `hybrid-compare` cell process by about 0.9 MB where one string does not.
    """

    def __init__(self, wall_clock: np.ndarray):
        blocks = ["\n".join(map(repr, wall_clock[start:start + CSV_BLOCK_ROWS].tolist()))
                  for start in range(0, len(wall_clock), CSV_BLOCK_ROWS)]
        self.ends = list(accumulate(len(block) + 1 for block in blocks))
        self.text = "\n".join(blocks)

    def __iter__(self):
        start = 0
        for end in self.ends:
            yield self.text[start:end - 1]
            start = end


def _trace_csv_blocks(trace: RunTrace, clock: ClockText):
    """The header line, then the rows as text, CSV_BLOCK_ROWS at a time."""
    yield ",".join(TRACE_CSV_COLUMNS) + "\n"
    blocks = iter(clock)
    for start in range(0, trace.rows, CSV_BLOCK_ROWS):
        text = next(blocks, None)
        if text is None:
            raise ValueError("the wall clock has fewer rows than the trace")
        stop = min(start + CSV_BLOCK_ROWS, trace.rows)
        # a truncated trace takes the first rows of a longer clock's block
        rows = zip(range(start, stop), *trace.metrics[:3, start:stop].tolist(),
                   text.split("\n")[:stop - start], strict=True)
        yield "".join(f"{k},{loss!r},{grad_sq!r},{net_err!r},{wall}\n"
                      for k, loss, grad_sq, net_err, wall in rows)


def write_trace_csv(trace: RunTrace, clock: ClockText, path) -> None:
    """Write a trace and its wall-clock column under the stable plot-ready header.

    Floats are rendered with shortest round-trip repr, so identical runs
    produce byte-identical files. Rows are formatted and written
    CSV_BLOCK_ROWS at a time, so no more than one block is held as text
    besides the clock's. The clock may be longer than the trace, which then
    takes its first rows; a shorter one raises ValueError.
    """
    _write_text_atomic(path, _trace_csv_blocks(trace, clock))


def _bound_report_dict(spec: ExperimentSpec, traces: list[RunTrace]) -> dict | None:
    f1 = float(np.mean([t.initial_loss for t in traces]))
    gap = f1 - spec.oracle.f_inf  # inf when F is unbounded below, which BoundInputs rejects
    if gap < -1e-9 * max(1.0, abs(f1)):  # F(x0) below f_inf by more than rounding
        return None
    try:
        inputs = BoundInputs(
            f1_minus_finf=max(gap, 0.0),
            lipschitz=spec.oracle.lipschitz,
            sigma_sq=spec.oracle.sigma_sq,
            m=spec.config.m,
            v=spec.config.v,
            tau=spec.config.tau,
            zeta=spec.config.mixing.zeta,
            eta=spec.config.eta,
            steps=spec.config.steps,
            beta=spec.oracle.beta,
        )
        return theorem1_bound(inputs).to_dict()
    except TheoryError:  # outside the bound's regime, zeta >= 1 among others
        return None


def run_experiment(spec: ExperimentSpec) -> int:
    """Run all seeds, write per-seed CSVs, the seed mean, and a summary.

    The summary's seed means are read off the seed-mean trace, the one that
    `trace_mean.csv` holds. The output directory is created only once the
    seeds have run, so a spec that `run_many` rejects leaves nothing behind.
    Trace CSVs left in it by an earlier run that this run does not write are
    deleted, and so are their temporaries, which an interrupted run leaves.
    Without jitter every seed has the same timeline, which is simulated and
    formatted once and written into each seed's CSV; a jittered delay model
    gets one timeline per seed, each simulated once more before the
    directory is created, so that a clock that overflows the float range
    (a SpecError) leaves nothing behind. The seed mean's clock is the mean of the
    completed seeds' clocks. `divergence` maps each diverged seed to its
    first non-finite row, the first one its CSV leaves out, and the metrics
    non-finite there. Returns the process exit code: 0 normally, 3 if every
    seed diverged.
    """
    config = spec.config
    traces = run_many(config, spec.oracle, spec.seeds, x0=spec.x0)

    def timeline_of(seed: int):
        return simulate_timeline(config.steps, config.tau, config.mixing, spec.delay_model,
                                 seed=seed, v=config.v)

    # without jitter every seed has the same timeline: simulate and format it once.
    # A clock that overflows is invalid input, found before anything is written
    try:
        shared = None if spec.delay_model.depends_on_seed else timeline_of(spec.seeds[0])
        if shared is None:
            for seed in spec.seeds:
                timeline_of(seed)
    except TimelineError as exc:
        raise SpecError(f"invalid delay model: {exc}") from exc
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    shared_clock = None if shared is None else ClockText(shared.cumulative)
    written = set()
    timeline_dict = None
    clock_sum = 0.0  # the completed seeds' clocks, added in seed order from zero like the metrics
    for seed, trace in zip(spec.seeds, traces):
        timeline = shared if shared is not None else timeline_of(seed)
        if timeline_dict is None:
            timeline_dict = timeline.to_dict()
        if not trace.diverged:
            clock_sum += timeline.cumulative  # a new array on the first add, then in place
        path = out / f"trace_seed{seed}.csv"
        write_trace_csv(trace, shared_clock if shared is not None
                        else ClockText(timeline.cumulative[:trace.rows]), path)
        written.add(path)

    completed = [t for t in traces if not t.diverged]
    completed_seeds = [s for s, t in zip(spec.seeds, traces) if not t.diverged]
    mean = None
    if completed:
        mean = average_traces(completed)
        write_trace_csv(mean, ClockText(clock_sum / len(completed)), out / "trace_mean.csv")
        written.add(out / "trace_mean.csv")
    stale = {*out.glob("trace_seed*.csv"), *out.glob("trace_seed*.csv.tmp"),
             *out.glob("trace_mean.csv"), *out.glob("trace_mean.csv.tmp")} - written
    for path in stale:
        path.unlink()

    summary = {
        "mean_grad_norm_sq": mean.mean_grad_norm_sq if completed else None,
        "final_loss": mean.final_loss if completed else None,
        "diverged": len(completed) == 0,
        "diverged_seeds": [s for s, t in zip(spec.seeds, traces) if t.diverged],
        "divergence": {str(s): {"row": t.rows, "nonfinite": list(t.nonfinite)}
                       for s, t in zip(spec.seeds, traces) if t.diverged},
        "averaged_over_seeds": completed_seeds,
        "tail_worker_grad_norm_sq":
            float(mean.worker_grad_norm_sq_mean.mean()) if completed else None,
        "tail_worker_loss": float(mean.worker_loss_mean.mean()) if completed else None,
        "recursion_defect_max": float(max(t.recursion_defect_max for t in traces)),
        "timeline": timeline_dict,
        "bound_report": _bound_report_dict(spec, traces),
        "config_echo": spec.echo,
    }
    _atomic_write_json(out / "summary.json", summary)
    return EXIT_OK if completed else EXIT_ALL_DIVERGED


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object of a spec file; a repeated key is an error."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise SpecError(f"spec file repeats the key {key!r}")
        seen.add(key)
    return dict(pairs)


def _load_spec_file(path: str) -> ExperimentSpec:
    try:
        with open(path) as fh:
            payload = json.load(fh, object_pairs_hook=_unique_keys)
    except SpecError:  # a ValueError, which the next clause would take for bad JSON
        raise
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep, too many digits
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    return parse_experiment_spec(payload)


def cmd_run(args: argparse.Namespace) -> int:
    return run_experiment(_load_spec_file(args.spec))


def cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec_file(args.spec)
    print(f"ok: {len(spec.seeds)} seed(s), K={spec.config.steps}, "
          f"tau={spec.config.tau}, zeta={spec.config.mixing.zeta:.6g}")
    return EXIT_OK


def cmd_preset(args: argparse.Namespace) -> int:
    from coopsgd.presets import run_preset

    summary = run_preset(args.name, args.out, seeds=args.seeds)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    output: dict = {}
    if args.zeta is not None:
        require_subunit_zeta(args.zeta)
    if args.best_easgd_alpha and args.m is None:
        raise SpecError("--best-easgd-alpha requires --m")
    core = (args.f1_minus_finf, args.lipschitz, args.sigma_sq, args.m,
            args.tau, args.zeta, args.eta, args.K)
    if args.tau is not None:
        output["zeta_threshold"] = zeta_threshold(args.tau)
    if args.best_easgd_alpha:
        alpha, zeta = best_easgd_alpha(args.m)
        output["best_easgd_alpha"] = {"alpha": alpha, "zeta": zeta}
    if all(x is not None for x in core):
        inputs = BoundInputs(
            f1_minus_finf=args.f1_minus_finf,
            lipschitz=args.lipschitz,
            sigma_sq=args.sigma_sq,
            m=args.m,
            v=args.v,
            tau=args.tau,
            zeta=args.zeta,
            eta=args.eta,
            steps=args.K,
            beta=args.beta,
        )
        output["bound_report"] = theorem1_bound(inputs).to_dict()
    if not output:
        raise SpecError("nothing to compute; pass --tau, --best-easgd-alpha, or the full "
                        "bound inputs (--f1-minus-finf --lipschitz --sigma-sq --m --tau --zeta "
                        "--eta --K)")
    print(json.dumps(output, indent=2, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Ends a usage error as `main` ends every invalid input: exit 2 with one
    `error:` line, without argparse's usage block. Subparsers share the class."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coopsgd",
        description="Simulator and bound calculator for averaging-based distributed SGD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment spec")
    p_run.add_argument("spec", help="path to the experiment spec JSON")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a spec's form without running it "
                                           "(F(x0) is checked only by run)")
    p_val.add_argument("spec", help="path to the experiment spec JSON")
    p_val.set_defaults(func=cmd_validate)

    p_pre = sub.add_parser("preset", help="run a named preset experiment family")
    p_pre.add_argument("name", help="preset name")
    p_pre.add_argument("--out", required=True, help="output directory")
    p_pre.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="override the preset's seed list")
    p_pre.set_defaults(func=cmd_preset)

    p_bnd = sub.add_parser("bounds", help="evaluate closed-form bounds")
    p_bnd.add_argument("--f1-minus-finf", type=float, default=None)
    p_bnd.add_argument("--lipschitz", "--L", dest="lipschitz", type=float, default=None)
    p_bnd.add_argument("--sigma-sq", type=float, default=None)
    p_bnd.add_argument("--beta", type=float, default=0.0)
    p_bnd.add_argument("--m", type=int, default=None)
    p_bnd.add_argument("--v", type=int, default=0)
    p_bnd.add_argument("--tau", type=int, default=None)
    p_bnd.add_argument("--zeta", type=float, default=None)
    p_bnd.add_argument("--eta", type=float, default=None)
    p_bnd.add_argument("--K", type=int, default=None)
    p_bnd.add_argument("--best-easgd-alpha", action="store_true",
                       help="also print the optimal elastic parameter for --m workers")
    p_bnd.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # OverflowError: an integer flag beyond the float range
    try:
        return args.func(args)
    except (SpecError, ConfigError, MixingError, TheoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    # Run the importable `coopsgd.cli`, which `presets` also imports, so that
    # `python -m coopsgd.cli` has one `SpecError` class, not two.
    from coopsgd.cli import main as imported_main

    sys.exit(imported_main())
