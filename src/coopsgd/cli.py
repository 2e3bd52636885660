"""Command-line front end: experiment specs, presets, and bound evaluation.

Subcommands:

    run <spec.json>                 execute one experiment spec
    preset <name> --out DIR         run a named preset experiment family
    bounds [flags]                  print closed-form bound quantities
    validate <spec.json>            parse and validate a spec, run nothing

Exit codes: 0 success, 2 invalid input, 3 every seed diverged.

Experiment specs are strict JSON: unknown fields anywhere are hard errors,
because silently ignored configuration is the main reproducibility hazard.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coopsgd.engine import (
    AlgorithmConfig,
    ConfigError,
    RunTrace,
    average_traces,
    run_many,
    write_text_atomic,
    write_trace_csv,
)
from coopsgd.mixing import MixingError, best_easgd_alpha, mixing_from_dict
from coopsgd.objectives import OracleError, oracle_from_dict
from coopsgd.theory import BoundInputs, TheoryError, theorem1_bound, zeta_threshold
from coopsgd.timeline import DelayModel, TimelineError, delay_from_dict, simulate_timeline

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ALL_DIVERGED = 3

TAIL_FRACTION = 0.2


class SpecError(ValueError):
    """Raised when an experiment spec fails validation."""


@dataclass
class ExperimentSpec:
    """Parsed experiment: oracle, algorithm, delays, seeds, output location."""

    problem: dict
    algorithm: dict
    delay: dict
    seeds: list[int]
    output_dir: str
    oracle: object
    config: AlgorithmConfig
    delay_model: DelayModel
    x0: np.ndarray | float

    def to_dict(self) -> dict:
        return {
            "problem": dict(self.problem),
            "algorithm": dict(self.algorithm),
            "delay": dict(self.delay),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
        }


def _require_keys(payload: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise SpecError(f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise SpecError(f"missing field(s) in {where}: {sorted(missing)}")


def _strict_int(value, where: str) -> int:
    """An integer spec value; bools, strings and fractional numbers are errors."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{where} must be an integer, got {value!r}")
    return value


def parse_experiment_spec(payload: dict) -> ExperimentSpec:
    """Validate a spec payload and build all runtime objects from it."""
    if not isinstance(payload, dict):
        raise SpecError("experiment spec must be a JSON object")
    _require_keys(payload, {"problem", "algorithm", "delay", "seeds", "output_dir"},
                  {"problem", "algorithm", "delay", "seeds", "output_dir"}, "experiment spec")

    seeds = payload["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds)):
        raise SpecError("'seeds' must be a non-empty list of non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise SpecError("'seeds' must be distinct")

    problem = payload["problem"]
    if isinstance(problem, dict) and problem.get("type") == "logistic":
        for key, least in (("n", 1), ("d", 1), ("seed", 0), ("batch", 1)):
            if key in problem and _strict_int(problem[key], f"logistic '{key}'") < least:
                raise SpecError(f"logistic '{key}' must be >= {least}")

    try:
        oracle = oracle_from_dict(problem)
    except OracleError as exc:
        raise SpecError(f"invalid problem: {exc}") from exc

    algo = payload["algorithm"]
    if not isinstance(algo, dict):
        raise SpecError("'algorithm' must be a JSON object")
    _require_keys(algo, {"tau", "v", "eta", "K", "rule", "mixing", "init"},
                  {"tau", "eta", "K", "mixing"}, "algorithm")
    if isinstance(algo["mixing"], dict) and "n" in algo["mixing"]:
        _strict_int(algo["mixing"]["n"], "mixing 'n'")
    try:
        mixing = mixing_from_dict(algo["mixing"])
    except MixingError as exc:
        raise SpecError(f"invalid mixing matrix: {exc}") from exc
    try:
        config = AlgorithmConfig(
            tau=_strict_int(algo["tau"], "'tau'"),
            mixing=mixing,
            v=_strict_int(algo.get("v", 0), "'v'"),
            eta=float(algo["eta"]),
            steps=_strict_int(algo["K"], "'K'"),
            rule=str(algo.get("rule", "post")),
        )
    except ConfigError as exc:
        raise SpecError(f"invalid algorithm: {exc}") from exc

    init = algo.get("init", 1.0)
    if isinstance(init, list):
        x0 = np.asarray(init, dtype=float)
        if x0.shape != (oracle.d,):
            raise SpecError(f"'init' vector must have dimension {oracle.d}")
    elif isinstance(init, (int, float)) and not isinstance(init, bool):
        x0 = float(init)
    else:
        raise SpecError("'init' must be a number or a list of numbers")

    delay = payload["delay"]
    if isinstance(delay, dict) and not isinstance(delay.get("nonblocking_aux", False), bool):
        raise SpecError("'nonblocking_aux' must be true or false")
    try:
        delay_model = delay_from_dict(delay)
    except TimelineError as exc:
        raise SpecError(f"invalid delay model: {exc}") from exc

    if not isinstance(payload["output_dir"], str) or not payload["output_dir"]:
        raise SpecError("'output_dir' must be a non-empty string")

    canonical_algo = {
        "tau": config.tau,
        "v": config.v,
        "eta": config.eta,
        "K": config.steps,
        "rule": config.rule,
        "mixing": mixing.to_dict(),
        "init": init,
    }
    return ExperimentSpec(
        problem=oracle.to_dict(),
        algorithm=canonical_algo,
        delay=delay_model.to_dict(),
        seeds=list(seeds),
        output_dir=payload["output_dir"],
        oracle=oracle,
        config=config,
        delay_model=delay_model,
        x0=x0,
    )


def _atomic_write_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _tail_mean(trace: RunTrace, values: np.ndarray) -> float:
    return float(values[trace.tail_slice(TAIL_FRACTION)].mean())


def _bound_report_dict(spec: ExperimentSpec, traces: list[RunTrace]) -> dict | None:
    zeta = spec.config.mixing.zeta
    if zeta >= 1.0:
        return None
    f1 = float(np.mean([t.initial_loss for t in traces])) - spec.oracle.f_inf
    try:
        inputs = BoundInputs(
            f1_minus_finf=max(f1, 0.0),
            lipschitz=spec.oracle.lipschitz,
            sigma_sq=spec.oracle.sigma_sq,
            m=spec.config.m,
            v=spec.config.v,
            tau=spec.config.tau,
            zeta=zeta,
            eta=spec.config.eta,
            steps=spec.config.steps,
            beta=spec.oracle.beta,
        )
        return theorem1_bound(inputs).to_dict()
    except TheoryError:
        return None


def run_experiment(spec: ExperimentSpec) -> int:
    """Run all seeds, write per-seed CSVs, the seed mean, and a summary.

    Trace CSVs left in the output directory by an earlier run that this run
    does not write are deleted. Returns the process exit code: 0 normally,
    3 if every seed diverged.
    """
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    traces = run_many(spec.config, spec.oracle, spec.seeds, x0=spec.x0)
    timeline0 = None
    for seed, trace in zip(spec.seeds, traces):
        timeline = simulate_timeline(spec.config.steps, spec.config.tau, spec.config.mixing,
                                     spec.delay_model, seed=seed, v=spec.config.v)
        if timeline0 is None:
            timeline0 = timeline
        trace.wall_clock = timeline.cumulative[:trace.rows]
        write_trace_csv(trace, out / f"trace_seed{seed}.csv")

    completed = [t for t in traces if not t.diverged]
    completed_seeds = [s for s, t in zip(spec.seeds, traces) if not t.diverged]
    written = {out / f"trace_seed{seed}.csv" for seed in spec.seeds}
    if completed:
        written.add(out / "trace_mean.csv")
        write_trace_csv(average_traces(completed), out / "trace_mean.csv")
    for stale in {*out.glob("trace_seed*.csv"), *out.glob("trace_mean.csv")} - written:
        stale.unlink()

    summary = {
        "mean_grad_norm_sq": float(np.mean([t.mean_grad_norm_sq for t in completed])) if completed else None,
        "final_loss": float(np.mean([t.final_loss for t in completed])) if completed else None,
        "diverged": len(completed) == 0,
        "diverged_seeds": [s for s, t in zip(spec.seeds, traces) if t.diverged],
        "averaged_over_seeds": completed_seeds,
        "tail_worker_grad_norm_sq": (float(np.mean([_tail_mean(t, t.worker_grad_norm_sq_mean)
                                                    for t in completed])) if completed else None),
        "tail_worker_loss": (float(np.mean([_tail_mean(t, t.worker_loss_mean)
                                            for t in completed])) if completed else None),
        "recursion_defect_max": float(max(t.recursion_defect_max for t in traces)),
        "timeline": timeline0.to_dict(),
        "bound_report": _bound_report_dict(spec, traces),
        "config_echo": spec.to_dict(),
    }
    _atomic_write_json(out / "summary.json", summary)
    return EXIT_OK if completed else EXIT_ALL_DIVERGED


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_spec_file(path: str) -> ExperimentSpec:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    return parse_experiment_spec(payload)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        return run_experiment(_load_spec_file(args.spec))
    except (SpecError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = _load_spec_file(args.spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"ok: {len(spec.seeds)} seed(s), K={spec.config.steps}, "
          f"tau={spec.config.tau}, zeta={spec.config.mixing.zeta:.6g}")
    return EXIT_OK


def cmd_preset(args: argparse.Namespace) -> int:
    from coopsgd.presets import PRESETS, run_preset

    if args.name not in PRESETS:
        print(f"error: unknown preset {args.name!r}; available: {sorted(PRESETS)}",
              file=sys.stderr)
        return EXIT_INVALID
    try:
        summary = run_preset(args.name, args.out, seeds=args.seeds)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    output: dict = {}
    if args.zeta is not None and args.zeta >= 1.0:
        print("error: bounds require zeta < 1", file=sys.stderr)
        return EXIT_INVALID
    if args.best_easgd_alpha and args.m is None:
        print("error: --best-easgd-alpha requires --m", file=sys.stderr)
        return EXIT_INVALID
    core = (args.f1_minus_finf, args.lipschitz, args.sigma_sq, args.m,
            args.tau, args.zeta, args.eta, args.K)
    try:
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
    except (MixingError, TheoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not output:
        print("error: nothing to compute; pass --tau, --best-easgd-alpha, or the full "
              "bound inputs (--f1-minus-finf --lipschitz --sigma-sq --m --tau --zeta "
              "--eta --K)", file=sys.stderr)
        return EXIT_INVALID
    print(json.dumps(output, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsgd",
        description="Simulator and bound calculator for averaging-based distributed SGD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment spec")
    p_run.add_argument("spec", help="path to the experiment spec JSON")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a spec without running it")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
