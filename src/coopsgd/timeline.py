"""Simulated wall-clock model for synchronized-rounds execution.

Workers advance in lockstep rounds of tau local steps. A round costs the
slowest worker's compute time (stragglers gate everyone) plus one
synchronization, so communication is amortized over tau iterations:

    time per iteration = (max_i sum of i's tau compute draws + sync_cost) / tau

Synchronization cost is latency plus a per-partner term for the busiest
worker. Auxiliary nodes never compute gradients, so with non-blocking
execution their exchange overlaps the workers' next local phase and drops
out of the per-round cost entirely.

Delays depend only on topology, tau, and the delay parameters; never on
parameter values. A timeline can therefore annotate any run trace with the
same shape. The seed enters only through the jitter draws: a delay model
without jitter (`DelayModel.depends_on_seed` false) gives every seed the
same timeline, which `coopsgd.cli` simulates and formats once per run.
`simulate_timeline_bytes` states, from above, the bytes that one simulation
holds, its result included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coopsgd.mixing import MixingMatrix


class TimelineError(ValueError):
    """Raised for invalid delay parameters or mismatched shapes."""


@dataclass(frozen=True)
class DelayModel:
    """Per-iteration compute and per-sync communication costs, in seconds.

    Compute time per worker per iteration is `compute_base` plus, when
    `compute_jitter_mean` > 0, an exponential straggler term with that mean.
    A sync costs `comm_latency` plus `comm_per_neighbor` for each exchange
    partner of the busiest worker.
    """

    compute_base: float
    compute_jitter_mean: float = 0.0
    comm_latency: float = 0.0
    comm_per_neighbor: float = 0.0
    nonblocking_aux: bool = False

    def __post_init__(self):
        if min(self.compute_base, self.compute_jitter_mean,
               self.comm_latency, self.comm_per_neighbor) < 0:
            raise TimelineError("all delay parameters must be nonnegative")

    @property
    def depends_on_seed(self) -> bool:
        """Whether `simulate_timeline` depends on its seed: only the jitter draws from it."""
        return self.compute_jitter_mean > 0.0


def sync_cost(mixing: MixingMatrix, delay: DelayModel, v: int = 0) -> float:
    """Cost of one synchronization: latency + per-partner term.

    The bottleneck is the worker with the most nonzero off-diagonal
    partners. Partners among the v auxiliary nodes (the last v indices)
    are excluded under non-blocking execution, where their broadcast
    overlaps compute.
    """
    if not 0 <= v < mixing.n:
        raise TimelineError(f"v={v} leaves no workers in a {mixing.n}-node matrix")
    m = mixing.n - v
    partners = mixing.entries[:m] != 0
    np.fill_diagonal(partners, False)
    if delay.nonblocking_aux:
        partners = partners[:, :m]
    max_degree = int(partners.sum(axis=1).max())
    return delay.comm_latency + delay.comm_per_neighbor * max_degree


@dataclass(frozen=True)
class TimelineTrace:
    """Wall-clock annotations for one run.

    `cumulative` has steps+1 entries (time zero first) so it aligns with run
    traces that record the initial state. Idle time counts only waiting for
    stragglers within a round.
    """

    per_iteration: np.ndarray
    cumulative: np.ndarray
    idle_fraction: np.ndarray
    total_comm_time: float

    @property
    def total_time(self) -> float:
        return float(self.cumulative[-1])

    @property
    def comm_fraction(self) -> float:
        total = self.total_time
        return self.total_comm_time / total if total > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "total_time_s": self.total_time,
            "idle_fraction": float(self.idle_fraction.mean()),
            "comm_fraction": self.comm_fraction,
        }


def simulate_timeline_bytes(steps: int, tau: int, n: int, m: int) -> int:
    """Peak bytes of `simulate_timeline` on an n-node matrix with m workers,
    with or without jitter, from above.

    Its peak comes at a jittered draw: the per-iteration times, the K m
    compute draws and their (K/tau, m) worker sums. The constant-delay
    branch holds three K-float arrays at most, and the worker-degree mask
    (m n bools) is freed before any of these is made; the sum of both
    bounds the peak.
    """
    rounds = steps // tau
    return 8 * ((steps + 1 + rounds) * (m + 3) + 2 * m) + m * n


def simulate_timeline(steps: int, tau: int, mixing: MixingMatrix, delay: DelayModel,
                      seed: int, v: int = 0) -> TimelineTrace:
    """Simulate wall-clock time for `steps` iterations in rounds of tau.

    Deterministic per seed, and the same for every seed unless
    `delay.depends_on_seed`. Each round's span is the maximum over workers of
    the sum of their tau compute draws; the per-sync cost is added once per
    round and the round total is spread evenly over its tau iterations. With
    no jitter the per-iteration time is exactly compute_base + sync_cost/tau.
    Raises TimelineError when a time overflows the float range.
    """
    if steps < 1 or tau < 1 or steps % tau != 0:
        raise TimelineError("steps must be a positive multiple of tau")
    m = mixing.n - v
    if m < 1:
        raise TimelineError("need at least one worker")
    rounds = steps // tau
    cost = sync_cost(mixing, delay, v=v)

    per_iteration = np.empty(steps)
    # an overflow leaves an infinite or NaN time, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        if not delay.depends_on_seed:
            per_iteration[:] = delay.compute_base + cost / tau
            idle = np.zeros(m)
        else:
            rng = np.random.default_rng(seed)
            # the draws are summed at once and never bound, so they are freed first
            worker_sums = rng.exponential(delay.compute_jitter_mean,
                                          size=(rounds, m, tau)).sum(axis=2)
            worker_sums += tau * delay.compute_base
            spans = worker_sums.max(axis=1)
            idle = (spans[:, None] - worker_sums).sum(axis=0)
            per_iteration[:] = np.repeat((spans + cost) / tau, tau)
        cumulative = np.concatenate([[0.0], np.cumsum(per_iteration)])
        total_comm = rounds * cost
    total_time = float(cumulative[-1])
    # the times are nonnegative, so the clock's last entry is its largest
    if not (math.isfinite(total_time) and math.isfinite(total_comm) and np.isfinite(idle).all()):
        raise TimelineError(f"the wall clock of {steps} steps overflows the float range")
    idle_fraction = idle / total_time if total_time > 0 else np.zeros(m)
    return TimelineTrace(
        per_iteration=per_iteration,
        cumulative=cumulative,
        idle_fraction=idle_fraction,
        total_comm_time=float(total_comm),
    )
