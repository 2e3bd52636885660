"""Execution engine for the A(tau, W, v) family of averaging SGD variants.

State is a d x (m+v) matrix X whose first m columns are worker models and
whose last v columns are auxiliary variables that take no gradient steps.
One iteration applies

    post rule:  X <- (X - eta G) W_k          (the default)
    pre rule:   X <- X W_k - eta G            (alternative form)

where W_k is the mixing matrix on synchronization steps (k divisible by tau)
and the identity otherwise, and G holds the stochastic gradients of the
workers alone: auxiliaries take no gradient step.

Because every mixing matrix has unit row sums, the all-column average
follows plain SGD with the effective learning rate m*eta/(m+v) under both
rules; `run_many` tracks the worst per-step defect of that recursion as a
self-check. `run_many` is the only implementation of the update rule. The
engine does no file I/O; `coopsgd.cli` writes the traces.

Metrics are recorded with one oracle evaluation per recorded row, whose
worker gradients the next step's sampler reuses, and reduced in blocks of
rows: the metric reductions, the finiteness test that finds dead seeds,
and the recursion-defect update run once per block on the stacked rows,
whose size RECORD_BLOCK_BYTES bounds. Dead seeds are found at the end of
their block; the rows a run emits do not depend on the block size.

The three metrics of the column mean are recorded at every row. The two
worker metrics are recorded only on the tail, the rows from `tail_start(K)`
on, which is all that the summary's floors read, into an array of their own
that holds the tail rows alone; a block never straddles the tail's first
row. Before the tail a row evaluates the columns only when the oracle's
sampler reads their gradients (`sampler_reads_gradients`). Otherwise no
step waits for a row's evaluation, so the rows before the tail evaluate
their column means alone, n+1 rows (n = m+v) per oracle call: packs of
n+1 rows from row 1, the last one cut at the tail's first row, which such
a run's blocks hold whole.

The oracle evaluates a d-major stack: `run_many` fills one (d, seeds, n+1)
buffer, allocated once, with the columns and their mean, or with a pack's
means in its first columns, and passes its (seeds, d, n+1) transposed view,
or the view of the pack's columns or of the mean column alone, on which the
oracle's product over all seeds is one GEMM (see
`coopsgd.objectives.GradientOracle`). The mixing
product X W is likewise one GEMM on the free (seeds * d, m+v) reshape of the
state; BLAS picks its kernel by shape, so at some shapes (d = 1, or 17
columns) this rounds unlike one product per seed in the last bits. The
column mean and the workers' mean gradient stay one matrix-vector product
per seed: over all seeds at once, BLAS rounds the rows past the last
multiple of its row block differently, which would change the bits of every
run whose d is not such a multiple, the presets' d = 10 among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coopsgd.mixing import MixingMatrix

# The rows of `RunTrace.metrics` and then of `RunTrace.worker_metrics`, in order.
METRIC_NAMES = ("loss", "grad_norm_sq", "network_error", "worker_loss_mean",
                "worker_grad_norm_sq_mean")
# The share of a K-step horizon that forms the tail (see `tail_start`).
TAIL_FRACTION = 0.2
# Bytes of recorded rows (see `record_row_bytes`) that `run_many` stacks
# before it reduces them to metrics.
RECORD_BLOCK_BYTES = 256 * 2**10


class ConfigError(ValueError):
    """Raised for invalid algorithm configurations."""


def effective_lr(eta: float, m: int, v: int) -> float:
    """Step size of the averaged model: m * eta / (m + v)."""
    return m * eta / (m + v)


def tail_start(steps: int) -> int:
    """First row of the tail, the final TAIL_FRACTION of a K-step horizon:
    the rows on which the worker metrics are recorded and over which the
    summary's floors average. It lies in 1..K."""
    return math.ceil((1.0 - TAIL_FRACTION) * steps)


@dataclass(frozen=True)
class AlgorithmConfig:
    """The tuple A(tau, W, v) plus run parameters.

    `steps` must be divisible by `tau` so every run ends on a
    synchronization step; other horizons are rejected outright.
    """

    tau: int
    mixing: MixingMatrix
    v: int
    eta: float
    steps: int
    rule: str = "post"

    def __post_init__(self):
        if self.tau < 1:
            raise ConfigError("communication period tau must be >= 1")
        if self.v < 0:
            raise ConfigError("auxiliary count v must be >= 0")
        if self.mixing.n - self.v < 1:
            raise ConfigError(f"mixing matrix of size {self.mixing.n} leaves no workers for v={self.v}")
        if self.eta <= 0:
            raise ConfigError("learning rate eta must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.steps % self.tau != 0:
            lower = (self.steps // self.tau) * self.tau
            upper = lower + self.tau
            raise ConfigError(
                f"steps={self.steps} is not divisible by tau={self.tau}; "
                f"nearest valid values are {lower} and {upper}"
            )
        if self.rule not in ("post", "pre"):
            raise ConfigError(f"rule must be 'post' or 'pre', got {self.rule!r}")

    @property
    def m(self) -> int:
        return self.mixing.n - self.v

    @property
    def eta_tilde(self) -> float:
        return effective_lr(self.eta, self.m, self.v)


@dataclass
class RunTrace:
    """Per-iteration record of a single run.

    `metrics` has one row for each metric of the column mean (the first three
    of METRIC_NAMES) and one column per recorded state: column r holds the
    state after r updates, for r = 0..K, and column 0 is the common
    initialization. The convergence metric of interest averages
    `grad_norm_sq` over the K states at which gradients were evaluated
    (columns 0..K-1). Divergent runs are truncated at the last finite state,
    so a run diverged exactly when `rows`, the number of recorded states, is
    below K+1. `nonfinite` names the metrics (see METRIC_NAMES) that were
    non-finite at state `rows`, the first one not recorded; it is empty for
    a run that did not diverge. Before the tail only the three metrics of
    the column mean are recorded, so a run that diverges there names none of
    the worker metrics.

    The worker metrics cover the tail only. `worker_metrics` has one row for
    each of the last two of METRIC_NAMES and one column per recorded state
    from `tail_start(K)` on: column j holds state `tail_start(K) + j`. So it
    has max(0, rows - tail_start(K)) columns, none for a run that diverged
    before the tail. Neither array holds a column that was not recorded.
    """

    metrics: np.ndarray
    worker_metrics: np.ndarray
    steps_requested: int
    recursion_defect_max: float
    nonfinite: tuple[str, ...] = ()

    @property
    def rows(self) -> int:
        return self.metrics.shape[1]

    @property
    def diverged(self) -> bool:
        return self.rows < self.steps_requested + 1

    loss = property(lambda self: self.metrics[0], doc="F at the column mean")
    grad_norm_sq = property(lambda self: self.metrics[1], doc="||grad F||^2 at the column mean")
    network_error = property(lambda self: self.metrics[2],
                             doc="squared Frobenius distance of the columns from their mean")
    worker_loss_mean = property(lambda self: self.worker_metrics[0],
                                doc="F averaged over the workers, on the tail rows")
    worker_grad_norm_sq_mean = property(
        lambda self: self.worker_metrics[1],
        doc="||grad F||^2 averaged over the workers, on the tail rows")

    @property
    def mean_grad_norm_sq(self) -> float:
        """Average squared gradient norm over the gradient-evaluation states."""
        return float(self.grad_norm_sq[:self.steps_requested].mean())

    @property
    def final_loss(self) -> float:
        return float(self.loss[-1])

    @property
    def initial_loss(self) -> float:
        return float(self.loss[0])


def record_row_bytes(n_seeds: int, d: int, n: int) -> int:
    """Bytes `run_many` keeps per recorded row of n columns in dimension d.

    A row holds the values and gradients at the n columns and their mean,
    the columns' distances from the mean, the mean itself and the workers'
    mean gradient: (2n + 3) d + n + 1 floats per seed.
    """
    return 8 * n_seeds * ((2 * n + 3) * d + n + 1)


def record_block_rows(n_seeds: int, d: int, n: int, steps: int, packed: bool = False) -> int:
    """Rows per recording block: as many as RECORD_BLOCK_BYTES holds, at
    least one and at most `steps`. A run whose evaluations are `packed` (its
    sampler reads no gradients, see `run_many`) rounds that down to whole
    packs of n + 1 rows, and at least one pack."""
    rows = max(1, RECORD_BLOCK_BYTES // record_row_bytes(n_seeds, d, n))
    if packed:
        rows = max(n + 1, rows - rows % (n + 1))
    return min(steps, rows)


def metric_bytes(n_seeds: int, steps: int) -> int:
    """Bytes of the metric arrays of `run_many`'s traces: 24 a seed and row,
    and 16 more a seed and tail row."""
    return n_seeds * (24 * (steps + 1) + 16 * (steps + 1 - tail_start(steps)))


def run_many_bytes(n_seeds: int, d: int, n: int, m: int, steps: int,
                   packed: bool = False) -> int:
    """Bytes `run_many` holds besides the oracle's, from above: the metric
    arrays (`metric_bytes`), each stream's generator (under 1 KiB), the
    recording block of `record_block_rows(..., packed)` rows with its five
    metrics and the masks and row indices that find its dead seeds (56 bytes
    a seed and row), the evaluated stack of the columns and their mean, and
    three (seeds, d, n + 1) step arrays (the state, the step's gradients, and
    the mixed state or the scaled gradients). All but the metric arrays are
    freed when `run_many` returns."""
    rows = record_block_rows(n_seeds, d, n, steps, packed)
    return (metric_bytes(n_seeds, steps)
            + 1024 * n_seeds * m + 32 * n_seeds * d * (n + 1)
            + rows * (record_row_bytes(n_seeds, d, n) + 56 * n_seeds))


def run_many(config: AlgorithmConfig, oracle, seeds: list[int], x0=1.0) -> list[RunTrace]:
    """Execute one configuration once per seed, as a single stacked system.

    All seeds share the update arithmetic on a (seeds, d, m+v) state array,
    which keeps the per-step cost nearly independent of the seed count.
    Worker i of seed s draws from the i-th child of SeedSequence(seeds[s]),
    so streams are independent across both seeds and workers, and adding
    workers never perturbs existing streams. Metrics come from
    `oracle.batch_objective_and_grads`, called once per recorded row on the
    (seeds, d, m+v+1) stack of the columns and their mean (a view of one
    d-major buffer that every evaluation refills), and gradients
    from `oracle.batch_gradient_sampler(rng_table, K)`, called once per step
    with the (seeds, d, m) worker columns and their full gradients: the
    first m gradient columns of the block row that holds the state's
    evaluation. Each state's full gradient is thus computed once.

    An oracle whose sampler does not read gradients (`sampler_reads_gradients`
    false) always passes that sampler None for them, and is evaluated at row
    0 on the (seeds, d, 1) view of the mean column alone. Its rows before the
    tail (`tail_start(K)`) are evaluated in packs of n + 1 rows, n = m+v: each
    such row stores its column mean in the next free column of the evaluated
    stack, and the pack's last row evaluates the (seeds, d, rows) view of
    them in one call and scatters the values and gradients into the pack's
    block rows. Packs start at row 1, every n + 1 rows, and the last one ends
    at the tail's first row; the oracle is thus called
    1 + ceil((tail - 1) / (n + 1)) + K + 1 - tail times, where a sampler
    that reads gradients takes K + 1 calls.

    Rows are recorded in blocks of as many steps as fit in
    RECORD_BLOCK_BYTES, and at least one, ending at the tail's first row;
    for an oracle that packs its evaluations, that is rounded down to whole
    packs, and at least one, so that no pack straddles a block and the rows
    emitted still do not depend on RECORD_BLOCK_BYTES. Each step stores its
    evaluation in the block, and once per block the
    metric reductions (three before the tail, five on it), the finiteness
    test and the recursion-defect update run on the stacked rows. The three
    metrics of the column mean fill a (3, seeds, K + 1) array and the two
    worker metrics a (2, seeds, K + 1 - tail_start(K)) one, so no entry of
    either is left unrecorded.

    `x0` may be a scalar (broadcast over coordinates) or a d-vector; every
    column starts at that common point. Non-finite state or metrics stop an
    individual seed early: its trace is truncated at the last finite row and
    flagged divergent, while the remaining seeds keep running. A seed is
    found dead at the end of the block it fails in, runs on to that point
    and is then parked at zero with zero gradients; the rows it emits are the
    same at every block size.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    n = config.mixing.n
    m, v = config.m, config.v
    d = oracle.d
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 0:
        x0 = np.full(d, float(x0))
    if x0.shape != (d,):
        raise ConfigError(f"x0 must be a scalar or a vector of dimension {d}")

    n_seeds = len(seeds)
    rng_table = [
        [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(m)]
        for seed in seeds
    ]
    sample = oracle.batch_gradient_sampler(rng_table, config.steps)

    X = np.tile(x0[None, :, None], (n_seeds, 1, n))
    W = config.mixing.entries
    eta, eta_t, tau, K = config.eta, config.eta_tilde, config.tau, config.steps
    tail = tail_start(K)
    reads_grads = oracle.sampler_reads_gradients
    worker_avg = np.full(m, 1.0 / m)
    col_avg = np.full(n, 1.0 / n)

    # the (seeds, d, n + 1) view of the evaluated stack of the columns and their
    # mean, or of a pack of means, which is d-major so that each product over
    # all seeds is one GEMM
    evaluated = np.empty((d, n_seeds, n + 1)).transpose(1, 0, 2)

    block = record_block_rows(n_seeds, d, n, K, packed=not reads_grads)
    xbars = np.empty((block + 1, n_seeds, d))  # row 0: the mean before the block
    gbar = np.empty((block, n_seeds, d))
    vals_blk = np.empty((block, n_seeds, n + 1))
    grads_blk = np.empty((block, n_seeds, d, n + 1))
    spread_blk = np.empty((block, n_seeds, d, n))
    rec_blk = np.empty((5, block, n_seeds))  # the block's metrics, reduced from the three above
    metrics = np.empty((3, n_seeds, K + 1))
    worker_metrics = np.empty((2, n_seeds, K + 1 - tail))  # the tail rows alone

    def mix(X: np.ndarray) -> np.ndarray:
        """X W as one (seeds * d, n) @ (n, n) GEMM on the free reshape of X."""
        return (X.reshape(n_seeds * d, n) @ W).reshape(n_seeds, d, n)

    def center(b: int, j: int):
        """Store the state's mean as block row `b`'s and in column `j` of the
        evaluated stack, and its spreads X - xbar."""
        xbar = np.matmul(X, col_avg, out=xbars[b + 1])
        evaluated[:, :, j] = xbar
        np.subtract(X, xbar[:, :, None], out=spread_blk[b])

    def evaluate(b: int, columns: bool):
        """Store the state's values, gradients and spreads as block row `b`,
        evaluated at the columns and their mean, or at the mean alone. Returns
        the worker gradients for the next step's sampler: None for a sampler
        that does not read them."""
        center(b, n)
        if columns:
            evaluated[:, :, :n] = X
        cols = slice(0 if columns else n, n + 1)
        vals_blk[b, :, cols], grads_blk[b, :, :, cols] = \
            oracle.batch_objective_and_grads(evaluated[:, :, cols])
        return grads_blk[b, :, :, :m] if reads_grads else None

    def evaluate_pack(b: int, j: int):
        """Evaluate block rows b - j..b at the means that `center` stored in
        the evaluated stack's first j + 1 columns, in one call."""
        vals, grads = oracle.batch_objective_and_grads(evaluated[:, :, :j + 1])
        vals_blk[b - j:b + 1, :, n] = vals.T
        grads_blk[b - j:b + 1, :, :, n] = grads.transpose(2, 0, 1)

    def reduce_block(start: int, rows: int, workers: bool) -> np.ndarray:
        """Record rows start..start+rows-1 from the first `rows` block rows,
        on the tail into the worker metrics' columns from start - tail too;
        returns them as a (5, rows, seeds) view of the block's metrics, or
        (3, rows, seeds) without the worker metrics.

        A non-finite entry of X makes X - xbar non-finite in its coordinate,
        so the network error flags a non-finite state without a scan of X.
        """
        vals, grads, diff = vals_blk[:rows], grads_blk[:rows], spread_blk[:rows]
        rec = rec_blk[:5 if workers else 3, :rows]
        rec[0] = vals[:, :, n]
        center = grads[:, :, :, n]
        np.einsum("bsi,bsi->bs", center, center, out=rec[1])
        np.einsum("bsij,bsij->bs", diff, diff, out=rec[2])
        if workers:
            np.divide(vals[:, :, :m].sum(axis=2), m, out=rec[3])
            gw = grads[:, :, :, :m]
            np.einsum("bsij,bsij->bs", gw, gw, out=rec[4])
            rec[4] /= m
            worker_metrics[:, :, start - tail:start - tail + rows] = rec[3:].transpose(0, 2, 1)
        metrics[:, :, start:start + rows] = rec[:3].transpose(0, 2, 1)
        return rec

    # overflow/invalid simply mark divergence, so numpy warnings are noise here
    with np.errstate(over="ignore", invalid="ignore"):
        last = evaluate(0, reads_grads)  # the worker gradients of the last evaluation
        if not np.isfinite(reduce_block(0, 1, False)).all():
            raise ConfigError("objective is non-finite at the initial point")
        xbars[0] = xbars[1]

        n_alive = n_seeds  # seeds without a non-finite row so far
        first_bad = np.full(n_seeds, K + 1)
        nonfinite = [()] * n_seeds  # the names of the metrics non-finite at first_bad
        defect_max = np.zeros(n_seeds)
        start = 1
        while start <= K:
            on_tail = start >= tail
            stop = min(start + block, K + 1 if on_tail else tail)
            for b, k in enumerate(range(start, stop)):
                g = sample(X[:, :, :m], last)
                np.matmul(g, worker_avg, out=gbar[b])
                sync = k % tau == 0
                if sync and config.rule == "pre":
                    X = mix(X)
                X[:, :, :m] -= eta * g  # auxiliaries take no gradient step
                if sync and config.rule == "post":
                    X = mix(X)
                if reads_grads or on_tail:
                    last = evaluate(b, True)
                else:  # packs of n + 1 rows from row 1, the last cut at the tail
                    j = (k - 1) % (n + 1)
                    center(b, j)
                    if j == n or k + 1 == stop:
                        evaluate_pack(b, j)
            rows = stop - start
            rec = reduce_block(start, rows, on_tail)
            if not math.isfinite(rec.sum()):  # a non-finite row, or a sum that overflowed
                finite = np.isfinite(rec)
                ok = finite.all(axis=0)
                dead = (first_bad > K) & ~ok.all(axis=0)
                bad_rows = ok[:, dead].argmin(axis=0)
                first_bad[dead] = start + bad_rows
                for s, row in zip(np.flatnonzero(dead), bad_rows):
                    nonfinite[s] = tuple(name for name, fin in zip(METRIC_NAMES, finite[:, row, s])
                                         if not fin)
                X[dead] = 0.0  # park dead seeds; their rows are never emitted
                if last is not None:
                    last[dead] = 0.0
                n_alive = np.count_nonzero(first_bad > K)
            # each step's defect |xbar - (xbar_prev - eta_t gbar)|, made in place of gbar
            err = np.multiply(gbar[:rows], eta_t, out=gbar[:rows])
            np.subtract(xbars[:rows], err, out=err)
            np.subtract(xbars[1:rows + 1], err, out=err)
            np.abs(err, out=err)
            if n_alive < n_seeds:  # count each seed's steps before its first bad row
                err[np.arange(start, stop)[:, None] >= first_bad] = 0.0
            defect_max = np.maximum(defect_max, err.max(axis=(0, 2)))
            if not n_alive:
                break
            xbars[0] = xbars[rows]
            start = stop

    return [RunTrace(metrics=metrics[:, s, :first_bad[s]],
                     worker_metrics=worker_metrics[:, s, :max(0, first_bad[s] - tail)],
                     steps_requested=K, recursion_defect_max=float(defect_max[s]),
                     nonfinite=nonfinite[s])
            for s in range(n_seeds)]


def average_traces(traces: list[RunTrace]) -> RunTrace:
    """Pointwise mean of complete traces of equal length; the expectation
    proxy for bounds. It is the one seed-averaging rule: `coopsgd.cli`
    writes it as `trace_mean.csv` and reads the summary's seed means off it.

    Each of the two arrays, `metrics` and the tail's `worker_metrics`, is
    added over the traces in order into one array from zero and the sum is
    divided once, which gives the bits of `np.mean` over their stack without
    building the stack.
    """
    total = np.zeros_like(traces[0].metrics)
    worker_total = np.zeros_like(traces[0].worker_metrics)
    for trace in traces:
        total += trace.metrics
        worker_total += trace.worker_metrics
    total /= len(traces)
    worker_total /= len(traces)
    return RunTrace(metrics=total, worker_metrics=worker_total,
                    steps_requested=traces[0].steps_requested,
                    recursion_defect_max=max(t.recursion_defect_max for t in traces))
