"""Equivalence oracles for the engine's update rule.

The `reference_*_step` functions transcribe each classical algorithm's
published per-worker form directly, without the matrix formulation that
`run_many` uses. `engine_vs_reference` drives `run_many` itself, through an
oracle wrapper that records the worker columns its sampler receives, and
advances a reference trajectory on the same per-worker noise streams.
`reference_run_many` is `run_many` with its metrics recorded one step at a
time, the reference for the engine's blocked recording; like `run_many`, it
hands the sampler the worker gradients of the row it recorded last.
`PoisonedOracle` makes chosen seeds diverge at chosen steps, and
`BlindOracle` hides from `run_many` that a sampler reads gradients, so that
a quadratic's evaluations are packed like the logistic ones.
"""

import numpy as np

from coopsgd import engine as eng


def reference_fullsync_step(X: np.ndarray, eta: float, G: np.ndarray) -> np.ndarray:
    """All workers share one model and apply the averaged gradient."""
    d, m = X.shape
    total = np.zeros(d)
    for i in range(m):
        total += G[:, i]
    new_model = X[:, 0] - eta * (total / m)
    out = np.empty_like(X)
    for i in range(m):
        out[:, i] = new_model
    return out


def reference_pasgd_step(X: np.ndarray, eta: float, G: np.ndarray,
                         step_index: int, tau: int) -> np.ndarray:
    """Local step each iteration; average post-update models every tau steps."""
    d, m = X.shape
    out = np.empty_like(X)
    if step_index % tau == 0:
        avg = np.zeros(d)
        for j in range(m):
            avg += X[:, j] - eta * G[:, j]
        avg /= m
        for i in range(m):
            out[:, i] = avg
    else:
        for i in range(m):
            out[:, i] = X[:, i] - eta * G[:, i]
    return out


def reference_easgd_step(X: np.ndarray, eta: float, G: np.ndarray, alpha: float) -> np.ndarray:
    """Elastic averaging: workers pulled toward the anchor in the last column.

    Matches the pre-multiply form of the framework with the elastic mixing
    matrix and one auxiliary variable.
    """
    d, n = X.shape
    m = n - 1
    z = X[:, m]
    xbar = np.zeros(d)
    for i in range(m):
        xbar += X[:, i]
    xbar /= m
    out = np.empty_like(X)
    for i in range(m):
        out[:, i] = X[:, i] - eta * G[:, i] - alpha * (X[:, i] - z)
    out[:, m] = (1.0 - m * alpha) * z + m * alpha * xbar
    return out


def reference_dpsgd_step(X: np.ndarray, eta: float, G: np.ndarray,
                         w_entries: np.ndarray) -> np.ndarray:
    """Gossip then local step: x_i <- sum_j w_ji x_j - eta g_i."""
    d, m = X.shape
    out = np.empty_like(X)
    for i in range(m):
        mixed = np.zeros(d)
        for j in range(m):
            mixed += w_entries[j, i] * X[:, j]
        out[:, i] = mixed - eta * G[:, i]
    return out


class RecordingOracle:
    """Passes every call through to `oracle`; keeps a copy of the (seeds, d, m)
    worker columns and gradients (or None) handed to the sampler at each
    step, and of the stack and gradients of each evaluation."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.worker_columns = []
        self.sampled_grads = []
        self.evaluations = []

    def batch_objective_and_grads(self, X):
        vals, grads = self._oracle.batch_objective_and_grads(X)
        self.evaluations.append((X.copy(), grads.copy()))
        return vals, grads

    def batch_gradient_sampler(self, rng_table, horizon):
        sample = self._oracle.batch_gradient_sampler(rng_table, horizon)

        def recording_sample(Xw, grads):
            self.worker_columns.append(Xw.copy())
            self.sampled_grads.append(None if grads is None else grads.copy())
            return sample(Xw, grads)

        return recording_sample

    def __getattr__(self, name):
        return getattr(self._oracle, name)


class PoisonedOracle:
    """Passes every call through to `oracle`, except that the gradient of
    seed `poison[k]` gets one infinite coordinate at sampler call k."""

    def __init__(self, oracle, poison: dict[int, int]):
        self._oracle = oracle
        self._poison = poison

    def batch_gradient_sampler(self, rng_table, horizon):
        sample = self._oracle.batch_gradient_sampler(rng_table, horizon)
        calls = iter(range(1, horizon + 1))

        def poisoned(Xw, grads):
            G = sample(Xw, grads)
            seed = self._poison.get(next(calls))
            if seed is not None:
                G[seed, 2, 0] = np.inf
            return G

        return poisoned

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def reference_states(oracle, x0: np.ndarray, m: int, v: int, seed: int, steps: int,
                     eta: float, reference) -> list[np.ndarray]:
    """States after 0..steps reference updates; worker i draws its gradients
    from the i-th child of SeedSequence(seed), as in `run_many`."""
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(m)]
    x = np.tile(x0[:, None], (1, m + v))
    states = [x]
    for k in range(1, steps + 1):
        g = np.zeros_like(x)
        for i in range(m):
            g[:, i] = oracle.stochastic_gradient(x[:, i], rngs[i])
        x = reference(x, eta, g, k)
        states.append(x)
    return states


def engine_vs_reference(oracle, w, v: int, tau: int, rule: str, reference,
                        steps: int, eta: float, seed: int, x0: float) -> tuple[float, float]:
    """Worst deviation of `run_many` from a reference trajectory.

    Returns the worst absolute difference over the worker columns the engine
    fed its sampler at every step, and over the trace's network-error rows
    against the same quantity recomputed from the reference states.
    """
    config = eng.AlgorithmConfig(tau=tau, mixing=w, v=v, eta=eta, steps=steps, rule=rule)
    recorder = RecordingOracle(oracle)
    (trace,) = eng.run_many(config, recorder, [seed], x0=x0)
    assert not trace.diverged and len(recorder.worker_columns) == steps
    states = reference_states(oracle, np.full(oracle.d, x0), config.m, v, seed, steps,
                              eta, reference)
    worst_cols = max(float(np.max(np.abs(cols[0] - state[:, :config.m])))
                     for cols, state in zip(recorder.worker_columns, states))
    ref_net_err = np.array([float(((x - x.mean(axis=1, keepdims=True)) ** 2).sum())
                            for x in states])
    worst_net_err = float(np.max(np.abs(trace.network_error - ref_net_err)))
    return worst_cols, worst_net_err


def reference_run_many(config, oracle, seeds: list[int], x0=1.0) -> list[eng.RunTrace]:
    """`run_many` with every metric, divergence and defect check made per step.

    Each step samples at the worker gradients of the last recorded row,
    records its own row, parks the seeds whose recorded rows hold a
    non-finite metric at zero with zero gradients and stops once none is
    left; each seed's recursion defect is the largest over its steps before
    its first bad row. A row before `tail_start(K)` records the three metrics
    of the column mean and a row on the tail all five, the two worker
    metrics into an array of the tail rows alone. A row on the tail, and any
    row of a sampler that reads gradients, evaluates the columns and their
    mean. Otherwise the sampler receives None for them, and the rows between
    row 0 and the tail evaluate their means in packs of n + 1 rows from row
    1, the last one cut at the tail: a pack's metrics are recorded, and its
    rows checked, at its last row. Every evaluation is of an n + 1 column
    stack: row 0, like a tail row, evaluates the columns and their mean, and
    a pack cut short fills its other columns with zeros.
    It mixes with one product X[s] W per seed and evaluates C-ordered stacks,
    where `run_many` makes one GEMM over all seeds and evaluates views of a
    d-major buffer; at the shapes the tests run, the two round alike.
    """
    n, m, d, K = config.mixing.n, config.m, oracle.d, config.steps
    x0 = np.asarray(x0, dtype=float)
    x0 = np.full(d, float(x0)) if x0.ndim == 0 else x0
    n_seeds = len(seeds)
    rng_table = [[np.random.default_rng(c) for c in np.random.SeedSequence(s).spawn(m)]
                 for s in seeds]
    sample = oracle.batch_gradient_sampler(rng_table, K)
    X = np.tile(x0[None, :, None], (n_seeds, 1, n))
    W, eta, eta_t = config.mixing.entries, config.eta, config.eta_tilde
    tail = eng.tail_start(K)
    reads = oracle.sampler_reads_gradients
    worker_avg, col_avg = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    metrics = np.empty((3, n_seeds, K + 1))
    worker_metrics = np.empty((2, n_seeds, K + 1 - tail))
    loss, grad_sq, net_err = metrics
    w_loss, w_grad_sq = worker_metrics
    pack = []  # the rows of the pack of means being filled, with their means

    def record_mean(row, vals, grads):
        """Record the mean's two metrics from the last column of a row of the
        columns and their mean, whose strides the reductions then see."""
        loss[:, row] = vals[:, n]
        center = grads[:, :, n]
        grad_sq[:, row] = np.einsum("si,si->s", center, center)

    def record(row):
        """Record the state's row, or add it to the pack; returns the mean, the
        worker gradients for the sampler and the rows recorded in full."""
        xbar = X @ col_avg
        diff = X - xbar[:, :, None]
        net_err[:, row] = np.einsum("sij,sij->s", diff, diff)
        vals, grads = np.empty((n_seeds, n + 1)), np.empty((n_seeds, d, n + 1))
        if not reads and 0 < row < tail:
            pack.append((row, xbar))
            if row % (n + 1) and row < tail - 1:
                return xbar, None, []
            rows = [r for r, _ in pack]
            means = np.zeros((n_seeds, d, n + 1))
            means[:, :, :len(rows)] = np.stack([mean for _, mean in pack], axis=2)
            pack.clear()
            pack_vals, pack_grads = oracle.batch_objective_and_grads(means)
            for i, r in enumerate(rows):
                vals[:, n], grads[:, :, n] = pack_vals[:, i], pack_grads[:, :, i]
                record_mean(r, vals, grads)
            return xbar, None, rows
        stack = np.concatenate([X, xbar[:, :, None]], axis=2)
        vals[:], grads[:] = oracle.batch_objective_and_grads(stack)
        record_mean(row, vals, grads)
        if row >= tail:
            w_loss[:, row - tail] = vals[:, :m].sum(axis=1) / m
            w_grad_sq[:, row - tail] = np.einsum("sij,sij->s", grads[:, :, :m],
                                                 grads[:, :, :m]) / m
        return xbar, grads[:, :, :m] if reads else None, [row]

    def finite(row):
        """The (metrics, seeds) finiteness of the metrics recorded at `row`."""
        recorded = metrics[:, :, row]
        if row >= tail:
            recorded = np.concatenate([recorded, worker_metrics[:, :, row - tail]])
        return np.isfinite(recorded)

    with np.errstate(over="ignore", invalid="ignore"):
        xbar_prev, gw, _ = record(0)
        assert finite(0).all()
        alive = np.ones(n_seeds, dtype=bool)
        first_bad = np.full(n_seeds, K + 1)
        nonfinite = [()] * n_seeds
        defects = np.zeros((K + 1, n_seeds))  # row k: step k's defect
        G = np.zeros((n_seeds, d, n))
        for k in range(1, K + 1):
            G[:, :, :m] = sample(X[:, :, :m], gw)
            sync = k % config.tau == 0
            if config.rule == "post":
                X = X - eta * G
                X = np.matmul(X, W) if sync else X
            else:
                X = (np.matmul(X, W) if sync else X) - eta * G
            xbar, gw, recorded = record(k)
            predicted = xbar_prev - eta_t * (G[:, :, :m] @ worker_avg)
            defects[k] = np.abs(xbar - predicted).max(axis=1)
            xbar_prev = xbar
            newly_dead = np.zeros(n_seeds, dtype=bool)
            for row in recorded:
                fin = finite(row)
                dead = alive & ~newly_dead & ~fin.all(axis=0)
                first_bad[dead] = row
                for s in np.flatnonzero(dead):
                    nonfinite[s] = tuple(name for name, ok in zip(eng.METRIC_NAMES, fin[:, s])
                                         if not ok)
                newly_dead |= dead
            if newly_dead.any():
                X[newly_dead] = 0.0
                if gw is not None:
                    gw[newly_dead] = 0.0
                alive &= ~newly_dead
                if not alive.any():
                    break
        defects[np.arange(K + 1)[:, None] >= first_bad] = 0.0
        defect_max = defects.max(axis=0)
    return [eng.RunTrace(metrics=metrics[:, s, :first_bad[s]],
                         worker_metrics=worker_metrics[:, s, :max(0, first_bad[s] - tail)],
                         steps_requested=K, recursion_defect_max=float(defect_max[s]),
                         nonfinite=nonfinite[s])
            for s in range(n_seeds)]


class BlindOracle:
    """Passes every call through to `oracle`, except that its sampler reads no
    gradients (`sampler_reads_gradients` false, so `run_many` packs the
    evaluations before the tail): it evaluates them at the worker columns
    itself and hands them to the sampler of `oracle`."""

    sampler_reads_gradients = False

    def __init__(self, oracle):
        self._oracle = oracle

    def batch_gradient_sampler(self, rng_table, horizon):
        sample = self._oracle.batch_gradient_sampler(rng_table, horizon)

        def blind(Xw, grads):
            assert grads is None
            return sample(Xw, self._oracle.batch_objective_and_grads(Xw)[1])

        return blind

    def __getattr__(self, name):
        return getattr(self._oracle, name)
