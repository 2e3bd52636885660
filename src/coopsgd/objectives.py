"""Gradient oracles with known smoothness and noise constants.

Each oracle knows its exact (or certified) Lipschitz constant L, its noise
constants (beta, sigma_sq) in the contract

    E ||g(x) - grad F(x)||^2 <= beta ||grad F(x)||^2 + sigma_sq

and its infimum f_inf, so theoretical bounds can be evaluated with exact
inputs instead of estimated ones.

Each objective implements only the seed-batched pair that the engine runs
(see `GradientOracle`); the single-vector forms are views on a (1, d, 1)
stack, so tests and engine share one implementation of each objective.
The sampler receives the full gradients that the evaluation computed at the
same state, so a quadratic step makes no product with A of its own; a
sampler that does not read them (`sampler_reads_gradients` false, the
logistic one) receives None instead, and `run_many` packs the evaluations
that no step waits for.

The quadratic oracle adds isotropic Gaussian noise with total variance
exactly sigma_sq (per-coordinate sigma_sq/d), making the contract hold with
equality at beta = 0. A multiplicative mode (beta > 0) scales the full
gradient by (1 + sqrt(beta) u) with scalar standard normal u; it exists only
to exercise the general learning-rate condition.

Both samplers pre-draw their randomness through one block reader,
`_block_draws`, in which each (seed, worker) stream fills its own contiguous
slice in place; the quadratic one scales standard normals there, which gives
the values of `normal(0, scale)` except the sign of a zero draw. One rule
sizes every block: as many steps as NOISE_BUFFER_BYTES holds of its own
8-byte draws, normals or indices alike, and at least one. Each oracle class
states the bytes it holds in a run (`run_bytes`), its block included.

The logistic oracle works on label-signed features, so that no kernel pass
multiplies by the labels, and its evaluation runs in an N-major workspace it
keeps. Its ridge weight and batch size have no defaults here: the spec
reader in `coopsgd.cli` is the one place that fills in an omitted value.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


# Bytes of pre-drawn randomness (quadratic noise, logistic mini-batch
# indices) a sampler's block holds at once.
NOISE_BUFFER_BYTES = 2**20


def noise_block_steps(n_seeds: int, size: int, m: int, steps: int) -> int:
    """Steps per pre-drawn block of `size` 8-byte draws per (seed, worker)
    stream and step: as many as NOISE_BUFFER_BYTES holds, at least one and at
    most `steps`."""
    return min(steps, max(1, NOISE_BUFFER_BYTES // (8 * n_seeds * size * m)))


def _block_draws(rng_table, horizon: int, size: int, fill, dtype=float):
    """Yield each step's (seeds, m, size) draws from blocks of `noise_block_steps(seeds,
    size, m, steps left)` steps. Stream `rng_table[s][i]` fills its contiguous (steps,
    size) slice of the (seeds, m, steps, size) block in place with one `fill(rng, out)`,
    which must leave there the values one draw of `size` per step gives; step k reads
    the strided view `block[:, :, k]`."""
    n_seeds, m = len(rng_table), len(rng_table[0])
    left = horizon
    while True:
        count = noise_block_steps(n_seeds, size, m, max(left, 1))
        block = None  # let the spent block go before the next is allocated
        block = np.empty((n_seeds, m, count, size), dtype)
        for s, row in enumerate(rng_table):
            for i, rng in enumerate(row):
                fill(rng, block[s, i])
        for k in range(count):
            left -= 1
            yield block[:, :, k]


def _block_bytes(n_seeds: int, m: int, steps: int, size: int, copied: bool) -> int:
    """Bytes of `_block_draws`' block, and, where a fill draws into a temporary it
    then copies in (`copied`), of one stream's draw."""
    if not size:
        return 0
    return 8 * size * noise_block_steps(n_seeds, size, m, steps) * (n_seeds * m + copied)


def _gemm_over_seeds(M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """M Y[:, s] for every seed s of a (k, seeds, cols) Y, as one (r, k) @ (k,
    seeds * cols) GEMM, returned as a (seeds, r, cols) view. The reshape is
    free when Y's last two axes are contiguous together and copies Y otherwise."""
    k, n_seeds, cols = Y.shape
    return (M @ Y.reshape(k, n_seeds * cols)).reshape(-1, n_seeds, cols).transpose(1, 0, 2)


class OracleError(ValueError):
    """Raised for malformed oracle inputs."""


def _check_point(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise OracleError(f"expected a vector of dimension {d}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise OracleError("point contains non-finite values")
    return x


class GradientOracle:
    """Interface shared by all objectives.

    Subclasses implement the seed-batched pair: `batch_objective_and_grads`
    maps a (seeds, d, cols) stack to objective values (seeds, cols) and full
    gradients (seeds, d, cols), and `batch_gradient_sampler(rng_table,
    horizon)` returns a callable `sample(Xw, grads)` that maps the (seeds, d,
    m) worker columns `Xw` and their full gradients `grads`, as
    `batch_objective_and_grads` returned them, to a fresh array of stochastic
    gradients, for up to `horizon` calls, drawing from `rng_table[s][i]` for
    seed s and worker i. A sampler never writes to `grads`. One that ignores
    them (the logistic one differentiates its mini-batch at `Xw`) sets the
    class attribute `sampler_reads_gradients` false and accepts None for
    `grads`: `run_many` then evaluates the rows between row 0 and the tail,
    which no step waits for, at their column means alone, up to n + 1 rows
    per call, whose values may round in the last bits unlike one evaluation
    per row. The single-vector forms `objective_value`, `full_gradient` and
    `stochastic_gradient` validate one point and evaluate that pair on it.

    A stack may have any strides. `run_many` hands every call of a run the
    same (seeds, d, n + 1) view, the transpose of a d-major buffer it
    refills, so an oracle sizes a workspace once per run; an evaluation
    returns fresh arrays and keeps no reference to its input. On
    that layout a product over all seeds is one GEMM on a free reshape: the
    quadratic's A X as (d, d) @ (d, seeds * cols), which copies any other
    layout first, and the logistic gradient's Z^T coeff as (d, N) @ (N,
    seeds * cols) on its N-major workspace. The logistic margins Z W stay one
    GEMM per seed, written into that workspace through BLAS's ldc: as one
    (N, d) @ (d, seeds * cols) GEMM, BLAS picks another kernel and rounds
    them differently. Products of other shapes, or a dense A at other
    dimensions, may round in the last bits unlike one product per seed.
    """

    d: int
    lipschitz: float
    beta: float
    sigma_sq: float
    f_inf: float
    sampler_reads_gradients: bool = True

    def batch_objective_and_grads(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def batch_gradient_sampler(self, rng_table: list[list[np.random.Generator]], horizon: int):
        raise NotImplementedError

    def objective_value(self, x: np.ndarray) -> float:
        x = _check_point(x, self.d)
        return float(self.batch_objective_and_grads(x[None, :, None])[0][0, 0])

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        x = _check_point(x, self.d)
        return self.batch_objective_and_grads(x[None, :, None])[1][0, :, 0]

    def stochastic_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        X = _check_point(x, self.d)[None, :, None]
        grads = self.batch_objective_and_grads(X)[1]
        return self.batch_gradient_sampler([[rng]], 1)(X, grads)[0, :, 0]


class QuadraticProblem(GradientOracle):
    """F(x) = 0.5 x^T A x - b^T x with A symmetric positive semidefinite.

    L = lambda_max(A) exactly; f_inf = F(x*) at the least-squares stationary
    point A x* = b, solved on first use, or -inf when b leaves the range of A.

    Whether every entry of b is +0.0 is decided once, at construction; then
    the evaluation returns 0.5 x^T A x and A x without the b-terms, with the
    same bits: at a finite state the sum b^T x accumulates into a zeroed
    output and is +0.0, and y - (+0.0) = y for every y, -0.0 included. A
    state with an infinite or NaN entry stays non-finite either way. A b
    holding -0.0 keeps the b-terms, since -0.0 - (-0.0) is +0.0.
    """

    def __init__(self, A, b, sigma_sq: float = 0.0, beta: float = 0.0):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise OracleError(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise OracleError("b must match the dimension of A")
        with np.errstate(over="ignore"):  # asymmetric entries near 1e308: an inf defect
            if np.max(np.abs(A - A.T)) > 1e-12:
                raise OracleError("A must be symmetric")
        if sigma_sq < 0 or beta < 0:
            raise OracleError("noise constants must be nonnegative")
        eigvals = np.linalg.eigvalsh(A)
        if eigvals[0] < -1e-10:
            raise OracleError(f"A must be positive semidefinite (lambda_min {eigvals[0]:.3e})")
        self.A = A
        self.b = b
        self._b_terms = bool(b.any() or np.signbit(b).any())
        self.d = A.shape[0]
        self.lipschitz = float(eigvals[-1])
        self.beta = float(beta)
        self.sigma_sq = float(sigma_sq)
        self._noise_scale = np.sqrt(self.sigma_sq / self.d)

    @staticmethod
    def _noise_width(d: int, sigma_sq: float, beta: float) -> int:
        """Normals per stream and step: a factor's (beta > 0), then d additive ones."""
        return int(beta > 0.0) + (d if sigma_sq > 0.0 else 0)

    @staticmethod
    def run_bytes(d: int, sigma_sq: float, beta: float, n_seeds: int, n: int, m: int,
                  steps: int) -> int:
        """Bytes held in building the problem and in a run on n columns, m of
        them workers, from above: the matrix, and the larger of the symmetry
        check's two d x d temporaries and the run's holdings. Those are the
        sampler's block, and the evaluation's product and gradient, two
        (seeds, d, n + 1) arrays. A stack that is not d-major is first
        copied into d-major order, and that copy is freed once the product is
        made, before the gradient is; the sampler's one (seeds, d, m) result is
        made while no evaluation runs. Both fit in the place of these two."""
        width = QuadraticProblem._noise_width(d, sigma_sq, beta)
        return 8 * d * d + max(16 * d * d, _block_bytes(n_seeds, m, steps, width, False)
                               + 16 * n_seeds * d * (n + 1))

    @cached_property
    def f_inf(self) -> float:
        """F at the least-squares point x*, or -inf when the residual A x* - b
        exceeds rounding, 1e-9 (||A|| ||x*|| + ||b||): then b leaves the range
        of A, and F is unbounded below along the part it leaves by."""
        x_star, *_ = np.linalg.lstsq(self.A, self.b, rcond=None)
        residual = np.linalg.norm(self.A @ x_star - self.b)
        if residual > 1e-9 * (self.lipschitz * np.linalg.norm(x_star) + np.linalg.norm(self.b)):
            return -np.inf
        return float(0.5 * x_star @ (self.A @ x_star) - self.b @ x_star)

    def batch_objective_and_grads(self, X):
        ax = _gemm_over_seeds(self.A, X.transpose(1, 0, 2))
        vals = 0.5 * np.einsum("sij,sij->sj", X, ax)
        if not self._b_terms:
            return vals, ax
        return vals - np.einsum("i,sij->sj", self.b, X), ax - self.b[:, None]

    def batch_gradient_sampler(self, rng_table, horizon):
        """Vectorized sampler that applies noise to the given full gradients;
        per stream and step, `_block_draws` draws the multiplicative factor's
        normal (beta > 0), then the d additive ones. Each stream's slice is
        filled by `standard_normal` and scaled in place, which gives the values
        of `normal(0, scale)` except the sign of a zero draw."""
        width = self._noise_width(self.d, self.sigma_sq, self.beta)
        scale = self._noise_scale
        sqrt_beta = np.sqrt(self.beta)
        if self.beta > 0.0:
            scale = np.concatenate([[1.0], np.full(width - 1, scale)])

        def fill(rng, out):
            rng.standard_normal(out=out)
            out *= scale

        draws = _block_draws(rng_table, horizon, width, fill)

        def sample(Xw: np.ndarray, grads: np.ndarray) -> np.ndarray:
            if not width:
                return grads.copy()
            noise = next(draws).transpose(0, 2, 1)  # (seeds, width, m)
            if self.beta == 0.0:
                return grads + noise
            G = grads * (1.0 + sqrt_beta * noise[:, :1])
            if self.sigma_sq > 0.0:
                G += noise[:, 1:]
            return G

        return sample


class LogisticProblem(GradientOracle):
    """Ridge-regularized logistic regression on a fixed sample set.

    F(w) = mean_i log(1 + exp(-y_i x_i^T w)) + 0.5 l2 ||w||^2. The stochastic
    gradient averages a uniformly resampled mini-batch, so it is unbiased by
    construction. L is the exact maximum eigenvalue of the curvature bound
    X^T X / (4 N) + l2 I. sigma_sq is a certified Assumption-style bound
    (4 max_i ||x_i||^2 / batch with beta = 0), not an equality.

    Both kernels work on the label-signed features z_i = y_i x_i (`Z`, built
    on first use), which is exact because every label is +1 or -1: the
    margins are Z w, the loss's derivative in a margin m is -1 / (1 + e^m),
    and the gradient is Z^T of those coefficients, so no pass multiplies by
    the labels and the sampler gathers no labels.

    The sampler reads each step's mini-batch indices from `_block_draws`,
    one `integers(0, N, size=batch)` per stream and step, then gathers all
    mini-batches and differentiates them in one pass. f_inf is a certified
    lower bound on the infimum, computed on first use: 0 without
    regularization, since the loss is nonnegative, and otherwise the
    strong-convexity bound F(w) - ||grad F(w)||^2 / (2 l2) at the end of
    deterministic full-gradient descent run to gradient norm below 1e-10.

    `batch_objective_and_grads` runs in a workspace of three N-major (N,
    seeds, cols) arrays kept on the oracle and reallocated only when the
    stack's shape changes, so once per run; the values and gradients it
    returns are fresh arrays. The sample mean of the losses is one sum over
    the workspace's sample axis: numpy adds the samples in order, one (seeds,
    cols) row at a time, and on a single (1, d, 1) point, where that axis is
    contiguous, pairwise.
    """

    sampler_reads_gradients = False

    def __init__(self, features, labels, l2_reg: float, batch_size: int):
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if X.ndim != 2:
            raise OracleError("features must be a 2-d array")
        if y.shape != (X.shape[0],):
            raise OracleError("labels must match the number of samples")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise OracleError("labels must be +1 or -1")
        if l2_reg < 0:
            raise OracleError("l2_reg must be nonnegative")
        if not 1 <= batch_size <= X.shape[0]:
            raise OracleError("batch_size must be in [1, n_samples]")
        self.X = X
        self.y = y
        self.n_samples, self.d = X.shape
        self.l2_reg = float(l2_reg)
        self.batch_size = int(batch_size)
        gram = X.T @ X / (4.0 * self.n_samples)
        self.lipschitz = float(np.linalg.eigvalsh(gram)[-1]) + self.l2_reg
        self.beta = 0.0
        self.sigma_sq = 4.0 * float(np.max(np.einsum("ij,ij->i", X, X))) / self.batch_size
        self._work = None  # margins, losses, coeff of the last evaluated shape

    @staticmethod
    def synthetic(n_samples: int, d: int, seed: int, l2_reg: float,
                  batch_size: int) -> "LogisticProblem":
        """Reproducible planted-separator data: normal features, 10% label flips."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_samples, d))
        w_true = rng.standard_normal(d)
        y = np.sign(X @ w_true)
        y[y == 0] = 1.0
        flips = rng.random(n_samples) < 0.1
        y[flips] *= -1.0
        return LogisticProblem(X, y, l2_reg=l2_reg, batch_size=batch_size)

    @staticmethod
    def run_bytes(n_samples: int, d: int, batch_size: int, n_seeds: int, n: int, m: int,
                  steps: int) -> int:
        """Bytes held in a run, from above: the data with its label-signed
        copy, the sampler's block of 8-byte indices, `batch` per stream and
        step (its `integers` fill draws into a temporary), the evaluation's
        N-major workspace of three (N, seeds, n + 1) arrays, a step's
        mini-batches with four temporaries and two (seeds, d, n + 1) arrays.
        A batch over n_samples, which building rejects, counts as n_samples."""
        batch = min(batch_size, n_samples)
        return (8 * n_samples * (2 * d + 1)
                + _block_bytes(n_seeds, m, steps, batch, True)
                + 8 * n_seeds * ((n + 1) * (2 * d + 3 * n_samples) + m * batch * (d + 4)))

    @cached_property
    def Z(self) -> np.ndarray:
        """The label-signed features y_i x_i as an (N, d) array."""
        return self.y[:, None] * self.X

    @cached_property
    def f_inf(self) -> float:
        if self.l2_reg == 0.0:
            return 0.0
        w = np.zeros((1, self.d, 1))
        step = 1.0 / self.lipschitz
        for _ in range(500_000):
            vals, g = self.batch_objective_and_grads(w)
            grad_norm = np.linalg.norm(g)
            if grad_norm < 1e-10:
                break
            w = w - step * g
        return float(vals[0, 0] - grad_norm**2 / (2.0 * self.l2_reg))

    def batch_objective_and_grads(self, W):
        n_seeds, _, cols = W.shape
        shape = (self.n_samples, n_seeds, cols)
        if self._work is None or self._work[0].shape != shape:
            self._work = None  # let the old workspace go before the new one is allocated
            self._work = tuple(np.empty(shape) for _ in range(3))
        margins, losses, coeff = self._work
        # one (N, d) @ (d, cols) GEMM per seed, written in place through BLAS's ldc
        np.matmul(self.Z, W, out=margins.transpose(1, 0, 2))
        # log(1 + e^-m) without overflow, as log1p(e^-|m|) - min(m, 0)
        np.abs(margins, out=losses)
        np.negative(losses, out=losses)
        np.exp(losses, out=losses)
        np.log1p(losses, out=losses)
        np.minimum(margins, 0.0, out=coeff)
        losses -= coeff
        vals = losses.sum(axis=0)
        vals /= self.n_samples
        vals += 0.5 * self.l2_reg * np.einsum("sij,sij->sj", W, W)
        # d/dm log(1 + e^-m) = -1 / (1 + e^m)
        np.exp(margins, out=coeff)
        coeff += 1.0
        np.divide(-1.0, coeff, out=coeff)
        grads = _gemm_over_seeds(self.Z.T, coeff) / self.n_samples + self.l2_reg * W
        return vals, grads

    def batch_gradient_sampler(self, rng_table, horizon):
        """Vectorized sampler that differentiates its mini-batch at the worker
        columns and ignores their full gradients, which may be None."""
        batch = self.batch_size

        def fill(rng, out):
            out[...] = rng.integers(0, self.n_samples, size=out.shape)

        draws = _block_draws(rng_table, horizon, batch, fill, np.int64)

        def sample(Ww: np.ndarray, grads: np.ndarray | None) -> np.ndarray:
            zb = self.Z[next(draws)]  # (seeds, m, batch, d)
            w = Ww.transpose(0, 2, 1)[..., None]  # (seeds, m, d, 1)
            coeff = -1.0 / (1.0 + np.exp(np.matmul(zb, w)))
            g = np.matmul(zb.transpose(0, 1, 3, 2), coeff)[..., 0]
            return g.transpose(0, 2, 1) / batch + self.l2_reg * Ww

        return sample
