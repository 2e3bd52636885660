"""Reference transcriptions of the oracles' batched evaluations, the logistic
sampler, the diagonal quadratic that most tests run, and a dense rotated one.

`reference_quadratic_objective_and_grads` makes one product A X[s] per seed
on a C-ordered copy of the stack, where `QuadraticProblem` makes one GEMM
over all seeds on the d-major layout; `d_major` gives a stack that layout.

`reference_logistic_objective_and_grads` evaluates the objective values and
full gradients with one freshly allocated array per operation, the formula
that `LogisticProblem.batch_objective_and_grads` evaluates in place in its
workspace. `reference_logistic_sampler` draws one `integers(0, N,
size=batch)` per (seed, worker) stream and step, where the package's sampler
draws each stream's indices in blocks of steps. The tests require the
package to match both bit for bit.
"""

import numpy as np

from coopsgd.objectives import OracleError, QuadraticProblem


def d_major(X: np.ndarray) -> np.ndarray:
    """The (seeds, d, cols) view of a (d, seeds, cols) copy of X, the layout
    `run_many` evaluates."""
    return np.ascontiguousarray(X.transpose(1, 0, 2)).transpose(1, 0, 2)


def reference_quadratic_objective_and_grads(problem, X: np.ndarray):
    """Values (seeds, cols) and gradients (seeds, d, cols) of a (seeds, d, cols) stack."""
    X = np.ascontiguousarray(X)
    ax = np.matmul(problem.A, X)
    vals = 0.5 * np.einsum("sij,sij->sj", X, ax) - np.einsum("i,sij->sj", problem.b, X)
    return vals, ax - problem.b[:, None]


def reference_logistic_objective_and_grads(problem, W: np.ndarray):
    """Values (seeds, cols) and gradients (seeds, d, cols) of a (seeds, d, cols) stack."""
    margins = problem.y[:, None] * np.matmul(problem.X, W)  # (seeds, N, cols)
    losses = np.log1p(np.exp(-np.abs(margins))) + np.maximum(-margins, 0.0)
    reg = 0.5 * problem.l2_reg * np.einsum("sij,sij->sj", W, W)
    coeff = -problem.y[:, None] / (1.0 + np.exp(margins))
    grads = np.matmul(problem.X.T, coeff) / problem.n_samples + problem.l2_reg * W
    return losses.mean(axis=1) + reg, grads


def reference_logistic_sampler(problem, rng_table):
    """Stochastic gradients of (seeds, d, m) worker columns, one draw per stream
    and step; like the package's sampler, it ignores the full gradients."""
    def sample(Ww: np.ndarray, grads: np.ndarray) -> np.ndarray:
        idx = np.array([[rng.integers(0, problem.n_samples, size=problem.batch_size)
                         for rng in row] for row in rng_table])  # (seeds, m, batch)
        xb, yb = problem.X[idx], problem.y[idx]
        w = Ww.transpose(0, 2, 1)[..., None]  # (seeds, m, d, 1)
        margins = yb * np.matmul(xb, w)[..., 0]
        coeff = -yb / (1.0 + np.exp(margins))
        g = np.matmul(xb.transpose(0, 1, 3, 2), coeff[..., None])[..., 0]
        return g.transpose(0, 2, 1) / problem.batch_size + problem.l2_reg * Ww

    return sample


def make_diag_quadratic(d: int, lambda_min: float = 0.1, lambda_max: float = 1.0,
                        sigma_sq: float = 0.0, beta: float = 0.0) -> QuadraticProblem:
    """Diagonal quadratic with eigenvalues spread linearly over [lo, hi]."""
    if d < 1:
        raise OracleError("dimension must be positive")
    spectrum = np.linspace(lambda_min, lambda_max, d) if d > 1 else np.array([lambda_max])
    return QuadraticProblem(np.diag(spectrum), np.zeros(d), sigma_sq=sigma_sq, beta=beta)


def make_rotated_quadratic(d: int, lambda_min: float, lambda_max: float, seed: int,
                           sigma_sq: float = 0.0) -> QuadraticProblem:
    """Dense quadratic Q diag(spectrum) Q^T, with the spectrum of
    `make_diag_quadratic` and the rotation Q drawn from `seed`."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = basis @ np.diag(np.linspace(lambda_min, lambda_max, d)) @ basis.T
    return QuadraticProblem(0.5 * (a + a.T), np.zeros(d), sigma_sq=sigma_sq)
