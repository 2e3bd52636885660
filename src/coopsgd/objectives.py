"""Gradient oracles with known smoothness and noise constants.

Each oracle knows its exact (or certified) Lipschitz constant L, its noise
constants (beta, sigma_sq) in the contract

    E ||g(x) - grad F(x)||^2 <= beta ||grad F(x)||^2 + sigma_sq

and its infimum f_inf, so theoretical bounds can be evaluated with exact
inputs instead of estimated ones.

The quadratic oracle adds isotropic Gaussian noise with total variance
exactly sigma_sq (per-coordinate sigma_sq/d), making the contract hold with
equality at beta = 0. A multiplicative mode (beta > 0) scales the full
gradient by (1 + sqrt(beta) u) with scalar standard normal u; it exists only
to exercise the general learning-rate condition.
"""

from __future__ import annotations

import numpy as np


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

    Subclasses implement the single-vector forms `objective_value`,
    `full_gradient` and `stochastic_gradient`. The simulation engine runs many
    seeds of one configuration as a stacked (seeds, d, cols) system and calls
    only the seed-batched pair `batch_objective_and_grads` and
    `batch_gradient_sampler`; their defaults here loop over the single-vector
    forms, and subclasses override them with vectorized math where it pays off.
    """

    d: int
    lipschitz: float
    beta: float
    sigma_sq: float
    f_inf: float

    def objective_value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stochastic_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def batch_objective_and_grads(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective values (seeds, cols) and full gradients (seeds, d, cols)."""
        vals = np.empty(X.shape[:1] + X.shape[2:])
        grads = np.empty_like(X)
        for s in range(X.shape[0]):
            for i in range(X.shape[2]):
                vals[s, i] = self.objective_value(X[s, :, i])
                grads[s, :, i] = self.full_gradient(X[s, :, i])
        return vals, grads

    def batch_gradient_sampler(self, rng_table: list[list[np.random.Generator]], horizon: int):
        """Callable (seeds, d, m) -> stochastic gradients, one rng per (seed, worker)."""

        def sample(Xw: np.ndarray) -> np.ndarray:
            G = np.empty_like(Xw)
            for s in range(Xw.shape[0]):
                for i in range(Xw.shape[2]):
                    G[s, :, i] = self.stochastic_gradient(Xw[s, :, i], rng_table[s][i])
            return G

        return sample


class QuadraticProblem(GradientOracle):
    """F(x) = 0.5 x^T A x - b^T x with A symmetric positive semidefinite.

    L = lambda_max(A) exactly; f_inf = F(x*) at the least-squares stationary
    point A x* = b.
    """

    def __init__(self, A, b, sigma_sq: float = 0.0, beta: float = 0.0):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise OracleError(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise OracleError("b must match the dimension of A")
        if np.max(np.abs(A - A.T)) > 1e-12:
            raise OracleError("A must be symmetric")
        if sigma_sq < 0 or beta < 0:
            raise OracleError("noise constants must be nonnegative")
        eigvals = np.linalg.eigvalsh(A)
        if eigvals[0] < -1e-10:
            raise OracleError(f"A must be positive semidefinite (lambda_min {eigvals[0]:.3e})")
        self.A = A
        self.b = b
        self.d = A.shape[0]
        self.lipschitz = float(eigvals[-1])
        self.beta = float(beta)
        self.sigma_sq = float(sigma_sq)
        x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        self.minimizer = x_star
        self.f_inf = float(0.5 * x_star @ (A @ x_star) - b @ x_star)
        self._noise_scale = np.sqrt(self.sigma_sq / self.d)

    def objective_value(self, x) -> float:
        x = _check_point(x, self.d)
        return float(0.5 * x @ (self.A @ x) - self.b @ x)

    def full_gradient(self, x) -> np.ndarray:
        x = _check_point(x, self.d)
        return self.A @ x - self.b

    def stochastic_gradient(self, x, rng) -> np.ndarray:
        g = self.full_gradient(x)
        if self.beta > 0.0:
            g = g * (1.0 + np.sqrt(self.beta) * rng.standard_normal())
        if self.sigma_sq > 0.0:
            g = g + rng.normal(0.0, self._noise_scale, size=self.d)
        return g

    def batch_objective_and_grads(self, X):
        ax = np.matmul(self.A, X)
        vals = 0.5 * np.einsum("sij,sij->sj", X, ax) - np.einsum("i,sij->sj", self.b, X)
        return vals, ax - self.b[:, None]

    def batch_gradient_sampler(self, rng_table, horizon, chunk_size: int = 256):
        """Vectorized sampler; additive noise is pre-drawn in blocks.

        Each (seed, worker) stream still produces exactly the values that
        per-step draws would, since block draws consume the stream in the
        same order. The multiplicative mode keeps the generic per-call path.
        """
        if self.beta > 0.0:
            return super().batch_gradient_sampler(rng_table, horizon)
        n_seeds = len(rng_table)
        m = len(rng_table[0])
        state = {"buf": None, "pos": 0, "left": horizon}

        def refill():
            count = min(chunk_size, max(state["left"], 1))
            buf = np.empty((count, n_seeds, self.d, m))
            for s in range(n_seeds):
                for i in range(m):
                    buf[:, s, :, i] = rng_table[s][i].normal(0.0, self._noise_scale,
                                                             size=(count, self.d))
            state["buf"], state["pos"] = buf, 0

        def sample(Xw: np.ndarray) -> np.ndarray:
            G = np.matmul(self.A, Xw) - self.b[:, None]
            if self.sigma_sq > 0.0:
                if state["buf"] is None or state["pos"] >= state["buf"].shape[0]:
                    refill()
                G += state["buf"][state["pos"]]
                state["pos"] += 1
                state["left"] -= 1
            return G

        return sample

    def to_dict(self) -> dict:
        return {
            "type": "quadratic",
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "sigma_sq": self.sigma_sq,
            "beta": self.beta,
        }


def make_diag_quadratic(d: int, lambda_min: float = 0.1, lambda_max: float = 1.0,
                        sigma_sq: float = 0.0, beta: float = 0.0) -> QuadraticProblem:
    """Diagonal quadratic with eigenvalues spread linearly over [lo, hi]."""
    if d < 1:
        raise OracleError("dimension must be positive")
    spectrum = np.linspace(lambda_min, lambda_max, d) if d > 1 else np.array([lambda_max])
    return QuadraticProblem(np.diag(spectrum), np.zeros(d), sigma_sq=sigma_sq, beta=beta)


class LogisticProblem(GradientOracle):
    """Ridge-regularized logistic regression on a fixed sample set.

    F(w) = mean_i log(1 + exp(-y_i x_i^T w)) + 0.5 l2 ||w||^2. The stochastic
    gradient averages a uniformly resampled mini-batch, so it is unbiased by
    construction. L is the exact maximum eigenvalue of the curvature bound
    X^T X / (4 N) + l2 I. sigma_sq is a certified Assumption-style bound
    (4 max_i ||x_i||^2 / batch with beta = 0), not an equality.

    f_inf is computed once at construction by deterministic full-gradient
    descent run to gradient norm below 1e-10.
    """

    def __init__(self, features, labels, l2_reg: float = 0.0, batch_size: int = 1,
                 _spec: dict | None = None):
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
        self._spec = _spec
        gram = X.T @ X / (4.0 * self.n_samples)
        self.lipschitz = float(np.linalg.eigvalsh(gram)[-1]) + self.l2_reg
        self.beta = 0.0
        self.sigma_sq = 4.0 * float(np.max(np.einsum("ij,ij->i", X, X))) / self.batch_size
        self.f_inf = self._minimize()

    @staticmethod
    def synthetic(n_samples: int, d: int, seed: int, l2_reg: float = 0.01,
                  batch_size: int = 8, flip_fraction: float = 0.1) -> "LogisticProblem":
        """Reproducible planted-separator data: normal features, 10% label flips."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_samples, d))
        w_true = rng.standard_normal(d)
        y = np.sign(X @ w_true)
        y[y == 0] = 1.0
        flips = rng.random(n_samples) < flip_fraction
        y[flips] *= -1.0
        spec = {"type": "logistic", "n": n_samples, "d": d, "seed": seed,
                "l2": l2_reg, "batch": batch_size}
        return LogisticProblem(X, y, l2_reg=l2_reg, batch_size=batch_size, _spec=spec)

    def _minimize(self, tol: float = 1e-10, max_iters: int = 500_000) -> float:
        w = np.zeros(self.d)
        step = 1.0 / self.lipschitz
        for _ in range(max_iters):
            g = self.full_gradient(w)
            if np.linalg.norm(g) < tol:
                break
            w = w - step * g
        return self.objective_value(w)

    def objective_value(self, w) -> float:
        w = _check_point(w, self.d)
        margins = self.y * (self.X @ w)
        losses = np.logaddexp(0.0, -margins)
        return float(losses.mean() + 0.5 * self.l2_reg * (w @ w))

    def full_gradient(self, w) -> np.ndarray:
        w = _check_point(w, self.d)
        margins = self.y * (self.X @ w)
        # d/dm log(1+e^-m) = -sigmoid(-m)
        coeff = -self.y / (1.0 + np.exp(margins))
        return self.X.T @ coeff / self.n_samples + self.l2_reg * w

    def stochastic_gradient(self, w, rng) -> np.ndarray:
        w = _check_point(w, self.d)
        idx = rng.integers(0, self.n_samples, size=self.batch_size)
        xb, yb = self.X[idx], self.y[idx]
        margins = yb * (xb @ w)
        coeff = -yb / (1.0 + np.exp(margins))
        return xb.T @ coeff / self.batch_size + self.l2_reg * w

    def to_dict(self) -> dict:
        if self._spec is None:
            raise OracleError("only synthetic logistic problems serialize to JSON")
        return dict(self._spec)


def oracle_from_dict(payload: dict) -> GradientOracle:
    """Build an oracle from its JSON dict form; unknown fields are errors."""
    if "type" not in payload:
        raise OracleError("problem payload requires a 'type' field")
    kind = payload["type"]
    if kind == "quadratic":
        allowed = {"type", "A", "b", "sigma_sq", "beta"}
        unknown = set(payload) - allowed
        if unknown:
            raise OracleError(f"unknown quadratic fields: {sorted(unknown)}")
        if "A" not in payload or "b" not in payload:
            raise OracleError("quadratic payload requires 'A' and 'b'")
        return QuadraticProblem(payload["A"], payload["b"],
                                sigma_sq=float(payload.get("sigma_sq", 0.0)),
                                beta=float(payload.get("beta", 0.0)))
    if kind == "logistic":
        allowed = {"type", "n", "d", "seed", "l2", "batch"}
        unknown = set(payload) - allowed
        if unknown:
            raise OracleError(f"unknown logistic fields: {sorted(unknown)}")
        missing = {"n", "d", "seed"} - set(payload)
        if missing:
            raise OracleError(f"logistic payload missing fields: {sorted(missing)}")
        return LogisticProblem.synthetic(int(payload["n"]), int(payload["d"]),
                                         int(payload["seed"]),
                                         l2_reg=float(payload.get("l2", 0.01)),
                                         batch_size=int(payload.get("batch", 8)))
    raise OracleError(f"unknown problem type: {kind!r}")
