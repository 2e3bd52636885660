"""Exact expectations of the engine's metrics, for the acceptance tests.

On a quadratic with additive Gaussian gradient noise one update of
X <- (X - eta G) W_k is linear in the state and the noise, so the expected
metrics follow exact recursions: the per-eigendirection analysis of the
noisy quadratic model (Zhang et al., arXiv 1907.04164) applied to the
update rule of Cooperative SGD (arXiv 1808.07576, Sec. 3).
"""

import numpy as np


def post_network_error(spectrum, sigma_sq: float, m: int, tau: int, zeta: float,
                       eta: float, steps: int) -> np.ndarray:
    """E network_error_k for k = 0..steps: the post rule with v = 0 on the
    diagonal A = diag(spectrum) under isotropic additive noise of total
    variance sigma_sq, with W = (1 - zeta) J + zeta I on sync steps (k
    divisible by tau), from m columns that start equal.

    Every non-leading eigenvalue of W is zeta, so the spread X (I - J) has
    m - 1 independent components per coordinate i, each of variance q_i.
    Every step does q <- (1 - eta lambda_i)^2 q + eta^2 sigma_sq / d, and
    each sync step then does q <- zeta^2 q; E network_error_k is
    (m - 1) sum_i q_i,k.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    decay = (1.0 - eta * spectrum) ** 2
    noise = eta ** 2 * sigma_sq / spectrum.size
    q = np.zeros_like(spectrum)
    expected = np.zeros(steps + 1)
    for k in range(1, steps + 1):
        q = decay * q + noise
        if k % tau == 0:
            q *= zeta ** 2
        expected[k] = (m - 1) * q.sum()
    return expected


def network_error(spectrum, sigma_sq: float, entries, v: int, tau: int, rule: str,
                  eta: float, steps: int, x0: float) -> np.ndarray:
    """E network_error_k for k = 0..steps: either rule, any symmetric W
    (`entries`, n x n) whose last v columns are auxiliaries, on the diagonal
    A = diag(spectrum) with b = 0 under isotropic additive noise of total
    variance sigma_sq, from columns that all start at the scalar x0.

    Coordinate i of the state is a row x of n entries, and one step maps it
    to x M - eta xi N, where xi holds the workers' noise (variance s^2 =
    sigma_sq / d each) and P masks the worker columns: M = (I - eta lambda_i
    P) W_k and N = P W_k under the post rule, M = W_k - eta lambda_i P and
    N = P under the pre rule, with W_k = W on sync steps and I otherwise. So
    the row's mean follows mu <- mu M and its covariance C <- M^T C M +
    eta^2 s^2 N^T N, and E network_error_k is the sum over coordinates of
    ||mu (I - J)||^2 + tr(C (I - J)), where J averages all n columns as the
    engine does. Auxiliaries take no gradient step, so their mean lags the
    workers' and the dispersion has a deterministic part.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    W = np.asarray(entries, dtype=float)
    d, n = spectrum.size, W.shape[0]
    eye = np.eye(n)
    P = np.diag([1.0] * (n - v) + [0.0] * v)
    lam_P = spectrum[:, None, None] * P  # (d, n, n)
    center = eye - 1.0 / n
    noise = eta ** 2 * sigma_sq / d

    def step_maps(Wk):
        if rule == "post":
            M, N = (eye - eta * lam_P) @ Wk, P @ Wk
        else:
            M, N = Wk - eta * lam_P, P
        return M, M.transpose(0, 2, 1), noise * N.T @ N

    local, sync = step_maps(eye), step_maps(W)
    mu = np.full((d, n), float(x0))
    C = np.zeros((d, n, n))
    expected = np.zeros(steps + 1)
    for k in range(1, steps + 1):
        M, Mt, Q = sync if k % tau == 0 else local
        mu = np.einsum("ij,ijk->ik", mu, M)
        C = Mt @ C @ M + Q
        spread = mu @ center
        expected[k] = np.sum(spread * spread) + np.einsum("ijk,kj->", C, center)
    return expected
