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
