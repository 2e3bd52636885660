"""Numerical references for mixing-matrix spectra, and test-only matrices.

The package caches zeta from one eigensolve and leaves zeta < 1 unenforced;
these helpers let the tests state the averaging assumption and check the
identity ||W^j - J||_op = zeta^j independently of that eigensolve. The
closed-form zeta of the bordered matrix, hierarchical coupling and
Sinkhorn-sampled random matrices exist only to exercise the package's
constructors and spectra.
"""

import numpy as np

from coopsgd.mixing import MixingError, MixingMatrix, as_mixing

ZETA_VALID_MARGIN = 1e-12


def is_valid(matrix: MixingMatrix) -> bool:
    """Whether repeated mixing contracts every disagreement mode (zeta < 1)."""
    return matrix.zeta < 1.0 - ZETA_VALID_MARGIN


def power_deviation_norm(matrix: MixingMatrix, power: int) -> float:
    """Operator norm of W^j - J, from an explicit matrix power."""
    j_proj = np.full((matrix.n, matrix.n), 1.0 / matrix.n)
    wj = np.linalg.matrix_power(matrix.entries, power)
    return float(np.linalg.norm(wj - j_proj, 2))


def generalized_elastic_zeta(zeta: float, m: int, alpha: float) -> float:
    """Closed-form zeta of the bordered matrix: max((1-a) zeta, |1-(m+1)a|)."""
    if not 0.0 <= zeta <= 1.0:
        raise MixingError("zeta must lie in [0, 1]")
    if m < 1:
        raise MixingError("generalized_elastic_zeta needs m >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise MixingError("closed form requires alpha in [0, 1]")
    return max((1.0 - alpha) * zeta, abs(1.0 - (m + 1) * alpha))


def make_hierarchical(group_sizes: list[int], alpha: float, inter: MixingMatrix) -> MixingMatrix:
    """Group-local elastic coupling plus mixing between group anchors.

    Workers appear first (group by group), followed by one auxiliary anchor
    per group. Inside group g each worker keeps 1-alpha and exchanges alpha
    with its anchor. Anchors mix among themselves through `inter`, scaled so
    every row still sums to one: off-diagonal anchor entries share the common
    factor min_g(1 - s_g*alpha) (symmetry requires a single scale) and each
    anchor diagonal absorbs the remainder. For equal group sizes s this is
    exactly (1 - s*alpha) * inter on the anchor block.
    """
    if len(group_sizes) == 0:
        raise MixingError("need at least one group")
    if any(s < 1 for s in group_sizes):
        raise MixingError("group sizes must be positive")
    if alpha < 0:
        raise MixingError("alpha must be nonnegative")
    g = len(group_sizes)
    if inter.n != g:
        raise MixingError(f"inter-group matrix is {inter.n}x{inter.n}, expected {g}x{g}")
    m = sum(group_sizes)
    n = m + g
    w = np.zeros((n, n))
    offsets = np.concatenate([[0], np.cumsum(group_sizes)])
    for gi, size in enumerate(group_sizes):
        lo, hi = offsets[gi], offsets[gi + 1]
        aux = m + gi
        for i in range(lo, hi):
            w[i, i] = 1.0 - alpha
            w[i, aux] = alpha
            w[aux, i] = alpha
    scale = min(1.0 - s * alpha for s in group_sizes)
    inter_e = inter.entries
    for gi in range(g):
        aux_i = m + gi
        off_total = 0.0
        for gj in range(g):
            if gj == gi:
                continue
            coupling = scale * inter_e[gi, gj]
            w[aux_i, m + gj] = coupling
            off_total += coupling
        w[aux_i, aux_i] = 1.0 - group_sizes[gi] * alpha - off_total
    return as_mixing(w)


def random_doubly_stochastic(n: int, rng: np.random.Generator, max_iters: int = 10_000) -> MixingMatrix:
    """Random symmetric doubly stochastic matrix via Sinkhorn balancing.

    Starts from a strictly positive symmetric seed, so the result is
    primitive and has zeta < 1. Iterates until the row-sum defect is below
    1e-13 to leave headroom under the 1e-12 construction tolerance.
    """
    if n < 1:
        raise MixingError("random_doubly_stochastic needs n >= 1")
    raw = rng.random((n, n)) + 0.1
    s = 0.5 * (raw + raw.T)
    for _ in range(max_iters):
        sums = s.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) < 1e-13:
            break
        scale = 1.0 / np.sqrt(sums)
        s = s * np.outer(scale, scale)
    else:
        raise MixingError("Sinkhorn balancing did not converge")
    s = 0.5 * (s + s.T)
    return as_mixing(s)
