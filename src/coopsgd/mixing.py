"""Mixing matrices for consensus averaging: constructors and spectral analysis.

A mixing matrix is a symmetric real matrix whose rows sum to one. The key
quantity everywhere is zeta, the second largest eigenvalue magnitude

    zeta = max(|lambda_2|, |lambda_n|)        (eigenvalues sorted by value)

which controls how quickly repeated mixing contracts disagreement between
nodes: ||W^j - J||_op = zeta^j for the all-ones projector J. A matrix is
usable for averaging only when zeta < 1; zeta = 0 means one round of mixing
reaches exact consensus (W = J), zeta = 1 means some disagreement mode never
contracts (e.g. W = I).

All constructors return immutable `MixingMatrix` values with zeta cached
from a dense symmetric eigensolve, so it can never go stale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-12
MAX_NODES = 256


class MixingError(ValueError):
    """Raised for malformed or dimensionally inconsistent mixing matrices."""


def _second_largest_abs_eigenvalue(entries: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(entries)  # ascending
    if vals.size == 1:
        return 0.0
    return float(max(abs(vals[0]), abs(vals[-2])))


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric matrix with unit row sums and its cached spectral quantity.

    `zeta` is always the numerically computed second largest absolute
    eigenvalue; values >= 1 are kept as-is and simply mark the matrix as
    unusable for consensus.
    """

    entries: np.ndarray
    n: int
    zeta: float


def as_mixing(entries) -> MixingMatrix:
    """Wrap a raw square array, enforcing symmetry and unit row sums.

    Defects beyond 1e-12 are construction errors, each named in the
    `MixingError`; the zeta < 1 condition is deliberately not enforced here.
    """
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MixingError(f"mixing matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise MixingError("mixing matrix must have at least one node")
    if arr.shape[0] > MAX_NODES:
        raise MixingError(f"mixing matrix larger than {MAX_NODES} nodes is unsupported")
    if not np.isfinite(arr).all():
        raise MixingError("mixing matrix entries must be finite")
    # entries near 1e308 overflow to an inf (or NaN) defect, which must fail the check
    with np.errstate(over="ignore", invalid="ignore"):
        sym_defect = float(np.max(np.abs(arr - arr.T)))
        row_defect = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
    if not sym_defect <= SYMMETRY_TOL:
        raise MixingError(f"matrix is not symmetric (max defect {sym_defect:.3e})")
    if not row_defect <= ROW_SUM_TOL:
        raise MixingError(f"row sums deviate from 1 (max defect {row_defect:.3e})")
    arr = arr.copy()
    arr.setflags(write=False)
    return MixingMatrix(entries=arr, n=arr.shape[0], zeta=_second_largest_abs_eigenvalue(arr))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_fully_connected(n: int) -> MixingMatrix:
    """Uniform averaging matrix J with every entry 1/n (zeta = 0)."""
    if n < 1:
        raise MixingError("fully connected matrix needs n >= 1")
    return as_mixing(np.full((n, n), 1.0 / n))


def make_identity(n: int) -> MixingMatrix:
    """No-communication matrix (zeta = 1 for n >= 2, invalid for averaging)."""
    if n < 1:
        raise MixingError("identity matrix needs n >= 1")
    return as_mixing(np.eye(n))


def make_generalized_elastic(base: MixingMatrix, alpha: float) -> MixingMatrix:
    """Attach one globally connected auxiliary node to an m-node matrix.

    Block form [[(1-a) W, a 1], [a 1^T, 1 - m a]]. The auxiliary pulls all
    nodes toward a common anchor, which strictly shrinks zeta for the right
    alpha (see `best_generalized_elastic_alpha`). Whether the result is usable
    (zeta < 1) depends on alpha and is not enforced here.
    """
    if alpha < 0:
        raise MixingError("alpha must be nonnegative")
    m = base.n
    w = np.zeros((m + 1, m + 1))
    w[:m, :m] = (1.0 - alpha) * base.entries
    w[:m, m] = alpha
    w[m, :m] = alpha
    w[m, m] = 1.0 - m * alpha
    return as_mixing(w)


def make_easgd(m: int, alpha: float) -> MixingMatrix:
    """Elastic averaging: the bordered matrix over W = I_m.

    Workers keep weight 1-alpha on themselves and exchange alpha with the
    anchor, which keeps 1 - m*alpha.
    """
    return make_generalized_elastic(make_identity(m), alpha)


def best_easgd_alpha(m: int) -> tuple[float, float]:
    """Elasticity minimizing zeta: the bordered optimum at the zeta of I_m.

    I_m has zeta 1 (0 for m = 1, which has no non-leading eigenvalue), so
    alpha* = 2/(m+2) and zeta* = m/(m+2) for m >= 2, and (1/2, 0) for m = 1.
    """
    return best_generalized_elastic_alpha(1.0 if m > 1 else 0.0, m)


def best_generalized_elastic_alpha(zeta: float, m: int) -> tuple[float, float]:
    """Alpha equalizing both branches: a* = (1+z)/(m+1+z), zeta' = m z/(m+1+z)."""
    if not 0.0 <= zeta <= 1.0:
        raise MixingError("zeta must lie in [0, 1]")
    if m < 1:
        raise MixingError(f"the elastic optimum needs m >= 1, got {m}")
    alpha = (1.0 + zeta) / (m + 1.0 + zeta)
    return alpha, m * zeta / (m + 1.0 + zeta)


def make_ring(m: int) -> MixingMatrix:
    """Ring topology with weight 1/3 on self and each of the two neighbors."""
    if m < 3:
        raise MixingError("ring needs m >= 3 nodes")
    w = np.zeros((m, m))
    third = 1.0 / 3.0
    for i in range(m):
        w[i, i] += third
        w[i, (i + 1) % m] += third
        w[i, (i - 1) % m] += third
    return as_mixing(w)


def make_dense_with_zeta(m: int, zeta: float) -> MixingMatrix:
    """Dense matrix with a prescribed zeta: (1-z) J + z I.

    All eigenvalues except the leading 1 equal z exactly, which makes this
    the simplest way to realize an arbitrary spectral target.
    """
    if m < 1:
        raise MixingError("make_dense_with_zeta needs m >= 1")
    if not 0.0 <= zeta <= 1.0:
        raise MixingError("zeta must lie in [0, 1]")
    w = (1.0 - zeta) * np.full((m, m), 1.0 / m) + zeta * np.eye(m)
    return as_mixing(w)
