"""Numerical references for mixing-matrix spectra.

The package caches zeta from one eigensolve and leaves zeta < 1 unenforced;
these helpers let the tests state the averaging assumption and check the
identity ||W^j - J||_op = zeta^j independently of that eigensolve.
"""

import numpy as np

from coopsgd.mixing import MixingMatrix

ZETA_VALID_MARGIN = 1e-12


def is_valid(matrix: MixingMatrix) -> bool:
    """Whether repeated mixing contracts every disagreement mode (zeta < 1)."""
    return matrix.zeta < 1.0 - ZETA_VALID_MARGIN


def power_deviation_norm(matrix: MixingMatrix, power: int) -> float:
    """Operator norm of W^j - J, from an explicit matrix power."""
    j_proj = np.full((matrix.n, matrix.n), 1.0 / matrix.n)
    wj = np.linalg.matrix_power(matrix.entries, power)
    return float(np.linalg.norm(wj - j_proj, 2))
