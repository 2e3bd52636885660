"""Specialised convergence bounds, transcribed as the paper states them.

Each function writes out one special case of the general bound in its own
closed form: periodic averaging (zeta = 0, v = 0), decentralized SGD
(tau = 1, v = 0), elastic averaging at the optimal elasticity (tau = 1,
v = 1, zeta = m/(m+2)) and the horizon-tuned step of Corollary 1. The
package keeps only `theory.theorem1_bound`; criterion 09 checks it against
these transcriptions. Related analyses of the same special cases: Stich,
arXiv:1805.09767 (local SGD); Lian et al., arXiv:1705.09056 (decentralized
SGD); Zhang et al., arXiv:1412.6651 (elastic averaging).

`empirical_decomposition_bound` is Lemma 3's form of the general bound, with
the network term measured on a trace instead of bounded.
"""

from dataclasses import dataclass

import numpy as np

from coopsgd.engine import RunTrace
from coopsgd.theory import BoundInputs, TheoryError


def pasgd_bound(f1_minus_finf: float, lipschitz: float, sigma_sq: float,
                m: int, tau: int, eta: float, steps: int) -> tuple[bool, float]:
    """Periodic averaging.

    Condition eta L + eta^2 L^2 tau (tau - 1) <= 1; bound
    2 (F1-Finf)/(eta K) + eta L sigma_sq / m + eta^2 L^2 sigma_sq (tau - 1).
    """
    lhs = eta * lipschitz + eta ** 2 * lipschitz ** 2 * tau * (tau - 1.0)
    bound = (2.0 * f1_minus_finf / (eta * steps)
             + eta * lipschitz * sigma_sq / m
             + eta ** 2 * lipschitz ** 2 * sigma_sq * (tau - 1.0))
    return bool(lhs <= 1.0), float(bound)


def dpsgd_bound(f1_minus_finf: float, lipschitz: float, sigma_sq: float,
                m: int, zeta: float, eta: float, steps: int) -> tuple[bool, float]:
    """Decentralized SGD.

    Condition eta L + eta^2 L^2 (2 zeta/(1-zeta)) (zeta/(1+zeta) + 1/(1-zeta)) <= 1;
    bound 2 (F1-Finf)/(eta K) + eta L sigma_sq/m
    + eta^2 L^2 sigma_sq 2 zeta^2/(1-zeta^2).
    """
    lhs = (eta * lipschitz + eta ** 2 * lipschitz ** 2
           * (2.0 * zeta / (1.0 - zeta)) * (zeta / (1.0 + zeta) + 1.0 / (1.0 - zeta)))
    bound = (2.0 * f1_minus_finf / (eta * steps)
             + eta * lipschitz * sigma_sq / m
             + eta ** 2 * lipschitz ** 2 * sigma_sq * 2.0 * zeta ** 2 / (1.0 - zeta ** 2))
    return bool(lhs <= 1.0), float(bound)


def easgd_bound(f1_minus_finf: float, lipschitz: float, sigma_sq: float,
                m: int, eta_tilde: float, steps: int) -> float:
    """Elastic averaging at the optimal elasticity.

    At zeta = m/(m+2) the network coefficient collapses to (m+1)/2:
    bound = 2 (F1-Finf)/(eta_tilde K) + eta_tilde L sigma_sq/m
          + 0.5 eta_tilde^2 L^2 sigma_sq (m+1).
    """
    return float(2.0 * f1_minus_finf / (eta_tilde * steps)
                 + eta_tilde * lipschitz * sigma_sq / m
                 + 0.5 * eta_tilde ** 2 * lipschitz ** 2 * sigma_sq * (m + 1.0))


@dataclass(frozen=True)
class FiniteHorizonReport:
    """Horizon-tuned step size and the resulting two-regime guarantees."""

    eta: float
    bound: float
    k_min: int
    k_min_tight: int


def corollary1_bound(f1_minus_finf: float, lipschitz: float, sigma_sq: float,
                     m: int, v: int, tau: int, zeta: float, steps: int) -> FiniteHorizonReport:
    """Bound under the horizon-dependent step eta = (m+v)/(L m) * sqrt(m/K).

    Valid once K >= 10 m [(1+v/m) tau/(1-zeta)]^2; from
    K >= (m+v)^2 m [(1+v/m) tau/(1-zeta)]^2 on, the network part is dominated
    and the bound becomes 2 [L (F1-Finf) + sigma_sq] / sqrt(m K).
    """
    eta = (m + v) / (lipschitz * m) * np.sqrt(m / steps)
    aug = 1.0 + v / m
    coefficient = (1.0 + zeta ** 2) / (1.0 - zeta ** 2) * tau - 1.0
    bound = ((2.0 * lipschitz * f1_minus_finf + sigma_sq) / np.sqrt(m * steps)
             + (m / steps) * aug ** 2 * coefficient * sigma_sq)
    blowup_sq = (aug * tau / (1.0 - zeta)) ** 2
    k_min = int(np.ceil(10.0 * m * blowup_sq))
    k_min_tight = int(np.ceil((m + v) ** 2 * m * blowup_sq))
    return FiniteHorizonReport(eta=float(eta), bound=float(bound),
                               k_min=k_min, k_min_tight=k_min_tight)


@dataclass(frozen=True)
class Lemma3Report:
    """Measured-dispersion form of the error bound, against one trace."""

    rhs: float
    measured: float
    holds: bool
    applicable: bool


def empirical_decomposition_bound(trace: RunTrace, inputs: BoundInputs) -> Lemma3Report:
    """Check the bound with the network term measured, not bounded.

    rhs = 2 (F1-Finf)/(eta_tilde K) + eta_tilde L sigma_sq / m
        + (L^2 / K) sum_k ||X_k (I - J)||_F^2 / m

    where the sum runs over the same gradient-evaluation states as the
    measured mean squared gradient norm. Expectations should be approximated
    by a seed-averaged trace. Requires eta_tilde L (1 + beta/m) <= 1;
    otherwise the report is flagged not applicable.
    """
    if trace.diverged or trace.rows != inputs.steps + 1:
        raise TheoryError("need a complete trace matching the configured horizon")
    et, lip, m = inputs.eta_tilde, inputs.lipschitz, inputs.m
    applicable = et * lip * (1.0 + inputs.beta / m) <= 1.0
    k = inputs.steps
    rhs = (2.0 * inputs.f1_minus_finf / (et * k)
           + et * lip * inputs.sigma_sq / m
           + lip ** 2 / k * float(trace.network_error[:k].sum()) / m)
    measured = trace.mean_grad_norm_sq
    return Lemma3Report(rhs=float(rhs), measured=float(measured),
                        holds=bool(measured <= rhs), applicable=bool(applicable))
