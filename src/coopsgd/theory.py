"""Closed-form learning-rate conditions, error bounds, and thresholds.

All formulas are expressed in terms of:

    eta_tilde = m eta / (m + v)   effective step of the averaged model
    zeta                          second largest eigenvalue magnitude of W
    tau                           communication period
    L, sigma_sq, beta             smoothness and gradient-noise constants
    f1_minus_finf                 initial optimality gap F(x_1) - F_inf

The general bound on the average squared gradient norm after K steps splits
into an optimization term that vanishes as K grows, a statistical term from
averaged gradient noise, and a network term from inter-worker disagreement:

    bound = 2 (F1 - Finf) / (eta_tilde K)                       [opt]
          + eta_tilde L sigma_sq / m                            [stat]
          + eta_tilde^2 L^2 sigma_sq C(tau, zeta) (1 + v/m)^2   [network]

with C(tau, zeta) = (1 + zeta^2)/(1 - zeta^2) * tau - 1. The error floor is
the K -> infinity limit, i.e. stat + network. Every formula needs zeta in
[0, 1), the rule of `require_subunit_zeta`; on the bound path
`lr_condition` is the one place that checks it, and the `bounds` command
applies it to any zeta it is given.

Periodic averaging (zeta = 0), decentralized SGD (tau = 1), elastic
averaging (tau = 1, v = 1) and the horizon-tuned step
eta = (m+v)/(L m) sqrt(m/K) are all this one bound at particular parameter
points, so they have no formulas of their own here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from coopsgd.engine import effective_lr


class TheoryError(ValueError):
    """Raised when bound inputs are outside the analyzable regime."""


@dataclass(frozen=True)
class BoundInputs:
    """Everything the general bound needs, in one immutable bundle."""

    f1_minus_finf: float
    lipschitz: float
    sigma_sq: float
    m: int
    v: int
    tau: int
    zeta: float
    eta: float
    steps: int
    beta: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise TheoryError(f"{field.name} must be finite, got {value}")
        if self.f1_minus_finf < 0:
            raise TheoryError("initial gap F1 - Finf must be nonnegative")
        if self.lipschitz <= 0:
            raise TheoryError("Lipschitz constant must be positive")
        if self.sigma_sq < 0 or self.beta < 0:
            raise TheoryError("noise constants must be nonnegative")
        if self.m < 1 or self.v < 0:
            raise TheoryError("need m >= 1 and v >= 0")
        if self.tau < 1:
            raise TheoryError("tau must be >= 1")
        if self.eta <= 0:
            raise TheoryError("eta must be positive")
        if self.steps < 1:
            raise TheoryError("steps must be >= 1")

    @property
    def eta_tilde(self) -> float:
        return effective_lr(self.eta, self.m, self.v)


def require_subunit_zeta(zeta: float) -> None:
    """Reject a zeta outside [0, 1), NaN included, with TheoryError."""
    if not 0.0 <= zeta < 1.0:
        raise TheoryError(f"bounds require zeta in [0, 1), got {zeta}")


def lr_condition(inputs: BoundInputs) -> tuple[float, bool]:
    """Left-hand side of the step-size condition and whether it holds.

    With beta = 0 this is the simplified form

        eta_tilde L + 5 eta_tilde^2 L^2 [(1 + v/m) tau / (1 - zeta)]^2 <= 1.

    With beta > 0 the sharper general form applies, which adds the
    beta-dependent terms and keeps the unsimplified tau/zeta factor:

        eta_tilde L (1 + beta/m) + 2 eta^2 L^2 beta tau / (1 - zeta^2)
        + eta^2 L^2 tau^2 / (1 - zeta)
          * (2 zeta^2/(1+zeta) + 2 zeta/(1-zeta) + (tau-1)/tau) <= 1.
    """
    require_subunit_zeta(inputs.zeta)
    et, lip = inputs.eta_tilde, inputs.lipschitz
    tau, zeta = inputs.tau, inputs.zeta
    if inputs.beta == 0.0:
        blowup = (1.0 + inputs.v / inputs.m) * tau / (1.0 - zeta)
        lhs = et * lip + 5.0 * et ** 2 * lip ** 2 * blowup ** 2
    else:
        eta = inputs.eta
        lhs = (
            et * lip * (1.0 + inputs.beta / inputs.m)
            + 2.0 * eta ** 2 * lip ** 2 * inputs.beta * tau / (1.0 - zeta ** 2)
            + eta ** 2 * lip ** 2 * tau ** 2 / (1.0 - zeta)
            * (2.0 * zeta ** 2 / (1.0 + zeta) + 2.0 * zeta / (1.0 - zeta) + (tau - 1.0) / tau)
        )
    return float(lhs), bool(lhs <= 1.0)


@dataclass(frozen=True)
class BoundReport:
    """The general bound evaluated at one parameter point.

    A violated learning-rate condition does not raise: the bound value is
    still reported, flagged out-of-regime via `lr_ok`, because parameter
    sweeps deliberately cross the boundary.
    """

    lr_lhs: float
    lr_ok: bool
    bound: float
    floor: float
    opt_term: float
    stat_term: float
    network_term: float

    def to_dict(self) -> dict:
        return asdict(self)


def theorem1_bound(inputs: BoundInputs) -> BoundReport:
    """General bound on the K-step average squared gradient norm.

    Raises TheoryError when zeta is outside [0, 1), or when a term, or the
    learning-rate condition, leaves the float range, so every report holds
    finite numbers only.
    """
    et, lip, m, zeta = inputs.eta_tilde, inputs.lipschitz, inputs.m, inputs.zeta
    try:
        lhs, ok = lr_condition(inputs)  # first: it rejects zeta outside [0, 1)
        opt = 2.0 * inputs.f1_minus_finf / (et * inputs.steps)
        stat = et * lip * inputs.sigma_sq / m
        network = (et ** 2 * lip ** 2 * inputs.sigma_sq
                   * ((1.0 + zeta ** 2) / (1.0 - zeta ** 2) * inputs.tau - 1.0)
                   * (1.0 + inputs.v / m) ** 2)
    except OverflowError as exc:  # float ** float raises instead of returning inf
        raise TheoryError(f"the bound overflows: {exc}") from exc
    report = BoundReport(
        lr_lhs=lhs,
        lr_ok=ok,
        bound=opt + stat + network,
        floor=stat + network,
        opt_term=opt,
        stat_term=stat,
        network_term=network,
    )
    if not all(math.isfinite(value) for value in report.to_dict().values()):
        raise TheoryError("the bound overflows: a term is not finite")
    return report


def max_stable_eta_tilde(lipschitz: float, tau: int, zeta: float, m: int, v: int) -> float:
    """Largest eta_tilde satisfying the beta = 0 step-size condition.

    Solves eta_tilde L + 5 eta_tilde^2 L^2 [(1+v/m) tau/(1-zeta)]^2 = 1 and
    returns the positive root. Sweeps that want a comparable step inside the
    analyzable regime take a fixed share of it (the presets take 0.9).
    """
    require_subunit_zeta(zeta)
    if lipschitz <= 0 or tau < 1 or m < 1 or v < 0:
        raise TheoryError("need L > 0, tau >= 1, m >= 1, v >= 0")
    blowup = (1.0 + v / m) * tau / (1.0 - zeta)
    quad = 5.0 * lipschitz ** 2 * blowup ** 2
    root = (-lipschitz + np.sqrt(lipschitz ** 2 + 4.0 * quad)) / (2.0 * quad)
    return float(root)


def zeta_threshold(tau: int) -> float:
    """zeta at which decentralized and tau-periodic floors coincide.

    zeta_tau = sqrt(1 - 2/(tau+1)); a decentralized matrix beats running
    tau local steps (in floor) exactly when its zeta is below this value.
    The threshold approaches 1 quickly as tau grows.
    """
    if tau < 1:
        raise TheoryError("tau must be >= 1")
    return float(np.sqrt(1.0 - 2.0 / (tau + 1.0)))
