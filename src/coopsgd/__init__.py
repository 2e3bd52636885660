"""Desk-scale simulator and analysis toolkit for communication-efficient SGD.

The algorithm family A(tau, W, v) covers periodic averaging, elastic
averaging, decentralized gossip, and their hybrids through three knobs:
the communication period tau, the mixing matrix W, and the number of
auxiliary (gradient-free) variables v.
"""

from coopsgd.engine import (
    AlgorithmConfig,
    ConfigError,
    RunTrace,
    average_traces,
    effective_lr,
    run_many,
    write_trace_csv,
)
from coopsgd.mixing import (
    MixingError,
    MixingMatrix,
    as_mixing,
    best_easgd_alpha,
    best_generalized_elastic_alpha,
    easgd_zeta,
    generalized_elastic_zeta,
    make_dense_with_zeta,
    make_easgd,
    make_fully_connected,
    make_generalized_elastic,
    make_hierarchical,
    make_identity,
    make_ring,
    power_deviation_norm,
    random_doubly_stochastic,
)
from coopsgd.objectives import (
    GradientOracle,
    LogisticProblem,
    OracleError,
    QuadraticProblem,
    make_diag_quadratic,
)
from coopsgd.theory import (
    BoundInputs,
    BoundReport,
    TheoryError,
    corollary1_bound,
    dpsgd_bound,
    easgd_bound,
    empirical_decomposition_bound,
    lr_condition,
    max_stable_eta_tilde,
    pasgd_bound,
    theorem1_bound,
    zeta_threshold,
)
from coopsgd.timeline import DelayModel, TimelineTrace, simulate_timeline, sync_cost

# The spec readers live in `coopsgd.cli`, which is imported on first use so
# that `python -m coopsgd.cli` does not find the module already loaded.
_CLI_NAMES = ("SpecError", "delay_from_dict", "mixing_from_dict", "oracle_from_dict")


def __getattr__(name):
    if name in _CLI_NAMES:
        from coopsgd import cli

        return getattr(cli, name)
    raise AttributeError(f"module 'coopsgd' has no attribute {name!r}")


__all__ = [
    "AlgorithmConfig",
    "BoundInputs",
    "BoundReport",
    "ConfigError",
    "DelayModel",
    "GradientOracle",
    "LogisticProblem",
    "MixingError",
    "MixingMatrix",
    "OracleError",
    "QuadraticProblem",
    "RunTrace",
    "SpecError",
    "TheoryError",
    "TimelineTrace",
    "as_mixing",
    "average_traces",
    "best_easgd_alpha",
    "best_generalized_elastic_alpha",
    "corollary1_bound",
    "delay_from_dict",
    "dpsgd_bound",
    "easgd_bound",
    "easgd_zeta",
    "effective_lr",
    "empirical_decomposition_bound",
    "generalized_elastic_zeta",
    "lr_condition",
    "make_dense_with_zeta",
    "make_diag_quadratic",
    "make_easgd",
    "make_fully_connected",
    "make_generalized_elastic",
    "make_hierarchical",
    "make_identity",
    "make_ring",
    "max_stable_eta_tilde",
    "mixing_from_dict",
    "oracle_from_dict",
    "pasgd_bound",
    "power_deviation_norm",
    "random_doubly_stochastic",
    "run_many",
    "simulate_timeline",
    "sync_cost",
    "theorem1_bound",
    "write_trace_csv",
    "zeta_threshold",
]
