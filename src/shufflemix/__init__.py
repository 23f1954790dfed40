"""Mixing-time machinery for top to bottom-k card shuffles.

Four pillars: exact dense evolution, spectra and coupling tails at small n
(:mod:`shufflemix.exact`), Monte Carlo couplings at moderate n with exact
collector and lower-bound chains beside them (:mod:`shufflemix.coupling`), a
complex near-eigenfunction lower bound for the k = 3 walk
(:mod:`shufflemix.wilson`), and Cayley-graph flow comparison bounds
(:mod:`shufflemix.flows`).  :mod:`shufflemix.cli` wraps each experiment in a
manifest-writing command.
"""

__version__ = "0.1.0"

from .coupling import (
    coupling_trials,
    coupon_collector,
    increasing_bottom_statistic,
    lazy_trial_wrapper,
    single_card_lower_bound,
    tail_estimate,
    tail_estimates,
    trial_rng,
    unselected_tails,
)
from .errors import CapacityError, NumericError, UnreachableTargetError
from .exact import (
    coupling_tail,
    dirichlet_constants,
    least_eigenvalue_formula,
    mixing_time,
    spectrum,
    transfer_checks,
)
from .flows import (
    build_flow_general,
    build_flow_large_k,
    build_flow_rudvalis,
    build_odd_flow_tbk,
    comparison_bound_report,
    congestion_A,
    congestion_lower_bound,
    odd_flow_eigenvalue_bound,
    verify_flow,
)
from .measures import (
    SparseMeasure,
    delta_e,
    lazy,
    random_transposition,
    reversal,
    rudvalis_symmetric,
    symmetrize,
    top_to_bottom_k,
)
from .perms import Permutation, compose, cycle_generator, identity, inverse, rank, transposition
from .report import RunManifest, emit_json
from .wilson import compute_params, lazy_transfer, step_bound, wilson_report

__all__ = [
    "CapacityError",
    "NumericError",
    "UnreachableTargetError",
    "SparseMeasure",
    "delta_e",
    "lazy",
    "random_transposition",
    "reversal",
    "rudvalis_symmetric",
    "symmetrize",
    "top_to_bottom_k",
    "Permutation",
    "compose",
    "cycle_generator",
    "identity",
    "inverse",
    "rank",
    "transposition",
    "coupling_tail",
    "dirichlet_constants",
    "least_eigenvalue_formula",
    "mixing_time",
    "spectrum",
    "transfer_checks",
    "coupling_trials",
    "coupon_collector",
    "increasing_bottom_statistic",
    "lazy_trial_wrapper",
    "single_card_lower_bound",
    "tail_estimate",
    "tail_estimates",
    "trial_rng",
    "unselected_tails",
    "compute_params",
    "lazy_transfer",
    "step_bound",
    "wilson_report",
    "build_flow_general",
    "build_flow_large_k",
    "build_flow_rudvalis",
    "build_odd_flow_tbk",
    "comparison_bound_report",
    "congestion_A",
    "congestion_lower_bound",
    "odd_flow_eigenvalue_bound",
    "verify_flow",
    "RunManifest",
    "emit_json",
    "__version__",
]
