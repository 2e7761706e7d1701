"""Subspace identification of LTI systems under unknown additive faults.

The package identifies the nominal quadruple from faulty input/output data,
estimates the minimal fault dimension from residual Hankel ranks, recovers
the full set of fault-matrix pairs compatible with the data (up to output
behavioral equivalence), and reconstructs the fault signal.
"""

from .matstack import (
    RankPolicy,
    RankReport,
    block_hankel,
    block_toeplitz,
    extended_observability,
    grassmann_error,
    min_norm_lsq,
    numerical_rank,
    principal_angles,
    range_equal,
)
from .sysgen import (
    FaultPair,
    StateSpace,
    ZeroReport,
    colored_noise,
    fault_signal,
    random_system,
    simulate,
    transmission_zeros,
    white_input,
)
from .subid import (
    IdentResult,
    estimate_initial_state,
    estimate_order,
    markov_params,
    pi_moesp,
)
from .faultrec import (
    FaultRecovery,
    FaultReconstruction,
    behaviorally_equivalent,
    estimate_fault_dim,
    recover,
    recover_fault_matrices,
    reconstruct_fault,
    residual_hankel,
    select_representative,
    verify_rank_formula,
)
from .harness import ExperimentConfig, demo_system, run_example, run_montecarlo

__version__ = "0.1.0"
