"""Numerical laboratory for entangling rates of open bipartite systems.

Simulates GKSL dynamics on a ⊗ A ⊗ B ⊗ b, measures how fast entanglement
across the aA | Bb cut can grow, and certifies the closed-form rate caps by
randomized sweeps.
"""

from .certify import (
    DEFAULT_TOLERANCES,
    FAMILIES,
    Certificate,
    FormatError,
    SweepConfig,
    cells_for,
    replay,
    run_sweep,
)
from .dynamics import (
    IntegrationError,
    LindbladGenerator,
    apply_generator,
    convergence_order,
    embed_ab,
    evolve,
    evolve_series,
    generator_from_json,
    generator_to_json,
)
from .linalg import (
    LOG_FLOOR,
    EigenDecomposition,
    NotPositive,
    NumericalFailure,
    ShapeError,
    dag,
    eigh,
    hermitize,
    matrix_log_on_support,
    operator_norm,
    partial_trace,
    singular_values,
    tensor,
    trace_norm,
)
from .measures import (
    OptimizerStall,
    ReeEstimate,
    SeparableEnsemble,
    entanglement_entropy,
    mutual_information,
    ree_bruteforce,
    relative_entropy,
    von_neumann_entropy,
)
from .rates import (
    InequalityResult,
    InvalidPair,
    RateReport,
    SamplerFailure,
    binary_entropy,
    commutator_trace_norm_check,
    dissipative_commutator_check,
    dissipative_term,
    dissipative_term_bound,
    entangling_rate_bound,
    entangling_rate_fd,
    hamiltonian_commutator_check,
    hamiltonian_term,
    hamiltonian_term_bound,
    hamiltonian_term_bound_tight,
    marginal_split_check,
    mi_rate_bound,
    mixing_term,
    mixing_term_bound,
    mutual_info_rate_analytic,
    mutual_info_rate_fd,
    pure_ree_identity_check,
    random_xy_pair,
    small_incremental_mixing_check,
    surrogate_rate_analytic,
    surrogate_rate_fd,
    surrogate_rate_fd_richardson,
    unitary_rate_bound,
)
from .states import (
    TOTAL_DIM_CAP,
    DegenerateCut,
    DensityMatrix,
    DimensionSignature,
    PureState,
    SchmidtDecomposition,
    closest_separable_state,
    convex_split_witness,
    random_density,
    random_gue_hamiltonian,
    random_ginibre_lindblad,
    random_pure,
    random_unitary,
    schmidt,
    smooth,
    state_from_json,
    state_to_json,
)

__version__ = "0.1.0"
