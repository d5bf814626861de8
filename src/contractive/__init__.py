"""Single-mode bosonic states in truncated Fock space.

Construct coherent, squeezed, and seeded wave-packet families, compute
quadrature statistics, propagate the position variance for an oscillator or
a free mass, and verify the rigorous bounds those statistics must obey.
"""

from .errors import (
    ContractiveError,
    DegenerateSpecError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidSpecError,
    NotContractiveError,
    OutOfRangeError,
    SeedConditionError,
    TrivialStateError,
    TruncationError,
    UsageError,
)
from .fock import (
    FockVector,
    ensure_resolved,
    ladder_moments,
    number_state,
    random_state,
)
from .gcs import (
    PhiSpec,
    PhiState,
    check_phi,
    lattice_phi,
    lattice_phi_for_nbar,
    solve_phi,
    solve_phi_n3,
)
from .moments import (
    MomentSummary,
    StateClass,
    classify,
    lambda_from_moments,
    scs_predicted_moments,
    sgcs_predicted_moments,
    summarize,
)
from .states import (
    SqueezeParams,
    displace,
    extremal_fock,
    make_scs,
    make_sgcs,
    squeeze,
)
from .dynamics import (
    ContractionWindow,
    EvolutionTrace,
    PhysicalScales,
    contraction_window,
    evolve_free_mass,
    evolve_oscillator,
    rql_band,
    schrodinger_oracle,
)
from .verify import (
    ConjugationReport,
    ExtremalAudit,
    OvercompletenessReport,
    audit_extremal,
    check_conjugation_identities,
    check_overcompleteness,
    run_suite,
    safe_block,
)

__version__ = "0.1.0"

__all__ = [
    "ContractiveError", "DegenerateSpecError", "DimensionMismatchError",
    "InvalidDimensionError", "InvalidParameterError", "InvalidSpecError",
    "NotContractiveError", "OutOfRangeError", "SeedConditionError",
    "TrivialStateError", "TruncationError", "UsageError",
    "FockVector", "ensure_resolved", "number_state", "random_state",
    "PhiSpec", "PhiState", "check_phi", "ladder_moments", "lattice_phi",
    "lattice_phi_for_nbar", "solve_phi", "solve_phi_n3",
    "MomentSummary", "StateClass", "classify", "lambda_from_moments",
    "scs_predicted_moments", "sgcs_predicted_moments", "summarize",
    "SqueezeParams", "displace", "extremal_fock", "make_scs", "make_sgcs",
    "squeeze",
    "ContractionWindow", "EvolutionTrace", "PhysicalScales",
    "contraction_window", "evolve_free_mass", "evolve_oscillator",
    "rql_band", "schrodinger_oracle",
    "ConjugationReport", "ExtremalAudit", "OvercompletenessReport",
    "audit_extremal", "check_conjugation_identities",
    "check_overcompleteness", "run_suite", "safe_block",
]
