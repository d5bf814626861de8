"""Single-mode bosonic states in truncated Fock space.

Construct coherent, squeezed, and seeded wave-packet families, compute
quadrature statistics, propagate the position variance for an oscillator or
a free mass, and verify the rigorous bounds those statistics must obey.

`import contractive` loads no submodule. A public name, or a submodule such
as `contractive.verify`, imports its home module on first access and is then
bound here. The modules import one another as errors <- fock <- {gcs,
states, moments}, moments <- dynamics, with verify on top of them all, so a
CLI command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it exports.
_EXPORTS = {
    "errors": (
        "ContractiveError", "DegenerateSpecError", "DimensionMismatchError",
        "InvalidDimensionError", "InvalidParameterError", "InvalidSpecError",
        "NotContractiveError", "OutOfRangeError", "SeedConditionError",
        "TrivialStateError", "TruncationError", "UsageError",
    ),
    "fock": ("FockVector", "ensure_resolved", "number_state", "random_state"),
    "gcs": ("PhiSpec", "PhiState", "check_phi", "lattice_phi",
            "lattice_phi_for_nbar", "solve_phi"),
    "moments": ("MomentSummary", "StateClass", "classify", "lambda_from_moments",
                "scs_predicted_moments", "sgcs_predicted_moments", "summarize"),
    "states": ("SqueezeParams", "displace", "extremal_fock", "make_scs",
               "make_sgcs", "squeeze"),
    "dynamics": ("ContractionWindow", "EvolutionTrace", "PhysicalScales",
                 "contraction_window", "evolve_free_mass", "evolve_oscillator",
                 "rql_band", "schrodinger_oracle"),
    "verify": ("ConjugationReport", "ExtremalAudit", "OvercompletenessReport",
               "audit_extremal", "check_conjugation_identities",
               "check_overcompleteness", "run_suite", "safe_block"),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
