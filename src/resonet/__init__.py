"""Networks of lossy coupled resonators sharing correlated reservoirs.

The package tracks multimode superpositions of coherent states through the
zero-temperature master equation exactly, in label space, and identifies the
decoherence-free and relaxation-free subspaces that survive collective
damping.  A truncated-Fock integrator provides an independent check, and a
small CLI drives scenario files.
"""

from .errors import ConfigError, ModelError, NumericalError
from .network import (
    DriftMatrix,
    NetworkSpec,
    NormalModeDecomposition,
    degenerate_decomposition,
    degenerate_modes,
    degenerate_network,
    drift_matrix,
    normal_modes,
    validate_network,
)
from .reservoir import (
    CouplingProfile,
    DecayMatrix,
    ReservoirKind,
    ReservoirSpec,
    build_decay_matrix,
    coupling_value,
    correlation_coupled,
    correlation_negligible,
    decay_matrix_common,
    decay_matrix_distinct,
    decay_matrix_from_couplings,
    default_profile_width,
    renormalized_frequency,
)
from .states import (
    RSFamilySpec,
    SuperpositionState,
    coherent_overlap,
    gram_matrix,
    make_rs_state,
    make_superposition,
    rs_branch_labels,
    state_norm,
    swap_resonators,
)
from .evolve import (
    EvolutionParams,
    RateSplit,
    Trajectory,
    decoherence_time_formula,
    decoherence_time_numeric,
    effective_rates,
    expm,
    observables,
    propagate,
    propagate_with,
    propagator_closed_form,
    propagator_general,
    trajectory_to_csv,
)
from .dfs import (
    ClassificationReport,
    Regime,
    classify,
    collective_lowering_eigencheck,
    master_equation_reduction_check,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ModelError",
    "NumericalError",
    "NetworkSpec",
    "NormalModeDecomposition",
    "DriftMatrix",
    "degenerate_network",
    "degenerate_modes",
    "degenerate_decomposition",
    "drift_matrix",
    "normal_modes",
    "validate_network",
    "ReservoirKind",
    "ReservoirSpec",
    "CouplingProfile",
    "DecayMatrix",
    "build_decay_matrix",
    "coupling_value",
    "correlation_coupled",
    "correlation_negligible",
    "decay_matrix_common",
    "decay_matrix_distinct",
    "decay_matrix_from_couplings",
    "default_profile_width",
    "renormalized_frequency",
    "SuperpositionState",
    "RSFamilySpec",
    "coherent_overlap",
    "gram_matrix",
    "make_rs_state",
    "make_superposition",
    "rs_branch_labels",
    "state_norm",
    "swap_resonators",
    "EvolutionParams",
    "RateSplit",
    "Trajectory",
    "decoherence_time_formula",
    "decoherence_time_numeric",
    "effective_rates",
    "expm",
    "observables",
    "propagate",
    "propagate_with",
    "propagator_closed_form",
    "propagator_general",
    "trajectory_to_csv",
    "ClassificationReport",
    "Regime",
    "classify",
    "collective_lowering_eigencheck",
    "master_equation_reduction_check",
]
