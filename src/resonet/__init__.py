"""Networks of lossy coupled resonators sharing correlated reservoirs.

The package tracks multimode superpositions of coherent states through the
zero-temperature master equation exactly, in label space, and identifies the
decoherence-free and relaxation-free subspaces that survive collective
damping.  A truncated-Fock integrator provides an independent check, and a
small CLI drives scenario files.
"""

from .errors import ConfigError, ModelError, NumericalError
from .network import (
    NetworkSpec,
    NormalModeDecomposition,
    degenerate_modes,
    degenerate_network,
    drift_matrix,
    normal_modes,
)
from .reservoir import (
    CouplingProfile,
    DecayMatrix,
    ReservoirKind,
    ReservoirSpec,
    build_decay_matrix,
    coupling_value,
    decay_matrix_common,
    decay_matrix_distinct,
    decay_matrix_from_couplings,
    renormalized_frequency,
)
from .states import (
    RSFamilySpec,
    SuperpositionState,
    gram_matrix,
    make_rs_state,
    make_superposition,
    rs_branch_labels,
    state_norm,
)
from .evolve import (
    Block,
    decoherence_time_numeric,
    expm,
    label_flow,
    observables,
    propagate_with,
    trajectory_to_csv,
)
from .dfs import (
    ClassificationReport,
    Regime,
    classify,
    collective_lowering_eigencheck,
    decoherence_time,
    protected_subspace,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ModelError",
    "NumericalError",
    "NetworkSpec",
    "NormalModeDecomposition",
    "degenerate_network",
    "degenerate_modes",
    "drift_matrix",
    "normal_modes",
    "ReservoirKind",
    "ReservoirSpec",
    "CouplingProfile",
    "DecayMatrix",
    "build_decay_matrix",
    "coupling_value",
    "decay_matrix_common",
    "decay_matrix_distinct",
    "decay_matrix_from_couplings",
    "renormalized_frequency",
    "SuperpositionState",
    "RSFamilySpec",
    "gram_matrix",
    "make_rs_state",
    "make_superposition",
    "rs_branch_labels",
    "state_norm",
    "Block",
    "decoherence_time_numeric",
    "expm",
    "label_flow",
    "observables",
    "propagate_with",
    "trajectory_to_csv",
    "ClassificationReport",
    "Regime",
    "classify",
    "collective_lowering_eigencheck",
    "decoherence_time",
    "protected_subspace",
]
