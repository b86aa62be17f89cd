"""Decoherence-free and relaxation-free subspace classification.

A coherent branch beta evolves as Theta(t) beta with Theta(t) = exp(t D) and
drift D = -i W - Gamma / 2, so the coherence between branches r and s decays
at the rate delta(t)^dagger Gamma delta(t) / 2 with delta(t) = Theta(t)
(beta_r - beta_s).  That rate vanishes at all times exactly when delta(0)
lies in the largest W-invariant subspace inside the kernel of Gamma: the
unobservable subspace of the pair (D, Gamma) in Kalman's observability test.
W is real symmetric, so it is spanned by the eigenvectors of W inside
Gamma's kernel (DecayMatrix.kernel, a numerical one).  A state is
decoherence-free when every branch difference lies in it and relaxation-free
when every branch does.  Every reservoir kind gets this one criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ModelError, NumericalError
from .network import NetworkSpec, clusters
from .reservoir import DecayMatrix, ReservoirKind, ReservoirSpec, build_decay_matrix
from .states import SuperpositionState

__all__ = [
    "Regime",
    "ClassificationReport",
    "collective_lowering_eigencheck",
    "protected_subspace",
    "classify",
    "decoherence_time",
]

# Matching thresholds for the boolean classification.
_EIGENCHECK_ATOL = 1e-10
_RFS_EIG_ATOL = 1e-12


class Regime(str, Enum):
    COMMON_EPS1 = "common_eps1"
    COMMON_EPS_SMALL = "common_eps_small"
    COMMON_PROFILE = "common_profile"
    DISTINCT_STRONG = "distinct_strong"


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of classifying one state in one dissipation regime."""

    is_dfs: bool
    is_rfs: bool
    lindblad_eigenvalue: Optional[complex]
    effective_decay_rate: float
    tau_d: float
    regime: Regime


def collective_lowering_eigencheck(state: SuperpositionState) -> tuple[bool, Optional[complex]]:
    """Is the state an eigenstate of the collective lowering operator?

    Each coherent branch is an eigenvector with eigenvalue
    sum_m beta_m / sqrt(n); the superposition is one exactly when all
    branches agree (within 1e-10 absolute).  Returns (flag, eigenvalue),
    eigenvalue None when the check fails.
    """
    sums = np.sum(state.labels, axis=1) / np.sqrt(state.n)
    ref = sums[0]
    if np.max(np.abs(sums - ref)) <= _EIGENCHECK_ATOL:
        return True, complex(ref)
    return False, None


def protected_subspace(w, decay: DecayMatrix) -> np.ndarray:
    """Orthonormal basis (columns) of the eigenvectors of W inside Gamma's kernel.

    With K = DecayMatrix.kernel, x = K u is an eigenvector of W exactly when
    u is one of K^dagger W K, with eigenvalue mu, and W x - mu x = 0.  So one
    eigh of K^dagger W K gives Q = K U, and each cluster of mu (the clusters
    rule) keeps Q times the null space of its residual columns W Q - Q mu
    (rank tolerance 1e-10 * max(1, max |W|)).  The span is the largest
    W-invariant subspace inside the kernel (Kalman's unobservable subspace).
    Returns an (n, 0) array when nothing is protected.
    """
    w = np.asarray(w)
    n = decay.n
    if w.shape != (n, n):
        raise ModelError(f"network and decay matrix must both be {n}x{n}")
    k = decay.kernel
    tol = 1e-10 * max(1.0, float(np.max(np.abs(w))))
    mu, u = np.linalg.eigh(k.conj().T @ w @ k)
    q = k @ u
    residual = w @ q - q * mu
    group = clusters(mu)
    parts = [np.zeros((n, 0))]
    for g in np.unique(group):
        _, sv, vh = np.linalg.svd(residual[:, group == g], full_matrices=False)
        parts.append(q[:, group == g] @ vh[np.count_nonzero(sv > tol):].conj().T)
    return np.hstack(parts)


def decoherence_time(state: SuperpositionState, decay: DecayMatrix) -> Optional[float]:
    """Decoherence time of a two-term state under the decay matrix.

    tau_d = 2 / (delta^dagger Gamma delta) with delta = labels[0] - labels[1];
    infinite when that rate is within the decay matrix's rounding slack of
    zero.  For the two-branch family in the white-noise and distinct
    reservoirs it equals the paper's closed form on their collective rate
    split.  None unless the state has exactly two terms; a rate that is not
    finite, as for decay rates near the float range, raises NumericalError.
    """
    if state.num_terms != 2:
        return None
    if decay.n != state.n:
        raise ModelError("state and decay matrix disagree on the resonator count")
    delta = state.labels[0] - state.labels[1]
    with np.errstate(over="ignore", invalid="ignore"):
        rate = float(np.real(delta.conj() @ decay.matrix @ delta))
    if not math.isfinite(rate):
        raise NumericalError(f"the two-branch decay rate is not finite ({rate!r})")
    if rate <= decay.slack * float(np.real(np.vdot(delta, delta))):
        return math.inf
    return 2.0 / rate


def _regime(reservoir: ReservoirSpec, decay: DecayMatrix) -> Regime:
    if reservoir.kind is ReservoirKind.COMMON_WHITE_NOISE:
        return Regime.COMMON_EPS1 if decay.kernel.shape[1] else Regime.COMMON_EPS_SMALL
    if reservoir.kind is ReservoirKind.COMMON_PROFILE:
        return Regime.COMMON_PROFILE
    return Regime.DISTINCT_STRONG


def classify(state: SuperpositionState, reservoir: ReservoirSpec, net: NetworkSpec) -> ClassificationReport:
    """Classify a state as decoherence-free / relaxation-free on a network.

    The reservoir's decay matrix on `net` and the network's W give the
    protected subspace (protected_subspace): the state is decoherence-free
    when every difference of two branch labels lies in it (within 1e-10)
    and relaxation-free when every branch label does (within 1e-12).  The
    effective decay rate is the largest of Gamma's rates whose mode some
    branch label touches (0 for the vacuum), tau_d is decoherence_time
    (infinite for a state without exactly two terms), and the regime
    only names the reservoir: white noise whose decay matrix has a nonempty
    kernel (DecayMatrix.kernel) is COMMON_EPS1, other white noise
    COMMON_EPS_SMALL, then COMMON_PROFILE and DISTINCT_STRONG.
    """
    n = state.n
    if net.n != n:
        raise ModelError("network and state disagree on the resonator count")
    decay = build_decay_matrix(reservoir, net)
    basis = protected_subspace(net.w_matrix(), decay)

    labels = np.asarray(state.labels)

    def outside(rows: np.ndarray) -> np.ndarray:
        """Distance of each row from the protected subspace."""
        return np.linalg.norm(rows - (rows @ basis.conj()) @ basis.T, axis=1)

    is_dfs = bool(np.all(outside(labels[1:] - labels[0]) <= _EIGENCHECK_ATOL))
    is_rfs = is_dfs and bool(np.all(outside(labels) <= _RFS_EIG_ATOL))

    scale = max(float(np.max(np.abs(labels))), 1.0)
    touched = np.max(np.abs(labels @ decay.modes), axis=0) > 1e-10 * scale
    rate = float(np.max(decay.rates[touched], initial=0.0))

    _, eig = collective_lowering_eigencheck(state)
    tau_d = decoherence_time(state, decay)
    return ClassificationReport(
        is_dfs=is_dfs,
        is_rfs=is_rfs,
        lindblad_eigenvalue=eig,
        effective_decay_rate=rate,
        tau_d=math.inf if tau_d is None else tau_d,
        regime=_regime(reservoir, decay),
    )
