"""Decoherence-free and relaxation-free subspace classification.

When every resonator damps through the same channel, the only Lindblad
operator left is the collective lowering operator L = sum_m a_m / sqrt(n).
A coherent-product superposition is then protected from decoherence exactly
when all of its branches share the same collective amplitude, i.e. when the
per-branch sums e_r = sum_m beta_m^r / sqrt(n) coincide; it is additionally
free of relaxation when that common eigenvalue is zero.  The same criterion
applies to strongly coupled distinct reservoirs once the residual rate
gamma_minus is negligible against gamma_plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ModelError
from .evolve import decoherence_time_formula, effective_rates
from .reservoir import (
    ReservoirKind,
    ReservoirSpec,
    decay_matrix_common,
    decay_matrix_distinct,
    rate_split,
)
from .states import RSFamilySpec, SuperpositionState

__all__ = [
    "Regime",
    "ClassificationReport",
    "collective_lowering_eigencheck",
    "classify",
    "decoherence_time",
    "master_equation_reduction_check",
]

# Matching thresholds for the boolean classification.
_EIGENCHECK_ATOL = 1e-10
_RFS_EIG_ATOL = 1e-12
_EPS_ONE_TOL = 1e-6
_DISTINCT_RATIO = 1e-3


class Regime(str, Enum):
    COMMON_EPS1 = "common_eps1"
    COMMON_EPS_SMALL = "common_eps_small"
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

    def to_json_dict(self) -> dict:
        eig = self.lindblad_eigenvalue
        return {
            "is_dfs": self.is_dfs,
            "is_rfs": self.is_rfs,
            "lindblad_eigenvalue": None if eig is None else [eig.real, eig.imag],
            "effective_decay_rate": self.effective_decay_rate,
            "tau_d": "inf" if math.isinf(self.tau_d) else self.tau_d,
            "regime": self.regime.value,
        }


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


def _mean_amplitude_protected(state: SuperpositionState) -> bool:
    """True when no branch has weight on the symmetric (fast-decaying) mode."""
    means = np.mean(state.labels, axis=1)
    scale = max(float(np.max(np.abs(state.labels), initial=0.0)), 1.0)
    return bool(np.max(np.abs(means)) <= 1e-10 * scale)


def decoherence_time(spec: Optional[RSFamilySpec], reservoir: ReservoirSpec) -> Optional[float]:
    """Two-branch decoherence time of the family in the reservoir.

    The formula of decoherence_time_formula on the reservoir's rate split.
    None when there is no two-branch spec with a nonzero amplitude, or when
    the reservoir (coupling profiles) has no closed-form rate split.
    """
    if spec is None or complex(spec.alpha) == 0.0:
        return None
    split = rate_split(reservoir, spec.n)
    return None if split is None else decoherence_time_formula(spec, *split)


def classify(
    state: SuperpositionState,
    spec: Optional[RSFamilySpec],
    reservoir: ReservoirSpec,
) -> ClassificationReport:
    """Classify a state as decoherence-free / relaxation-free in a reservoir.

    The reservoir decides the regime: white noise with epsilon within 1e-6
    of 1 is COMMON_EPS1, any other white noise COMMON_EPS_SMALL, distinct
    reservoirs DISTINCT_STRONG; profile reservoirs have none (ModelError).
    For the fully correlated common reservoir and for dominantly collective
    distinct reservoirs the collective-lowering eigencheck decides
    membership; for a weakly correlated common reservoir only single-product
    states avoid decoherence.  The decoherence time is reported when the
    two-branch spec is available.
    """
    n = state.n
    if spec is not None and spec.n != n:
        raise ModelError("family spec and state disagree on the resonator count")

    if reservoir.kind is ReservoirKind.DISTINCT_STRONG_COUPLING:
        if reservoir.gamma_plus <= 0.0:
            raise ModelError("distinct-reservoir classification needs gamma_plus > 0")
        regime = Regime.DISTINCT_STRONG
        collective = n * reservoir.gamma_minus / reservoir.gamma_plus < _DISTINCT_RATIO
        rate_slow, rate_fast = reservoir.gamma_minus, reservoir.gamma_plus
    elif reservoir.kind is ReservoirKind.COMMON_WHITE_NOISE:
        collective = reservoir.epsilon >= 1.0 - _EPS_ONE_TOL
        regime = Regime.COMMON_EPS1 if collective else Regime.COMMON_EPS_SMALL
        rates = effective_rates(n, reservoir.sigma, reservoir.epsilon)
        rate_slow, rate_fast = rates.gamma_down, rates.gamma_up
    else:
        raise ModelError(
            "classification covers white-noise and distinct reservoirs; "
            "profile reservoirs have no closed-form regime"
        )

    passed, eig = collective_lowering_eigencheck(state)
    if collective:
        is_dfs = passed
        is_rfs = passed and eig is not None and abs(eig) <= _RFS_EIG_ATOL
    else:
        # Without full correlation every channel must be matched separately;
        # only a single coherent product escapes decoherence, and it still
        # relaxes whenever it carries any excitation.
        is_dfs = state.num_terms == 1
        is_rfs = False

    tau_d = decoherence_time(spec, reservoir)
    rate = rate_slow if _mean_amplitude_protected(state) else rate_fast
    return ClassificationReport(
        is_dfs=is_dfs,
        is_rfs=is_rfs,
        lindblad_eigenvalue=eig,
        effective_decay_rate=rate,
        tau_d=math.inf if tau_d is None else tau_d,
        regime=regime,
    )


def master_equation_reduction_check(
    n: int,
    gamma: Optional[float] = None,
    epsilon: Optional[float] = None,
    gamma_plus: Optional[float] = None,
    gamma_minus: Optional[float] = None,
    cutoff: int = 3,
) -> bool:
    """Verify that the fully collective dissipator reduces to a single channel.

    Builds the full double-sum dissipator as a superoperator matrix on a
    small truncated basis and compares it entrywise against the dissipator
    of the single collective lowering operator: strength n * gamma / 2 for
    the common reservoir at epsilon = 1, strength gamma_plus / 2 for
    distinct reservoirs at gamma_minus = 0.  Only those parameter points are
    accepted; anything else raises ModelError.  True when the two agree to
    1e-10 (absolute, in rate units).
    """
    from . import oracle

    if n < 1 or n > 3:
        raise ModelError("reduction check is limited to 1..3 resonators")
    if cutoff < 1 or cutoff > 3:
        raise ModelError("reduction check is limited to cutoffs 1..3")

    if gamma_plus is not None or gamma_minus is not None:
        if gamma_plus is None or gamma_minus is None:
            raise ModelError("distinct-reservoir check needs both collective rates")
        if gamma_minus != 0.0:
            raise ModelError("the single-channel reduction requires gamma_minus = 0")
        decay = decay_matrix_distinct(n, gamma_plus, gamma_minus)
        strength = float(gamma_plus)
    else:
        if gamma is None or epsilon is None:
            raise ModelError("common-reservoir check needs gamma and epsilon")
        if abs(epsilon - 1.0) > 1e-12:
            raise ModelError("the single-channel reduction requires epsilon = 1")
        decay = decay_matrix_common(n, gamma, epsilon)
        strength = float(n * gamma)

    basis = oracle.FockBasisSpec(n=n, cutoff=cutoff)
    full = oracle.dissipator_matrix(decay.matrix, basis)

    # Independent route: the collective-channel dissipator assembled from
    # dense operators, strength/2 * (2 L rho L+ - {L+L, rho}).
    lower = [op.toarray() for op in oracle.mode_lowering_ops(basis)]
    lam = sum(lower) / np.sqrt(n)
    lam_dag = lam.conj().T
    lam2 = lam_dag @ lam
    d = basis.dim

    def collective(rho: np.ndarray) -> np.ndarray:
        return 0.5 * strength * (
            2.0 * lam @ rho @ lam_dag - lam2 @ rho - rho @ lam2
        )

    single = np.empty((d * d, d * d), dtype=complex)
    e = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e[a, b] = 1.0
            single[:, a * d + b] = collective(e).ravel()
            e[a, b] = 0.0

    return bool(np.max(np.abs(full - single)) < 1e-10)
