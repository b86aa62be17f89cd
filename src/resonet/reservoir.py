"""Reservoir models and the decay matrices they induce.

Three coupling situations are covered: a common white-noise reservoir
parametrised by a base rate and a cross-correlation fraction epsilon, a
common reservoir with structured (sum-of-Gaussians) coupling profiles from
which the decay matrix is assembled mode by mode, and independent strongly
coupled reservoirs whose effect is summarised by collective rates
gamma_plus / gamma_minus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ModelError
from .network import NormalModeDecomposition, _frozen

__all__ = [
    "ReservoirKind",
    "CouplingProfile",
    "ReservoirSpec",
    "DecayMatrix",
    "coupling_value",
    "correlation_coupled",
    "correlation_negligible",
    "decay_matrix_common",
    "decay_matrix_from_couplings",
    "decay_matrix_distinct",
    "renormalized_frequency",
    "default_profile_width",
    "build_decay_matrix",
]


class ReservoirKind(str, Enum):
    COMMON_WHITE_NOISE = "common_white_noise"
    COMMON_PROFILE = "common_profile"
    DISTINCT_STRONG_COUPLING = "distinct_strong_coupling"


@dataclass(frozen=True, eq=False)
class CouplingProfile:
    """Sum-of-Gaussians reservoir coupling for one resonator.

    The coupling strength at frequency w is
    amplitude * sqrt(sum_j exp(-widths[j] * (w - centers[j])**2)).
    """

    amplitude: float
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", _frozen(np.atleast_1d(np.asarray(self.centers, dtype=float))))
        object.__setattr__(self, "widths", _frozen(np.atleast_1d(np.asarray(self.widths, dtype=float))))
        if self.centers.size == 0:
            raise ModelError("coupling profile needs at least one Gaussian component")
        if self.centers.shape != self.widths.shape:
            raise ModelError("profile centers and widths must have matching lengths")
        if np.any(self.widths <= 0.0) or np.any(~np.isfinite(self.widths)):
            raise ModelError("profile widths must be positive and finite")


@dataclass(frozen=True, eq=False)
class ReservoirSpec:
    """Which reservoir model applies, with the fields that model needs.

    sigma is the flat spectral density of the common reservoir; for white
    noise with unit coupling amplitude it doubles as the per-resonator decay
    rate.  epsilon is the cross-correlation fraction in [0, 1].  profiles are
    required for COMMON_PROFILE, gamma_plus/gamma_minus for
    DISTINCT_STRONG_COUPLING.
    """

    kind: ReservoirKind
    sigma: float = 1.0
    epsilon: float = 0.0
    profiles: Optional[tuple[CouplingProfile, ...]] = None
    gamma_plus: float = 0.0
    gamma_minus: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma <= 0.0 or not math.isfinite(self.sigma):
            raise ModelError("sigma must be positive and finite")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ModelError("epsilon must lie in [0, 1]")
        if self.kind is ReservoirKind.COMMON_PROFILE and not self.profiles:
            raise ModelError("common_profile reservoir needs coupling profiles")
        if self.kind is ReservoirKind.DISTINCT_STRONG_COUPLING:
            if self.gamma_plus < 0.0 or self.gamma_minus < 0.0:
                raise ModelError("collective rates must be nonnegative")


@dataclass(frozen=True, eq=False)
class DecayMatrix:
    """Symmetric positive-semidefinite matrix of decay rates.

    Diagonal entries are direct rates, off-diagonal entries cross-decay
    rates.  Positive semidefiniteness (up to -1e-12 * norm rounding slack) is
    what makes the induced master equation a valid quantum channel generator.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        g = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", _frozen(g))
        if g.shape[0] != g.shape[1]:
            raise ModelError("decay matrix must be square")
        if np.any(~np.isfinite(g)):
            raise ModelError("decay rates must be finite")
        slack = 1e-12 * max(1.0, float(np.max(np.abs(g), initial=0.0)))
        if np.max(np.abs(g - g.T), initial=0.0) > slack:
            raise ModelError("decay matrix must be symmetric")
        if np.any(np.diagonal(g) < -slack):
            raise ModelError("direct decay rates must be nonnegative")
        norm = np.max(np.abs(g))
        if norm > 0.0 and np.min(np.linalg.eigvalsh(g)) < -slack:
            raise ModelError("decay matrix must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# coupling profiles and correlation functions


def coupling_value(profile: CouplingProfile, freq: float) -> float:
    """Reservoir coupling strength of one resonator at the given frequency."""
    s = float(np.sum(np.exp(-profile.widths * (freq - profile.centers) ** 2)))
    return profile.amplitude * math.sqrt(s)


def correlation_coupled(spec: ReservoirSpec, m: int, n: int, ell: int) -> float:
    """Cross-damping correlation of resonators m and n at normal mode ell.

    Evaluates sigma * V_m * V_n * sqrt(sum_{j,j'} exp(-w_j (O_l - c_j)^2
    - w_j' (O_l - c_j')^2)) on the shared Gaussian components; requires a
    COMMON_PROFILE reservoir whose profiles share centers and widths.
    """
    if spec.kind is not ReservoirKind.COMMON_PROFILE:
        raise ModelError("coupled-mode correlations need a common_profile reservoir")
    profiles = spec.profiles or ()
    if not (0 <= m < len(profiles) and 0 <= n < len(profiles)):
        raise ModelError("resonator index out of range")
    pm, pn = profiles[m], profiles[n]
    if not (np.array_equal(pm.centers, pn.centers) and np.array_equal(pm.widths, pn.widths)):
        raise ModelError("profiles must share centers and widths for a common reservoir")
    if not 0 <= ell < pm.centers.size:
        raise ModelError("normal-mode index out of range")
    freq = pm.centers[ell]
    g = np.exp(-pm.widths * (freq - pm.centers) ** 2)
    total = float(np.sum(np.outer(g, g)))
    return spec.sigma * pm.amplitude * pn.amplitude * math.sqrt(total)


def correlation_negligible(
    sigma: float,
    v_m: float,
    v_n: float,
    xi_m: float,
    xi_n: float,
    omega_probe: float,
    omega_m: float,
    omega_n: float,
) -> float:
    """Cross-damping correlation in the negligible-coupling (Gaussian) limit.

    sigma * v_m * v_n * exp(-(xi_m (probe - omega_m)^2 + xi_n (probe - omega_n)^2) / 2);
    maximal, equal to sigma*v_m*v_n, exactly when both detunings vanish.
    """
    if xi_m <= 0.0 or xi_n <= 0.0:
        raise ModelError("profile widths must be positive")
    arg = xi_m * (omega_probe - omega_m) ** 2 + xi_n * (omega_probe - omega_n) ** 2
    return sigma * v_m * v_n * math.exp(-0.5 * arg)


def default_profile_width(min_mode_gap: float) -> float:
    """Gaussian width whose FWHM is one percent of the given mode spacing."""
    if min_mode_gap <= 0.0:
        raise ModelError("profile width default needs a positive mode spacing")
    fwhm = 0.01 * min_mode_gap
    return 4.0 * math.log(2.0) / fwhm**2


# ---------------------------------------------------------------------------
# decay matrices


def decay_matrix_common(n: int, gamma: float, epsilon: float) -> DecayMatrix:
    """Decay matrix of n resonators in one white-noise reservoir.

    Direct rates gamma on the diagonal, cross rates epsilon*gamma everywhere
    else.  Its eigenvalues split into [1 + (n-1)*epsilon]*gamma on the
    uniform direction and (1-epsilon)*gamma on the complement.
    """
    if n < 1:
        raise ModelError("decay matrix needs at least one resonator")
    if gamma < 0.0:
        raise ModelError("decay rate must be nonnegative")
    if not 0.0 <= epsilon <= 1.0:
        raise ModelError("epsilon must lie in [0, 1]")
    g = np.full((n, n), epsilon * gamma)
    np.fill_diagonal(g, gamma)
    return DecayMatrix(g)


def decay_matrix_from_couplings(
    decomp: NormalModeDecomposition,
    couplings: np.ndarray,
    sigma: float,
) -> DecayMatrix:
    """Assemble decay rates from reservoir couplings sampled at the modes.

    couplings[k, m] is resonator m's coupling at mode frequency O_k, so the
    reservoir correlation of resonators m and m' seen by channel k is
    sigma * V[k, m] * V[k, m'].  Entry (m, n) sums that correlation times
    C[k, m'] * C[k, n] over all modes k and resonators m', which separates
    into g = sigma * V^T diag(s) C with s_k = sum_m' V[k, m'] C[k, m'].  The
    result is symmetrised by averaging; asymmetry beyond 1e-8 of the sampled
    correlation scale signals an inconsistent correlation model and is
    rejected, as is any non-positive-semidefinite outcome.
    """
    c = np.asarray(decomp.transform)
    v = np.asarray(couplings, dtype=float)
    if v.shape != c.shape:
        raise ModelError(f"couplings must be {decomp.n}x{decomp.n}, got {v.shape}")
    s = np.sum(v * c, axis=1)
    g = sigma * (v.T * s) @ c
    asym = np.max(np.abs(g - g.T))
    sampled = sigma * float(np.max(np.abs(v), initial=0.0)) ** 2
    scale = max(np.max(np.abs(g)), sampled, 1e-300)
    if asym > 1e-8 * scale:
        raise ModelError(
            f"correlation model produced an asymmetric decay matrix (relative asymmetry {asym / scale:.3e})"
        )
    sym = 0.5 * (g + g.T)
    try:
        return DecayMatrix(sym)
    except ModelError as exc:
        raise ModelError(f"correlation model is not a valid reservoir: {exc}") from exc


def decay_matrix_distinct(n: int, gamma_plus: float, gamma_minus: float) -> DecayMatrix:
    """Decay matrix of n resonators each strongly coupled to its own reservoir.

    gamma_minus * I plus (gamma_plus - gamma_minus)/n on every entry: row sums
    equal gamma_plus, the eigenvalues are gamma_plus once and gamma_minus with
    multiplicity n-1, and all cross rates vanish when the two agree.
    """
    if n < 1:
        raise ModelError("decay matrix needs at least one resonator")
    if gamma_plus < 0.0 or gamma_minus < 0.0:
        raise ModelError("collective rates must be nonnegative")
    g = np.full((n, n), (gamma_plus - gamma_minus) / n)
    g[np.diag_indices(n)] += gamma_minus
    return DecayMatrix(g)


def renormalized_frequency(omega0: float, lambda0: float, n: int) -> float:
    """Effective resonator frequency after strong coupling to distinct reservoirs.

    omega0 * (1 + [(n-1) * lambda0 / (2 omega0)]**2); the shift is second order
    in the coupling and grows with the network size.
    """
    if n < 1:
        raise ModelError("network needs at least one resonator")
    if omega0 <= 0.0:
        raise ModelError("resonator frequency must be positive")
    x = (n - 1) * lambda0 / (2.0 * omega0)
    return omega0 * (1.0 + x * x)


def build_decay_matrix(spec: ReservoirSpec, n: int, decomp: Optional[NormalModeDecomposition] = None) -> DecayMatrix:
    """Decay matrix for any reservoir kind; profile reservoirs need the modes."""
    if spec.kind is ReservoirKind.COMMON_WHITE_NOISE:
        return decay_matrix_common(n, spec.sigma, spec.epsilon)
    if spec.kind is ReservoirKind.DISTINCT_STRONG_COUPLING:
        return decay_matrix_distinct(n, spec.gamma_plus, spec.gamma_minus)
    if decomp is None:
        raise ModelError("profile reservoirs need the normal-mode decomposition")
    profiles = spec.profiles or ()
    if len(profiles) != n:
        raise ModelError(f"expected {n} coupling profiles, got {len(profiles)}")
    couplings = np.array([[coupling_value(p, freq) for p in profiles] for freq in decomp.frequencies])
    return decay_matrix_from_couplings(decomp, couplings, spec.sigma)
