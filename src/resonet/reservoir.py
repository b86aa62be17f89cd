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
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import network
from .errors import ModelError
from .network import NetworkSpec, NormalModeDecomposition, _frozen

__all__ = [
    "ReservoirKind",
    "CouplingProfile",
    "ReservoirSpec",
    "DecayMatrix",
    "coupling_value",
    "decay_matrix_common",
    "decay_matrix_from_couplings",
    "decay_matrix_distinct",
    "renormalized_frequency",
    "build_decay_matrix",
]

_DISTINCT_RATIO = 1e-3  # kernel threshold of DecayMatrix.kernel, relative to n and the largest rate


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
        if not math.isfinite(self.amplitude):
            raise ModelError("profile amplitude must be finite")
        if self.centers.size == 0:
            raise ModelError("coupling profile needs at least one Gaussian component")
        if self.centers.shape != self.widths.shape:
            raise ModelError("profile centers and widths must have matching lengths")
        if np.any(~np.isfinite(self.centers)):
            raise ModelError("profile centers must be finite")
        if np.any(self.widths <= 0.0) or np.any(~np.isfinite(self.widths)):
            raise ModelError("profile widths must be positive and finite")


@dataclass(frozen=True, eq=False)
class ReservoirSpec:
    """Which reservoir model applies, with the fields that model needs.

    sigma is the flat spectral density of the common reservoir; for white
    noise with unit coupling amplitude it doubles as the per-resonator decay
    rate.  epsilon is the white-noise cross-correlation fraction in [0, 1].
    profiles are required for COMMON_PROFILE, gamma_plus/gamma_minus for
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
            if not (0.0 <= self.gamma_plus < math.inf and 0.0 <= self.gamma_minus < math.inf):
                raise ModelError("collective rates must be nonnegative and finite")


def rounding_slack(gamma: np.ndarray) -> float:
    """Rounding slack 1e-12 * max(1, largest column sum of |gamma|) of a decay matrix gamma."""
    return 1e-12 * max(1.0, float(np.max(np.sum(np.abs(gamma), axis=0))))


@dataclass(frozen=True, eq=False)
class DecayMatrix:
    """Symmetric positive-semidefinite matrix of decay rates.

    Diagonal entries are direct rates, off-diagonal entries cross-decay
    rates.  Positive semidefiniteness (up to a -slack rounding slack) is
    what makes the induced master equation a valid quantum channel generator.
    One eigendecomposition at construction gives `rates`, the eigenvalues in
    ascending order with those within the slack of zero set to 0, and
    `modes`, the matching orthonormal eigenvectors as columns.
    """

    matrix: np.ndarray
    rates: np.ndarray = field(init=False)
    modes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", _frozen(g))
        if g.shape[0] != g.shape[1]:
            raise ModelError("decay matrix must be square")
        if g.size == 0:
            raise ModelError("decay matrix needs at least one resonator")
        if np.any(~np.isfinite(g)):
            raise ModelError("decay rates must be finite")
        slack = self.slack
        if np.max(np.abs(g - g.T), initial=0.0) > slack:
            raise ModelError("decay matrix must be symmetric")
        if np.any(np.diagonal(g) < -slack):
            raise ModelError("direct decay rates must be nonnegative")
        rates, modes = np.linalg.eigh(g)
        rates[np.abs(rates) <= slack] = 0.0
        object.__setattr__(self, "rates", _frozen(rates))
        object.__setattr__(self, "modes", _frozen(modes))
        if rates[0] < -slack:
            raise ModelError("decay matrix must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def slack(self) -> float:
        """Rounding slack of the matrix (see rounding_slack): rates within it count as zero."""
        return rounding_slack(self.matrix)

    @property
    def kernel(self) -> np.ndarray:
        """Modes (columns) with rates up to _DISTINCT_RATIO / n of the largest, all of them when Gamma = 0.

        So a dominantly collective reservoir (n gamma_minus < 1e-3 gamma_plus) counts as fully collective.
        """
        top = self.rates[-1]
        return self.modes if top <= 0.0 else self.modes[:, self.rates <= (_DISTINCT_RATIO / self.n) * top]


# ---------------------------------------------------------------------------
# coupling profiles


def coupling_value(profile: CouplingProfile, freq):
    """Coupling strength of one resonator at a frequency, or at each of an array of them (the same floats)."""
    s = np.sum(np.exp(-profile.widths * (np.asarray(freq, dtype=float)[..., None] - profile.centers) ** 2), axis=-1)
    return profile.amplitude * np.sqrt(s)


# ---------------------------------------------------------------------------
# decay matrices


def decay_matrix_common(n: int, gamma: float, epsilon: float) -> DecayMatrix:
    """Decay matrix of n resonators in one white-noise reservoir.

    Direct rates gamma on the diagonal, cross rates epsilon*gamma everywhere
    else.  Its eigenvalues split into [1 + (n-1)*epsilon]*gamma on the
    uniform direction and (1-epsilon)*gamma on the complement.
    """
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
    """Secular decay matrix from reservoir couplings sampled at the modes.

    couplings[k, m] is resonator m's coupling at mode frequency O_k, so the
    normal mode b_k = sum_m C[k, m] a_m couples to the reservoir with
    s_k = sum_m V[k, m] C[k, m] and decays at the rate sigma * s_k^2.  In the
    secular (rotating-wave) Born-Markov limit cross rates survive only
    within a frequency cluster (network.clusters), so Gamma =
    sigma * C^T (s s^T o P) C with P that mask, one rank-1 block per cluster:
    symmetric and positive semidefinite by construction
    (Breuer & Petruccione, The Theory of Open Quantum Systems, sec. 3.3).
    """
    c = np.asarray(decomp.transform)
    v = np.asarray(couplings, dtype=float)
    if v.shape != c.shape:
        raise ModelError(f"couplings must be {decomp.n}x{decomp.n}, got {v.shape}")
    s = np.sum(v * c, axis=1)
    group = network.clusters(decomp.frequencies)
    same = group[:, None] == group
    # Couplings near the float range overflow here; DecayMatrix rejects the non-finite result.
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = sigma * c.T @ (np.outer(s, s) * same) @ c
    return DecayMatrix(gamma)


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


def build_decay_matrix(spec: ReservoirSpec, net: NetworkSpec) -> DecayMatrix:
    """Decay matrix of any reservoir kind on the given network.

    Profile reservoirs sample their couplings at the network's normal modes,
    which are computed here and only for that kind.
    """
    n = net.n
    if spec.kind is ReservoirKind.COMMON_WHITE_NOISE:
        return decay_matrix_common(n, spec.sigma, spec.epsilon)
    if spec.kind is ReservoirKind.DISTINCT_STRONG_COUPLING:
        return decay_matrix_distinct(n, spec.gamma_plus, spec.gamma_minus)
    profiles = spec.profiles or ()
    if len(profiles) != n:
        raise ModelError(f"expected {n} coupling profiles, got {len(profiles)}")
    decomp = network.normal_modes(net)
    couplings = np.column_stack([coupling_value(p, decomp.frequencies) for p in profiles])
    return decay_matrix_from_couplings(decomp, couplings, spec.sigma)
