"""Dissipative evolution of coherent-state superpositions in label space.

For a quadratic resonator Hamiltonian with zero-temperature damping, a
superposition of coherent products stays a superposition of coherent
products: each label vector flows linearly, zeta_r(t) = Theta(t) beta_r,
and each pair of terms picks up the exact coefficient

    c_rs(t) = N^2 * w_r * conj(w_s) * <beta_s|beta_r> / <zeta_s|zeta_r>

multiplying |zeta_r><zeta_s|.  For the all-to-all degenerate network in a
common partially correlated reservoir the propagator has a closed form,

    Theta_mn(t) = exp(-(1-eps) G t / 2) / n
                  * [exp(-(eps n G / 2 + i O_plus) t)
                     + (n delta_mn - 1) exp(-i O_minus t)],

splitting the decay into a fast collective rate gamma_up = [1 + (n-1) eps] G
on the symmetric mode and a slow rate gamma_down = (1 - eps) G on the
complement.  For arbitrary networks Theta(t) = exp(t D) with the drift
D = -i W - gamma / 2.

All observables (occupations, purity, fidelity) are evaluated from the label
Gram matrices, never from a truncated Fock expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ModelError, NumericalError
from .network import DriftMatrix, _frozen
from .states import RSFamilySpec, SuperpositionState, gram_matrix

__all__ = [
    "EvolutionParams",
    "RateSplit",
    "Trajectory",
    "effective_rates",
    "distinct_as_common",
    "propagator_closed_form",
    "expm",
    "propagator_general",
    "propagate",
    "propagate_with",
    "decoherence_time_formula",
    "decoherence_time_numeric",
    "observables",
    "trajectory_to_csv",
]

# Trace loss beyond this aborts a propagation as numerically broken.
_TRACE_ABORT = 1e-6


@dataclass(frozen=True, eq=False)
class EvolutionParams:
    """Closed-form evolution inputs for the degenerate symmetric network."""

    n: int
    gamma: float
    epsilon: float
    omega_plus: float
    omega_minus: float
    times: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _frozen(np.atleast_1d(np.asarray(self.times, dtype=float))))
        if self.n < 1:
            raise ModelError("evolution needs at least one resonator")
        if self.gamma < 0.0:
            raise ModelError("decay rate must be nonnegative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ModelError("epsilon must lie in [0, 1]")
        t = self.times
        if t.size == 0 or t[0] != 0.0:
            raise ModelError("time grid must start at 0")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ModelError("time grid must be strictly increasing")


@dataclass(frozen=True)
class RateSplit:
    """Collective decay rates: gamma_down on the protected manifold, gamma_up on the symmetric mode."""

    gamma_down: float
    gamma_up: float


def effective_rates(n: int, gamma: float, epsilon: float) -> RateSplit:
    """Split the per-resonator rate into the two collective rates.

    gamma_down = (1 - epsilon) * gamma, gamma_up = [1 + (n-1) epsilon] * gamma;
    together they exhaust the total damping: gamma_up + (n-1) gamma_down = n gamma.
    """
    if n < 1:
        raise ModelError("rate split needs at least one resonator")
    if gamma < 0.0:
        raise ModelError("decay rate must be nonnegative")
    if not 0.0 <= epsilon <= 1.0:
        raise ModelError("epsilon must lie in [0, 1]")
    return RateSplit(
        gamma_down=(1.0 - epsilon) * gamma,
        gamma_up=(1.0 + (n - 1) * epsilon) * gamma,
    )


def distinct_as_common(n: int, gamma_plus: float, gamma_minus: float) -> tuple[float, float]:
    """Common-reservoir (gamma, epsilon) with the split rates of distinct reservoirs.

    gamma = (gamma_plus + (n-1) gamma_minus) / n is the mean direct rate and
    epsilon = (gamma_plus - gamma_minus) / (gamma_plus + (n-1) gamma_minus),
    for which effective_rates returns gamma_minus and gamma_plus.  When that
    denominator is zero there is no damping at all and epsilon is reported as 0.
    """
    total = gamma_plus + (n - 1) * gamma_minus
    return total / n, ((gamma_plus - gamma_minus) / total if total > 0.0 else 0.0)


def propagator_closed_form(params: EvolutionParams, t: float) -> np.ndarray:
    """Label propagator of the degenerate symmetric network at time t."""
    n = params.n
    slow = np.exp(-0.5 * (1.0 - params.epsilon) * params.gamma * t)
    fast = np.exp(-(0.5 * params.epsilon * n * params.gamma + 1j * params.omega_plus) * t)
    rot = np.exp(-1j * params.omega_minus * t)
    theta = np.full((n, n), (slow / n) * (fast - rot), dtype=complex)
    theta[np.diag_indices(n)] += slow * rot
    return theta


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor kernel.

    The argument is halved until its 1-norm is at most 0.5, where a
    20-term Taylor sum is accurate to well below double rounding, then the
    result is squared back up.  Fully deterministic.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ModelError("expm expects a square matrix")
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    if not math.isfinite(norm):
        raise ModelError("expm argument must be finite")
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    b = a / (2.0**squarings)
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 21):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def propagator_general(drift: DriftMatrix, t: float) -> np.ndarray:
    """Label propagator exp(t * drift) for an arbitrary network/reservoir."""
    return expm(np.asarray(drift.matrix) * t)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Label-space evolution sampled on a time grid.

    labels[t, r] is the coherent label of term r at times[t]; coeffs[t] the
    pair-coefficient matrix (entry (r, s) multiplies |zeta_r><zeta_s|).  The
    observable arrays are aligned with times.  `propagator` re-evaluates
    Theta at arbitrary times, which the decoherence-time estimate uses for
    its short-step derivative; gamma_rate is the per-resonator decay rate
    used to size that step (0 when unknown).
    """

    times: np.ndarray
    labels: np.ndarray
    coeffs: np.ndarray
    occupations: np.ndarray
    total_occupation: np.ndarray
    purity: np.ndarray
    fidelity: np.ndarray
    state: SuperpositionState
    propagator: Callable[[float], np.ndarray]
    gamma_rate: float

    @property
    def num_terms(self) -> int:
        return self.labels.shape[1]


def propagate(state: SuperpositionState, params: EvolutionParams) -> Trajectory:
    """Evolve a state with the closed-form degenerate-network propagator."""
    if state.n != params.n:
        raise ModelError(f"state has {state.n} resonators, parameters expect {params.n}")
    return propagate_with(
        state, params.times, lambda t: propagator_closed_form(params, t), gamma_rate=params.gamma
    )


def propagate_with(
    state: SuperpositionState,
    times,
    propagator: Callable[[float], np.ndarray],
    gamma_rate: float = 0.0,
) -> Trajectory:
    """Evolve a state with an arbitrary label propagator Theta(t).

    Aborts with NumericalError if the reconstructed trace drifts from 1 by
    more than 1e-6 at any grid time (the exact coefficients keep it at 1, so
    a drift means overflow or a propagator inconsistent with the labels).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    beta = np.asarray(state.labels)
    terms, n = beta.shape
    weights = np.asarray(state.weights)
    w_outer = state.norm_factor**2 * np.outer(weights, weights.conj())
    g0 = gram_matrix(beta)

    nt = times.size
    labels_t = np.empty((nt, terms, n), dtype=complex)
    coeffs_t = np.empty((nt, terms, terms), dtype=complex)
    occ_t = np.empty((nt, n))
    purity_t = np.empty(nt)
    fid_t = np.empty(nt)

    for i, t in enumerate(times):
        theta = np.asarray(propagator(float(t)), dtype=complex)
        if theta.shape != (n, n):
            raise ModelError(f"propagator returned shape {theta.shape}, expected {(n, n)}")
        zeta = beta @ theta.T
        gt = gram_matrix(zeta)
        # Underflowing overlaps turn the ratio into inf/nan; the trace check
        # below is the arbiter, so the division may do so silently.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            coeff = w_outer * (g0 / gt).T
            trace = np.sum(coeff * gt.T)
        if not np.isfinite(trace.real) or abs(trace - 1.0) > _TRACE_ABORT:
            raise NumericalError(
                f"trace left 1 by {abs(trace - 1.0):.3e} at t = {t:g}; "
                "the label evolution is no longer trustworthy"
            )
        m = coeff * gt.T
        occ = np.einsum("rs,sm,rm->m", m, zeta.conj(), zeta)
        cg = coeff @ gt
        labels_t[i] = zeta
        coeffs_t[i] = coeff
        occ_t[i] = occ.real
        purity_t[i] = float(np.real(np.sum(cg * cg.T)))
        gx = gram_matrix(beta, zeta)
        w_in = state.norm_factor * (weights.conj() @ gx)
        fid_t[i] = float(np.real(w_in @ (coeff @ w_in.conj())))

    return Trajectory(
        times=_frozen(times),
        labels=labels_t,
        coeffs=coeffs_t,
        occupations=occ_t,
        total_occupation=occ_t.sum(axis=1),
        purity=purity_t,
        fidelity=fid_t,
        state=state,
        propagator=propagator,
        gamma_rate=float(gamma_rate),
    )


def decoherence_time_formula(spec: RSFamilySpec, gamma: float, epsilon: float) -> float:
    """Decoherence time of the two-branch family in a common reservoir.

    1 / (2 |alpha|^2 [(R-S)^2 gamma + ((R+S) - (R-S)^2) gamma_down]) with
    gamma_down = (1 - epsilon) gamma; infinite when the bracket vanishes
    (the protected R = S configurations at epsilon = 1, and R = S = 0).
    """
    alpha2 = abs(complex(spec.alpha)) ** 2
    if alpha2 == 0.0:
        raise ModelError("decoherence time needs a nonzero branch amplitude")
    if gamma < 0.0:
        raise ModelError("decay rate must be nonnegative")
    if not 0.0 <= epsilon <= 1.0:
        raise ModelError("epsilon must lie in [0, 1]")
    diff2 = (spec.r - spec.s) ** 2
    gamma_down = (1.0 - epsilon) * gamma
    denom = diff2 * gamma + ((spec.r + spec.s) - diff2) * gamma_down
    if denom <= 0.0:
        return math.inf
    return 1.0 / (2.0 * alpha2 * denom)


def decoherence_time_numeric(traj: Trajectory, r: int = 0, s: int = 1) -> float:
    """Decoherence time of one term pair from the trajectory's own propagator.

    The pair coherence D(t) = |<beta_r|beta_s> / <zeta_r(t)|zeta_s(t)>|
    decays from 1; the initial slope of -ln D, taken by a forward difference
    with step min(1e-6 / gamma, first grid step), gives 1/tau.  A slope
    smaller than 1e-12 * gamma (or nonpositive) reports infinity.
    """
    terms = traj.num_terms
    if r == s or not (0 <= r < terms and 0 <= s < terms):
        raise ModelError("decoherence time needs two distinct term indices")
    if traj.times.size < 2:
        raise ModelError("decoherence time needs a grid with at least two times")
    beta = np.asarray(traj.state.labels)
    delta0 = beta[r] - beta[s]
    if np.max(np.abs(delta0)) <= 1e-14:
        raise ModelError("the chosen terms carry identical labels")
    first = float(traj.times[1] - traj.times[0])
    h = first if traj.gamma_rate == 0.0 else min(1e-6 / traj.gamma_rate, first)
    theta = np.asarray(traj.propagator(h), dtype=complex)
    delta_t = theta @ delta0
    # -ln D(h) = (|delta0|^2 - |delta_t|^2) / 2, evaluated from the norms to
    # avoid cancellation inside an exp/log round trip.
    f = 0.5 * float(np.sum(np.abs(delta0) ** 2) - np.sum(np.abs(delta_t) ** 2))
    slope = f / h
    if slope <= 0.0 or abs(slope) < 1e-12 * traj.gamma_rate:
        return math.inf
    return 1.0 / slope


def observables(traj: Trajectory, index: int) -> dict:
    """Observable record at one grid point of a trajectory."""
    i = int(index)
    return {
        "time": float(traj.times[i]),
        "mean_occupation": [float(x) for x in traj.occupations[i]],
        "total_occupation": float(traj.total_occupation[i]),
        "purity": float(traj.purity[i]),
        "fidelity_to_initial": float(traj.fidelity[i]),
    }


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialise a trajectory: time, per-resonator and total occupation, purity, fidelity, |c_rs| pairs.

    Coherence columns cover ordered pairs r < s (0-based indices in the
    header), all floats printed with 9 significant digits.
    """
    n = traj.labels.shape[2]
    terms = traj.num_terms
    pairs = [(a, b) for a in range(terms) for b in range(a + 1, terms)]
    header = (
        ["time"]
        + [f"occ_{m + 1}" for m in range(n)]
        + ["occ_total", "purity", "fidelity"]
        + [f"coh_{a}_{b}" for a, b in pairs]
    )
    lines = [",".join(header)]
    for i in range(traj.times.size):
        row = [f"{traj.times[i]:.9g}"]
        row += [f"{x:.9g}" for x in traj.occupations[i]]
        row += [
            f"{traj.total_occupation[i]:.9g}",
            f"{traj.purity[i]:.9g}",
            f"{traj.fidelity[i]:.9g}",
        ]
        row += [f"{abs(traj.coeffs[i][a, b]):.9g}" for a, b in pairs]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
