"""Dissipative evolution of coherent-state superpositions in label space.

For a quadratic resonator Hamiltonian with zero-temperature damping, a
superposition of coherent products stays a superposition of coherent
products: each label vector flows linearly, zeta_r(t) = exp(t D) beta_r with
the drift D = -i W - Gamma / 2, and each pair of terms picks up the exact
coefficient

    c_rs(t) = N^2 * w_r * conj(w_s) * <beta_s|beta_r> / <zeta_s|zeta_r>

multiplying |zeta_r><zeta_s|.  label_flow gives that flow for every network
and reservoir from one eigendecomposition of D (Moler & Van Loan, SIAM
Review 45, 2003, method 14, with a Taylor fallback, method 3).

All observables (occupations, purity, fidelity) are evaluated from the label
Gram matrices, never from a truncated Fock expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import _BYTE_BUDGET, _TRACE_ABORT, ModelError, NumericalError, _sci
from .network import _CLUSTER_RTOL, clusters
from .states import SuperpositionState, gram_matrix, log_gram_matrix

__all__ = [
    "Block",
    "expm",
    "label_flow",
    "propagate_with",
    "decoherence_time_numeric",
    "observables",
]

# Elements per block (see _blocks): propagate_with takes max(1,
# _BLOCK_ELEMENTS // elements per point) grid points at a time, and the same
# rule cuts the pieces of CSV text artifacts.trajectory_to_csv formats at once
# and the chunks of SVG points, so the Python overhead is paid once per block
# while a block's temporaries stay a few hundred KiB.
_BLOCK_ELEMENTS = 16 * 1024

# Bytes a run holds per term pair (terms^2) at one grid time: a block's
# terms x terms arrays.  Measured with tracemalloc as the slope of an `evolve`
# run's peak traced memory against terms^2 (n = 2 and 8, 300 to 600 terms,
# one time per block).
_TERM_PAIR_BYTES = 178

# Physical bounds on the observables, with this much room for rounding:
# purity <= 1, fidelity in [0, 1], occupations >= 0 (relative to max(1, total)).
_BOUND_SLACK = 1e-9

# An eigenvector matrix conditioned worse than this loses too many digits to
# V^-1; label_flow then uses the Taylor expm instead.
_COND_MAX = 1e4

# Labels (terms, n) and a 1-D array of T times -> the (T, terms, n) labels at those times.
LabelFlow = Callable[[np.ndarray, np.ndarray], np.ndarray]


def check_terms(terms: int) -> None:
    """Reject a state whose terms would need more than the byte budget at one grid time."""
    need = _TERM_PAIR_BYTES * terms * terms
    if need > _BYTE_BUDGET:
        raise ModelError(
            f"{terms} terms need {_sci(need)} bytes per grid time, over the {_sci(_BYTE_BUDGET)}-byte budget"
        )


def _blocks(points: int, per_point: int) -> Iterator[slice]:
    """Consecutive slices of range(points), max(1, _BLOCK_ELEMENTS // per_point) long."""
    size = max(1, _BLOCK_ELEMENTS // per_point)
    return (slice(start, start + size) for start in range(0, points, size))


def _require(ok: np.ndarray, times: np.ndarray, failure: Callable[[int], str]) -> None:
    """Raise NumericalError naming the first time where ok is False, described by failure(index)."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise NumericalError(f"{failure(i)} at t = {times[i]:g}; the label evolution is no longer trustworthy")


def _check_grid(times: np.ndarray) -> None:
    """A time grid is nonempty, starts at 0 and increases strictly."""
    if times.size == 0 or times[0] != 0.0:
        raise ModelError("time grid must start at 0")
    if np.any(np.diff(times) <= 0.0):
        raise ModelError("time grid must be strictly increasing")


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor kernel.

    The argument is a square matrix or a stack of them (leading axes).  It is
    halved until the largest 1-norm in the stack is at most 0.5, where a
    20-term Taylor sum is accurate to well below double rounding, then the
    result is squared back up; every matrix of a stack gets the same number
    of squarings.  Fully deterministic.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ModelError("expm expects a square matrix or a stack of them")
    norm = float(np.max(np.sum(np.abs(a), axis=-2), initial=0.0))
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


def _eigenbasis(d: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigenvalues lam, eigenvectors V and V^-1 of d, or None if V is unusable.

    Each cluster of eigenvalues (network.clusters) shares its mean value,
    and its vectors are replaced by an orthonormal basis of the null space
    of d - mean * I: on degenerate networks the solver's own vectors are
    nearly dependent.  None when a cluster's null space is smaller than the
    cluster (d is defective there) or cond(V) exceeds _COND_MAX.
    """
    n = d.shape[0]
    lam, v = np.linalg.eig(d)
    group = clusters(lam)
    for g in np.unique(group):
        members = np.flatnonzero(group == g)
        if members.size == 1:
            continue
        mean = lam[members].mean()
        _, sv, vh = np.linalg.svd(d - mean * np.eye(n))
        if sv[-members.size] > _CLUSTER_RTOL * max(sv[0], abs(mean)):
            return None
        lam[members] = mean
        v[:, members] = vh[-members.size :].conj().T
    u, sv, wh = np.linalg.svd(v)
    if sv[0] > _COND_MAX * sv[-1]:
        return None
    return lam, v, (wh.conj().T / sv) @ u.conj().T


def label_flow(drift: np.ndarray) -> LabelFlow:
    """The linear flow zeta(t) = exp(t D) beta of coherent labels under a drift D (see network.drift_matrix).

    D is factorised once, D = V diag(lam) V^-1 (see _eigenbasis), and the
    returned flow(beta, t) maps labels beta (terms, n) and a 1-D array of T
    times to zeta = (exp(lam t) * beta V^-T) V^T, of shape (T, terms, n),
    without forming exp(t D).  When the eigenvectors are unusable it takes
    zeta = beta exp(t D)^T with the Taylor expm of the stack t D instead.
    """
    d = np.asarray(drift)
    basis = _eigenbasis(d)
    if basis is None:

        def flow(beta: np.ndarray, t: np.ndarray) -> np.ndarray:
            theta = expm(d * np.asarray(t, dtype=float)[:, None, None])
            return np.asarray(beta) @ np.swapaxes(theta, -1, -2)

        return flow
    lam, v, v_inv = basis

    def flow(beta: np.ndarray, t: np.ndarray) -> np.ndarray:
        modes = np.asarray(beta) @ v_inv.T
        evolved = np.exp(np.multiply.outer(np.asarray(t, dtype=float), lam))[:, None, :] * modes
        # One gemm over the stacked rows: a batched matmul against a shared
        # matrix makes one BLAS call per time.
        return (evolved.reshape(-1, lam.size) @ v.T).reshape(evolved.shape)

    return flow


@dataclass(frozen=True, eq=False)
class Block:
    """Label-space evolution on a run of consecutive grid times.

    labels[i, r] is the coherent label of term r at times[i].  The rest is
    computed when first read and then kept: coeffs[i], the pair-coefficient
    matrix (entry (r, s) multiplies |zeta_r><zeta_s|) formed with the
    stream's shared pair data _log_g0_t = log G_0^T and _w_outer =
    N^2 w conj(w)^T, and the observables (occupations, purity, fidelity).
    Forming the coefficients checks the trace, the sum of c * G^T, and
    raises NumericalError at the first time it leaves 1 by more than 1e-6;
    as that sum equals N^2 w conj(w)^T * G_0^T up to rounding whatever the
    labels are, it catches only non-finite or overflowed coefficients.
    Each observable is checked against its physical bound when formed:
    purity <= 1, fidelity in [0, 1] and every occupation >= 0, each up to
    _BOUND_SLACK (relative to max(1, total occupation) for occupations), so
    coefficients that describe no density matrix raise NumericalError at
    the first time that breaks a bound.
    """

    times: np.ndarray
    labels: np.ndarray
    _log_g0_t: np.ndarray = field(repr=False)
    _w_outer: np.ndarray = field(repr=False)
    _state: SuperpositionState = field(repr=False)

    @cached_property
    def _formed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """coeffs, the transposed Gram matrices G^T[i, r, s] = <zeta_s|zeta_r> and the pair matrix c * G^T."""
        log_gt_t = np.swapaxes(log_gram_matrix(self.labels), -1, -2)
        gt_t = np.exp(log_gt_t)
        # An exploding flow overflows coeff; the trace check below is the arbiter.
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = np.exp(self._log_g0_t - log_gt_t)
            coeff *= self._w_outer
            m = coeff * gt_t
            trace = m.sum(axis=(-2, -1))
        drift = np.abs(trace - 1.0)
        _require(drift <= _TRACE_ABORT, self.times, lambda i: f"trace left 1 by {drift[i]:.3e}")
        return coeff, gt_t, m

    @property
    def coeffs(self) -> np.ndarray:
        return self._formed[0]

    @cached_property
    def occupations(self) -> np.ndarray:
        zeta = self.labels
        occ = (zeta * (self._formed[2] @ zeta.conj())).sum(axis=-2).real
        low = occ.min(axis=-1)
        ok = low >= -_BOUND_SLACK * np.maximum(1.0, occ.sum(axis=-1))
        _require(ok, self.times, lambda i: f"occupation {low[i]:.3e} is negative")
        return occ

    @cached_property
    def purity(self) -> np.ndarray:
        coeff, gt_t, _ = self._formed
        cg = coeff @ np.swapaxes(gt_t, -1, -2)
        purity = (cg * np.swapaxes(cg, -1, -2)).sum(axis=(-2, -1)).real
        _require(purity <= 1.0 + _BOUND_SLACK, self.times, lambda i: f"purity {purity[i]:.9g} exceeds 1")
        return purity

    @cached_property
    def fidelity(self) -> np.ndarray:
        terms = self._state.num_terms
        # w_in[t, s] = N sum_r conj(w_r) <beta_r|zeta_s(t)>, one gemv over the stacked rows
        g_in = np.swapaxes(gram_matrix(self._state.labels, self.labels), -1, -2).reshape(-1, terms)
        w_in = self._state.norm_factor * (g_in @ self._state.weights.conj()).reshape(-1, terms)
        fidelity = (w_in * (self.coeffs @ w_in.conj()[..., None])[..., 0]).sum(axis=-1).real
        ok = (fidelity >= -_BOUND_SLACK) & (fidelity <= 1.0 + _BOUND_SLACK)
        _require(ok, self.times, lambda i: f"fidelity {fidelity[i]:.9g} leaves [0, 1]")
        return fidelity

    @property
    def total_occupation(self) -> np.ndarray:
        return self.occupations.sum(axis=1)

    def at(self, index: int) -> Block:
        """The one-time Block at times[index]: views of this block's arrays, nothing computed carried over."""
        i = range(self.times.size)[index]
        return replace(self, times=self.times[i : i + 1], labels=self.labels[i : i + 1])


def propagate_with(state: SuperpositionState, times, flow: LabelFlow) -> Iterator[Block]:
    """Evolve a state along a label flow (see label_flow), one Block at a time.

    The time grid must be nonempty, start at 0 and increase strictly; it is
    checked before anything is evolved.  It is processed in blocks of
    max(1, _BLOCK_ELEMENTS // (terms * (n + terms))) consecutive times: the
    flow is called once per block with the state's labels and a 1-D array of
    T times and must return the (T, terms, n) stack of evolved labels, which
    are checked and yielded as a Block.  Its pair coefficients and
    observables are formed only when read (see Block): `evolve`'s CSV and
    `oracle-compare` read every block's coefficients, `sweep` those of its
    final time.  Only the block being worked on is held, so memory does not
    grow with the grid.  The pair coefficients are built in the log domain,
    c_rs = N^2 w_r conj(w_s) exp(log<beta_s|beta_r> - log<zeta_s|zeta_r>),
    so overlaps that underflow on their own still give finite coefficients.

    Before a block is yielded its labels must be finite and keep
    |zeta_r(t)|^2 <= |beta_r|^2 (1 + 1e-6), the contraction a positive
    semidefinite Gamma guarantees (d|zeta|^2/dt = -zeta^H Gamma zeta);
    otherwise NumericalError names the first failing time and no later block
    is evolved.  DecayMatrix admits eigenvalues down to -slack, so a valid
    run can reach the bound only when slack * t_max > 1e-6.  The trace check
    runs whenever a block's coefficients are formed (see Block).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_grid(times)
    return _stream(state, times, flow)


def _stream(state: SuperpositionState, times: np.ndarray, flow: LabelFlow) -> Iterator[Block]:
    beta = np.asarray(state.labels)
    terms, n = beta.shape
    weights = np.asarray(state.weights)
    w_outer = state.norm_factor**2 * np.outer(weights, weights.conj())
    log_g0_t = log_gram_matrix(beta).T
    b = beta.view(float)  # squared norms by einsum over float views: half the time of np.abs(z) ** 2
    bound = np.einsum("ri,ri->r", b, b) * (1.0 + _TRACE_ABORT)
    for block in _blocks(times.size, terms * (n + terms)):
        tb = times[block]
        zeta = np.ascontiguousarray(flow(beta, tb), dtype=complex)
        if zeta.shape != (tb.size, terms, n):
            raise ModelError(f"label flow returned shape {zeta.shape}, expected {(tb.size, terms, n)}")
        z = zeta.view(float)
        # NaN fails the comparison too, so this also rejects non-finite labels.
        _require(
            (np.einsum("tri,tri->tr", z, z) <= bound).all(axis=-1),
            tb,
            lambda i: f"labels are non-finite or outgrew |zeta_r|^2 <= |beta_r|^2 (1 + {_TRACE_ABORT:g})",
        )
        yield Block(times=tb, labels=zeta, _log_g0_t=log_g0_t, _w_outer=w_outer, _state=state)


def decoherence_time_numeric(
    flow: LabelFlow, state: SuperpositionState, step: float, gamma_rate: float = 0.0, r: int = 0, s: int = 1
) -> float:
    """Decoherence time of one term pair of a state from its label flow.

    The pair coherence D(t) = |<beta_r|beta_s> / <zeta_r(t)|zeta_s(t)>|
    decays from 1; the initial slope of -ln D, taken by a forward difference
    with step min(1e-6 / gamma_rate, step) (step alone when gamma_rate is 0;
    pass the first step of the time grid), gives 1/tau.  A slope smaller
    than 1e-12 * gamma_rate (or nonpositive) reports infinity.
    """
    terms = state.num_terms
    if r == s or not (0 <= r < terms and 0 <= s < terms):
        raise ModelError("decoherence time needs two distinct term indices")
    if not step > 0.0:
        raise ModelError("decoherence time needs a positive first grid step")
    beta = np.asarray(state.labels)
    delta0 = beta[r] - beta[s]
    if np.max(np.abs(delta0)) <= 1e-14:
        raise ModelError("the chosen terms carry identical labels")
    h = float(step) if gamma_rate == 0.0 else min(1e-6 / gamma_rate, float(step))
    delta_t = np.asarray(flow(delta0[None, :], np.array([h])))[0, 0]
    # -ln D(h) = (|delta0|^2 - |delta_t|^2) / 2, evaluated from the norms to
    # avoid cancellation inside an exp/log round trip.
    f = 0.5 * float(np.sum(np.abs(delta0) ** 2) - np.sum(np.abs(delta_t) ** 2))
    slope = f / h
    if slope <= 0.0 or abs(slope) < 1e-12 * gamma_rate:
        return math.inf
    return 1.0 / slope


def observables(block: Block, index: int) -> dict:
    """Observable record at one grid point of a block, computed for that time alone (see Block.at)."""
    one = block.at(index)
    return {
        "time": float(one.times[0]),
        "mean_occupation": [float(x) for x in one.occupations[0]],
        "total_occupation": float(one.total_occupation[0]),
        "purity": float(one.purity[0]),
        "fidelity_to_initial": float(one.fidelity[0]),
    }
