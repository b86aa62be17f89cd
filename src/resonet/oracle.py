"""Brute-force validation path: truncated Fock basis, full Lindblad integration.

Everything here deliberately avoids the label-space machinery: states are
embedded as dense density matrices on a product Fock basis, the master
equation

    d rho / dt = i [rho, H] + sum_mn (gamma_mn / 2) ([a_n rho, a_m+] + h.c.)

is applied matrix-free: on the row-major vec(rho) every term moves the
flat index by a constant offset fixed by the mode strides of the product
basis, so the generator is one precomputed weight array per offset (see
LindbladGenerator).  Each grid interval is crossed in substeps by the
Taylor series of exp(dt L) applied to the state, of degree 55 at most and
stopped once its terms fall below the unit roundoff (Al-Mohy & Higham
2011), in the frame rotating at the mean mode frequency (see integrate).
The series keeps the state Hermitian up to rounding.  integrate
yields the state at each grid time, and compare measures its trace
distance to the analytic state as it arrives, so only the state being
worked on is held.  Slow but independent, and numpy only.

The master equation keeps every coherence order N_a - N_b apart (H
conserves the total excitation number N, and every jump lowers N on both
sides), so a state with nonzero entries only at coherence orders divisible
by g stays block-diagonal in the classes of N mod g; the cats of the paper
are parity states, g = 2.  compare takes g from the first integrated state
and measures each time sector by sector: one eigvalsh per diagonal block of
the difference, plus 0.5 sqrt(dim) times the Frobenius norm of the
difference outside the blocks.  By the pinching inequality that sum is
never below the trace distance, whatever the states, and exceeds it by at
most the second term, which is rounding level while both states keep the
symmetry.  With g = 1 there is one block, the whole matrix.

Every dense array here, the generator's weights included, has up to
dim x dim complex entries, and integration and comparison hold a fixed
number of them whatever the grid, so memory is bounded up front: a basis
whose working set exceeds _BYTE_BUDGET is rejected with ModelError before
anything is allocated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator

import numpy as np

from .errors import _BYTE_BUDGET, _TRACE_ABORT, ModelError, NumericalError, _sci
from .evolve import Block
from .network import NetworkSpec
from .states import SuperpositionState

__all__ = [
    "FockBasisSpec",
    "LindbladGenerator",
    "ComparisonReport",
    "poisson_tail",
    "minimum_cutoff",
    "suggest_cutoff",
    "max_tail_mass",
    "working_set_bytes",
    "check_working_set",
    "coherent_vector",
    "embed_state",
    "embed_labels",
    "build_generator",
    "step_size",
    "integrate",
    "compare",
]

_TAIL_LIMIT = 1e-10
# Dense dim x dim arrays an oracle run holds at once besides the generator's
# weights: the generator's diagonal and scratch vector (2), the caller's
# initial state (1), integrate's state and two series terms (3), and at
# most 4 more.  compare holds its gather index into sector order (dim^2
# integers, half an array) throughout, and besides it: while integrate
# makes a state, the one compare holds, the new one and a ufunc iteration
# buffer (128 KiB at most); while compare measures a state, that state and
# the difference, then the difference in sector order (the first copy is
# dropped once it is made) and one of: a sector's conjugate transpose,
# eigvalsh's copy of the sector, or a flat copy of one rectangle outside
# the sectors.  The integer and boolean masks _sectors reads the first
# state with take less than one array.
_WORKING_ARRAYS = 10
# The Taylor degree cap and its theta_55 of Al-Mohy & Higham, SIAM J. Sci.
# Comput. 33 (2011) 488, Table 3.1 (unit roundoff 2^-53): the degree-55
# Taylor polynomial of exp(A) has backward error below the unit roundoff
# while ||A||_1 <= 9.9.
_DEGREE, _THETA = 55, 9.9
# Most Taylor substeps one integration may plan; a longer plan is refused
# before the first substep.  The largest plan of the test suite takes 100
# substeps (dim 169) and the oracle benchmark's 10, so this leaves 10^4 times
# headroom while a plan that could never finish fails at once.
_MAX_SUBSTEPS = 10**6


@dataclass(frozen=True)
class FockBasisSpec:
    """Product Fock basis: n modes, each truncated at `cutoff` excitations."""

    n: int
    cutoff: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelError("basis needs at least one mode")
        if self.cutoff < 1:
            raise ModelError("cutoff must be at least 1")
        # no basis is useful whose integration does not fit the budget
        check_working_set(self.n, self.cutoff)

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n


def working_set_bytes(n: int, cutoff: int) -> int:
    """Bytes of dense complex arrays the oracle holds on n modes at this cutoff.

    _WORKING_ARRAYS arrays of dim^2 * 16 bytes with dim = (cutoff + 1)^n,
    plus one weight array per generator offset: at most n (n - 1) row hops,
    n (n - 1) column hops and n^2 jumps, whatever the number of grid times.
    """
    dim = (cutoff + 1) ** n
    return (_WORKING_ARRAYS + 3 * n * n - 2 * n) * dim * dim * 16


def check_working_set(n: int, cutoff: int, labels=None) -> None:
    """Reject a basis whose oracle working set exceeds the byte budget.

    With the initial labels the message also names the smallest cutoff the
    state's tails allow and the bytes that cutoff would need.
    """
    need = working_set_bytes(n, cutoff)
    if need <= _BYTE_BUDGET:
        return
    msg = (
        f"oracle working set of {_sci(need)} bytes (cutoff {cutoff}, "
        f"dim {(cutoff + 1)}^{n}) exceeds the {_sci(_BYTE_BUDGET)}-byte budget"
    )
    if labels is not None:
        low = minimum_cutoff(_largest_amplitude(labels))
        msg += f"; the state's minimum cutoff is {low}, needing {_sci(working_set_bytes(n, low))} bytes"
    raise ModelError(msg)


# ---------------------------------------------------------------------------
# embedding


def poisson_tail(mean: float, cutoff: int) -> float:
    """P(K > cutoff) for a Poisson variable with the given mean.

    Below the mean the tail is 1 minus the terms up to the cutoff.  From the
    mean on the terms above the cutoff fall monotonically and are summed
    directly, so a tail far below the double rounding of 1 keeps its full
    relative precision.
    """
    if not 0.0 <= mean < math.inf:
        raise ModelError(f"Poisson mean must be finite and nonnegative, got {mean!r}")
    if mean == 0.0:
        return 0.0
    if cutoff < mean:
        term = math.exp(-mean)
        total = term
        for k in range(1, cutoff + 1):
            term *= mean / k
            total += term
        return max(0.0, 1.0 - total)
    k = cutoff + 1
    term = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
    tail = 0.0
    while tail + term != tail:
        tail += term
        k += 1
        term *= mean / k
    return tail


def minimum_cutoff(amplitude: float) -> int:
    """Smallest per-mode cutoff up to 10000 keeping the Poisson tail below 1e-10, found by bisection."""
    mean = amplitude * amplitude
    if poisson_tail(mean, 10_000) >= _TAIL_LIMIT:
        raise ModelError("amplitude too large for any reasonable truncation")
    # the tail falls as the cutoff grows; tail(hi) < 1e-10 <= tail(lo), and lo = 0 is never evaluated
    lo, hi = 0, 10_000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if poisson_tail(mean, mid) < _TAIL_LIMIT else (mid, hi)
    return hi


def _largest_amplitude(labels) -> float:
    """Largest |label component| of a label array of any shape (0 when empty)."""
    return float(np.max(np.abs(np.asarray(labels)), initial=0.0))


def suggest_cutoff(state: SuperpositionState) -> int:
    """Cutoff rule ceil(|b|^2 + 6 |b| + 8) on the largest label amplitude, at least minimum_cutoff."""
    amax = _largest_amplitude(state.labels)
    return max(int(math.ceil(amax * amax + 6.0 * amax + 8.0)), minimum_cutoff(amax))


def max_tail_mass(labels: np.ndarray, cutoff: int) -> float:
    """Largest per-mode Poisson tail among all label amplitudes (any shape).

    P(K > cutoff) rises with the mean (its derivative is P(K = cutoff)), so
    this is the tail at the largest amplitude.
    """
    return poisson_tail(_largest_amplitude(labels) ** 2, cutoff)


def _check_tails(labels: np.ndarray, basis: FockBasisSpec) -> None:
    worst = max_tail_mass(labels, basis.cutoff)
    if worst >= _TAIL_LIMIT:
        amp = _largest_amplitude(labels)
        raise ModelError(
            f"inadequate cutoff {basis.cutoff}: truncated mass {worst:.3e} for amplitude "
            f"{amp:g}; required minimum cutoff is {minimum_cutoff(amp)}"
        )


def coherent_vector(label, basis: FockBasisSpec) -> np.ndarray:
    """Truncated Fock expansion of the coherent product state with the given label."""
    label = np.atleast_1d(np.asarray(label, dtype=complex))
    if label.shape != (basis.n,):
        raise ModelError(f"label must have {basis.n} components")
    parts = []
    for beta in label:
        v = np.empty(basis.cutoff + 1, dtype=complex)
        v[0] = math.exp(-0.5 * abs(beta) ** 2)
        for k in range(1, basis.cutoff + 1):
            v[k] = v[k - 1] * beta / math.sqrt(k)
        parts.append(v)
    return reduce(np.kron, parts)


def embed_state(state: SuperpositionState, basis: FockBasisSpec) -> np.ndarray:
    """Project a label-form state onto the truncated basis as a density matrix.

    Rejects cutoffs whose per-mode truncated mass reaches 1e-10 (the error
    names the required minimum); the embedded matrix is renormalised to unit
    trace.  It forms psi psi^dagger instead of calling embed_labels with the
    pair coefficients on purpose: compare takes its symmetry sectors from the
    exact zeros of the first state (see _sectors), and psi psi^dagger is
    exactly zero between the parity sectors of a cat, where V C V^dagger
    leaves rounding noise and so a single sector.
    """
    _check_tails(state.labels, basis)
    psi = np.zeros(basis.dim, dtype=complex)
    for w, label in zip(state.weights, state.labels):
        psi += w * coherent_vector(label, basis)
    psi *= state.norm_factor
    rho = np.outer(psi, psi.conj())
    tr = np.trace(rho).real
    if tr <= 0.0:
        raise NumericalError("embedded state has vanishing trace")
    return rho / tr


def embed_labels(labels: np.ndarray, coeffs: np.ndarray, basis: FockBasisSpec) -> np.ndarray:
    """Dense matrix sum_rs coeffs[r, s] |labels_r><labels_s| on the truncated basis.

    The labels' Fock tails are the caller's to check: compare checks them
    once per label block, from the largest |label| so far.
    """
    labels = np.atleast_2d(np.asarray(labels, dtype=complex))
    v = np.column_stack([coherent_vector(lab, basis) for lab in labels])
    return v @ np.asarray(coeffs, dtype=complex) @ v.conj().T


# ---------------------------------------------------------------------------
# generator and integration


class LindbladGenerator:
    """The master-equation right-hand side on a truncated basis, in the rotating frame.

    H = sum_mk w_mk a_m+ a_k commutes with the total excitation number N, and
    the dissipator is unchanged by the phase exp(-i theta N).  So the
    lab-frame generator splits exactly into the rotation -i wbar [N, rho] at
    the mean mode frequency wbar = tr(W) / n and the generator of the shifted
    network W - wbar I.  `apply` is the second alone, the generator in the
    frame rotating at wbar; integrate rotates its states back to the lab
    frame.  It is grouped as B rho + rho B+ + sum_mk gamma_mk a_k rho a_m+
    with B = sum_mk b_mk a_m+ a_k, b_mk = -i (W - wbar I)_mk - gamma_mk / 2,
    which is algebraically identical to the defining form.

    Nothing is assembled.  With s_m = (cutoff + 1)^(n - 1 - m) the stride of
    mode m in the product basis, a_m+ a_k moves a basis index by s_m - s_k,
    so on the row-major vec(rho) (flat index i dim + j) every term reads its
    source at a constant offset from its destination: (s_k - s_m) dim for
    the row hops of B rho, s_k - s_m for the column hops of rho B+ and
    s_k dim + s_m for the jumps.  Each offset carries one complex weight
    array over its destination slice (the matrix elements, zero wherever
    the source state lies outside the truncation), and the diagonal terms
    of B and B+ one more over the whole vector; `apply` is one diagonal
    multiply and a multiply-add per offset.

    `norm_bound` bounds ||L||_1 by the triangle inequality over the terms
    `apply` adds: an offset puts at most one weight in each column, so its
    1-norm is its largest weight (2 max |b_dd| on the diagonal, cutoff
    |gamma_mk| for a jump).  integrate sizes its Taylor series from this sum
    of the terms' largest weights.
    """

    # Weights that overflow make norm_bound non-finite, which _taylor_plans rejects.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, basis: FockBasisSpec, w: np.ndarray, gamma: np.ndarray) -> None:
        n = basis.n
        w = np.asarray(w, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        if w.shape != (n, n) or gamma.shape != (n, n):
            raise ModelError("network and decay matrices must match the basis size")
        self.basis = basis
        self.omega_bar = float(np.trace(w)) / n
        shifted = w - self.omega_bar * np.eye(n)
        dim, c = basis.dim, basis.cutoff
        digits = _occupation_digits(basis)
        stride = [(c + 1) ** (n - 1 - m) for m in range(n)]
        root = np.sqrt(np.arange(1.0, c + 1.0))
        # <d - e_m| a_m |d> and <d|a_m |d + e_m> at each basis state d
        rise = [np.concatenate(([0.0], root))[digits[:, m]] for m in range(n)]
        low = [np.concatenate((root, [0.0]))[digits[:, m]] for m in range(n)]
        # B's diagonal, and b_mk <d|a_m+ a_k|d - e_m + e_k> for m != k by source offset s_k - s_m
        b = -1j * shifted - 0.5 * gamma
        b_diag = sum(b[m, m] * (rise[m] * rise[m]) for m in range(n))
        b_hops = {
            stride[k] - stride[m]: b[m, k] * (rise[m] * low[k])
            for m in range(n)
            for k in range(n)
            if m != k and b[m, k] != 0.0
        }
        self.norm_bound = (
            2.0 * float(np.max(np.abs(b_diag)))
            + 2.0 * sum(float(np.max(np.abs(v))) for v in b_hops.values())
            + c * float(np.sum(np.abs(gamma)))
        )

        self._diag = (b_diag[:, None] + b_diag.conj()[None, :]).ravel()
        # (offset, weights over the whole vector), made one at a time and cut
        # to the destination slice [lo, hi) whose sources lie in the vector
        weights = itertools.chain(
            ((off * dim, np.repeat(v, dim)) for off, v in b_hops.items()),
            ((off, np.tile(v.conj(), dim)) for off, v in b_hops.items()),
            (
                (stride[k] * dim + stride[m], gamma[m, k] * np.outer(low[k], low[m]).ravel())
                for m in range(n)
                for k in range(n)
                if gamma[m, k] != 0.0
            ),
        )
        size = dim * dim
        self._hops = []
        for off, weight in weights:
            lo, hi = max(0, -off), size - max(0, off)
            self._hops.append((lo, hi, off, weight[lo:hi].astype(complex)))
        self._scratch = np.empty(size, dtype=complex)
        # total excitation number of each basis state
        self._occ = digits.sum(axis=1)

    def apply(self, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """L(rho) for a dim x dim rho, written into `out` when given.

        `out` must be a C-ordered dim x dim complex array that does not share
        memory with rho.
        """
        r = np.asarray(rho, dtype=complex).reshape(-1)
        if out is None:
            out = np.empty((self.basis.dim, self.basis.dim), dtype=complex)
        flat = out.reshape(-1)
        np.multiply(self._diag, r, out=flat)
        for lo, hi, off, weight in self._hops:
            part = self._scratch[: hi - lo]
            np.multiply(r[lo + off : hi + off], weight, out=part)
            flat[lo:hi] += part
        return out


def build_generator(spec: NetworkSpec, decay, basis: FockBasisSpec) -> LindbladGenerator:
    """Generator for a network and its DecayMatrix on the given basis."""
    return LindbladGenerator(basis, spec.w_matrix(), decay.matrix)


def _taylor_plans(gen: LindbladGenerator, times: np.ndarray) -> list[tuple[float, int]]:
    """(dt, substeps s) of the Taylor action on each grid interval.

    s = max(1, ceil(dt norm_bound / theta_55)) keeps each substep's
    ||h L||_1 <= theta_55, for a series of degree _DEGREE at most that
    usually stops well before it (see integrate).  A norm bound that is not
    finite times dt, as from inputs near the float range, raises
    NumericalError; more than _MAX_SUBSTEPS substeps in all raise ModelError.
    """
    if times.size < 2:
        raise ModelError("integration needs at least two grid times")
    plans = []
    for dt in np.diff(times).tolist():
        if not dt > 0.0:
            raise ModelError("time grid must be strictly increasing")
        x = dt * gen.norm_bound
        if not math.isfinite(x):
            raise NumericalError(f"the generator's norm bound {gen.norm_bound:g} times dt = {dt:g} is not finite")
        plans.append((dt, max(1, math.ceil(x / _THETA))))
    total = sum(s for _, s in plans)
    if total > _MAX_SUBSTEPS:
        raise ModelError(f"the Taylor plan needs {_sci(total)} substeps, over the {_sci(_MAX_SUBSTEPS)}-substep limit")
    return plans


def step_size(gen: LindbladGenerator, times) -> float:
    """Largest Taylor substep dt / s integrate takes on this grid."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return max(dt / s for dt, s in _taylor_plans(gen, times))


def _max_abs(x: np.ndarray) -> float:
    """Largest |Re| or |Im| over a C-ordered complex array, read from its float view."""
    parts = x.view(float)
    return max(float(parts.max()), -float(parts.min()))


def integrate(rho0: np.ndarray, gen: LindbladGenerator, times) -> Iterator[np.ndarray]:
    """Yield the state at each grid time, integrating by the Taylor action of exp(dt L).

    Each grid interval dt is split into s substeps h = dt / s, with s from
    the generator's norm bound (see _taylor_plans), and each substep applies
    the Taylor series of exp(h L) up to degree 55 at most.  A series stops
    early once two consecutive terms fall below 2^-53 of the partial sum in
    the max norm over real and imaginary parts, as in Al-Mohy & Higham
    (2011), Algorithm 3.2.  L is not shifted: at zero temperature the vacuum
    is stationary, so the series stops soonest for states near it, which
    a shift by the mean of L's diagonal, -cutoff tr(Gamma) / 2, would move
    away from zero.

    L is `gen.apply`, the generator in the frame rotating at the mean mode
    frequency omega_bar, where the fast phase of omega_bar N is gone; each
    yielded state is rotated back to the lab frame, rho_ab(t) =
    exp(-i omega_bar (t - t0) (N_a - N_b)) rho_I,ab(t), which changes neither
    trace nor Hermiticity.  L(rho+) = L(rho)+, so the series keeps the
    state Hermitian up to rounding and it is never projected; trace drift
    beyond 1e-6 aborts with NumericalError naming that time.

    The first state yielded is a copy of rho0.  Only the current state is
    kept, so a consumer that holds at most the latest yielded array (as
    compare does) works in memory independent of the grid.  The series runs
    in a fixed set of dim x dim buffers (the state and two terms) and
    allocates only the state it yields.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    plans = _taylor_plans(gen, times)
    rho = np.array(rho0, dtype=complex, order="C", copy=True)
    terms = (np.empty_like(rho), np.empty_like(rho))
    yield rho.copy()
    for i, (dt, s) in enumerate(plans):
        h = dt / s
        for _ in range(s):
            term = rho
            c1 = _max_abs(term)
            for j in range(1, _DEGREE + 1):
                nxt = terms[term is terms[0]]  # the term buffer not holding term
                gen.apply(term, out=nxt)
                nxt *= h / j
                term = nxt
                c2 = _max_abs(term)
                rho += term
                if c1 + c2 <= 2.0**-53 * _max_abs(rho):
                    break
                c1 = c2
        t = times[i + 1]
        tr = np.trace(rho).real
        if not math.isfinite(tr) or abs(tr - 1.0) > _TRACE_ABORT:
            raise NumericalError(f"trace drifted to {tr!r} at t = {t:g}; integration aborted")
        phase = np.exp(-1j * gen.omega_bar * (t - times[0]) * gen._occ)
        lab = np.multiply(phase[:, None], rho)
        lab *= phase.conj()
        yield lab


# ---------------------------------------------------------------------------
# measurements and comparison


def _occupation_digits(basis: FockBasisSpec) -> np.ndarray:
    return np.indices((basis.cutoff + 1,) * basis.n).reshape(basis.n, -1).T


def _sectors(rho0: np.ndarray, basis: FockBasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """The basis order and bounds of the symmetry sectors that rho0 fixes.

    g is the gcd of the coherence orders |N_a - N_b| on which rho0 is nonzero,
    and the sectors are the classes of the total excitation number N mod g
    (of N itself when g = 0), in which the master equation keeps rho0 block-
    diagonal.  Sector i is order[bounds[i]:bounds[i + 1]]; with g = 1 the one
    sector is the whole basis in its own order.
    """
    occ = _occupation_digits(basis).sum(axis=1, dtype=np.int32)
    orders = np.abs(occ[:, None] - occ[None, :])[rho0 != 0]
    g = int(np.gcd.reduce(np.flatnonzero(np.bincount(orders))))
    key = occ % g if g else occ
    return np.argsort(key, kind="stable"), np.concatenate(([0], np.cumsum(np.bincount(key))))


def _hermitian_trace_norm(x: np.ndarray) -> float:
    """sum |eigenvalues| of the Hermitian part (x + x^dagger) / 2, which overwrites x."""
    x += np.conjugate(x.T)
    x *= 0.5
    return float(np.sum(np.abs(np.linalg.eigvalsh(x))))


def _trace_distance(labels, coeffs, rho: np.ndarray, basis: FockBasisSpec, index: np.ndarray, bounds: np.ndarray) -> float:
    """Upper bound on the trace distance of the embedded label state and rho, per sector (see compare).

    The difference is taken once into sector order (delta.take(index) is
    delta[order][:, order] flattened), so each diagonal block and each
    rectangle outside them is a view of it.
    """
    delta = embed_labels(labels, coeffs, basis)
    delta -= rho
    delta = delta.take(index).reshape(basis.dim, basis.dim)
    cuts = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    total = sum(_hermitian_trace_norm(delta[lo:hi, lo:hi]) for lo, hi in cuts)
    off = sum(np.vdot(x, x).real for lo, hi in cuts for x in (delta[lo:hi, :lo], delta[lo:hi, hi:]))
    return 0.5 * total + 0.5 * math.sqrt(basis.dim * off)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per grid time, an upper bound on the trace distance between analytic and integrated states (see compare), and max_tail_mass of all labels."""

    times: np.ndarray
    distances: np.ndarray
    max_distance: float
    tail_mass: float


def compare(blocks: Iterable[Block], rhos: Iterable[np.ndarray], basis: FockBasisSpec) -> ComparisonReport:
    """Upper bound on the trace distance between a label stream and a stream of integrated Fock states.

    The two streams are walked in lockstep, one grid time at a time: each
    integrated state is compared as it arrives against the analytic state of
    its block, embedded on the same truncated basis.  The reported distance
    is taken per symmetry sector of the first integrated state (see
    _sectors): the sum over sectors S of 0.5 ||Herm(Delta)_SS||_1, one
    eigvalsh per sector, plus 0.5 sqrt(dim) ||Delta_off||_F for the
    difference Delta outside the sectors.  By the pinching inequality this
    is never below the trace distance and exceeds it by at most the second
    term, which is rounding level while both states keep the first one's
    symmetry, so a value is a measured distance only when that term is
    small; with one sector (g = 1) the second term is 0 and the value is
    0.5 sum |eigenvalues| of Herm(Delta).  Of the label stream
    only the current block and, per term and mode, the largest |label| so
    far are held; that envelope's Fock tails are checked once per block
    before its times are compared, so a block with a label whose per-mode
    truncated mass reaches 1e-10 raises ModelError naming the required
    minimum cutoff.  Streams of different lengths, or an empty grid, raise
    ModelError.
    """
    rhos = iter(rhos)
    times, dists, envelope = [], [], 0.0
    for block in blocks:
        envelope = np.maximum(envelope, np.abs(block.labels).max(axis=0))
        _check_tails(envelope, basis)
        for t, labels, coeffs in zip(block.times, block.labels, block.coeffs):
            rho = next(rhos, None)
            if rho is None:
                raise ModelError("trajectory and integrated states cover different grids")
            if not dists:
                order, bounds = _sectors(rho, basis)
                index = (order[:, None] * basis.dim + order).ravel()
            times.append(t)
            dists.append(_trace_distance(labels, coeffs, rho, basis, index, bounds))
    if next(rhos, None) is not None:
        raise ModelError("trajectory and integrated states cover different grids")
    if not dists:
        raise ModelError("comparison grid is empty: no label block and no integrated state")
    dists = np.array(dists)
    return ComparisonReport(np.array(times), dists, float(np.max(dists)), max_tail_mass(envelope, basis.cutoff))
