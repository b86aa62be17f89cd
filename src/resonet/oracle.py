"""Brute-force validation path: truncated Fock basis, full Lindblad integration.

Everything here deliberately avoids the label-space machinery: states are
embedded as dense density matrices on a product Fock basis, the master
equation

    d rho / dt = i [rho, H] + sum_mn (gamma_mn / 2) ([a_n rho, a_m+] + h.c.)

is applied matrix-free: on the row-major vec(rho) every term moves the
flat index by a constant offset fixed by the mode strides of the product
basis, so the generator is one precomputed weight array per offset (see
LindbladGenerator).  Each grid interval is crossed by the truncated Taylor
series of exp(dt L) applied to the state (Al-Mohy & Higham 2011), in the
frame rotating at the mean mode frequency (see integrate).  integrate
yields the state at each grid time, and compare measures its trace
distance to the analytic state as it arrives, so only the state being
worked on is held.  Slow but independent, and numpy only.

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
# initial state (1), integrate's state, two series terms, product and real
# work array (5, the last a half counted whole), and at most 4 more: while
# integrate makes a state, the one compare holds, the new one and a ufunc
# iteration buffer (128 KiB at most); while compare measures a state, that
# state, the difference, its Hermitian part and eigvalsh's copy of it.
_WORKING_ARRAYS = 12
# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488, Table 3.1
# (unit roundoff 2^-53): the degree-m Taylor polynomial of exp(A) has backward
# error below the unit roundoff while ||A||_1 <= theta_m.
_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}


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
    trace.
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
    """Dense matrix sum_rs coeffs[r, s] |labels_r><labels_s| on the truncated basis."""
    labels = np.atleast_2d(np.asarray(labels, dtype=complex))
    _check_tails(labels, basis)
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

    `shift` is the mean of L's diagonal, 2 Re(mean diag B).  `norm_bound`
    bounds ||L - shift I||_1 by the triangle inequality over the terms
    `apply` adds: an offset puts at most one weight in each column, so its
    1-norm is its largest weight (2 max |b_dd - shift / 2| on the diagonal,
    cutoff |gamma_mk| for a jump).  integrate sizes its Taylor series from
    this sum of the terms' largest weights.
    """

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
        self.shift = 2.0 * float(np.mean(b_diag.real))
        self.norm_bound = (
            2.0 * float(np.max(np.abs(b_diag - 0.5 * self.shift)))
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


def _taylor_plans(gen: LindbladGenerator, times: np.ndarray) -> list[tuple[float, int, int]]:
    """(dt, degree m, substeps s) of the Taylor action on each grid interval.

    The rule of Al-Mohy & Higham (2011), Algorithm 3.2 with their eq. 3.13
    branch: the pair minimising m * s with (dt / s) * norm_bound <= theta_m.
    A zero generator needs no terms.
    """
    if times.size < 2:
        raise ModelError("integration needs at least two grid times")
    plans = []
    for dt in np.diff(times).tolist():
        if not dt > 0.0:
            raise ModelError("time grid must be strictly increasing")
        x = dt * gen.norm_bound
        if x == 0.0:
            plans.append((dt, 0, 1))
        else:
            m, s = min(((m, math.ceil(x / theta)) for m, theta in _THETA.items()), key=lambda ms: ms[0] * ms[1])
            plans.append((dt, m, s))
    return plans


def step_size(gen: LindbladGenerator, times) -> float:
    """Largest Taylor substep dt / s integrate takes on this grid."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return max(dt / s for dt, _, s in _taylor_plans(gen, times))


def _max_abs(x: np.ndarray, mag: np.ndarray) -> float:
    """Largest |x|, with `mag` (real, the shape of x) as the work array."""
    return float(np.abs(x, out=mag).max())


def integrate(rho0: np.ndarray, gen: LindbladGenerator, times) -> Iterator[np.ndarray]:
    """Yield the state at each grid time, integrating by the Taylor action of exp(dt L).

    Each grid interval dt is split into s substeps h = dt / s, and each
    substep applies the degree-m Taylor polynomial of exp(h (L - shift I)),
    scaled by exp(h shift), with (m, s) from the generator's norm bound
    (see _taylor_plans).  A series stops early once two consecutive terms
    fall below 2^-53 of the partial sum in max norm, as in Al-Mohy & Higham
    (2011), Algorithm 3.2.

    L is `gen.apply`, the generator in the frame rotating at the mean mode
    frequency omega_bar, where the fast phase of omega_bar N is gone; each
    yielded state is rotated back to the lab frame, rho_ab(t) =
    exp(-i omega_bar (t - t0) (N_a - N_b)) rho_I,ab(t), which changes neither
    trace nor Hermiticity.  The state is re-hermitised at every grid time;
    trace drift beyond 1e-6 aborts with NumericalError naming that time.

    The first state yielded is a copy of rho0.  Only the current state is
    kept, so a consumer that holds at most the latest yielded array (as
    compare does) works in memory independent of the grid.  The series runs
    in a fixed set of dim x dim buffers (the state, two terms, one product
    and one real work array) and allocates only the state it yields.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    plans = _taylor_plans(gen, times)
    rho = np.array(rho0, dtype=complex, order="C", copy=True)
    terms = (np.empty_like(rho), np.empty_like(rho))
    product = np.empty_like(rho)
    mag = np.empty(rho.shape)
    yield rho.copy()
    for i, (dt, m, s) in enumerate(plans):
        h = dt / s
        scale = math.exp(h * gen.shift)
        for _ in range(s):
            term = rho
            c1 = _max_abs(term, mag)
            for j in range(1, m + 1):
                nxt = terms[term is terms[0]]  # the term buffer not holding term
                gen.apply(term, out=nxt)
                nxt -= np.multiply(term, gen.shift, out=product)
                nxt *= h / j
                term = nxt
                c2 = _max_abs(term, mag)
                rho += term
                if c1 + c2 <= 2.0**-53 * _max_abs(rho, mag):
                    break
                c1 = c2
            rho *= scale
        # rho = (rho + rho+) / 2; a copy of the transpose, unlike a ufunc
        # reading it, needs no iteration buffer
        np.copyto(product, rho.T)
        np.conjugate(product, out=product)
        product += rho
        np.multiply(product, 0.5, out=rho)
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


def _trace_distance(labels: np.ndarray, coeffs: np.ndarray, rho: np.ndarray, basis: FockBasisSpec) -> float:
    """0.5 * sum |eigenvalues| of the Hermitian part of (embedded label state - rho)."""
    delta = embed_labels(labels, coeffs, basis)
    delta -= rho
    herm = delta.T.copy()
    np.conjugate(herm, out=herm)
    herm += delta
    herm *= 0.5
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(herm))))


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Trace distances between analytic and integrated states per grid time, and max_tail_mass of all labels."""

    times: np.ndarray
    distances: np.ndarray
    max_distance: float
    tail_mass: float


def compare(blocks: Iterable[Block], rhos: Iterable[np.ndarray], basis: FockBasisSpec) -> ComparisonReport:
    """Trace distance between a label stream and a stream of integrated Fock states.

    The two streams are walked in lockstep, one grid time at a time: each
    integrated state is compared as it arrives against the analytic state of
    its block, embedded on the same truncated basis; distances are
    0.5 * sum |eigenvalues| of the Hermitian difference.  Of the label
    stream only the current block and, per term and mode, the largest
    |label| so far are held.  Streams of different lengths raise ModelError.
    """
    rhos = iter(rhos)
    times, dists, envelope = [], [], 0.0
    for block in blocks:
        envelope = np.maximum(envelope, np.abs(block.labels).max(axis=0))
        for t, labels, coeffs in zip(block.times, block.labels, block.coeffs):
            rho = next(rhos, None)
            if rho is None:
                raise ModelError("trajectory and integrated states cover different grids")
            times.append(t)
            dists.append(_trace_distance(labels, coeffs, rho, basis))
    if next(rhos, None) is not None:
        raise ModelError("trajectory and integrated states cover different grids")
    dists = np.array(dists)
    return ComparisonReport(np.array(times), dists, float(np.max(dists)), max_tail_mass(envelope, basis.cutoff))
