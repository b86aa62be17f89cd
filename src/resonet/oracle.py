"""Brute-force validation path: truncated Fock basis, full Lindblad integration.

Everything here deliberately avoids the label-space machinery: states are
embedded as dense density matrices on a product Fock basis, the master
equation

    d rho / dt = i [rho, H] + sum_mn (gamma_mn / 2) ([a_n rho, a_m+] + h.c.)

is applied with explicitly constructed mode operators, and each grid
interval is crossed by the truncated Taylor series of exp(dt L) applied to
the state (Al-Mohy & Higham 2011), in the frame rotating at the mean mode
frequency (see LindbladGenerator and integrate).  integrate yields the
state at each grid time, and compare measures its trace distance to the
analytic state as it arrives, so only the state being worked on is held.
Slow but independent.

Every dense array here is dim x dim complex, and integration and comparison
hold a fixed number of them whatever the grid, so memory is bounded up
front: a basis whose working set exceeds _BYTE_BUDGET is rejected with
ModelError before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import _BYTE_BUDGET, _TRACE_ABORT, ModelError, NumericalError, _sci
from .evolve import Block
from .network import NetworkSpec
from .states import SuperpositionState

__all__ = [
    "FockBasisSpec",
    "LindbladGenerator",
    "ComparisonReport",
    "mode_lowering_ops",
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
# Dense dim x dim arrays compare(blocks, integrate(...), basis) holds at once:
# integrate's state, partial sum and current term, apply's output, transpose
# buffer and product, the yielded state, and compare's analytic state and
# difference.
_WORKING_ARRAYS = 9
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
    whatever the number of grid times.
    """
    dim = (cutoff + 1) ** n
    return _WORKING_ARRAYS * dim * dim * 16


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


def _onenorm(op: sp.csr_array) -> float:
    """Largest absolute column sum of a sparse matrix."""
    return float(np.max(abs(op).sum(axis=0), initial=0.0))


def mode_lowering_ops(basis: FockBasisSpec) -> list[sp.csr_array]:
    """Sparse lowering operator for each mode (mode 0 is the outermost factor)."""
    c = basis.cutoff
    single = sp.diags_array(np.sqrt(np.arange(1.0, c + 1.0)), offsets=1).astype(complex)
    eye = sp.eye_array(c + 1, dtype=complex)
    ops = []
    for m in range(basis.n):
        factors = [single if k == m else eye for k in range(basis.n)]
        ops.append(sp.csr_array(reduce(lambda x, y: sp.kron(x, y, format="csr"), factors)))
    return ops


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
    """Smallest per-mode cutoff keeping the Poisson tail below 1e-10."""
    mean = amplitude * amplitude
    c = 1
    while poisson_tail(mean, c) >= _TAIL_LIMIT:
        c += 1
        if c > 10_000:
            raise ModelError("amplitude too large for any reasonable truncation")
    return c


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
    amp = _largest_amplitude(labels)
    worst = poisson_tail(amp**2, basis.cutoff)
    if worst >= _TAIL_LIMIT:
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
    frame.  It is grouped as B rho + rho B+ + sum_n a_n rho J_n+ with
    B = -i H' - (1/2) sum_mn gamma_mn a_m+ a_n, H' built from W - wbar I, and
    J_n = sum_m gamma_mn a_m, which is algebraically identical to the
    defining form.

    On the row-major vec(rho) `apply` is the matrix
    L = B (x) I + I (x) conj(B) + sum_n a_n (x) conj(J_n).  `shift` is the
    mean of its diagonal, 2 Re(mean diag B) since no a_n has a diagonal, and
    `norm_bound` bounds ||L - shift I||_1 without forming L, by the triangle
    inequality and ||X (x) Y||_1 = ||X||_1 ||Y||_1:
    2 ||B - (shift / 2) I||_1 + sum_n ||a_n||_1 ||J_n||_1.  integrate sizes
    its Taylor series from the bound.
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
        lower = mode_lowering_ops(basis)
        raise_ops = [op.conj().T.tocsr() for op in lower]
        ham = None
        anti = None
        for m in range(n):
            for k in range(n):
                if shifted[m, k] != 0.0:
                    t = shifted[m, k] * (raise_ops[m] @ lower[k])
                    ham = t if ham is None else ham + t
                if gamma[m, k] != 0.0:
                    t = gamma[m, k] * (raise_ops[m] @ lower[k])
                    anti = t if anti is None else anti + t
        dim = basis.dim
        zero = sp.csr_array((dim, dim), dtype=complex)
        ham = zero if ham is None else ham
        anti = zero if anti is None else anti
        self._b = (-1j * ham - 0.5 * anti).tocsr()
        # conjugate copy so rho @ B+ can run sparse-on-the-left and stay
        # linear in rho (dyad columns of the superoperator need linearity)
        self._bc = self._b.conj().tocsr()
        self._lower = lower
        # transposed right factors so every product is sparse-on-the-left
        self._jump_t = []
        for k in range(n):
            j = None
            for m in range(n):
                if gamma[m, k] != 0.0:
                    t = gamma[m, k] * lower[m]
                    j = t if j is None else j + t
            self._jump_t.append(None if j is None else j.conj().tocsr())
        # total excitation number of each basis state
        self._occ = _occupation_digits(basis).sum(axis=1)
        self.shift = 2.0 * float(np.mean(self._b.diagonal().real))
        centred = self._b - (0.5 * self.shift) * sp.eye_array(dim, dtype=complex)
        self.norm_bound = 2.0 * _onenorm(centred) + sum(
            _onenorm(a) * _onenorm(jt) for a, jt in zip(lower, self._jump_t) if jt is not None
        )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        # Each right product X M+ runs as (conj(M) X^T)^T, with X^T copied
        # into one C-ordered buffer: scipy would copy a transposed view on
        # every product, and the page faults of those transient dim^2 arrays
        # cost more than the sparse products themselves.
        t = np.array(rho.T, dtype=complex, order="C")
        out = self._b @ rho
        out += (self._bc @ t).T
        for k, jt in enumerate(self._jump_t):
            if jt is not None:
                np.copyto(t, (self._lower[k] @ rho).T)
                out += (jt @ t).T
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


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


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
    compare does) works in memory independent of the grid.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    plans = _taylor_plans(gen, times)
    rho = np.array(rho0, dtype=complex, copy=True)
    yield rho.copy()
    for i, (dt, m, s) in enumerate(plans):
        h = dt / s
        scale = math.exp(h * gen.shift)
        for _ in range(s):
            term = rho
            c1 = _max_abs(term)
            for j in range(1, m + 1):
                term = gen.apply(term) - gen.shift * term
                term *= h / j
                c2 = _max_abs(term)
                rho = rho + term
                if c1 + c2 <= 2.0**-53 * _max_abs(rho):
                    break
                c1 = c2
            rho *= scale
        rho = 0.5 * (rho + rho.conj().T)
        t = times[i + 1]
        tr = np.trace(rho).real
        if not math.isfinite(tr) or abs(tr - 1.0) > _TRACE_ABORT:
            raise NumericalError(f"trace drifted to {tr!r} at t = {t:g}; integration aborted")
        phase = np.exp(-1j * gen.omega_bar * (t - times[0]) * gen._occ)
        yield phase[:, None] * rho * phase.conj()


# ---------------------------------------------------------------------------
# measurements and comparison


def _occupation_digits(basis: FockBasisSpec) -> np.ndarray:
    idx = np.arange(basis.dim)
    digits = np.empty((basis.dim, basis.n), dtype=float)
    for m in range(basis.n - 1, -1, -1):
        digits[:, m] = idx % (basis.cutoff + 1)
        idx = idx // (basis.cutoff + 1)
    return digits


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
    stream only the current block and the largest label amplitude so far are
    held.  Streams of different lengths raise ModelError.
    """
    rhos = iter(rhos)
    times, dists, amp = [], [], 0.0
    for block in blocks:
        amp = max(amp, _largest_amplitude(block.labels))
        for t, labels, coeffs in zip(block.times, block.labels, block.coeffs):
            rho = next(rhos, None)
            if rho is None:
                raise ModelError("trajectory and integrated states cover different grids")
            delta = embed_labels(labels, coeffs, basis) - rho
            delta = 0.5 * (delta + delta.conj().T)
            times.append(t)
            dists.append(0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta)))))
    if next(rhos, None) is not None:
        raise ModelError("trajectory and integrated states cover different grids")
    dists = np.array(dists)
    return ComparisonReport(np.array(times), dists, float(np.max(dists)), max_tail_mass(amp, basis.cutoff))
