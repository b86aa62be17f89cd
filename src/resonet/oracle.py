"""Brute-force validation path: truncated Fock basis, full Lindblad integration.

Everything here deliberately avoids the label-space machinery: states are
embedded as dense density matrices on a product Fock basis, the master
equation

    d rho / dt = i [rho, H] + sum_mn (gamma_mn / 2) ([a_n rho, a_m+] + h.c.)

is applied with explicitly constructed mode operators, and each grid
interval is crossed by the truncated Taylor series of exp(dt L) applied to
the state (Al-Mohy & Higham 2011), in the frame rotating at the mean mode
frequency (see LindbladGenerator and integrate).  Agreement with the
analytic trajectory is then measured in trace distance.  Slow but
independent.

Every dense array here is dim x dim complex, so memory is bounded up front:
a basis, an integration and a superoperator matrix whose byte estimate
exceeds _BYTE_BUDGET are rejected with ModelError before anything is
allocated.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import _BYTE_BUDGET, ModelError, NumericalError, _sci
from .evolve import Trajectory
from .network import NetworkSpec, validate_network
from .states import SuperpositionState

__all__ = [
    "FockBasisSpec",
    "FockDensityMatrix",
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
    "dissipator_matrix",
    "step_size",
    "integrate",
    "mode_occupations",
    "mean_amplitudes",
    "compare",
]

_TAIL_LIMIT = 1e-10
_TRACE_ABORT = 1e-6
# Dense dim x dim arrays integrate holds besides the stored grid states: the
# partial sum, the current term, and apply's output, transpose buffer and
# product.
_TAYLOR_ARRAYS = 5
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
        # no basis is useful that cannot integrate even the shortest grid
        check_working_set(self.n, self.cutoff, 2)

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Dense density matrix on a truncated basis."""

    matrix: np.ndarray

    def validate(self, check_positivity: bool = False) -> None:
        rho = self.matrix
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > 1e-10:
            raise NumericalError(f"density matrix not Hermitian (deviation {herm:.3e})")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > _TRACE_ABORT:
            raise NumericalError(f"density matrix trace {tr!r} off unity")
        if check_positivity:
            lo = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
            if lo < -1e-8:
                raise NumericalError(f"density matrix has eigenvalue {lo:.3e}")


def working_set_bytes(n: int, cutoff: int, points: int) -> int:
    """Bytes of dense complex arrays integrate holds on n modes at this cutoff.

    One density matrix per grid point plus _TAYLOR_ARRAYS working arrays,
    each dim^2 * 16 bytes with dim = (cutoff + 1)^n.
    """
    dim = (cutoff + 1) ** n
    return (points + _TAYLOR_ARRAYS) * dim * dim * 16


def check_working_set(n: int, cutoff: int, points: int, labels=None) -> None:
    """Reject an integration over `points` grid times whose working set exceeds the byte budget.

    With the initial labels the message also names the smallest cutoff the
    state's tails allow and the bytes that cutoff would need.
    """
    need = working_set_bytes(n, cutoff, points)
    if need <= _BYTE_BUDGET:
        return
    msg = (
        f"oracle working set of {_sci(need)} bytes ({points} grid times, cutoff {cutoff}, "
        f"dim {(cutoff + 1)}^{n}) exceeds the {_sci(_BYTE_BUDGET)}-byte budget"
    )
    if labels is not None:
        low = minimum_cutoff(float(np.max(np.abs(np.asarray(labels)), initial=0.0)))
        msg += f"; the state's minimum cutoff is {low}, needing {_sci(working_set_bytes(n, low, points))} bytes"
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
    if mean < 0.0:
        raise ModelError("Poisson mean must be nonnegative")
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


def suggest_cutoff(state: SuperpositionState) -> int:
    """Cutoff rule ceil(|b|^2 + 6 |b| + 8) on the largest label amplitude."""
    amax = float(np.max(np.abs(state.labels), initial=0.0))
    return int(math.ceil(amax * amax + 6.0 * amax + 8.0))


def _worst_tail(labels: np.ndarray, cutoff: int) -> tuple[float, float]:
    """Largest per-mode Poisson tail among the label amplitudes (any shape), and its amplitude."""
    worst, worst_amp = 0.0, 0.0
    for a in np.abs(np.asarray(labels, dtype=complex)).ravel():
        t = poisson_tail(float(a) ** 2, cutoff)
        if t > worst:
            worst, worst_amp = t, float(a)
    return worst, worst_amp


def max_tail_mass(labels: np.ndarray, cutoff: int) -> float:
    """Largest per-mode Poisson tail among all label amplitudes."""
    return _worst_tail(labels, cutoff)[0]


def _check_tails(labels: np.ndarray, basis: FockBasisSpec) -> None:
    worst, worst_amp = _worst_tail(labels, basis.cutoff)
    if worst >= _TAIL_LIMIT:
        raise ModelError(
            f"inadequate cutoff {basis.cutoff}: truncated mass {worst:.3e} for amplitude "
            f"{worst_amp:g}; required minimum cutoff is {minimum_cutoff(worst_amp)}"
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


def embed_state(state: SuperpositionState, basis: FockBasisSpec) -> FockDensityMatrix:
    """Project a label-form state onto the truncated basis as a density matrix.

    Rejects cutoffs whose per-mode truncated mass reaches 1e-10 (the error
    names the required minimum); the embedded matrix is renormalised to unit
    trace.
    """
    if state.n != basis.n:
        raise ModelError(f"state has {state.n} modes, basis {basis.n}")
    _check_tails(state.labels, basis)
    psi = np.zeros(basis.dim, dtype=complex)
    for w, label in zip(state.weights, state.labels):
        psi += w * coherent_vector(label, basis)
    psi *= state.norm_factor
    rho = np.outer(psi, psi.conj())
    tr = np.trace(rho).real
    if tr <= 0.0:
        raise NumericalError("embedded state has vanishing trace")
    return FockDensityMatrix(rho / tr)


def embed_labels(labels: np.ndarray, coeffs: np.ndarray, basis: FockBasisSpec) -> np.ndarray:
    """Dense matrix sum_rs coeffs[r, s] |labels_r><labels_s| on the truncated basis."""
    labels = np.atleast_2d(np.asarray(labels, dtype=complex))
    _check_tails(labels, basis)
    v = np.column_stack([coherent_vector(lab, basis) for lab in labels])
    return v @ np.asarray(coeffs, dtype=complex) @ v.conj().T


# ---------------------------------------------------------------------------
# generator and integration


class LindbladGenerator:
    """The master-equation right-hand side on a truncated basis.

    H = sum_mk w_mk a_m+ a_k commutes with the total excitation number N, and
    the dissipator is unchanged by the phase exp(-i theta N).  So the
    generator splits exactly into the rotation -i wbar [N, rho] at the mean
    mode frequency wbar = tr(W) / n and the generator of the shifted network
    W - wbar I; `apply` is the sum of the two (the lab frame), and
    `in_rotating_frame()` drops the rotation.  The shifted part is grouped as
    B rho + rho B+ + sum_n a_n rho J_n+ with B = -i H' - (1/2) sum_mn
    gamma_mn a_m+ a_n, H' built from W - wbar I, and J_n = sum_m gamma_mn
    a_m, which is algebraically identical to the defining form.

    On the row-major vec(rho) the rotating-frame generator is the matrix
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
        self.w = w
        self.gamma = gamma
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

    def in_rotating_frame(self) -> LindbladGenerator:
        """This generator in the frame rotating at omega_bar: the network W - omega_bar I."""
        frame = copy.copy(self)
        frame.w = self.w - self.omega_bar * np.eye(self.basis.n)
        frame.omega_bar = 0.0
        return frame

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
        if self.omega_bar != 0.0:
            out -= (1j * self.omega_bar) * (self._occ[:, None] * rho - rho * self._occ)
        return out

    def matrix(self) -> np.ndarray:
        """Dense superoperator matrix (row-major vec convention)."""
        d = self.basis.dim
        need = d**4 * 16
        if need > _BYTE_BUDGET:
            raise ModelError(
                f"superoperator matrix of {_sci(need)} bytes (dim {d}) exceeds the "
                f"{_sci(_BYTE_BUDGET)}-byte budget"
            )
        out = np.empty((d * d, d * d), dtype=complex)
        e = np.zeros((d, d), dtype=complex)
        for a in range(d):
            for b in range(d):
                e[a, b] = 1.0
                out[:, a * d + b] = self.apply(e).ravel()
                e[a, b] = 0.0
        return out


def build_generator(spec: NetworkSpec, gamma, basis: FockBasisSpec) -> LindbladGenerator:
    """Generator for a validated network and decay matrix on the given basis."""
    validate_network(spec)
    g = np.asarray(getattr(gamma, "matrix", gamma), dtype=float)
    return LindbladGenerator(basis, spec.w_matrix(), g)


def dissipator_matrix(gamma, basis: FockBasisSpec) -> np.ndarray:
    """Superoperator matrix of the dissipator alone (no Hamiltonian)."""
    g = np.asarray(getattr(gamma, "matrix", gamma), dtype=float)
    n = basis.n
    return LindbladGenerator(basis, np.zeros((n, n)), g).matrix()


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


def integrate(rho0, gen: LindbladGenerator, times) -> list[FockDensityMatrix]:
    """Integrate the master equation over the grid by the Taylor action of exp(dt L).

    Each grid interval dt is split into s substeps h = dt / s, and each
    substep applies the degree-m Taylor polynomial of exp(h (L - shift I)),
    scaled by exp(h shift), with (m, s) from the generator's norm bound
    (see _taylor_plans).  A series stops early once two consecutive terms
    fall below 2^-53 of the partial sum in max norm, as in Al-Mohy & Higham
    (2011), Algorithm 3.2.

    L is the generator in the frame rotating at the mean mode frequency
    omega_bar, where the fast phase of omega_bar N is gone; each stored state
    is rotated back to the lab frame, rho_ab(t) = exp(-i omega_bar (t - t0)
    (N_a - N_b)) rho_I,ab(t), which changes neither trace nor Hermiticity.
    The state is re-hermitised at every grid time; trace drift beyond 1e-6
    aborts with NumericalError naming that time.  Returns one density
    matrix per grid time, the first being rho0 itself.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    plans = _taylor_plans(gen, times)
    check_working_set(gen.basis.n, gen.basis.cutoff, times.size)
    rho = np.array(getattr(rho0, "matrix", rho0), dtype=complex, copy=True)
    frame = gen.in_rotating_frame()
    out = [FockDensityMatrix(rho.copy())]
    for i, (dt, m, s) in enumerate(plans):
        h = dt / s
        scale = math.exp(h * gen.shift)
        for _ in range(s):
            term = rho
            c1 = _max_abs(term)
            for j in range(1, m + 1):
                term = frame.apply(term) - gen.shift * term
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
        out.append(FockDensityMatrix(phase[:, None] * rho * phase.conj()))
    return out


# ---------------------------------------------------------------------------
# measurements and comparison


def _occupation_digits(basis: FockBasisSpec) -> np.ndarray:
    idx = np.arange(basis.dim)
    digits = np.empty((basis.dim, basis.n), dtype=float)
    for m in range(basis.n - 1, -1, -1):
        digits[:, m] = idx % (basis.cutoff + 1)
        idx = idx // (basis.cutoff + 1)
    return digits


def mode_occupations(rho, basis: FockBasisSpec) -> np.ndarray:
    """<a_m+ a_m> for each mode from a Fock-basis density matrix."""
    mat = np.asarray(getattr(rho, "matrix", rho))
    pops = np.real(np.diagonal(mat))
    return _occupation_digits(basis).T @ pops


def mean_amplitudes(rho, basis: FockBasisSpec) -> np.ndarray:
    """<a_m> for each mode from a Fock-basis density matrix."""
    mat = np.asarray(getattr(rho, "matrix", rho))
    return np.array([np.trace(op @ mat) for op in mode_lowering_ops(basis)])


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Trace distances between analytic and integrated states, per grid time."""

    times: np.ndarray
    distances: np.ndarray
    max_distance: float


def compare(traj: Trajectory, rhos: Sequence[FockDensityMatrix], basis: FockBasisSpec) -> ComparisonReport:
    """Trace distance between a label trajectory and integrated Fock states.

    The analytic state is embedded on the same truncated basis at every grid
    time; distances are 0.5 * sum |eigenvalues| of the Hermitian difference.
    """
    if len(rhos) != traj.times.size:
        raise ModelError("trajectory and integrated states cover different grids")
    dists = np.empty(traj.times.size)
    for i in range(traj.times.size):
        analytic = embed_labels(traj.labels[i], traj.coeffs[i], basis)
        delta = analytic - np.asarray(rhos[i].matrix)
        delta = 0.5 * (delta + delta.conj().T)
        dists[i] = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
    return ComparisonReport(times=np.array(traj.times), distances=dists, max_distance=float(np.max(dists)))
