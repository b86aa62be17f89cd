"""Test support: the paper's closed forms and direct Fock-basis measurements the library is checked
against (no command reaches these), whole-grid arrays from a label stream, a label flow the
stream must refuse, the per-mode label flow, a block's pair data and observables formed on the
full terms x terms matrix, the canonical cluster basis by modified Gram-Schmidt on the n x n
projector with its row order by Python's sort, the kernel-shrinking construction of the
protected subspace, and the oracle's full-matrix trace distance.
"""

import math
from dataclasses import dataclass, fields, replace
from functools import reduce
from typing import Optional

import numpy as np

from resonet import Block, errors, evolve, oracle
from resonet.errors import ModelError, _sci
from resonet.network import NormalModeDecomposition, degenerate_modes
from resonet.reservoir import DecayMatrix, decay_matrix_common, decay_matrix_distinct
from resonet.states import RSFamilySpec, SuperpositionState, gram_matrix, log_gram_matrix


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Whole-grid arrays under a Block's attribute names, so artifacts.trajectory_to_csv writes them as one block."""

    times: np.ndarray
    labels: np.ndarray
    coeffs: np.ndarray
    occupations: np.ndarray
    purity: np.ndarray
    fidelity: np.ndarray

    total_occupation = Block.total_occupation  # the property itself, so both sum the same way


def collect(blocks) -> Trajectory:
    """The arrays of a label stream over the whole grid, concatenated from its blocks."""
    blocks = list(blocks)
    return Trajectory(**{f.name: np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(Trajectory)})


def probe_flow(n, seed=3):
    """A label flow inconsistent with any drift: a fixed random unitary turns the labels, then 1 + t/2 scales them.

    Its pair coefficients stay finite and their trace stays 1, so only the
    label-norm guard can stop it; unguarded, it takes the n = 2, alpha = 0.6
    cat to purity 1.8e3 and fidelity 6.7 at t = 2.
    """
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return lambda beta: lambda t: (1.0 + 0.5 * np.asarray(t))[:, None, None] * (np.asarray(beta) @ u.T)


def mode_form_flow(drift):
    """The label flow in its per-mode form: zeta = (exp(lam t) * beta V^-T) V^T over every mode.

    It reads the same eigenbasis as evolve.label_flow (which needs a usable
    one) and takes one exponential per mode and a terms * n^2 gemm per time
    where label_flow takes one per eigenvalue cluster on the labels' images.
    """
    lam, v, v_inv, _ = evolve._eigenbasis(np.asarray(drift))

    def flow(beta):
        modes = np.asarray(beta) @ v_inv.T

        def at(t):
            evolved = np.exp(np.multiply.outer(np.asarray(t, dtype=float), lam))[:, None, :] * modes
            return (evolved.reshape(-1, lam.size) @ v.T).reshape(evolved.shape)

        return at

    return flow


def canonical_cluster_rows(columns: np.ndarray) -> np.ndarray:
    """The canonical basis of network._canonical_cluster_rows, formed in the n-dimensional space.

    Modified Gram-Schmidt seeded with the columns P e_j of the projector
    P = C C^T onto the span of the orthonormal columns C, in index order,
    keeping each seed whose residual exceeds 1e-8, then a second pass over the
    chosen vectors.  Returns the k chosen vectors as rows.
    """
    n, k = columns.shape
    proj = columns @ columns.T
    chosen: list[np.ndarray] = []
    for j in range(n):
        w = proj[:, j].copy()
        for u in chosen:
            w -= (u @ w) * u
        nw = np.sqrt(w @ w)
        if nw > 1e-8:
            chosen.append(w / nw)
            if len(chosen) == k:
                break
    for i in range(k):  # second pass tightens orthogonality
        w = chosen[i]
        for u in chosen[:i]:
            w = w - (u @ w) * u
        chosen[i] = w / np.sqrt(w @ w)
    return np.array(chosen)


def canonical_row_order(block: np.ndarray) -> list[int]:
    """Lexicographic order of a cluster's rows rounded to 12 decimals, by Python's sort over tuples."""
    return sorted(range(block.shape[0]), key=lambda i: tuple(np.round(block[i], 12)))


def full_matrix_pairs(block: Block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's coefficients, transposed Gram matrices G^T[i, r, s] = <zeta_s|zeta_r> and pair matrix c * G^T.

    Every one of the terms^2 entries is formed on its own, from
    states.log_gram_matrix of the labels and of the initial ones, where
    Block forms the triangle r < s and mirrors it by conjugation.
    """
    state = block._state
    log_gt_t = np.swapaxes(log_gram_matrix(block.labels), -1, -2)
    gt_t = np.exp(log_gt_t)
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = np.exp(log_gram_matrix(state.labels).T - log_gt_t)
        coeff *= state.norm_factor**2 * np.outer(state.weights, state.weights.conj())
        return coeff, gt_t, coeff * gt_t


def full_matrix_observables(block: Block) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients, occupations, purity and fidelity of a block from full_matrix_pairs, by Block's expressions."""
    state, zeta = block._state, block.labels
    coeff, gt_t, m = full_matrix_pairs(block)
    occupations = (zeta * (m @ zeta.conj())).sum(axis=-2).real
    cg = coeff @ np.swapaxes(gt_t, -1, -2)
    purity = (cg * np.swapaxes(cg, -1, -2)).sum(axis=(-2, -1)).real
    g_in = np.swapaxes(gram_matrix(state.labels, zeta), -1, -2).reshape(-1, state.num_terms)
    w_in = state.norm_factor * (g_in @ state.weights.conj()).reshape(-1, state.num_terms)
    fidelity = (w_in * (coeff @ w_in.conj()[..., None])[..., 0]).sum(axis=-1).real
    return coeff, occupations, purity, fidelity


def propagator_closed_form(
    n: int, gamma: float, epsilon: float, omega_plus: float, omega_minus: float, t
) -> np.ndarray:
    """Label propagator of the degenerate symmetric network in common white noise.

    Theta_mn(t) = exp(-(1-eps) G t / 2) / n
                  * [exp(-(eps n G / 2 + i O_plus) t) + (n delta_mn - 1) exp(-i O_minus t)],
    splitting the decay into a fast collective rate [1 + (n-1) eps] G on the
    symmetric mode and a slow rate (1 - eps) G on the complement.  A scalar t
    gives the (n, n) matrix Theta(t); a 1-D array of T times gives the
    (T, n, n) stack.
    """
    t = np.asarray(t, dtype=float)
    slow = np.exp(-0.5 * (1.0 - epsilon) * gamma * t)
    fast = np.exp(-(0.5 * epsilon * n * gamma + 1j * omega_plus) * t)
    rot = np.exp(-1j * omega_minus * t)
    theta = np.empty(t.shape + (n, n), dtype=complex)
    theta[...] = ((slow / n) * (fast - rot))[..., None, None]
    diag = np.arange(n)
    theta[..., diag, diag] += (slow * rot)[..., None]
    return theta


def decoherence_time_formula(spec: RSFamilySpec, gamma: float, gamma_down: float) -> float:
    """Decoherence time of the two-branch family from a collective rate split.

    1 / (2 |alpha|^2 [(R-S)^2 gamma + ((R+S) - (R-S)^2) gamma_down]) with
    gamma the mean direct rate and gamma_down the rate on the protected
    manifold (for white noise (1 - epsilon) gamma); infinite when the bracket
    vanishes (the protected R = S configurations at gamma_down = 0, and
    R = S = 0).  The rates must belong to a positive-semidefinite decay
    matrix: gamma_down >= 0 and gamma_up = n gamma - (n-1) gamma_down >= 0.
    """
    alpha2 = abs(complex(spec.alpha)) ** 2
    if alpha2 == 0.0:
        raise ModelError("decoherence time needs a nonzero branch amplitude")
    gamma_up = spec.n * gamma - (spec.n - 1) * gamma_down
    # gamma_up = 0 (gamma_plus = 0) may come out a rounding step below zero.
    slack = 1e-12 * max(1.0, abs(gamma), abs(gamma_down))
    if gamma_down < 0.0 or gamma_up < -slack:
        raise ModelError(
            f"rates gamma = {gamma:g}, gamma_down = {gamma_down:g} give no positive-semidefinite decay matrix"
        )
    diff2 = (spec.r - spec.s) ** 2
    denom = diff2 * gamma + ((spec.r + spec.s) - diff2) * gamma_down
    if denom <= 0.0:
        return math.inf
    return 1.0 / (2.0 * alpha2 * denom)


def generator_matrix(gen: oracle.LindbladGenerator) -> np.ndarray:
    """Dense matrix of `gen.apply` (row-major vec convention)."""
    d = gen.basis.dim
    need = d**4 * 16
    if need > errors._BYTE_BUDGET:
        raise ModelError(
            f"superoperator matrix of {_sci(need)} bytes (dim {d}) exceeds the "
            f"{_sci(errors._BYTE_BUDGET)}-byte budget"
        )
    out = np.empty((d * d, d * d), dtype=complex)
    e = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e[a, b] = 1.0
            out[:, a * d + b] = gen.apply(e).ravel()
            e[a, b] = 0.0
    return out


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
    # the full double-sum dissipator: the generator of a network with W = 0
    full = generator_matrix(oracle.LindbladGenerator(basis, np.zeros((n, n)), decay.matrix))

    # Independent route: the collective-channel dissipator
    # strength/2 * (2 L rho L+ - {L+L, rho}) from dense operators, on the
    # row-major vec(rho) where vec(A X B) = (A (x) B^T) vec(X).
    lam = sum(mode_lowering_ops(basis)) / np.sqrt(n)
    lam2 = lam.conj().T @ lam
    eye = np.eye(basis.dim)
    single = 0.5 * strength * (2.0 * np.kron(lam, lam.conj()) - np.kron(lam2, eye) - np.kron(eye, lam2.T))

    return bool(np.max(np.abs(full - single)) < 1e-10)


def degenerate_decomposition(n: int, omega0: float, lambda0: float) -> NormalModeDecomposition:
    """Normal modes of the all-to-all degenerate network in the reflection basis.

    The Householder reflection exchanging the last resonator axis with the
    uniform direction is orthogonal and symmetric; its last row is the
    symmetric mode and the others span the degenerate manifold.  Frequencies
    come out ascending only for lambda0 >= 0, in which case the symmetric
    transform is preserved; otherwise rows are reordered (and the symmetry
    flag drops).
    """
    if n < 1:
        raise ModelError("network needs at least one resonator")
    if n == 1:
        return NormalModeDecomposition(np.eye(1), np.array([float(omega0)]), True)
    u = np.full(n, 1.0 / np.sqrt(n))
    vvec = u.copy()
    vvec[n - 1] -= 1.0
    h = np.eye(n) - 2.0 * np.outer(vvec, vvec) / (vvec @ vvec)
    plus, minus = degenerate_modes(n, omega0, lambda0)
    freqs = np.full(n, minus)
    freqs[n - 1] = plus
    if lambda0 >= 0.0:
        return NormalModeDecomposition(h, freqs, True)
    order = np.argsort(freqs, kind="stable")
    return NormalModeDecomposition(h[order], freqs[order], False)


def protected_subspace_shrink(w, decay: DecayMatrix) -> np.ndarray:
    """Orthonormal basis (columns) of the largest W-invariant subspace inside Gamma's kernel.

    The kernel of the decay matrix Gamma (DecayMatrix.kernel) is shrunk,
    Q <- Q null((I - Q Q^dagger) W Q), until W maps it into itself, which
    takes at most n rounds (rank tolerance 1e-10 * max(1, max |W|)).  Each
    round works on W Q alone; the stacked Kalman matrix [Gamma; Gamma W; ...]
    is avoided because its blocks grow as |W|^k.  Returns an (n, 0) array
    when nothing is protected.
    """
    w = np.asarray(w)
    n = decay.n
    if w.shape != (n, n):
        raise ModelError(f"network and decay matrix must both be {n}x{n}")
    q = decay.kernel
    tol = 1e-10 * max(1.0, float(np.max(np.abs(w))))
    for _ in range(n):
        if q.shape[1] == 0:
            break
        wq = w @ q
        _, sv, vh = np.linalg.svd(wq - q @ (q.conj().T @ wq))
        null = vh[np.count_nonzero(sv > tol):].conj().T
        if null.shape[1] == q.shape[1]:
            break
        q = q @ null
    return q


def coherent_overlap(a, b) -> complex:
    """Overlap <a|b> of two multimode coherent states with label vectors a, b."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    if a.shape != b.shape:
        raise ModelError("overlap needs labels of equal length")
    return complex(np.exp(-0.5 * np.vdot(a, a) - 0.5 * np.vdot(b, b) + np.vdot(a, b)))


def swap_resonators(state: SuperpositionState, m: int, n: int) -> SuperpositionState:
    """Exchange resonators m and n in every term; the norm is untouched."""
    size = state.n
    if not (0 <= m < size and 0 <= n < size):
        raise ModelError("resonator index out of range")
    labels = np.array(state.labels, copy=True)
    labels[:, [m, n]] = labels[:, [n, m]]
    return replace(state, labels=labels)


def mode_occupations(rho: np.ndarray, basis: oracle.FockBasisSpec) -> np.ndarray:
    """<a_m+ a_m> for each mode from a Fock-basis density matrix."""
    return oracle._occupation_digits(basis).T @ np.real(np.diagonal(rho))


def mode_lowering_ops(basis: oracle.FockBasisSpec) -> list[np.ndarray]:
    """Dense lowering operator of each mode, a Kronecker product (mode 0 is the outermost factor)."""
    single = np.diag(np.sqrt(np.arange(1.0, basis.cutoff + 1.0)), 1).astype(complex)
    eye = np.eye(basis.cutoff + 1)
    return [reduce(np.kron, [single if k == m else eye for k in range(basis.n)]) for m in range(basis.n)]


def mean_amplitudes(rho: np.ndarray, basis: oracle.FockBasisSpec) -> np.ndarray:
    """<a_m> for each mode from a Fock-basis density matrix."""
    return np.array([np.trace(op @ rho) for op in mode_lowering_ops(basis)])


def trace_distance_full(labels, coeffs, rho: np.ndarray, basis: oracle.FockBasisSpec) -> float:
    """0.5 * sum |eigenvalues| of the Hermitian part of (embedded label state - rho), one eigvalsh of the whole matrix."""
    delta = oracle.embed_labels(labels, coeffs, basis)
    delta -= rho
    herm = delta.T.copy()
    np.conjugate(herm, out=herm)
    herm += delta
    herm *= 0.5
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(herm))))
