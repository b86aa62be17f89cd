"""Dissipative evolution of coherent-state superpositions in label space.

For a quadratic resonator Hamiltonian with zero-temperature damping, a
superposition of coherent products stays a superposition of coherent
products: each label vector flows linearly, zeta_r(t) = exp(t D) beta_r with
the drift D = -i W - Gamma / 2, and each pair of terms picks up the exact
coefficient

    c_rs(t) = N^2 * w_r * conj(w_s) * <beta_s|beta_r> / <zeta_s|zeta_r>

multiplying |zeta_r><zeta_s|.  label_flow gives that flow for every network
and reservoir from one eigendecomposition of D, one exponential per eigenvalue
cluster (Sylvester's form; Moler & Van Loan, SIAM Review 45, 2003, methods 14 and 3).
Where Gamma commutes with W, as for every reservoir of the paper, D is
factorised in W's eigenbasis in real arithmetic with orthogonal eigenvectors
(Golub & Van Loan, Matrix Computations, on commuting symmetric matrices);
other drifts take a complex eig of D.

All observables (occupations, purity, fidelity) are evaluated from bilinear
forms in the labels, never from a truncated Fock expansion, on one of two
paths, the route label_flow decides once per label set (its docstring states
the rule).  When flow(beta) returns the labels' orthogonal images on k
eigenvalue clusters, an _Images, each form reads the block's times and is a
sum of exponentials with constant weights formed once per stream (the inner
products' weights from one Gram per cluster): the inner products read k real
exponentials per time instead of n products, the occupations k^2.  On every
other route the forms are gemms of the labels themselves.  The occupations on
the image path read the constant pair matrix m0 = N^2 w conj(w)^T * G_0^T in
place of c * G^T; that is exact, since by the coefficient above
c_rs(t) <zeta_s|zeta_r> = m0_rs at every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import _BYTE_BUDGET, _TRACE_ABORT, ModelError, NumericalError, _sci
from .network import _CLUSTER_RTOL, _centred_eigh, clusters
from .reservoir import rounding_slack
from .states import SuperpositionState, log_gram_matrix

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

# decoherence_time_numeric reads a drop of |delta|^2 within this many units of n 2^-53 |delta|^2 as rounding: over
# random networks, 1,009 pairs in Gamma's kernel dropped by at most 10.7 units, 5,000 decaying ones by 6e6 or more.
_ROUNDING_UNITS = 32

# An eigenvector matrix conditioned worse than this loses too many digits to
# V^-1; label_flow then uses the Taylor expm instead.
_COND_MAX = 1e4

# The real factorisation (see _eigenbasis) drops Gamma''s entries between W's clusters, which moves
# exp(t D) by at most the Frobenius norm of Gamma'_ij / |w_i - w_j| at any t, to first order; above this
# the complex eig is taken.  On the shorthand network (omega 10, lambda 0.5 and -0.3) that norm is at most
# 1.1e-14: white noise and distinct reservoirs for n = 2 to 2,000, the profile reservoir to n = 64.  On
# commuting W, Gamma whose W clusters lie 1e-3 apart it reaches 1e-8.
_DROP_MAX = 1e-13

# Labels (terms, n), split once -> the map from a 1-D array of T times to the (T, terms, n) labels then.
LabelFlow = Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]


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
    # log2(norm) + 1 and the factor 2^-squarings stay finite for a norm near the float range
    squarings = 0 if norm <= 0.5 else math.ceil(math.log2(norm)) + 1
    b = a * 2.0**-squarings
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 21):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


class _Eigenbasis(NamedTuple):
    """d = V diag(lam) V^-1 (see _eigenbasis); group labels each eigenvalue's cluster (network.clusters)."""

    lam: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray
    group: np.ndarray


def _eigenbasis(d: np.ndarray) -> Optional[_Eigenbasis]:
    """Eigenvalues lam, eigenvectors V, V^-1 and cluster labels of d, or None if V is unusable.

    d = -i W - Gamma / 2 is first factorised in W's eigenbasis Q, in real arithmetic (the eigh of
    network._centred_eigh, whose rounding does not grow with the frequencies): on each
    cluster of W's frequencies w (network.clusters) it is -i w I - Gamma'/2 with Gamma' = Q^T Gamma Q,
    diagonalised by a real eigh, so V is real and orthogonal and V^-1 = V^T.  That drops Gamma''s
    entries between W's clusters, which vanish when Gamma commutes with W, as for every reservoir of
    the paper.  To first order the dropped entries move exp(t d) by at most the Frobenius norm of
    Gamma'_ij / |w_i - w_j| at any t, so the real route is taken only when that is at most
    _DROP_MAX, and W and Gamma are symmetric within the slack (reservoir.rounding_slack).
    Otherwise (a generic network, W clusters too close for eigh to tell Gamma' apart from rounding)
    d is factorised by a complex eig, and each cluster's vectors become an orthonormal basis of the
    null space of d minus the cluster's mean: on degenerate networks the solver's own vectors are
    nearly dependent.  That route gives None when a cluster's null space is smaller than the
    cluster (d is defective there) or cond(V) exceeds _COND_MAX.  On both routes each cluster of
    eigenvalues (network.clusters) shares its mean value; eigenvalues that are not finite (a W near
    the float range) raise LinAlgError.
    """
    n = d.shape[0]
    w, g = -d.imag, -2.0 * d.real
    slack = rounding_slack(g)
    v = None
    if np.abs(w - w.T).max() <= slack and np.abs(g - g.T).max() <= slack:
        freq, q = _centred_eigh(w)
        gp = q.T @ (0.5 * (g + g.T)) @ q
        wc = clusters(freq)
        gap = np.abs(np.subtract.outer(freq, freq))
        drop = np.divide(gp, gap, out=np.zeros_like(gp), where=wc[:, None] != wc)
        if np.isfinite(gp).all() and np.linalg.norm(drop) <= _DROP_MAX:
            lam, v = np.empty(n, dtype=complex), np.empty((n, n))
            for c in np.unique(wc):
                idx = np.flatnonzero(wc == c)
                rates, u = np.linalg.eigh(gp[np.ix_(idx, idx)]) if idx.size > 1 else (gp[idx, idx], np.ones((1, 1)))
                lam[idx] = -1j * freq[idx].mean() - 0.5 * rates
                v[:, idx] = q[:, idx] @ u
    if v is None:
        lam, v = np.linalg.eig(d)
    if not np.isfinite(lam).all():
        raise np.linalg.LinAlgError("its eigenvalues are not finite")
    group = clusters(lam)
    real = np.isrealobj(v)
    for h in np.unique(group):
        members = np.flatnonzero(group == h)
        if members.size == 1:
            continue
        mean = lam[members].mean()
        lam[members] = mean
        if real:
            continue
        _, sv, vh = np.linalg.svd(d - mean * np.eye(n))
        if sv[-members.size] > _CLUSTER_RTOL * max(sv[0], abs(mean)):
            return None
        v[:, members] = vh[-members.size :].conj().T
    if real:
        return _Eigenbasis(lam, v, v.T, group)
    u, sv, wh = np.linalg.svd(v)
    if sv[0] > _COND_MAX * sv[-1]:
        return None
    return _Eigenbasis(lam, v, (wh.conj().T / sv) @ u.conj().T, group)


def _taylor_labels(d: np.ndarray, beta: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The labels beta exp(t D)^T (T, terms, n) at a 1-D array of T times, by the Taylor expm of t D.

    The (T, n, n) stack t D is taken _blocks(T, n^2) times at a time, so beside the labels it holds
    a few hundred KiB or one n x n exponential with its temporaries; each slice takes its own
    squaring count.  A t D whose 1-norm is past the float range gives NaN labels at that time,
    which propagate_with rejects.
    """
    beta, times = np.asarray(beta), np.asarray(times, dtype=float)
    labels = np.empty((times.size, *beta.shape), dtype=complex)
    for block in _blocks(times.size, d.size):
        with np.errstate(over="ignore", invalid="ignore"):
            td = d * times[block, None, None]
            finite = np.isfinite(np.sum(np.abs(td), axis=-2)).all(axis=-1)
        theta = np.full(td.shape, np.nan, dtype=complex)
        theta[finite] = expm(td[finite])
        np.matmul(beta, np.swapaxes(theta, -1, -2), out=labels[block])
    return labels


def label_flow(drift: np.ndarray) -> LabelFlow:
    """The linear flow zeta(t) = exp(t D) beta of coherent labels under a drift D (see network.drift_matrix).

    D = V diag(lam) V^-1 is factorised once in the eigenbasis of W (see _eigenbasis): on the paper's
    networks, where Gamma commutes with W, in real arithmetic with V^-1 = V^T.  Its k eigenvalue
    clusters c give Sylvester's form exp(t D) = sum_c exp(lam_c t) P_c with P_c = V[:, c] V^-1[c, :].
    Each label set beta (terms, n) takes the route this one rule decides, here alone and once:
    - When the eigenvectors are unusable the flow is the Taylor map t -> beta exp(t D)^T
      (see _taylor_labels).
    - Otherwise flow(beta) forms the eigen-coordinates M = beta V^-T once (= beta V on a real
      factorisation).  When V is real (the P_c are orthogonal projectors), k^2 <= n (the shorthand
      network has k = 2 in every reservoir kind) and the images with their weights (_image_bytes)
      fit the byte budget next to a grid time's pair arrays, M is split into the images
      B_c = beta P_c^T = M[:, c] V[:, c]^T, returned as one _Images: it maps a 1-D array of T times
      to the (T, terms, n) labels sum_c exp(lam_c t) B_c, one exp of a (T, k) array and one gemm,
      and each bilinear form a block reads from it takes the block's times.
    - Any other label set gets t -> (M * exp(lam t)) V^T, the same k terms n work per time in
      terms n memory, and its blocks read their forms from the labels.
    A factorisation that fails, as for a drift near the float range, raises NumericalError instead
    of warning; one that is not finite gives non-finite labels, which propagate_with rejects.
    """
    d = np.asarray(drift)
    with np.errstate(all="ignore"):
        try:
            basis = _eigenbasis(d)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"the drift matrix cannot be factorised: {exc}") from None
    if basis is None:
        return lambda beta: lambda t: _taylor_labels(d, beta, t)
    lam, v, v_inv, group = basis
    heads = np.flatnonzero(group == np.arange(group.size))
    k = heads.size

    def flow(beta: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        terms, n = np.shape(beta)
        m = np.asarray(beta) @ v_inv.T
        if np.isrealobj(v) and k * k <= n and _TERM_PAIR_BYTES * terms * terms + _image_bytes(k, terms, n) <= _BYTE_BUDGET:
            images = np.empty((k, terms, n), dtype=complex)
            for image, h in zip(images, heads):
                np.matmul(m[:, group == h], v[:, group == h].T, out=image)
            return _Images(lam[heads], images)
        return lambda t: (np.exp(np.multiply.outer(np.asarray(t, dtype=float), lam))[:, None, :] * m) @ v.T

    return flow


class _Pairs(NamedTuple):
    """A stream's fixed pair data: its P = terms (terms - 1) / 2 pairs r < s in np.triu_indices order.

    lower = s terms + r is each pair's flat index below the diagonal of a
    terms x terms matrix, and mirror (terms^2) the flat index of each entry
    in a row [values at the P pairs, their conjugates, 1] (see _hermitian).
    log_g0_t = log <beta_s|beta_r> is per pair, w_outer = N^2 w conj(w)^T
    is the whole matrix, made exactly Hermitian (the conjugate of each upper
    entry below the diagonal, a real diagonal), and half_beta = |beta_r|^2 / 2
    is per term.
    """

    r: np.ndarray
    s: np.ndarray
    lower: np.ndarray
    mirror: np.ndarray
    log_g0_t: np.ndarray
    w_outer: np.ndarray
    half_beta: np.ndarray


def _pairs(state: SuperpositionState, norms: np.ndarray) -> _Pairs:
    """The pair data of a state (see _Pairs) with squared label norms |beta_r|^2, formed once per stream."""
    terms = state.num_terms
    k = np.arange(terms)
    r, s = np.nonzero(k[:, None] < k)  # np.triu_indices(terms, 1), at a fifth of its cost for few terms
    upper, lower = r * terms + s, s * terms + r
    w_outer = state.norm_factor**2 * np.outer(state.weights, state.weights.conj())
    flat = w_outer.reshape(-1)
    flat[lower] = flat[upper].conj()
    flat[:: terms + 1] = flat[:: terms + 1].real
    mirror = np.full(terms * terms, 2 * r.size)
    mirror[upper] = np.arange(r.size)
    mirror[lower] = np.arange(r.size, 2 * r.size)
    return _Pairs(r, s, lower, mirror, log_gram_matrix(state.labels).ravel()[lower], w_outer, 0.5 * norms)


def _log_pair_overlaps(block: Block) -> np.ndarray:
    """log <zeta_s|zeta_r> (T, P) at the pairs r < s of a block.

    conj(zeta_s) . zeta_r comes from the stream's images (see _Images) or,
    without them, from one batched cross gemm of the labels (entry (s, r));
    both half norms are subtracted on the pairs alone.
    """
    pairs, half = block._pairs, 0.5 * block._norms
    if block._images is None:
        zeta = block.labels
        logs = (zeta.conj() @ np.swapaxes(zeta, -1, -2)).reshape(zeta.shape[0], -1).take(pairs.lower, axis=1)
    else:
        logs = block._images.pair_cross(block.times)
    logs -= half.take(pairs.s, axis=1)
    logs -= half.take(pairs.r, axis=1)
    return logs


def _initial_overlaps(block: Block) -> np.ndarray:
    """<beta_r|zeta_s(t)> (T terms, terms) in [t, s] rows of a block, its exponents formed in place.

    zeta_s . conj(beta_r) comes from the stream's images (see _Images) or,
    without them, from one gemm of the labels.
    """
    if block._images is None:
        zeta = block.labels
        g = zeta.reshape(-1, zeta.shape[-1]) @ block._state.labels.conj().T
    else:
        g = block._images.initial_cross(block.times)
    g -= block._pairs.half_beta
    g -= 0.5 * block._norms.reshape(-1, 1)
    return np.exp(g, out=g)


def _hermitian(values: np.ndarray, pairs: _Pairs) -> np.ndarray:
    """The (T, terms, terms) stack with values (T, P) at r < s, their conjugates at s > r and 1 on the diagonal.

    One take from the row [values, conj(values), 1] per time (pairs.mirror).
    """
    t, p = values.shape
    row = np.empty((t, 2 * p + 1), dtype=complex)
    row[:, :p] = values
    np.conjugate(values, out=row[:, p:-1])
    row[:, -1] = 1.0
    return row.take(pairs.mirror, axis=1).reshape(t, *pairs.w_outer.shape)


def _gemm(exps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """exps (T, K) @ weights (K, M) through gemm also for T = 1, where numpy would call gemv.

    gemm rounds each row alike whatever the number of rows, and gemv rounds
    differently, so this way Block.at reads the same numbers as the block it
    is taken from (the tests check it bitwise).  Real exps multiply complex
    weights through their float view, one real gemm.
    """
    if exps.dtype != weights.dtype:
        return _gemm(exps, weights.view(float)).view(complex)
    if exps.shape[0] == 1:
        return (np.repeat(exps, 2, axis=0) @ weights)[:1]
    return exps @ weights


def _image_bytes(k: int, terms: int, n: int) -> int:
    """Bytes a stream on the image path needs on k clusters: its images and the peak of forming their weights.

    16 bytes each: the images, one conj(B) temporary and x = m0 conj(B) (k x terms n
    each; the Gram's conj(B) and the occupations' are never alive together), the Gram
    (k x terms^2), the norm and pair rows (k x (terms + P)), m0's row with its
    exponentials (3P + 1) and its matrix (terms^2), and the (n, k, k) product of the
    occupation weights with its transposed copy.  flow(beta)'s own n^2 temporaries (the
    real V cast to complex for M = beta V^-T and the clusters' column copies: 24 to 25
    bytes per entry with tracemalloc at n = 200 to 800) are network memory, counted in
    network._NETWORK_ENTRY_BYTES, not here.
    """
    pairs = terms * (terms - 1) // 2
    return 16 * (k * terms * (3 * n + terms + 1) + (k + 3) * pairs + 1 + terms * terms + 2 * k * k * n)


@dataclass(frozen=True, eq=False)
class _Images:
    """A stream's labels as images B_c (k, terms, n) on k eigenvalue clusters with eigenvalues rates (k).

    What flow(beta) returns when label_flow's rule splits the labels (see
    label_flow): called with a 1-D array of T times it gives the (T,
    terms, n) labels zeta_r(t) = sum_c exp(rates_c t) B_c[r], one
    exponential row times one gemm (see _gemm).  With the stream's pair data
    attached (see _images), each bilinear form a block reads is such a sum
    with constant weights too; each takes the block's times, as the call
    does, and forms its exponential rows inside.
    The B_c are orthogonal projections, so B_c[s] . conj(B_d[r]) = 0 for
    c != d, and one Gram per cluster, H_c[s, r] = B_c[s] . conj(B_c[r])
    (k x terms^2), gives the weights of every inner product:
    - norms: |zeta_r|^2, H's real diagonal, with the real rows
      exp(2 Re rates_c t) (formed on the first read, since every block's
      label guard reads them);
    - pair_cross: conj(zeta_s) . zeta_r on the pairs r < s, conj(H) there,
      with the same real rows;
    - initial_cross: zeta_s . conj(beta_r), H itself (beta_r = sum_d B_d[r]),
      with the k rows exp(rates_c t).
    The occupations sum per resonator, where the pairs c != d do not vanish,
    so they read all k^2 complex rows e_cd = exp((conj(rates_c) + rates_d) t):
    Re sum_rs m0_rs zeta_r conj(zeta_s) = Re sum_cd e_cd Q_cd
    (weights k^2 x n), with the constant pair matrix
    m0_rs = N^2 w_r conj(w_s) <beta_s|beta_r>.  This is exact, not an
    approximation: c_rs(t) <zeta_s|zeta_r> = m0_rs at every t (see Block),
    so sum_rs (c * G^T)_rs zeta_r conj(zeta_s) needs no coefficient.
    Every set of weights is formed on its first read with plain gemms and
    then kept for the stream; m0 lives only while Q is formed.
    """

    rates: np.ndarray
    images: np.ndarray
    pairs: Optional[_Pairs] = None

    def __call__(self, times: np.ndarray) -> np.ndarray:
        """The labels zeta (T, terms, n) at a 1-D array of T times."""
        k, terms, n = self.images.shape
        exps = np.exp(np.multiply.outer(np.asarray(times, dtype=float), self.rates))
        return _gemm(exps, self.images.reshape(k, -1)).reshape(-1, terms, n)

    @cached_property
    def _gram(self) -> np.ndarray:
        # H_c[s, r] = B_c[s] . conj(B_c[r]) at s terms + r, (k, terms^2)
        return (self.images @ np.swapaxes(self.images.conj(), -1, -2)).reshape(len(self.images), -1)

    @cached_property
    def _norm_weights(self) -> np.ndarray:
        return np.ascontiguousarray(self._gram[:, :: self.images.shape[1] + 1].real)

    @cached_property
    def _pair_weights(self) -> np.ndarray:
        weights = self._gram.take(self.pairs.lower, axis=1)  # a contiguous copy, which _gemm's float view needs
        return np.conjugate(weights, out=weights)

    @cached_property
    def _occupation_weights(self) -> np.ndarray:
        p = self.pairs
        m0 = _hermitian(np.exp(p.log_g0_t)[None], p)[0]
        m0 *= p.w_outer
        k, _, n = self.images.shape
        # x_c = m0 conj(B_c), then Q_cd[i] = sum_r x_c[r, i] B_d[r, i]: one (k, terms) x (terms, k) product per i
        x = m0 @ self.images.conj()
        q = np.transpose(x, (2, 0, 1)) @ np.transpose(self.images, (2, 1, 0))
        return np.transpose(q, (1, 2, 0)).reshape(k * k, n)

    def norms(self, times: np.ndarray) -> np.ndarray:
        """|zeta_r|^2 (T, terms) at a 1-D array of T times."""
        return np.exp(np.multiply.outer(times, 2.0 * self.rates.real)) @ self._norm_weights

    def pair_cross(self, times: np.ndarray) -> np.ndarray:
        """conj(zeta_s) . zeta_r (T, P) at the pairs r < s."""
        return _gemm(np.exp(np.multiply.outer(times, 2.0 * self.rates.real)), self._pair_weights)

    def occupations(self, times: np.ndarray) -> np.ndarray:
        """The mean occupations (T, n)."""
        exps = np.exp(np.multiply.outer(times, np.add.outer(self.rates.conj(), self.rates).ravel()))
        return _gemm(exps, self._occupation_weights).real

    def initial_cross(self, times: np.ndarray) -> np.ndarray:
        """zeta_s(t) . conj(beta_r) (T terms, terms) in [t, s] rows."""
        exps = np.exp(np.multiply.outer(times, self.rates))
        return _gemm(exps, self._gram).reshape(-1, self.images.shape[1])


def _images(at: Callable[[np.ndarray], np.ndarray], pairs: _Pairs) -> Optional[_Images]:
    """The flow's _Images with the stream's pair data when label_flow split the labels into images, None otherwise."""
    return replace(at, pairs=pairs) if isinstance(at, _Images) else None


@dataclass(frozen=True, eq=False)
class Block:
    """Label-space evolution on a run of consecutive grid times.

    labels[i, r] is the coherent label of term r at times[i] and _norms[i, r]
    its squared norm |zeta_r|^2, computed once by the stream's label guard.
    The rest is computed when first read and then kept: coeffs[i], the
    pair-coefficient matrix (entry (r, s) multiplies |zeta_r><zeta_s|), and
    the observables (occupations, purity, fidelity).  Both the coefficients
    and the Gram matrices are Hermitian, so they are formed on the
    triangle r < s alone, from the stream's pair data _pairs (see _Pairs):
    the cross products conj(zeta_s) . zeta_r, the log overlaps and both
    exponentials for those terms (terms - 1) / 2 pairs only, mirrored by
    conjugation onto s > r, with the exact diagonal <zeta_r|zeta_r> = 1 and
    c_rr = N^2 |w_r|^2; coeffs equals its conjugate transpose exactly.

    The bilinear forms in the labels (the pairs' cross products, the
    fidelity's zeta_s . conj(beta_r) and the occupations) come from one of two
    paths, the route label_flow decided for the stream (see label_flow).  On
    the label path (_images None) _zeta holds the flow's labels and each form
    is a gemm of them, terms^2 n work per time.  On the image path _images is
    the flow's own _Images with the stream's pair data: each form reads the
    block's times and is one exponential row times constant weights read
    from one Gram per cluster (see _Images), and the labels themselves are
    formed only when read, by calling _images.  The occupations there take
    the constant m0_rs = c_rs(t) <zeta_s|zeta_r> = N^2 w_r conj(w_s)
    <beta_s|beta_r> in place of c * G^T, exactly.
    Block.at slices the times, labels and norms; its forms are evaluated for
    its one time through gemm (see _gemm) from the same elementwise
    exponentials of the same time, so its numbers are bitwise those of its
    block's row.
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
    _zeta: Optional[np.ndarray] = field(repr=False)
    _norms: np.ndarray = field(repr=False)
    _pairs: _Pairs = field(repr=False)
    _state: SuperpositionState = field(repr=False)
    _images: Optional[_Images] = field(repr=False)

    @cached_property
    def labels(self) -> np.ndarray:
        return self._zeta if self._images is None else self._images(self.times)

    @cached_property
    def _formed(self) -> tuple[np.ndarray, np.ndarray]:
        """coeffs and the transposed Gram matrices G^T[i, r, s] = <zeta_s|zeta_r>."""
        p = self._pairs
        log_gt_t = _log_pair_overlaps(self)
        # An exploding flow overflows coeff; the trace check below is the arbiter.
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = p.log_g0_t - log_gt_t
            # w_outer multiplies the whole matrix, not the P pairs: numpy rounds a complex product
            # over a one-element array (T = P = 1) differently, which would tie coeffs to the block size
            coeff = _hermitian(np.exp(coeff, out=coeff), p)
            coeff *= p.w_outer
            gt_t = _hermitian(np.exp(log_gt_t, out=log_gt_t), p)
            trace = np.einsum("tij,tij->t", coeff, gt_t)
        drift = np.abs(trace - 1.0)
        _require(drift <= _TRACE_ABORT, self.times, lambda i: f"trace left 1 by {drift[i]:.3e}")
        return coeff, gt_t

    @property
    def coeffs(self) -> np.ndarray:
        return self._formed[0]

    @cached_property
    def occupations(self) -> np.ndarray:
        coeff, gt_t = self._formed  # forming the coefficients runs the trace check
        if self._images is None:
            zeta = self.labels
            occ = (zeta * ((coeff * gt_t) @ zeta.conj())).sum(axis=-2).real
        else:
            occ = self._images.occupations(self.times)
        low = occ.min(axis=-1)
        ok = low >= -_BOUND_SLACK * np.maximum(1.0, occ.sum(axis=-1))
        _require(ok, self.times, lambda i: f"occupation {low[i]:.3e} is negative")
        return occ

    @cached_property
    def purity(self) -> np.ndarray:
        coeff, gt_t = self._formed
        cg = coeff @ np.swapaxes(gt_t, -1, -2)
        purity = (cg * np.swapaxes(cg, -1, -2)).sum(axis=(-2, -1)).real
        _require(purity <= 1.0 + _BOUND_SLACK, self.times, lambda i: f"purity {purity[i]:.9g} exceeds 1")
        return purity

    @cached_property
    def fidelity(self) -> np.ndarray:
        state = self._state
        # w_in[t, s] = N sum_r conj(w_r) <beta_r|zeta_s(t)>, one gemv over the stacked [t, s] rows
        g_in = _initial_overlaps(self)
        w_in = state.norm_factor * (g_in @ state.weights.conj()).reshape(-1, state.num_terms)
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
        one = slice(i, i + 1)
        zeta = None if self._zeta is None else self._zeta[one]
        return replace(self, times=self.times[one], _zeta=zeta, _norms=self._norms[one])


def propagate_with(state: SuperpositionState, times, flow: LabelFlow) -> Iterator[Block]:
    """Evolve a state along a label flow (see label_flow), one Block at a time.

    The time grid must be nonempty, start at 0 and increase strictly; it is
    checked before anything is evolved.  It is processed in blocks of
    max(1, _BLOCK_ELEMENTS // (terms * (n + terms))) consecutive times: the
    flow is called once with the state's labels, and what it returns once per
    block with a 1-D array of T times, giving the (T, terms, n) stack of evolved
    labels, which are checked and yielded as a Block.  When the flow's route
    split the labels into images (see label_flow), the stream hands each
    block only its norms, read from the images at the block's times, and its
    labels are formed only when read.  Its pair coefficients and
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
    b = beta.view(float)  # squared norms by einsum over float views: half the time of np.abs(z) ** 2
    norms = np.einsum("ri,ri->r", b, b)
    bound = norms * (1.0 + _TRACE_ABORT)
    pairs = _pairs(state, norms)
    with np.errstate(over="ignore", invalid="ignore"):  # an exploding flow overflows; the label guard is the arbiter
        at = flow(beta)
    images = _images(at, pairs)
    zeta = None
    for block in _blocks(times.size, terms * (n + terms)):
        tb = times[block]
        with np.errstate(over="ignore", invalid="ignore"):
            if images is None:
                zeta = np.ascontiguousarray(at(tb), dtype=complex)
                if zeta.shape != (tb.size, terms, n):
                    raise ModelError(f"label flow returned shape {zeta.shape}, expected {(tb.size, terms, n)}")
                z = zeta.view(float)
                norms = np.einsum("tri,tri->tr", z, z)
            else:
                norms = images.norms(tb)
        # NaN fails the comparison too, so this also rejects non-finite labels.
        _require(
            (norms <= bound).all(axis=-1),
            tb,
            lambda i: f"labels are non-finite or outgrew |zeta_r|^2 <= |beta_r|^2 (1 + {_TRACE_ABORT:g})",
        )
        yield Block(tb, zeta, norms, pairs, state, images)


def decoherence_time_numeric(
    flow: LabelFlow, state: SuperpositionState, step: float, gamma_rate: float = 0.0, r: int = 0, s: int = 1
) -> float:
    """Decoherence time of one term pair of a state from its label flow.

    The pair coherence D(t) = |<beta_r|beta_s> / <zeta_r(t)|zeta_s(t)>|
    decays from 1; the initial slope of -ln D, taken by a forward difference
    with step min(1e-6 / gamma_rate, step) (step alone when gamma_rate is 0;
    pass the first step of the time grid), gives 1/tau.  A difference
    |delta0|^2 - |delta(h)|^2 within _ROUNDING_UNITS * n * 2^-53 * |delta0|^2
    of zero (or below it) is rounding, not decay, and reports infinity.
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
    delta_t = np.asarray(flow(delta0[None, :])(np.array([h])))[0, 0]
    # -ln D(h) = (|delta0|^2 - |delta_t|^2) / 2, evaluated from the norms to
    # avoid cancellation inside an exp/log round trip.
    norm0 = float(np.sum(np.abs(delta0) ** 2))
    f = 0.5 * (norm0 - float(np.sum(np.abs(delta_t) ** 2)))
    if 2.0 * f <= _ROUNDING_UNITS * delta0.size * 2.0**-53 * norm0:
        return math.inf
    return 1.0 / (f / h)


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
