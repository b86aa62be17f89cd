"""Resonator network topology and its normal-mode structure.

A network of n harmonic resonators is described by the bare frequencies
omega_m and a symmetric coupling matrix with zero diagonal.  Both enter the
quadratic form W (W_mm = omega_m, W_mn = coupling_mn), whose orthogonal
diagonalisation defines the collective normal modes.  The all-to-all network
with equal frequencies and equal couplings is special: it has one symmetric
mode at omega + (n-1)*coupling and an (n-1)-fold degenerate manifold at
omega - coupling (degenerate_modes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _BYTE_BUDGET, ModelError, NumericalError, _sci

__all__ = [
    "NetworkSpec",
    "NormalModeDecomposition",
    "degenerate_network",
    "clusters",
    "normal_modes",
    "degenerate_modes",
    "drift_matrix",
]

# Values closer than this (relative) are linked into one cluster (see clusters).
_CLUSTER_RTOL = 1e-9

# Bytes a command holds per entry of an n x n network matrix: the largest slope against n^2 of the peak
# RSS of `modes`, `evolve`, `classify` and `sweep` on the {n, omega, lambda} shorthand (white-noise and
# distinct reservoirs, fresh interpreters, n = 600, 1,000 and 1,400), rounded up.  `modes` reached
# 198.7 (195.7 once its cluster basis held no n x n projector); RSS, unlike tracemalloc, also sees
# numpy.linalg's LAPACK workspace.  This is network memory, and it includes label_flow's flow(beta)
# temporaries (the real V cast to complex, the clusters' column copies), which evolve._image_bytes omits.
_NETWORK_ENTRY_BYTES = 199


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Bare frequencies and pairwise couplings of a resonator network.

    omega has shape (n,), coupling shape (n, n).  Construction normalises
    dtypes and raises ModelError naming the first violated property: empty
    network, omega not a vector, nonpositive or non-finite frequency,
    coupling shape, non-finite coupling, asymmetry, or nonzero diagonal.
    """

    omega: np.ndarray
    coupling: np.ndarray

    def __post_init__(self) -> None:
        omega = _frozen(np.atleast_1d(np.asarray(self.omega, dtype=float)))
        coupling = _frozen(np.atleast_2d(np.asarray(self.coupling, dtype=float)))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "coupling", coupling)
        n = self.n
        if n == 0:
            raise ModelError("network needs at least one resonator")
        if omega.ndim != 1:
            raise ModelError("omega must be a vector")
        if np.any(~np.isfinite(omega)) or np.any(omega <= 0.0):
            raise ModelError("resonator frequencies must be positive and finite")
        if coupling.shape != (n, n):
            raise ModelError(f"coupling must be {n}x{n}, got {coupling.shape}")
        if np.any(~np.isfinite(coupling)):
            raise ModelError("couplings must be finite")
        if not np.array_equal(coupling, coupling.T):
            raise ModelError("coupling matrix must be symmetric")
        if np.any(np.diagonal(coupling) != 0.0):
            raise ModelError("coupling matrix must have zero diagonal")

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    def w_matrix(self) -> np.ndarray:
        """Quadratic-form matrix W: frequencies on the diagonal, couplings off it."""
        w = np.array(self.coupling, copy=True)
        np.fill_diagonal(w, self.omega)
        return w


def degenerate_network(n: int, omega0: float, lambda0: float) -> NetworkSpec:
    """All-to-all network: every resonator at omega0, every pair coupled at lambda0.

    An n whose run would need more than the byte budget is rejected before
    any n x n array is made.
    """
    if n < 1:
        raise ModelError("network needs at least one resonator")
    need = _NETWORK_ENTRY_BYTES * n * n
    if need > _BYTE_BUDGET:
        raise ModelError(f"{n} resonators need {_sci(need)} bytes, over the {_sci(_BYTE_BUDGET)}-byte budget")
    coupling = np.full((n, n), float(lambda0))
    np.fill_diagonal(coupling, 0.0)
    return NetworkSpec(omega=np.full(n, float(omega0)), coupling=coupling)


@dataclass(frozen=True, eq=False)
class NormalModeDecomposition:
    """Orthogonal change of basis to normal modes.

    Row m of `transform` holds the coefficients of normal mode m in terms of
    the bare resonators, so transform @ W @ transform.T is diagonal with
    entries `frequencies` (ascending).  `symmetric` records whether the
    transform happens to equal its own transpose; that property holds for
    the reflection basis of the degenerate network but is not required.
    """

    transform: np.ndarray
    frequencies: np.ndarray
    symmetric: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "transform", _frozen(np.asarray(self.transform, dtype=float)))
        object.__setattr__(self, "frequencies", _frozen(np.asarray(self.frequencies, dtype=float)))

    @property
    def n(self) -> int:
        return self.frequencies.shape[0]


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry (first on ties) is positive.

    Magnitudes within 1e-12 of the row maximum count as tied, so rounding
    noise in the eigensolver cannot decide which entry is "first".
    """
    out = np.array(rows, copy=True)
    mags = np.abs(out)
    first = np.argmax(mags >= mags.max(axis=1, keepdims=True) - 1e-12, axis=1)
    out[out[np.arange(out.shape[0]), first] < 0.0] *= -1.0
    return out


def _centred_eigh(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a symmetric W less its mean tr W / n (0 if that overflows): its rounding scales with W's spread."""
    with np.errstate(over="ignore"):
        mean = np.trace(w) / w.shape[0]
    mean = mean if np.isfinite(mean) else 0.0
    values, vectors = np.linalg.eigh(w - mean * np.eye(w.shape[0]))
    return values + mean, vectors


def _canonical_cluster_rows(columns: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis (k x n rows) of the span of the orthonormal columns C (n x k).

    Gram-Schmidt of the projections P e_j = C C[j] of the canonical basis vectors in index order,
    keeping each whose residual exceeds 1e-8, makes the result independent of whatever arbitrary
    intra-cluster mixture the eigensolver produced.  As C is orthonormal, that is C times Gram-Schmidt
    of the k-dimensional rows C[j]: each is projected out of the basis so far twice, by two gemvs each
    time ("twice is enough": Giraud, Langou & Rozloznik 2005), O(n k^2) work in all.  While fewer than
    k rows are kept their squared residuals sum to at least 1, so all k are always found.
    """
    k = columns.shape[1]
    basis = np.empty((k, k))
    kept = 0
    for row in columns:
        row = row - (row @ basis[:kept].T) @ basis[:kept]
        row = row - (row @ basis[:kept].T) @ basis[:kept]
        norm = np.sqrt(row @ row)
        if norm > 1e-8:
            basis[kept] = row / norm
            kept += 1
            if kept == k:
                break
    return basis @ columns.T


def clusters(values) -> np.ndarray:
    """Cluster label of each value (real or complex): the smallest index in its cluster.

    a and b are linked when |a - b| <= _CLUSTER_RTOL * max(|a|, |b|), and a
    cluster is a chain of links, so this alone decides which normal modes
    count as one frequency.
    """
    values = np.asarray(values)
    n = values.shape[0]
    mag = np.abs(values)
    close = np.abs(values[:, None] - values) <= _CLUSTER_RTOL * np.maximum(mag[:, None], mag)
    group = np.arange(n)
    while True:  # every value takes the smallest index it is linked to
        linked = np.min(np.where(close, group, n), axis=1, initial=n)
        if np.array_equal(linked, group):
            return group
        group = linked


def normal_modes(spec: NetworkSpec) -> NormalModeDecomposition:
    """Diagonalise the network's quadratic form into normal modes (by _centred_eigh).

    Frequencies are returned ascending.  Within a degenerate cluster (see
    clusters) the eigenbasis is replaced by a canonical one seeded from the
    resonator basis and the rows are ordered lexicographically, so repeated
    calls and different-but-equivalent solver states cannot change the
    output.
    """
    w = spec.w_matrix()
    values, vectors = _centred_eigh(w)
    n = spec.n

    rows = vectors.T.copy()
    # The Frobenius norm of W, scaled by max |W| so that entries near the float range cannot overflow.
    top = np.max(np.abs(w))
    scale = max(np.max(np.abs(values)), top * np.sqrt(np.sum((w / top) ** 2)), 1e-300)
    group = clusters(values)
    for g in np.unique(group):
        members = np.flatnonzero(group == g)
        # Replacing the basis mixes the cluster's eigendirections, which is
        # only harmless when their eigenvalues are numerically identical;
        # otherwise the solver's own (already deterministic) basis stays.
        if members.size > 1 and np.ptp(values[members]) <= 1e-12 * scale:
            block = _fix_signs(_canonical_cluster_rows(vectors[:, members]))
            # rows in lexicographic order of their entries rounded to 12 decimals (lexsort keys last-first)
            rows[members] = block[np.lexsort(np.round(block, 12).T[::-1])]

    c = _fix_signs(rows)
    ortho = np.max(np.abs(c.T @ c - np.eye(n)))
    diag = c @ w @ c.T
    offdiag = np.max(np.abs(diag - np.diag(np.diagonal(diag)))) if n > 1 else 0.0
    tol_scale = max(1.0, np.max(np.abs(w)))
    if ortho > 1e-10 or offdiag > 1e-10 * tol_scale:
        raise NumericalError(
            f"normal-mode basis failed its own checks (orthogonality {ortho:.3e}, "
            f"off-diagonal {offdiag:.3e})"
        )
    symmetric = bool(np.max(np.abs(c - c.T)) < 1e-9)
    return NormalModeDecomposition(transform=c, frequencies=values, symmetric=symmetric)


def degenerate_modes(n: int, omega0: float, lambda0: float) -> tuple[float, float]:
    """Normal-mode frequencies of the all-to-all degenerate network.

    Returns (plus, minus): the symmetric mode omega0 + (n-1)*lambda0 appearing
    once and the (n-1)-fold mode omega0 - lambda0.
    """
    if n < 2:
        raise ModelError("degenerate mode split needs at least two resonators")
    return float(omega0 + (n - 1) * lambda0), float(omega0 - lambda0)


def drift_matrix(spec: NetworkSpec, decay) -> np.ndarray:
    """The amplitude drift -i W - gamma/2 of the network and a DecayMatrix, as a frozen complex array.

    The mean coherent amplitudes obey d<a>/dt = (-i W - gamma/2) <a>, so with
    gamma = 0 the drift is anti-Hermitian and the flow is unitary.
    """
    g = decay.matrix
    if g.shape != (spec.n, spec.n):
        raise ModelError(f"decay matrix must be {spec.n}x{spec.n}, got {g.shape}")
    return _frozen(-1j * spec.w_matrix() - 0.5 * g)
