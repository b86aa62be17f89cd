"""Resonator network topology and its normal-mode structure.

A network of n harmonic resonators is described by the bare frequencies
omega_m and a symmetric coupling matrix with zero diagonal.  Both enter the
quadratic form W (W_mm = omega_m, W_mn = coupling_mn), whose orthogonal
diagonalisation defines the collective normal modes.  The all-to-all network
with equal frequencies and equal couplings is special: it has one symmetric
mode at omega + (n-1)*coupling and an (n-1)-fold degenerate manifold at
omega - coupling, and it is the configuration for which closed-form
dissipative propagators exist elsewhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericalError

__all__ = [
    "NetworkSpec",
    "NormalModeDecomposition",
    "DriftMatrix",
    "degenerate_network",
    "validate_network",
    "normal_modes",
    "degenerate_modes",
    "degenerate_decomposition",
    "drift_matrix",
]

# Eigenvalues closer than this (relative) are treated as one degenerate
# cluster when choosing a deterministic eigenbasis.
_CLUSTER_RTOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Bare frequencies and pairwise couplings of a resonator network.

    omega has shape (n,), coupling shape (n, n).  Validation is performed by
    validate_network; construction only normalises dtypes.
    """

    omega: np.ndarray
    coupling: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _frozen(np.atleast_1d(np.asarray(self.omega, dtype=float))))
        object.__setattr__(self, "coupling", _frozen(np.atleast_2d(np.asarray(self.coupling, dtype=float))))

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    def w_matrix(self) -> np.ndarray:
        """Quadratic-form matrix W: frequencies on the diagonal, couplings off it."""
        w = np.array(self.coupling, copy=True)
        np.fill_diagonal(w, self.omega)
        return w


def degenerate_network(n: int, omega0: float, lambda0: float) -> NetworkSpec:
    """All-to-all network: every resonator at omega0, every pair coupled at lambda0."""
    if n < 1:
        raise ModelError("network needs at least one resonator")
    coupling = np.full((n, n), float(lambda0))
    np.fill_diagonal(coupling, 0.0)
    return NetworkSpec(omega=np.full(n, float(omega0)), coupling=coupling)


def validate_network(spec: NetworkSpec) -> NetworkSpec:
    """Check structural invariants, returning the spec unchanged.

    Raises ModelError naming the first violated property: empty network,
    nonpositive frequency, coupling shape, asymmetry, or nonzero diagonal.
    """
    n = spec.n
    if n == 0:
        raise ModelError("network needs at least one resonator")
    if spec.omega.ndim != 1:
        raise ModelError("omega must be a vector")
    if np.any(~np.isfinite(spec.omega)) or np.any(spec.omega <= 0.0):
        raise ModelError("resonator frequencies must be positive and finite")
    if spec.coupling.shape != (n, n):
        raise ModelError(f"coupling must be {n}x{n}, got {spec.coupling.shape}")
    if np.any(~np.isfinite(spec.coupling)):
        raise ModelError("couplings must be finite")
    if not np.array_equal(spec.coupling, spec.coupling.T):
        raise ModelError("coupling matrix must be symmetric")
    if np.any(np.diagonal(spec.coupling) != 0.0):
        raise ModelError("coupling matrix must have zero diagonal")
    return spec


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


def _canonical_cluster_rows(columns: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the span of the given columns.

    Seeds modified Gram-Schmidt with the projections of the canonical basis
    vectors in index order, which makes the result independent of whatever
    arbitrary intra-cluster mixture the eigensolver produced.
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
    if len(chosen) < k:
        # Nearly never reached: fall back to the solver's own (deterministic) basis.
        return columns.T
    for i in range(k):  # second pass tightens orthogonality
        w = chosen[i]
        for u in chosen[:i]:
            w = w - (u @ w) * u
        chosen[i] = w / np.sqrt(w @ w)
    return np.array(chosen)


def normal_modes(spec: NetworkSpec) -> NormalModeDecomposition:
    """Diagonalise the network's quadratic form into normal modes.

    Frequencies are returned ascending.  Within a degenerate cluster
    (relative spread below 1e-9) the eigenbasis is replaced by a canonical
    one seeded from the resonator basis and the rows are ordered
    lexicographically, so repeated calls and different-but-equivalent solver
    states cannot change the output.
    """
    validate_network(spec)
    w = spec.w_matrix()
    values, vectors = np.linalg.eigh(w)
    n = spec.n

    rows = vectors.T.copy()
    scale = max(np.max(np.abs(values)), np.sqrt(np.sum(w * w)), 1e-300)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and (
            values[stop] - values[stop - 1]
            <= _CLUSTER_RTOL * max(abs(values[stop]), abs(values[stop - 1]))
        ):
            stop += 1
        if stop - start > 1:
            spread = values[stop - 1] - values[start]
            # Replacing the basis mixes the cluster's eigendirections, which is
            # only harmless when their eigenvalues are numerically identical;
            # otherwise the solver's own (already deterministic) basis stays.
            if spread <= 1e-12 * scale:
                block = _canonical_cluster_rows(vectors[:, start:stop])
                block = _fix_signs(block)
                key = sorted(range(block.shape[0]), key=lambda i: tuple(np.round(block[i], 12)))
                rows[start:stop] = block[key]
        start = stop

    rows = _fix_signs(rows)
    c = rows
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


@dataclass(frozen=True, eq=False)
class DriftMatrix:
    """Linear drift of coherent amplitudes: matrix = -i W - gamma/2."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen(np.asarray(self.matrix, dtype=complex)))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def drift_matrix(spec: NetworkSpec, gamma) -> DriftMatrix:
    """Assemble the amplitude drift from the network and a decay matrix.

    `gamma` may be a DecayMatrix or a plain symmetric (n, n) array.  The mean
    coherent amplitudes obey d<a>/dt = (-i W - gamma/2) <a>, so with gamma = 0
    the drift is anti-Hermitian and the flow is unitary.
    """
    validate_network(spec)
    g = np.asarray(getattr(gamma, "matrix", gamma), dtype=float)
    if g.shape != (spec.n, spec.n):
        raise ModelError(f"decay matrix must be {spec.n}x{spec.n}, got {g.shape}")
    return DriftMatrix(-1j * spec.w_matrix() - 0.5 * g)
