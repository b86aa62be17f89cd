"""Superpositions of multimode coherent states.

States are kept in label form: a list of complex weights and, per weight, a
vector of coherent amplitudes (one per resonator).  All inner products are
evaluated with the exact coherent-state overlap, so norms, purities and
fidelities never involve a Fock-space truncation.

The two-branch family used throughout the package puts amplitude alpha on R
resonators, -alpha on the next S, and a fixed amplitude eta on the rest; the
second branch carries the opposite alpha pattern, and the branches are
combined with a relative plus or minus sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelError, NumericalError
from .network import _frozen

__all__ = [
    "RSFamilySpec",
    "SuperpositionState",
    "gram_matrix",
    "log_gram_matrix",
    "make_superposition",
    "make_rs_state",
    "state_norm",
]

# Labels whose components all agree within this tolerance count as the same
# coherent product and get their weights merged.
_MERGE_TOL = 1e-14


def log_gram_matrix(labels_a: np.ndarray, labels_b: Optional[np.ndarray] = None) -> np.ndarray:
    """Logarithms L[..., r, s] = log <a_r|b_s> of the overlaps between two label sets.

    Labels are the rows of the last two axes; leading axes are batch axes and
    broadcast against each other.  The exponent is returned unevaluated, so
    overlaps far below the double range (well-separated cats) stay usable.
    When one side has no batch axes the products are one gemm over the
    other side's stacked rows: a batched matmul against a shared matrix
    makes one BLAS call per batch entry.
    """
    a = np.atleast_2d(np.asarray(labels_a, dtype=complex))
    na = 0.5 * np.sum(np.abs(a) ** 2, axis=-1)
    if labels_b is None:
        b, nb = a, na
    else:
        b = np.atleast_2d(np.asarray(labels_b, dtype=complex))
        nb = 0.5 * np.sum(np.abs(b) ** 2, axis=-1)
    if b.ndim == 2:
        cross = (a.conj().reshape(-1, a.shape[-1]) @ b.T).reshape(a.shape[:-1] + b.shape[:1])
    elif a.ndim == 2:
        cross_t = (b.reshape(-1, b.shape[-1]) @ a.conj().T).reshape(b.shape[:-1] + a.shape[:1])
        cross = np.swapaxes(cross_t, -1, -2)
    else:
        cross = a.conj() @ np.swapaxes(b, -1, -2)
    return cross - na[..., :, None] - nb[..., None, :]


def gram_matrix(labels_a: np.ndarray, labels_b: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix of overlaps G[..., r, s] = <a_r|b_s> between two label sets (rows), over any batch axes."""
    return np.exp(log_gram_matrix(labels_a, labels_b))


@dataclass(frozen=True, eq=False)
class SuperpositionState:
    """Normalised superposition sum_r norm_factor * weights[r] |labels[r]>.

    labels has shape (terms, n).  norm_factor is fixed at construction so the
    state has unit norm; use make_superposition / make_rs_state rather than
    instantiating directly.
    """

    weights: np.ndarray
    labels: np.ndarray
    norm_factor: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=complex)))
        object.__setattr__(self, "labels", _frozen(np.asarray(self.labels, dtype=complex)))

    @property
    def n(self) -> int:
        return self.labels.shape[1]

    @property
    def num_terms(self) -> int:
        return self.labels.shape[0]


def state_norm(state: SuperpositionState) -> float:
    """<psi|psi> evaluated from the exact overlaps; 1 for a healthy state."""
    g = gram_matrix(state.labels)
    val = state.norm_factor**2 * np.real(state.weights.conj() @ g @ state.weights)
    return float(val)


def make_superposition(weights, labels) -> SuperpositionState:
    """Build a normalised state, merging duplicate labels and dropping cancelled terms."""
    w = np.atleast_1d(np.asarray(weights, dtype=complex))
    lab = np.atleast_2d(np.asarray(labels, dtype=complex))
    if w.ndim != 1 or lab.ndim != 2 or w.shape[0] != lab.shape[0]:
        raise ModelError("weights and labels must have matching leading dimensions")
    if w.shape[0] == 0:
        raise ModelError("a state needs at least one term")

    # A label joins the first earlier kept label within _MERGE_TOL in every
    # component: one comparison against all kept labels per term.
    merged_w = np.empty_like(w)
    merged_l = np.empty_like(lab)
    count = 0
    for wi, li in zip(w, lab):
        match = np.flatnonzero(np.all(np.abs(merged_l[:count] - li) <= _MERGE_TOL, axis=1))
        if match.size:
            merged_w[match[0]] += wi
        else:
            merged_w[count] = wi
            merged_l[count] = li
            count += 1
    keep = np.flatnonzero(merged_w[:count] != 0.0)
    if not keep.size:
        raise ModelError("all terms cancelled: the state has zero norm")
    wv = merged_w[keep]
    lv = merged_l[keep]

    # Labels near the float range overflow the overlaps; the finite-norm check decides.
    with np.errstate(over="ignore", invalid="ignore"):
        g = gram_matrix(lv)
        norm2 = float(np.real(wv.conj() @ g @ wv))
    if not np.isfinite(norm2) or norm2 <= 0.0:
        raise ModelError("state has zero (or undefined) norm")
    state = SuperpositionState(weights=wv, labels=lv, norm_factor=1.0 / np.sqrt(norm2))
    check = state_norm(state)
    if abs(check - 1.0) > 1e-12:
        raise NumericalError(f"state normalisation drifted: <psi|psi> = {check!r}")
    return state


@dataclass(frozen=True)
class RSFamilySpec:
    """Parameters of the two-branch superposition family.

    R resonators at +/-alpha, S at the opposite sign, the remaining
    n - R - S at the common amplitude eta, branches combined with `sign`
    (+1 or -1).
    """

    n: int
    r: int
    s: int
    alpha: complex
    eta: complex = 0.0
    sign: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ModelError("state needs at least one resonator")
        if self.r < 0 or self.s < 0:
            raise ModelError("branch sizes must be nonnegative")
        if self.r + self.s > self.n:
            raise ModelError("R + S cannot exceed the number of resonators")
        if self.sign not in (1, -1):
            raise ModelError("sign must be +1 or -1")


def rs_branch_labels(spec: RSFamilySpec) -> np.ndarray:
    """The two coherent product labels of the family, one per row."""
    alpha = complex(spec.alpha)
    eta = complex(spec.eta)
    first = np.concatenate(
        [np.full(spec.r, alpha), np.full(spec.s, -alpha), np.full(spec.n - spec.r - spec.s, eta)]
    )
    second = np.concatenate(
        [np.full(spec.r, -alpha), np.full(spec.s, alpha), np.full(spec.n - spec.r - spec.s, eta)]
    )
    return np.vstack([first, second])


def make_rs_state(spec: RSFamilySpec) -> SuperpositionState:
    """Construct the normalised two-branch state described by spec.

    Coinciding branches (R = S = 0, or alpha = 0) collapse to a single
    product term; with a minus sign that combination is the zero vector and
    is rejected.
    """
    labels = rs_branch_labels(spec)
    return make_superposition([1.0, float(spec.sign)], labels)
