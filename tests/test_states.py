"""Coherent labels, Gram algebra, and the two-branch state family."""

import math

import numpy as np
import pytest

from resonet import (
    ModelError,
    RSFamilySpec,
    gram_matrix,
    make_rs_state,
    make_superposition,
    rs_branch_labels,
    state_norm,
)
from reference import coherent_overlap, swap_resonators


def test_overlap_identities():
    a = np.array([0.3 + 0.1j, -0.2j])
    assert abs(coherent_overlap(a, a) - 1.0) < 1e-15
    b = np.array([0.1, 0.5 - 0.2j])
    ab = coherent_overlap(a, b)
    # conjugate symmetry and the explicit exponential
    assert abs(ab - np.conj(coherent_overlap(b, a))) < 1e-15
    expected = np.exp(
        -0.5 * np.sum(np.abs(a) ** 2) - 0.5 * np.sum(np.abs(b) ** 2) + np.vdot(a, b)
    )
    assert abs(ab - expected) < 1e-15


def test_overlap_magnitude_is_distance():
    a = np.array([1.0 + 0.0j])
    b = np.array([1.0 + 1.0j])
    assert abs(abs(coherent_overlap(a, b)) - math.exp(-0.5)) < 1e-12


def test_gram_matrix_properties():
    rng = np.random.default_rng(3)
    labels = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    g = gram_matrix(labels)
    np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
    np.testing.assert_allclose(np.diagonal(g), 1.0, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(g)) > -1e-12
    # rectangular cross Gram agrees entrywise with the scalar overlap
    other = rng.normal(size=(2, 3))
    gx = gram_matrix(labels, other)
    for r in range(4):
        for s in range(2):
            assert abs(gx[r, s] - coherent_overlap(labels[r], other[s])) < 1e-14


def test_gram_matrix_broadcasts_over_batch_axes():
    rng = np.random.default_rng(4)
    labels = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    stack = rng.normal(size=(5, 2, 3)) + 1j * rng.normal(size=(5, 2, 3))
    gb = gram_matrix(labels, stack)
    assert gb.shape == (5, 4, 2)
    for k in range(5):
        np.testing.assert_allclose(gb[k], gram_matrix(labels, stack[k]), rtol=0, atol=1e-14)
    np.testing.assert_allclose(gram_matrix(stack)[3], gram_matrix(stack[3]), rtol=0, atol=1e-14)
    # a batched side against a shared one, either way round and over two batch axes
    deep = rng.normal(size=(2, 5, 2, 3)) + 1j * rng.normal(size=(2, 5, 2, 3))
    for a, b in ((stack, labels), (deep, labels), (labels, deep)):
        g = gram_matrix(a, b)
        assert g.shape == np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-2])
        for idx in np.ndindex(g.shape[:-2]):
            ai = a[idx] if a.ndim > 2 else a
            bi = b[idx] if b.ndim > 2 else b
            np.testing.assert_allclose(g[idx], gram_matrix(ai, bi), rtol=0, atol=1e-14)


def test_cat_normalization_closed_form():
    # N=2, R=S=1, alpha = 1/sqrt(2): branch overlap exp(-4 alpha^2) = e^-2,
    # so the norm factor is (2 + 2 e^-2)^(-1/2).
    alpha = 1.0 / math.sqrt(2.0)
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=alpha))
    expected = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0))
    assert abs(state.norm_factor - expected) < 1e-12
    assert abs(state_norm(state) - 1.0) < 1e-12


def test_minus_cat_normalization():
    alpha = 1.0 / math.sqrt(2.0)
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=alpha, sign=-1))
    expected = 1.0 / math.sqrt(2.0 - 2.0 * math.exp(-2.0))
    assert abs(state.norm_factor - expected) < 1e-12


def test_superposition_merges_identical_labels():
    labels = np.array([[0.5, -0.5], [0.5, -0.5], [0.2, 0.1]])
    state = make_superposition([1.0, 1.0, 0.3], labels)
    assert state.num_terms == 2
    assert abs(state_norm(state) - 1.0) < 1e-12


def _pairwise_merge(weights, labels):
    """The merge rule term by term: a label joins the first earlier kept label within 1e-14 in every component."""
    merged_w, merged_l = [], []
    for wi, li in zip(weights, labels):
        for k, lk in enumerate(merged_l):
            if np.all(np.abs(li - lk) <= 1e-14):
                merged_w[k] += wi
                break
        else:
            merged_w.append(complex(wi))
            merged_l.append(li)
    keep = [k for k, wk in enumerate(merged_w) if wk != 0.0]
    return np.array([merged_w[k] for k in keep]), np.array([merged_l[k] for k in keep])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_superposition_merge_matches_the_pairwise_rule(seed):
    # Near-duplicates within and just outside the tolerance, chains in which
    # a label is close to a merged one but not to the label it joined, two
    # kept labels within reach of one term (the first wins) and exactly
    # cancelling pairs: the same weights and labels as the term-by-term rule.
    rng = np.random.default_rng(seed)
    n = 3
    base = 0.5 * (rng.normal(size=(12, n)) + 1j * rng.normal(size=(12, n)))
    rows = [base]
    for step in (0.4e-14, 0.8e-14, 1.2e-14, 1.6e-14, 2.5e-14):
        pick = base[rng.integers(0, 12, size=6)]
        rows.append(pick + step * rng.choice([-1.0, 1.0], size=pick.shape))
    rows.append(base[:3] + 0.6e-14j)
    labels = np.concatenate(rows)
    labels = labels[rng.permutation(len(labels))]
    weights = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    # a pair of terms cancelling exactly, inserted among the others
    at = len(labels) // 2
    labels = np.insert(labels, [at, at + 5], np.full((2, n), 2.0 + 1.0j), axis=0)
    weights = np.insert(weights, [at, at + 5], [0.7 - 0.2j, -0.7 + 0.2j])
    want_w, want_l = _pairwise_merge(weights, labels)
    assert 12 < len(want_w) < len(weights) - 2
    assert not np.any(np.all(want_l == 2.0 + 1.0j, axis=1))
    state = make_superposition(weights, labels)
    assert np.array_equal(state.weights, want_w)
    assert np.array_equal(state.labels, want_l)


def test_zero_state_rejected():
    with pytest.raises(ModelError):
        make_rs_state(RSFamilySpec(n=2, r=0, s=0, alpha=0.0, sign=-1))
    with pytest.raises(ModelError):
        make_superposition([1.0, -1.0], np.array([[0.4, 0.2], [0.4, 0.2]]))


def test_branch_labels_layout():
    spec = RSFamilySpec(n=4, r=1, s=2, alpha=0.6, eta=0.3)
    labels = rs_branch_labels(spec)
    np.testing.assert_array_equal(labels[0], np.array([0.6, -0.6, -0.6, 0.3], dtype=complex))
    np.testing.assert_array_equal(labels[1], np.array([-0.6, 0.6, 0.6, 0.3], dtype=complex))


def test_family_spec_validation():
    with pytest.raises(ModelError):
        RSFamilySpec(n=2, r=2, s=1, alpha=0.5)
    with pytest.raises(ModelError):
        RSFamilySpec(n=2, r=-1, s=0, alpha=0.5)
    with pytest.raises(ModelError):
        RSFamilySpec(n=2, r=1, s=1, alpha=0.5, sign=2)
    with pytest.raises(ModelError):
        RSFamilySpec(n=0, r=0, s=0, alpha=0.5)


def _state_overlap(sa, sb) -> complex:
    g = gram_matrix(sa.labels, sb.labels)
    return sa.norm_factor * sb.norm_factor * complex(np.conj(sa.weights) @ g @ sb.weights)


def test_swap_symmetry_of_balanced_family():
    # Swapping the two blocks of an R=S state maps branch 1 to branch 2, so
    # the state is invariant up to term ordering; fidelity must be exactly 1.
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.7))
    swapped = swap_resonators(state, 0, 1)
    assert abs(abs(_state_overlap(state, swapped)) - 1.0) < 1e-12


def test_swap_changes_unbalanced_state():
    state = make_rs_state(RSFamilySpec(n=3, r=1, s=0, alpha=0.9, eta=0.2))
    swapped = swap_resonators(state, 0, 2)
    assert abs(_state_overlap(state, swapped)) < 1.0 - 1e-3
    with pytest.raises(ModelError):
        swap_resonators(state, 0, 5)


def test_weights_and_labels_read_only():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.5))
    with pytest.raises(ValueError):
        state.labels[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.weights[0] = 2.0
