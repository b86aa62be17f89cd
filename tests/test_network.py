"""Network construction, validation, and normal-mode decomposition."""

import math

import numpy as np
import pytest

from resonet import (
    DecayMatrix,
    ModelError,
    NetworkSpec,
    degenerate_modes,
    degenerate_network,
    drift_matrix,
    normal_modes,
)
from resonet.network import _CLUSTER_RTOL, _canonical_cluster_rows, _centred_eigh, _fix_signs, clusters
from reference import canonical_cluster_rows, canonical_row_order, degenerate_decomposition


def test_degenerate_network_matrix():
    spec = degenerate_network(3, 5.0, 0.25)
    w = spec.w_matrix()
    assert w.shape == (3, 3)
    assert np.all(np.diagonal(w) == 5.0)
    off = w[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.25)
    np.testing.assert_array_equal(w, w.T)


def test_validate_rejects_bad_networks():
    with pytest.raises(ModelError):
        NetworkSpec(omega=np.array([]), coupling=np.zeros((0, 0)))
    with pytest.raises(ModelError):
        NetworkSpec(omega=np.array([1.0, -2.0]), coupling=np.zeros((2, 2)))
    asym = np.array([[0.0, 0.1], [0.2, 0.0]])
    with pytest.raises(ModelError):
        NetworkSpec(omega=np.array([1.0, 1.0]), coupling=asym)
    diag = np.array([[0.3, 0.1], [0.1, 0.0]])
    with pytest.raises(ModelError):
        NetworkSpec(omega=np.array([1.0, 1.0]), coupling=diag)
    with pytest.raises(ModelError):
        NetworkSpec(omega=np.array([1.0]), coupling=np.zeros((2, 2)))


def test_three_mode_chain_frequencies():
    # Nearest-neighbour chain: the characteristic polynomial factors by hand
    # into roots 1 and 1 +/- lam*sqrt(2).
    lam = 0.1
    coupling = np.array([[0.0, lam, 0.0], [lam, 0.0, lam], [0.0, lam, 0.0]])
    spec = NetworkSpec(omega=np.ones(3), coupling=coupling)
    decomp = normal_modes(spec)
    expected = np.array([1.0 - lam * math.sqrt(2.0), 1.0, 1.0 + lam * math.sqrt(2.0)])
    np.testing.assert_allclose(decomp.frequencies, expected, atol=1e-12)


def test_normal_modes_diagonalize():
    rng = np.random.default_rng(23)
    for n in (2, 4, 7):
        coupling = rng.normal(scale=0.2, size=(n, n))
        coupling = coupling + coupling.T
        np.fill_diagonal(coupling, 0.0)
        spec = NetworkSpec(omega=rng.uniform(1.0, 4.0, size=n), coupling=coupling)
        decomp = normal_modes(spec)
        c = decomp.transform
        w = spec.w_matrix()
        np.testing.assert_allclose(c @ c.T, np.eye(n), atol=1e-10)
        d = c @ w @ c.T
        np.testing.assert_allclose(d, np.diag(decomp.frequencies), atol=1e-9)
        assert np.all(np.diff(decomp.frequencies) >= -1e-12)


def test_normal_modes_deterministic():
    spec = degenerate_network(5, 2.0, 0.3)
    a = normal_modes(spec)
    b = normal_modes(spec)
    assert np.array_equal(a.transform, b.transform)
    assert np.array_equal(a.frequencies, b.frequencies)


def test_normal_modes_sign_convention_on_ties():
    # Rows of the degenerate manifold carry several entries of equal
    # magnitude; the first of them must be the positive one, whatever
    # rounding noise the eigensolver leaves in the others.
    for n in (2, 3, 4, 5, 8):
        c = normal_modes(degenerate_network(n, 10.0, 0.5)).transform
        for row in c:
            mags = np.abs(row)
            first = int(np.argmax(mags >= mags.max() - 1e-9))
            assert row[first] > 0.0, (n, row)


def _cluster_basis_networks():
    """The shorthand for n = 2 to 50, a resonator isolated ahead of a degenerate triangle at the same frequency
    (the triangle's cluster has a zero leading row), two degenerate triangles (a nonzero dependent row) and
    20 identical dimers (every other row dependent), all at frequency 10."""
    tri = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
    isolated = np.zeros((4, 4))
    isolated[1:, 1:] = tri
    couplings = (isolated, np.kron(np.eye(2), tri), np.kron(np.eye(20), [[0.0, 0.25], [0.25, 0.0]]))
    return [degenerate_network(n, 10.0, 0.5) for n in range(2, 51)] + [
        NetworkSpec(omega=np.full(c.shape[0], 10.0), coupling=c) for c in couplings
    ]


def test_canonical_cluster_basis_matches_modified_gram_schmidt():
    # The walk on the cluster's k-dimensional coordinates gives the basis of modified Gram-Schmidt on the
    # n x n projector (tests/reference.py) to 1e-13, and normal_modes puts its rows in the order Python's
    # sort over the rounded rows gives.
    checked = 0
    for spec in _cluster_basis_networks():
        values, vectors = _centred_eigh(spec.w_matrix())
        transform = normal_modes(spec).transform
        group = clusters(values)
        for g in np.unique(group):
            members = np.flatnonzero(group == g)
            if members.size > 1:
                want = canonical_cluster_rows(vectors[:, members])
                np.testing.assert_allclose(_canonical_cluster_rows(vectors[:, members]), want, rtol=0, atol=1e-13)
                want = _fix_signs(want)
                np.testing.assert_allclose(transform[members], want[canonical_row_order(want)], rtol=0, atol=1e-13)
                checked += 1
    assert checked == 49 + 1 + 1 + 2


def test_degenerate_modes_values():
    plus, minus = degenerate_modes(4, 2.0, 0.25)
    assert plus == 2.0 + 3 * 0.25
    assert minus == 2.0 - 0.25
    with pytest.raises(ModelError):
        degenerate_modes(1, 2.0, 0.25)


def test_degenerate_modes_agree_with_normal_modes():
    # Shared eigenvalues within 1e-10 over a range of sizes and couplings,
    # including couplings stronger than the bare frequency.
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, 11, 16):
        omega0 = rng.uniform(1.0, 3.0)
        lam = rng.uniform(-2.0, 2.0) * omega0 / max(n - 1, 1)
        plus, minus = degenerate_modes(n, omega0, lam)
        decomp = normal_modes(degenerate_network(n, omega0, lam))
        expected = np.sort(np.concatenate([[plus], np.full(n - 1, minus)]))
        np.testing.assert_allclose(np.sort(decomp.frequencies), expected, atol=1e-10)


def test_degenerate_decomposition_structure():
    n = 5
    decomp = degenerate_decomposition(n, 3.0, 0.2)
    c = decomp.transform
    np.testing.assert_allclose(c @ c.T, np.eye(n), atol=1e-12)
    assert decomp.symmetric
    # one row is the uniform combination; its frequency is the plus mode
    uniform = np.full(n, 1.0 / math.sqrt(n))
    row = np.argmax([abs(np.dot(r, uniform)) for r in c])
    np.testing.assert_allclose(np.abs(np.dot(c[row], uniform)), 1.0, atol=1e-12)
    plus, minus = degenerate_modes(n, 3.0, 0.2)
    assert abs(decomp.frequencies[row] - plus) < 1e-12
    others = [i for i in range(n) if i != row]
    np.testing.assert_allclose(decomp.frequencies[others], minus, atol=1e-12)
    w = degenerate_network(n, 3.0, 0.2).w_matrix()
    np.testing.assert_allclose(c @ w @ c.T, np.diag(decomp.frequencies), atol=1e-10)


def test_degenerate_decomposition_self_inverse():
    # The reflection construction is symmetric, so applying it twice is the
    # identity; this is what makes correlation assembly basis-consistent.
    c = degenerate_decomposition(6, 1.0, 0.1).transform
    np.testing.assert_allclose(c, c.T, atol=1e-12)
    np.testing.assert_allclose(c @ c, np.eye(6), atol=1e-12)


def test_drift_matrix_value():
    spec = degenerate_network(2, 3.0, 0.5)
    gamma = np.array([[1.0, 0.25], [0.25, 1.0]])
    d = drift_matrix(spec, DecayMatrix(gamma))
    expected = -1j * spec.w_matrix() - 0.5 * gamma
    np.testing.assert_allclose(d, expected, atol=1e-15)
    assert d.dtype == complex and not d.flags.writeable


def test_clusters_link_a_complex_chain():
    # z0, z0 (1 + 0.6e-9), z0 (1 + 1.2e-9): the ends are not close to each
    # other, but the middle value links them into one cluster.
    z0 = 3.0 + 4.0j
    values = np.array([z0 * (1.0 + 1.2e-9), 1.0 - 1.0j, z0 * (1.0 + 0.6e-9), z0, 1.0 - 1.0j + 1e-12, -z0])
    assert abs(values[0] - values[3]) > _CLUSTER_RTOL * abs(values[0])
    np.testing.assert_array_equal(clusters(values), [0, 1, 0, 0, 1, 5])
    np.testing.assert_array_equal(clusters(np.array([2.0])), [0])
    np.testing.assert_array_equal(clusters(np.zeros(0)), [])
