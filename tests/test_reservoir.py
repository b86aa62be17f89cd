"""Reservoir models and the decay matrices they induce."""

import math

import numpy as np
import pytest

from resonet import (
    CouplingProfile,
    DecayMatrix,
    ModelError,
    NetworkSpec,
    NormalModeDecomposition,
    ReservoirKind,
    ReservoirSpec,
    RSFamilySpec,
    build_decay_matrix,
    coupling_value,
    decay_matrix_common,
    decay_matrix_distinct,
    decay_matrix_from_couplings,
    decoherence_time,
    degenerate_network,
    make_rs_state,
    normal_modes,
    renormalized_frequency,
)
from resonet import reservoir
from resonet.network import _CLUSTER_RTOL
from reference import decoherence_time_formula, degenerate_decomposition


def test_common_matrix_structure():
    g = decay_matrix_common(3, 2.0, 0.25).matrix
    assert np.all(np.diagonal(g) == 2.0)
    off = g[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.5)


def test_common_matrix_eigenvalues_frozen():
    # n=3, gamma=1, eps=0.5: fast rate 1 + 2*0.5 = 2 on the uniform
    # direction, slow rate 0.5 twice on the complement.
    g = decay_matrix_common(3, 1.0, 0.5).matrix
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(g)), [0.5, 0.5, 2.0], atol=1e-12)


def test_rate_sum_rule_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 17))
        gamma = float(rng.uniform(0.0, 4.0))
        eps = float(rng.uniform(0.0, 1.0))
        gamma_down, gamma_up = (1.0 - eps) * gamma, (1.0 + (n - 1) * eps) * gamma
        assert abs(gamma_up + (n - 1) * gamma_down - n * gamma) < 1e-12
        eigs = np.sort(np.linalg.eigvalsh(decay_matrix_common(n, gamma, eps).matrix))
        expected = np.sort(np.concatenate([np.full(n - 1, gamma_down), [gamma_up]]))
        np.testing.assert_allclose(eigs, expected, atol=1e-12)


def test_common_matrix_rejects_bad_inputs():
    with pytest.raises(ModelError):
        decay_matrix_common(0, 1.0, 0.5)
    with pytest.raises(ModelError):
        decay_matrix_common(2, -1.0, 0.5)
    with pytest.raises(ModelError):
        decay_matrix_common(2, 1.0, 1.5)


def test_decay_matrix_invariants():
    with pytest.raises(ModelError):
        DecayMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ModelError):
        DecayMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))
    # symmetric with a negative eigenvalue: cross rate above the direct rate
    with pytest.raises(ModelError):
        DecayMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ModelError):
        DecayMatrix(np.zeros((0, 0)))


def test_decay_matrix_psd_property():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        kind = rng.integers(0, 2)
        if kind == 0:
            g = decay_matrix_common(n, float(rng.uniform(0, 3)), float(rng.uniform(0, 1)))
        else:
            g = decay_matrix_distinct(n, float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
        assert np.min(np.linalg.eigvalsh(g.matrix)) >= -1e-12 * max(1.0, np.max(np.abs(g.matrix)))
        # rates and modes are one eigendecomposition of the matrix
        np.testing.assert_allclose(g.modes @ np.diag(g.rates) @ g.modes.T, g.matrix, atol=1e-12)


def test_fully_correlated_white_noise_builds_at_large_n():
    # eigh's rounding grows with ||Gamma|| = n sigma, so the slack scales with
    # the largest column sum of |Gamma|; 1e-12 * max |gamma| alone rejected
    # these as not positive semidefinite.
    for n in (700, 1000):
        decay = decay_matrix_common(n, 1.0, 1.0)
        assert decay.slack == pytest.approx(1e-12 * n)
        assert int(np.sum(decay.rates == 0.0)) == n - 1


def test_distinct_structure():
    n, gp, gm = 4, 3.0, 0.5
    g = decay_matrix_distinct(n, gp, gm).matrix
    np.testing.assert_allclose(g.sum(axis=1), np.full(n, gp), atol=1e-12)
    eigs = np.sort(np.linalg.eigvalsh(g))
    np.testing.assert_allclose(eigs, np.sort(np.concatenate([np.full(n - 1, gm), [gp]])), atol=1e-12)


def test_distinct_cross_channels_vanish_at_equal_rates():
    g = decay_matrix_distinct(5, 1.3, 1.3).matrix
    np.testing.assert_allclose(g, 1.3 * np.eye(5), atol=1e-15)


def test_renormalized_frequency():
    # omega * (1 + ((n-1) lam / (2 omega))^2)
    assert abs(renormalized_frequency(2.0, 0.4, 3) - 2.0 * (1.0 + 0.04)) < 1e-15
    assert renormalized_frequency(2.0, 0.4, 1) == 2.0
    with pytest.raises(ModelError):
        renormalized_frequency(0.0, 0.4, 3)


def test_coupling_value_single_gaussian():
    p = CouplingProfile(amplitude=0.7, centers=[2.0], widths=[50.0])
    assert abs(coupling_value(p, 2.0) - 0.7) < 1e-15
    expected = 0.7 * math.exp(-0.5 * 50.0 * 0.01)
    assert abs(coupling_value(p, 2.1) - expected) < 1e-12
    # an array of frequencies gives each frequency's scalar value, bitwise
    freqs = np.array([2.0, 2.1, 1.9, 2.5, -3.0])
    assert np.array_equal(coupling_value(p, freqs), [coupling_value(p, f) for f in freqs])


def test_profile_decay_matrix_samples_each_profile_once(monkeypatch):
    # build_decay_matrix asks each resonator's profile for its couplings at all n mode frequencies in one call.
    calls = []

    def counted(profile, freq):
        calls.append(np.shape(freq))
        return coupling_value(profile, freq)

    monkeypatch.setattr(reservoir, "coupling_value", counted)
    n = 6
    profile = CouplingProfile(amplitude=1.0, centers=[12.5], widths=[0.1])
    spec = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=1.0, profiles=(profile,) * n)
    build_decay_matrix(spec, degenerate_network(n, 10.0, 0.5))
    assert calls == [(n,)] * n


def test_correlations_constant_gives_full_cross_decay():
    # A frequency-flat, resonator-independent coupling on the symmetric
    # mode basis must reproduce the fully correlated white-noise matrix.
    n, gamma = 4, 0.8
    decomp = degenerate_decomposition(n, 2.0, 0.1)
    got = decay_matrix_from_couplings(decomp, np.full((n, n), math.sqrt(gamma)), 1.0)
    np.testing.assert_allclose(got.matrix, np.full((n, n), gamma), atol=1e-12)


def test_correlations_select_collective_channel():
    # Spectral weight only near the uniform mode damps only the uniform
    # collective channel; weight only near the others damps nothing, because
    # identical couplings address the uniform combination alone.
    n, omega0, lam, gamma = 3, 5.0, 0.4, 1.2
    plus = omega0 + (n - 1) * lam
    minus = omega0 - lam
    decomp = degenerate_decomposition(n, omega0, lam)

    def at(freq0):
        couplings = np.zeros((n, n))
        couplings[np.abs(decomp.frequencies - freq0) < 1e-9] = math.sqrt(gamma)
        return decay_matrix_from_couplings(decomp, couplings, 1.0).matrix

    np.testing.assert_allclose(at(plus), np.full((n, n), gamma), atol=1e-12)
    np.testing.assert_allclose(at(minus), np.zeros((n, n)), atol=1e-12)


def test_couplings_match_mode_sum():
    # Reference: the definitional secular sum of
    # sigma s_k s_l C[k,m] C[l,n] over mode pairs (k, l) of equal frequency,
    # with s_k = sum_m' V[k,m'] C[k,m'], on random detuned networks with
    # arbitrary couplings and on a degenerate network, where cross rates
    # inside the degenerate cluster survive.
    rng = np.random.default_rng(17)
    sigma = 1.7
    networks = []
    for n in (2, 5, 8):
        coupling = rng.normal(scale=0.2, size=(n, n))
        coupling = coupling + coupling.T
        np.fill_diagonal(coupling, 0.0)
        networks.append(NetworkSpec(omega=rng.uniform(1.0, 4.0, size=n), coupling=coupling))
    networks.append(degenerate_network(4, 3.0, 0.3))
    for net in networks:
        n = net.n
        decomp = normal_modes(net)
        c, f = decomp.transform, decomp.frequencies
        v = rng.uniform(0.5, 2.0, size=(n, n))
        s = [sum(v[k, mp] * c[k, mp] for mp in range(n)) for k in range(n)]
        ref = np.zeros((n, n))
        for m in range(n):
            for nn in range(n):
                for k in range(n):
                    for l in range(n):
                        if abs(f[k] - f[l]) <= 1e-9 * max(abs(f[k]), abs(f[l])):
                            ref[m, nn] += sigma * s[k] * s[l] * c[k, m] * c[l, nn]
        got = decay_matrix_from_couplings(decomp, v, sigma).matrix
        np.testing.assert_allclose(got, ref, atol=1e-12)
    with pytest.raises(ModelError):
        decay_matrix_from_couplings(decomp, v[:, :-1], sigma)


def test_secular_mask_uses_the_cluster_tolerance():
    # Two modes split by less than the degenerate-cluster tolerance share one
    # decay channel (rank 1); split by more, each decays on its own (rank 2).
    assert _CLUSTER_RTOL == 1e-9
    angle = 0.3
    c = np.array([[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]])
    v = np.array([[0.8, 1.1], [0.4, 1.3]])
    s = np.sum(v * c, axis=1)
    for split, rank in ((0.5, 1), (2.0, 2)):
        freqs = np.array([10.0, 10.0 * (1.0 + split * _CLUSTER_RTOL)])
        decomp = NormalModeDecomposition(transform=c, frequencies=freqs, symmetric=False)
        g = decay_matrix_from_couplings(decomp, v, 1.0).matrix
        mask = np.ones((2, 2)) if rank == 1 else np.eye(2)
        np.testing.assert_allclose(g, c.T @ (np.outer(s, s) * mask) @ c, atol=1e-15)
        assert np.linalg.matrix_rank(g, tol=1e-12) == rank
    # A chain of three modes 0.6e-9 apart: the ends (1.2e-9 apart) are one
    # cluster through the middle mode, so all cross rates survive and Gamma is
    # rank 1.  A pairwise mask would drop only the end pair and give a matrix
    # with a negative eigenvalue, rejected as not positive semidefinite.
    c3, _ = np.linalg.qr(np.array([[1.0, 0.3, -0.2], [0.4, 1.0, 0.1], [-0.3, 0.2, 1.0]]))
    v3 = np.array([[0.8, 1.1, 0.5], [0.4, 1.3, 0.9], [1.2, 0.6, 0.7]])
    s3 = np.sum(v3 * c3, axis=1)
    assert np.all(np.abs(s3) > 0.1)
    freqs = 10.0 * (1.0 + np.array([0.0, 0.6, 1.2]) * _CLUSTER_RTOL)
    decay = decay_matrix_from_couplings(NormalModeDecomposition(transform=c3, frequencies=freqs, symmetric=False), v3, 1.0)
    np.testing.assert_allclose(decay.matrix, c3.T @ np.outer(s3, s3) @ c3, atol=1e-14)
    np.testing.assert_allclose(decay.rates, [0.0, 0.0, s3 @ s3], atol=1e-14)


def test_profile_decay_matrix_on_a_detuned_network():
    # Identical narrow profiles on 8 detuned resonators: the secular matrix
    # is a valid decay matrix (the earlier non-secular form was asymmetric
    # by 0.147 relative and rejected).
    rng = np.random.default_rng(1)
    omega = 10.0 + rng.uniform(-0.5, 0.5, size=8)
    coupling = np.full((8, 8), 0.5)
    np.fill_diagonal(coupling, 0.0)
    p = CouplingProfile(amplitude=1.0, centers=[13.5], widths=[0.1])
    spec = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=1.0, profiles=(p,) * 8)
    g = build_decay_matrix(spec, NetworkSpec(omega=omega, coupling=coupling)).matrix
    assert np.max(np.abs(g - g.T)) < 1e-15
    eig = np.linalg.eigvalsh(g)
    assert eig[0] > 1e-7
    assert np.linalg.matrix_rank(g) == 8


def test_build_decay_matrix_profiles():
    # Narrow identical profiles centred on the uniform-mode frequency: the
    # assembled matrix approaches sigma * amp^2 on every entry.
    n, omega0, lam = 3, 5.0, 0.4
    plus = omega0 + (n - 1) * lam
    width = 4.0 * math.log(2.0) / (0.01 * lam * n) ** 2  # FWHM of 1 % of the mode gap
    p = CouplingProfile(amplitude=0.6, centers=[plus], widths=[width])
    spec = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=2.0, profiles=(p,) * n)
    g = build_decay_matrix(spec, degenerate_network(n, omega0, lam)).matrix
    np.testing.assert_allclose(g, np.full((n, n), 2.0 * 0.36), atol=1e-10)


def test_build_decay_matrix_dispatch():
    common = ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=1.0, epsilon=0.3)
    np.testing.assert_allclose(
        build_decay_matrix(common, degenerate_network(2, 1.0, 0.1)).matrix,
        decay_matrix_common(2, 1.0, 0.3).matrix,
    )
    distinct = ReservoirSpec(
        kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=2.0, gamma_minus=0.5
    )
    np.testing.assert_allclose(
        build_decay_matrix(distinct, degenerate_network(3, 1.0, 0.1)).matrix,
        decay_matrix_distinct(3, 2.0, 0.5).matrix,
    )
    profile = ReservoirSpec(
        kind=ReservoirKind.COMMON_PROFILE,
        sigma=1.0,
        profiles=(CouplingProfile(amplitude=1.0, centers=[1.0], widths=[1.0]),) * 2,
    )
    with pytest.raises(ModelError, match="expected 3 coupling profiles"):
        build_decay_matrix(profile, degenerate_network(3, 1.0, 0.1))


@pytest.mark.parametrize(
    "spec, n, expected",
    [
        (ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=1.5, epsilon=0.4), 3, (1.5, 0.9)),
        (ReservoirSpec(kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=2.0, gamma_minus=0.5), 4, (0.875, 0.5)),
        (ReservoirSpec(kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=1.0, gamma_minus=2.0), 2, (1.5, 2.0)),
    ],
)
def test_rate_split_matches_the_decay_matrix(spec, n, expected):
    # The closed-form split: gamma is the mean direct rate; gamma_down and
    # n gamma - (n-1) gamma_down are the decay matrix's eigenvalues off and on
    # the uniform mode.  The general two-branch rate delta^T Gamma delta
    # reproduces the paper's formula on that split for every (R, S).
    gamma, gamma_down = expected
    decay = build_decay_matrix(spec, degenerate_network(n, 1.0, 0.1))
    g = decay.matrix
    assert gamma == pytest.approx(np.trace(g) / n, abs=1e-15)
    eig = np.linalg.eigvalsh(g)
    expected_eig = sorted([gamma_down] * (n - 1) + [n * gamma - (n - 1) * gamma_down])
    np.testing.assert_allclose(eig, expected_eig, atol=1e-12)
    for r in range(n + 1):
        for s in range(n + 1 - r):
            family = RSFamilySpec(n=n, r=r, s=s, alpha=0.7, eta=0.2)
            state = make_rs_state(family)
            general = decoherence_time(state, decay)
            closed = decoherence_time_formula(family, gamma, gamma_down)
            if state.num_terms == 1:  # R = S = 0: the branches coincide, so there is no pair
                assert general is None and closed == math.inf
            else:
                assert general == pytest.approx(closed, rel=1e-12) or general == closed == math.inf


def test_reservoir_spec_validation():
    with pytest.raises(ModelError):
        ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=0.0)
    with pytest.raises(ModelError):
        ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=1.0, epsilon=-0.1)
    with pytest.raises(ModelError):
        ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=1.0)
    with pytest.raises(ModelError):
        ReservoirSpec(kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=-1.0)
