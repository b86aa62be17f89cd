"""Reservoir models and the decay matrices they induce."""

import math

import numpy as np
import pytest

from resonet import (
    CouplingProfile,
    DecayMatrix,
    ModelError,
    NetworkSpec,
    ReservoirKind,
    ReservoirSpec,
    build_decay_matrix,
    correlation_coupled,
    correlation_negligible,
    coupling_value,
    decay_matrix_common,
    decay_matrix_distinct,
    decay_matrix_from_couplings,
    default_profile_width,
    degenerate_decomposition,
    degenerate_network,
    effective_rates,
    normal_modes,
    renormalized_frequency,
)


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
        rates = effective_rates(n, gamma, eps)
        assert abs(rates.gamma_up + (n - 1) * rates.gamma_down - n * gamma) < 1e-12
        eigs = np.sort(np.linalg.eigvalsh(decay_matrix_common(n, gamma, eps).matrix))
        expected = np.sort(np.concatenate([np.full(n - 1, rates.gamma_down), [rates.gamma_up]]))
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


def test_correlation_negligible_peaks_on_resonance():
    peak = correlation_negligible(2.0, 0.3, 0.4, 10.0, 10.0, 1.5, 1.5, 1.5)
    assert abs(peak - 2.0 * 0.3 * 0.4) < 1e-15
    detuned = correlation_negligible(2.0, 0.3, 0.4, 10.0, 10.0, 1.5, 1.8, 1.5)
    assert detuned < peak


def test_correlation_coupled_shared_components():
    width = 40.0
    p = CouplingProfile(amplitude=0.5, centers=[1.0, 2.0], widths=[width, width])
    spec = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=1.5, profiles=(p, p))
    got = correlation_coupled(spec, 0, 1, 0)
    # direct evaluation of the double Gaussian sum at the first center
    g = np.exp(-width * (1.0 - np.array([1.0, 2.0])) ** 2)
    expected = 1.5 * 0.25 * math.sqrt(float(np.sum(np.outer(g, g))))
    assert abs(got - expected) < 1e-12
    q = CouplingProfile(amplitude=0.5, centers=[1.1, 2.0], widths=[width, width])
    spec2 = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=1.5, profiles=(p, q))
    with pytest.raises(ModelError):
        correlation_coupled(spec2, 0, 1, 0)


def test_default_profile_width_fwhm():
    gap = 3.0
    xi = default_profile_width(gap)
    # half maximum of exp(-xi x^2) sits at x = fwhm/2 with fwhm = 0.01*gap
    half = math.exp(-xi * (0.005 * gap) ** 2)
    assert abs(half - 0.5) < 1e-12


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
    # Reference: the definitional sum of sigma V[k,m] V[k,m'] C[k,m'] C[k,n]
    # over modes k and resonators m'.  Couplings that follow each mode's own
    # pattern, V[k,m] = h_k C[k,m], keep the result symmetric on any network.
    rng = np.random.default_rng(17)
    sigma = 1.7
    for n in (2, 5, 8):
        coupling = rng.normal(scale=0.2, size=(n, n))
        coupling = coupling + coupling.T
        np.fill_diagonal(coupling, 0.0)
        decomp = normal_modes(NetworkSpec(omega=rng.uniform(1.0, 4.0, size=n), coupling=coupling))
        c = decomp.transform
        v = rng.uniform(0.5, 2.0, size=n)[:, None] * c
        ref = np.zeros((n, n))
        for m in range(n):
            for nn in range(n):
                for k in range(n):
                    for mp in range(n):
                        ref[m, nn] += sigma * v[k, m] * v[k, mp] * c[k, mp] * c[k, nn]
        got = decay_matrix_from_couplings(decomp, v, sigma).matrix
        np.testing.assert_allclose(got, ref, atol=1e-12)
    with pytest.raises(ModelError):
        decay_matrix_from_couplings(decomp, v[:, :-1], sigma)


def test_build_decay_matrix_profiles():
    # Narrow identical profiles centred on the uniform-mode frequency: the
    # assembled matrix approaches sigma * amp^2 on every entry.
    n, omega0, lam = 3, 5.0, 0.4
    plus = omega0 + (n - 1) * lam
    width = default_profile_width(lam * n)
    p = CouplingProfile(amplitude=0.6, centers=[plus], widths=[width])
    spec = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=2.0, profiles=(p,) * n)
    g = build_decay_matrix(spec, n, normal_modes(degenerate_network(n, omega0, lam))).matrix
    np.testing.assert_allclose(g, np.full((n, n), 2.0 * 0.36), atol=1e-10)


def test_build_decay_matrix_dispatch():
    common = ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=1.0, epsilon=0.3)
    np.testing.assert_allclose(
        build_decay_matrix(common, 2).matrix, decay_matrix_common(2, 1.0, 0.3).matrix
    )
    distinct = ReservoirSpec(
        kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=2.0, gamma_minus=0.5
    )
    np.testing.assert_allclose(
        build_decay_matrix(distinct, 3).matrix, decay_matrix_distinct(3, 2.0, 0.5).matrix
    )
    profile = ReservoirSpec(
        kind=ReservoirKind.COMMON_PROFILE,
        sigma=1.0,
        profiles=(CouplingProfile(amplitude=1.0, centers=[1.0], widths=[1.0]),) * 2,
    )
    with pytest.raises(ModelError):
        build_decay_matrix(profile, 2)


def test_reservoir_spec_validation():
    with pytest.raises(ModelError):
        ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=0.0)
    with pytest.raises(ModelError):
        ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=1.0, epsilon=-0.1)
    with pytest.raises(ModelError):
        ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=1.0)
    with pytest.raises(ModelError):
        ReservoirSpec(kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=-1.0)
