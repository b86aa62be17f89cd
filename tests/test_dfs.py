"""Protected-subspace classification and the collective-channel reduction."""

import dataclasses
import json
import math

import numpy as np
import pytest

from resonet import (
    CouplingProfile,
    DecayMatrix,
    ModelError,
    NetworkSpec,
    Regime,
    ReservoirKind,
    ReservoirSpec,
    RSFamilySpec,
    build_decay_matrix,
    classify,
    collective_lowering_eigencheck,
    decay_matrix_common,
    decay_matrix_distinct,
    decoherence_time,
    decoherence_time_numeric,
    degenerate_network,
    drift_matrix,
    make_rs_state,
    make_superposition,
    label_flow,
    normal_modes,
    propagate_with,
    protected_subspace,
    rs_branch_labels,
)
from resonet import artifacts, oracle
from resonet.network import clusters
from reference import collect, master_equation_reduction_check, protected_subspace_shrink


def _white(epsilon, sigma=1.0):
    return ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=sigma, epsilon=epsilon)


def _net(n):
    return degenerate_network(n, 10.0, 0.5)


def _detuned_net(omega, coupling):
    c = np.full((len(omega), len(omega)), coupling)
    np.fill_diagonal(c, 0.0)
    return NetworkSpec(omega=omega, coupling=c)


def _distinct(gamma_plus, gamma_minus):
    return ReservoirSpec(
        kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=gamma_plus, gamma_minus=gamma_minus
    )


def test_eigencheck_balanced_family():
    # R = S branches share the collective amplitude eta*(n-2R)/sqrt(n).
    for n, r, eta in ((2, 1, 0.0), (4, 1, 0.3), (6, 3, 0.7), (8, 2, -0.2)):
        state = make_rs_state(RSFamilySpec(n=n, r=r, s=r, alpha=0.5, eta=eta))
        ok, eig = collective_lowering_eigencheck(state)
        assert ok
        expected = eta * (n - 2 * r) / math.sqrt(n)
        assert abs(eig - expected) < 1e-12


def test_eigencheck_rejects_unbalanced():
    state = make_rs_state(RSFamilySpec(n=3, r=1, s=0, alpha=0.8))
    ok, eig = collective_lowering_eigencheck(state)
    assert not ok
    assert eig is None


def test_eigencheck_single_product():
    state = make_superposition([1.0], np.array([[0.4, -0.1, 0.2]]))
    ok, eig = collective_lowering_eigencheck(state)
    assert ok
    assert abs(eig - (0.4 - 0.1 + 0.2) / math.sqrt(3)) < 1e-14


def test_classify_full_correlation():
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    report = classify(make_rs_state(spec), _white(1.0), _net(spec.n))
    assert report.is_dfs and report.is_rfs
    assert math.isinf(report.tau_d)
    assert report.effective_decay_rate == 0.0

    spec2 = RSFamilySpec(n=4, r=1, s=1, alpha=0.5, eta=0.4)
    report2 = classify(make_rs_state(spec2), _white(1.0), _net(spec2.n))
    assert report2.is_dfs and not report2.is_rfs

    spec3 = RSFamilySpec(n=2, r=1, s=0, alpha=0.6)
    report3 = classify(make_rs_state(spec3), _white(1.0), _net(spec3.n))
    assert not report3.is_dfs and not report3.is_rfs
    assert math.isfinite(report3.tau_d)


def test_classify_weak_correlation():
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    report = classify(make_rs_state(spec), _white(0.4), _net(spec.n))
    assert not report.is_dfs
    single = make_superposition([1.0], np.array([[0.3, 0.3]]))
    report2 = classify(single, _white(0.4), _net(2))
    assert report2.is_dfs and not report2.is_rfs


def test_classify_regime_preconditions():
    # The regime only names the reservoir; every kind is classified,
    # including profile reservoirs and gamma_plus = 0.  What is left to
    # reject is inputs of inconsistent size.
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    state = make_rs_state(spec)
    net = _net(2)
    # The regime label and the verdict read one kernel threshold: 1 - eps
    # up to (1e-3 / n)(1 + (n-1) eps), 9.9975e-4 at n = 2.
    report = classify(state, _white(0.9995), net)
    assert report.regime is Regime.COMMON_EPS1 and report.is_dfs and report.is_rfs
    report = classify(state, _white(0.99), net)
    assert report.regime is Regime.COMMON_EPS_SMALL and not report.is_dfs
    assert classify(state, _white(1.0 - 0.9e-6), net).regime is Regime.COMMON_EPS1
    # One resonator in white noise: Gamma = sigma has no (1 - eps) rate and
    # an empty kernel, whatever eps.
    single = make_superposition([1.0], np.array([[0.3]]))
    for eps in (0.0, 0.5, 0.999, 1.0):
        assert classify(single, _white(eps), _net(1)).regime is Regime.COMMON_EPS_SMALL
    assert classify(state, _distinct(2.0, 0.5), net).regime is Regime.DISTINCT_STRONG
    p = CouplingProfile(amplitude=1.0, centers=[10.5], widths=[100.0])
    profile = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, profiles=(p, p))
    report = classify(state, profile, net)
    assert report.regime is Regime.COMMON_PROFILE
    assert report.is_dfs and report.is_rfs and math.isinf(report.tau_d)
    # gamma_plus = 0 leaves only the relative channel: the balanced pair,
    # which lives there, decoheres at 2 |alpha|^2 (R+S) gamma_minus.
    report = classify(state, _distinct(0.0, 0.5), net)
    assert not report.is_dfs
    assert report.tau_d == pytest.approx(1.0 / 0.72, rel=1e-12)
    with pytest.raises(ModelError, match="network and state"):
        classify(state, _white(0.5), _net(3))


def test_classify_diagonalises_gamma_once(monkeypatch):
    # DecayMatrix's one eigh serves the kernel, the regime and the effective
    # rate; the only other one is protected_subspace's, of W on the kernel.
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solver(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    spec = RSFamilySpec(n=3, r=1, s=1, alpha=0.6)
    state = make_rs_state(spec)
    distinct = ReservoirSpec(kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=2.0)
    for reservoir, kernel_dim in ((_white(0.5), 0), (_white(1.0), 2), (distinct, 2)):
        calls.clear()
        classify(state, reservoir, _net(3))
        assert calls == [("eigh", (3, 3)), ("eigh", (kernel_dim, kernel_dim))]


def test_classify_distinct_collective():
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    state = make_rs_state(spec)
    report = classify(state, _distinct(2.0, 0.0), _net(2))
    assert report.is_dfs and report.is_rfs
    assert math.isinf(report.tau_d)
    # a residual gamma_minus spoils the single-channel picture
    report2 = classify(state, _distinct(2.0, 1.0), _net(2))
    assert not report2.is_dfs


def test_classify_distinct_with_gamma_minus_above_gamma_plus():
    # gamma_minus > gamma_plus is a valid (positive-semidefinite) reservoir;
    # the balanced pair decoheres at 2 |alpha|^2 (R+S) gamma_minus = 2.88.
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    report = classify(make_rs_state(spec), _distinct(1.0, 2.0), _net(spec.n))
    assert abs(report.tau_d - 1.0 / 2.88) < 1e-12
    assert not report.is_dfs
    assert report.effective_decay_rate == 2.0


def _random_reservoir(rng, n, kind):
    """One of the three reservoir kinds with random rates; white noise and distinct baths get a kernel half the time."""
    if kind == 0:
        epsilon = 1.0 if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
        return _white(epsilon, sigma=rng.uniform(0.2, 2.0))
    if kind == 1:
        return _distinct(rng.uniform(0.2, 2.0), 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 2.0))
    profiles = [
        CouplingProfile(rng.uniform(0.2, 1.0), rng.uniform(8.0, 12.0, size=2), rng.uniform(0.1, 2.0, size=2))
        for _ in range(n)
    ]
    return ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=rng.uniform(0.2, 2.0), profiles=profiles)


def test_tau_d_of_every_two_term_state_matches_the_numeric_slope():
    # Random two-term states on random detuned networks in all three
    # reservoir kinds; half the pairs whose decay matrix has zero rates take
    # their difference there, where tau_d is infinite.  The numeric slope
    # (forward difference over h = 1e-6 / gamma) agrees to the benchmark's
    # 1e-3 wherever tau_d is finite, and reads infinity only where tau_d
    # does.  Where tau_d is infinite the slope may also read rounding noise,
    # a finite time above 1e6 / gamma.
    rng = np.random.default_rng(2027)
    infinite = finite_numeric_of_infinite = 0
    for case in range(300):
        n = int(rng.integers(2, 7))
        coupling = rng.normal(scale=0.3, size=(n, n))
        coupling = coupling + coupling.T
        np.fill_diagonal(coupling, 0.0)
        net = NetworkSpec(omega=rng.uniform(8.0, 12.0, size=n), coupling=coupling)
        reservoir = _random_reservoir(rng, n, case % 3)
        decay = build_decay_matrix(reservoir, net)
        beta = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        delta = rng.normal(size=n) + 1j * rng.normal(size=n)
        zero = decay.modes[:, decay.rates == 0.0]
        if zero.shape[1] and rng.random() < 0.5:
            delta = zero @ (rng.normal(size=zero.shape[1]) + 1j * rng.normal(size=zero.shape[1]))
        weights = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = make_superposition(weights, np.array([beta, beta - 0.4 * delta]))
        tau = decoherence_time(state, decay)
        gamma = float(np.max(np.diagonal(decay.matrix)))
        numeric = decoherence_time_numeric(label_flow(drift_matrix(net, decay)), state, 0.01, gamma)
        assert classify(state, reservoir, net).tau_d == tau
        if math.isfinite(tau):
            assert numeric == pytest.approx(tau, rel=1e-3)
        else:
            infinite += 1
            finite_numeric_of_infinite += math.isfinite(numeric)
            assert numeric * gamma > 1e6
    assert infinite > 30 and finite_numeric_of_infinite < infinite


def test_tau_d_reads_the_two_labels_whichever_form_built_the_state():
    # delta = labels[0] - labels[1]: the family and the same two labels given
    # explicitly, in either order, read one tau_d; other term counts read None.
    spec = RSFamilySpec(n=3, r=2, s=1, alpha=0.6, eta=0.2)
    decay = build_decay_matrix(_white(0.5), _net(3))
    labels = rs_branch_labels(spec)
    tau = decoherence_time(make_rs_state(spec), decay)
    assert math.isfinite(tau)
    assert decoherence_time(make_superposition([1.0, 1.0], labels), decay) == tau
    assert decoherence_time(make_superposition([0.3, -2.0j], labels[::-1]), decay) == tau
    assert decoherence_time(make_superposition([1.0], labels[:1]), decay) is None
    three = make_superposition([1.0, 1.0, 1.0], np.vstack([labels, [0.0, 0.0, 0.3]]))
    assert decoherence_time(three, decay) is None
    with pytest.raises(ModelError, match="state and decay matrix"):
        decoherence_time(make_rs_state(spec), build_decay_matrix(_white(0.5), _net(2)))


def test_is_rfs_implies_is_dfs_property():
    rng = np.random.default_rng(97)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        s = int(rng.integers(0, n - r + 1))
        alpha = float(rng.uniform(0.1, 1.0))
        eta = float(rng.uniform(-0.5, 0.5))
        sign = 1 if rng.integers(0, 2) == 0 else -1
        if r == 0 and s == 0 and sign == -1:
            continue
        spec = RSFamilySpec(n=n, r=r, s=s, alpha=alpha, eta=eta, sign=sign)
        report = classify(make_rs_state(spec), _white(1.0), _net(spec.n))
        if report.is_rfs:
            assert report.is_dfs


def _report_json(report):
    """The report as `resonet classify` writes it (without the "n" key)."""
    return json.loads(json.dumps(artifacts._jsonable(dataclasses.asdict(report))))


def test_report_json_dict():
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    report = classify(make_rs_state(spec), _white(1.0), _net(spec.n))
    d = _report_json(report)
    assert d["tau_d"] == "inf"
    assert d["is_dfs"] is True and d["is_rfs"] is True
    assert isinstance(d["lindblad_eigenvalue"], list) and len(d["lindblad_eigenvalue"]) == 2
    assert d["regime"] == "common_eps1"
    # a finite tau_d and a non-null eigenvalue, both rounded through %.9g
    spec = RSFamilySpec(n=3, r=1, s=1, alpha=0.6, eta=0.3)
    report = classify(make_rs_state(spec), _white(0.5), _net(spec.n))
    d = _report_json(report)
    assert d["tau_d"] == float(f"{report.tau_d:.9g}") and math.isfinite(d["tau_d"])
    eig = report.lindblad_eigenvalue
    assert d["lindblad_eigenvalue"] == [float(f"{eig.real:.9g}"), float(f"{eig.imag:.9g}")]
    assert d["is_dfs"] is False and d["regime"] == "common_eps_small"


def test_reduction_check_common():
    assert master_equation_reduction_check(2, gamma=1.0, epsilon=1.0, cutoff=3)
    assert master_equation_reduction_check(1, gamma=0.7, epsilon=1.0, cutoff=2)
    with pytest.raises(ModelError):
        master_equation_reduction_check(2, gamma=1.0, epsilon=0.5)
    with pytest.raises(ModelError):
        master_equation_reduction_check(4, gamma=1.0, epsilon=1.0)


def test_reduction_check_distinct():
    assert master_equation_reduction_check(2, gamma_plus=1.7, gamma_minus=0.0, cutoff=3)
    with pytest.raises(ModelError):
        master_equation_reduction_check(2, gamma_plus=1.7, gamma_minus=0.3)


def test_reduction_check_argument_validation():
    with pytest.raises(ModelError):
        master_equation_reduction_check(2)
    with pytest.raises(ModelError):
        master_equation_reduction_check(2, gamma=1.0, epsilon=1.0, cutoff=9)


def test_protected_subspace_dimensions():
    # Fully correlated white noise on the degenerate network protects the
    # complement of the uniform mode; detuning the resonators leaves nothing
    # W-invariant inside ker Gamma; no damping protects everything.
    common = decay_matrix_common(50, 1.0, 1.0)
    assert protected_subspace(degenerate_network(50, 10.0, 0.5).w_matrix(), common).shape == (50, 49)
    detuned = _detuned_net([10.0, 10.3, 9.6], 0.4)
    assert protected_subspace(detuned.w_matrix(), decay_matrix_common(3, 1.0, 1.0)).shape == (3, 0)
    assert protected_subspace(detuned.w_matrix(), DecayMatrix(np.zeros((3, 3)))).shape == (3, 3)
    # A residual rate below 1e-3 / n of the collective one counts as kernel.
    w = degenerate_network(4, 10.0, 0.5).w_matrix()
    assert protected_subspace(w, decay_matrix_distinct(4, 2.0, 0.99e-3 * 2.0 / 4)).shape == (4, 3)
    assert protected_subspace(w, decay_matrix_distinct(4, 2.0, 1.01e-3 * 2.0 / 4)).shape == (4, 0)


def test_classify_detuned_network_is_not_protected():
    # The balanced pair starts inside ker Gamma, but W carries it out: no
    # protection, although the short-time rate delta^T Gamma delta is 0.
    net = _detuned_net([10.0, 10.3, 9.6], 0.4)
    spec = RSFamilySpec(n=3, r=1, s=1, alpha=0.7)
    report = classify(make_rs_state(spec), _white(1.0), net)
    assert not report.is_dfs and not report.is_rfs
    assert math.isinf(report.tau_d)
    spec = RSFamilySpec(n=3, r=1, s=0, alpha=0.7)
    report = classify(make_rs_state(spec), _white(1.0), net)
    assert not report.is_dfs
    assert report.tau_d == pytest.approx(1.0 / (2 * 0.49 * 1.0), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_protected_subspace_of_random_block_networks(n):
    # W = Q blockdiag(W1, W2) Q^T and Gamma = Q blockdiag(0, Gamma2) Q^T with
    # Gamma2 of full rank: the protected subspace is span(Q[:, :k]).  A pair
    # whose difference lies there keeps |c_rs(t)| along the exact label
    # evolution; one with a component outside loses coherence.
    rng = np.random.default_rng(600 + n)
    k = int(rng.integers(1, n))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.zeros((n, n))
    g = np.zeros((n, n))
    a = rng.normal(size=(n, n))
    w[:k, :k] = a[:k, :k] + a[:k, :k].T
    w[k:, k:] = a[k:, k:] + a[k:, k:].T
    b = rng.normal(size=(n - k, n - k))
    g[k:, k:] = b @ b.T + 0.5 * np.eye(n - k)
    w, g = q @ w @ q.T, q @ g @ q.T
    basis = protected_subspace(w, DecayMatrix(g))
    assert basis.shape == (n, k)
    np.testing.assert_allclose(basis @ basis.T, q[:, :k] @ q[:, :k].T, atol=1e-10)

    drift = -1j * w - 0.5 * g
    times = np.linspace(0.0, 3.0, 61)
    beta = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    inside = q[:, :k] @ (0.4 * (rng.normal(size=k) + 1j * rng.normal(size=k)))
    outside = q[:, k:] @ (0.4 * rng.normal(size=n - k))
    for delta, protected in ((inside, True), (inside + outside, False)):
        state = make_superposition([1.0, 1.0], np.array([beta, beta + delta]))
        traj = collect(propagate_with(state, times, label_flow(drift)))
        coherence = np.abs(traj.coeffs[:, 0, 1])
        if protected:
            assert np.max(np.abs(coherence - coherence[0])) < 1e-10
        else:
            assert coherence[-1] < (1.0 - 1e-3) * coherence[0]


def test_protected_dimension_counts_shared_channels():
    # The paper's main result as a counting rule.  In a common profile
    # reservoir the g degenerate normal modes of a frequency cluster share one
    # rank-1 decay channel, so the cluster protects g - 1 modes, or all g when
    # its channel rate is within Gamma's kernel ratio (1e-3 / n of the largest
    # rate).  300 seeded networks W = Q diag(Omega) Q^T with repeated Omega
    # and random two-Gaussian profiles, n = 2..6; classify's verdict on a
    # random pair agrees with membership of its difference in the subspace.
    rng = np.random.default_rng(2006)
    kernel_counted = 0
    verdicts = [0, 0]
    for _ in range(300):
        n = int(rng.integers(2, 7))
        levels = rng.uniform(8.0, 12.0, size=int(rng.integers(1, n + 1)))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = q @ np.diag(rng.choice(levels, size=n)) @ q.T
        w = 0.5 * (w + w.T)
        net = NetworkSpec(omega=np.diagonal(w), coupling=w - np.diag(np.diagonal(w)))
        profiles = [
            CouplingProfile(rng.uniform(0.2, 1.0), rng.uniform(8.0, 12.0, size=2), rng.uniform(0.1, 2.0, size=2))
            for _ in range(n)
        ]
        reservoir = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=1.0, profiles=profiles)
        decay = build_decay_matrix(reservoir, net)
        modes = normal_modes(net)
        group = clusters(modes.frequencies)
        rates = {
            g: float(np.linalg.eigvalsh(modes.transform[group == g] @ decay.matrix @ modes.transform[group == g].T)[-1])
            for g in np.unique(group)
        }
        threshold = 1e-3 / n * decay.rates[-1]
        expected = sum(int(np.sum(group == g)) - (rate > threshold) for g, rate in rates.items())
        kernel_counted += sum(0.0 < rate <= threshold for rate in rates.values())
        basis = protected_subspace(net.w_matrix(), decay)
        assert basis.shape[1] == expected

        # one pair per network, its difference inside the subspace or generic
        beta = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        delta = rng.normal(size=n)
        if expected and rng.random() < 0.5:
            delta = basis @ (rng.normal(size=expected) + 1j * rng.normal(size=expected))
        inside = bool(np.linalg.norm(delta - basis @ (basis.conj().T @ delta)) < 1e-6)
        verdicts[inside] += 1
        state = make_superposition([1.0, 1.0], np.array([beta, beta + 0.4 * delta]))
        assert classify(state, reservoir, net).is_dfs is inside
    # the kernel ratio, not only exact zeros, decides some of the cases, and
    # both verdicts occur often
    assert kernel_counted > 0
    assert min(verdicts) > 50


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_distinct_reservoirs_protect_the_zero_rate_modes(n):
    # The distinct-reservoir counterpart: Gamma has rate gamma_plus on the
    # uniform mode and gamma_minus on its complement, which the degenerate
    # network maps into itself, so gamma_minus = 0 protects n - 1 modes.
    gamma_plus = float(np.random.default_rng(n).uniform(0.5, 2.0))
    net = degenerate_network(n, 10.0, 0.5)
    decay = decay_matrix_distinct(n, gamma_plus, 0.0)
    assert int(np.sum(decay.rates == 0.0)) == n - 1
    basis = protected_subspace(net.w_matrix(), decay)
    assert basis.shape == (n, n - 1)
    np.testing.assert_allclose(basis.T @ np.ones(n), 0.0, atol=1e-12)


@pytest.mark.parametrize("omega, protected", [([10.0, 10.3], False), ([10.0, 10.0], True)])
def test_oracle_purity_follows_the_verdict(omega, protected):
    # Independent evidence from the truncated master equation: the balanced
    # pair in fully correlated white noise stays pure on the degenerate
    # network and loses purity once the resonators are detuned.
    net = _detuned_net(omega, 0.5)
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    state = make_rs_state(spec)
    reservoir = _white(1.0)
    assert classify(state, reservoir, net).is_dfs is protected
    basis = oracle.FockBasisSpec(n=2, cutoff=oracle.minimum_cutoff(0.6))
    gen = oracle.build_generator(net, build_decay_matrix(reservoir, net), basis)
    rho = list(oracle.integrate(oracle.embed_state(state, basis), gen, np.linspace(0.0, 2.0, 3)))[-1]
    purity = float(np.sum(np.abs(rho) ** 2))
    if protected:
        assert abs(purity - 1.0) < 1e-6
    else:
        assert purity < 1.0 - 1e-3


def _same_subspace(w, decay):
    """protected_subspace against the kernel-shrinking reference: its dimension, after checking the projectors agree."""
    basis = protected_subspace(w, decay)
    reference = protected_subspace_shrink(w, decay)
    assert basis.shape == reference.shape
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
    np.testing.assert_allclose(basis @ basis.T, reference @ reference.T, atol=1e-6)
    return basis.shape[1]


def test_protected_subspace_matches_the_shrinking_kernel():
    # 300 random block networks, n = 2..8, with repeated W levels and a random
    # PSD Gamma whose kernel holds W eigenvectors or random directions.
    rng = np.random.default_rng(21)
    dims = set()
    for _ in range(300):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        levels = rng.uniform(8.0, 12.0, size=int(rng.integers(1, n + 1)))
        w = q @ np.diag(rng.choice(levels, size=n)) @ q.T
        w = 0.5 * (w + w.T)
        k = int(rng.integers(0, n + 1))
        a = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        dark = q[:, rng.permutation(n)[:k]] if rng.random() < 0.5 else rng.normal(size=(n, k))
        if k:
            dark, _ = np.linalg.qr(dark)
            a -= dark @ (dark.T @ a)
        dims.add(_same_subspace(w, DecayMatrix(a @ a.T)))
    assert dims == set(range(9))

    # the 300 profile networks of test_protected_dimension_counts_shared_channels:
    # the same seed, and the same draws for the pair that test picks
    rng = np.random.default_rng(2006)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        levels = rng.uniform(8.0, 12.0, size=int(rng.integers(1, n + 1)))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = q @ np.diag(rng.choice(levels, size=n)) @ q.T
        w = 0.5 * (w + w.T)
        net = NetworkSpec(omega=np.diagonal(w), coupling=w - np.diag(np.diagonal(w)))
        profiles = [
            CouplingProfile(rng.uniform(0.2, 1.0), rng.uniform(8.0, 12.0, size=2), rng.uniform(0.1, 2.0, size=2))
            for _ in range(n)
        ]
        reservoir = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=1.0, profiles=profiles)
        dim = _same_subspace(net.w_matrix(), build_decay_matrix(reservoir, net))
        rng.normal(size=(3, n))
        if dim and rng.random() < 0.5:
            rng.normal(size=(2, dim))


@pytest.mark.parametrize("split, dim", [(1e-13, 2), (1e-12, 2), (1e-10, 2), (1e-9, 1), (1e-8, 1), (1e-7, 1)])
def test_protected_subspace_of_a_split_degenerate_network(split, dim):
    # Fully correlated white noise on the n = 3 degenerate network protects
    # the two modes orthogonal to the uniform one; detuning W[0, 0] by a
    # relative split beyond W's 1e-10 rank tolerance leaves one.
    w = degenerate_network(3, 10.0, 0.5).w_matrix()
    w[0, 0] *= 1.0 + split
    assert _same_subspace(w, decay_matrix_common(3, 1.0, 1.0)) == dim


def test_protected_subspace_near_a_tiny_gap():
    # Two W levels 2e-9 apart, Gamma's kernel holding the eigenvector of the
    # first and one direction that mixes the others: one protected mode,
    # although eigh of W alone resolves those two eigenvectors only to
    # about eps |W| / gap.
    rng = np.random.default_rng(7)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        w = q @ np.diag([10.0, 10.0 + 2e-9, rng.uniform(8.0, 9.0), rng.uniform(11.0, 12.0)]) @ q.T
        channels = q[:, 1:] @ rng.normal(size=(3, 2))
        assert _same_subspace(0.5 * (w + w.T), DecayMatrix(channels @ channels.T)) == 1


def test_protected_subspace_passes_each_kernel_column_to_svd_once(monkeypatch):
    # One pass: the residual columns of each cluster go to one thin SVD, so
    # the SVDs see dim ker Gamma columns in all; protected_subspace_shrink
    # passes 1,770 (one round per lost dimension) on this network.
    rng = np.random.default_rng(60)
    n = 60
    coupling = np.triu(rng.normal(0.0, 0.1, size=(n, n)), 1)
    net = NetworkSpec(omega=rng.uniform(10.0, 11.0, size=n), coupling=coupling + coupling.T)
    decay = build_decay_matrix(_white(1.0), net)
    columns = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        columns.append(np.shape(a)[1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert protected_subspace(net.w_matrix(), decay).shape == (n, 0)
    assert sum(columns) == decay.kernel.shape[1] == n - 1
