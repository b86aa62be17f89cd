"""Label-space evolution: propagators, trajectories, decoherence times."""

import math

import numpy as np
import pytest
import scipy.linalg

from resonet import (
    EvolutionParams,
    ModelError,
    NetworkSpec,
    NumericalError,
    RSFamilySpec,
    decay_matrix_common,
    decoherence_time_formula,
    decoherence_time_numeric,
    degenerate_modes,
    degenerate_network,
    drift_matrix,
    expm,
    gram_matrix,
    make_rs_state,
    make_superposition,
    propagate,
    propagate_with,
    propagator_closed_form,
    propagator_general,
    trajectory_to_csv,
)


def _params(n=2, gamma=1.0, eps=0.5, omega0=10.0, lam=0.5, t_max=3.0, steps=30):
    plus, minus = degenerate_modes(n, omega0, lam)
    return EvolutionParams(
        n=n,
        gamma=gamma,
        epsilon=eps,
        omega_plus=plus,
        omega_minus=minus,
        times=np.linspace(0.0, t_max, steps + 1),
    )


def test_expm_matches_scipy():
    rng = np.random.default_rng(17)
    for n in (1, 3, 6):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        np.testing.assert_allclose(expm(a), scipy.linalg.expm(a), atol=1e-12)
    # large norm exercises the squaring ladder
    b = 40.0 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    np.testing.assert_allclose(expm(b), scipy.linalg.expm(b), atol=1e-8 * np.max(np.abs(scipy.linalg.expm(b))))


def test_expm_on_a_stack_with_mixed_norms():
    # One squaring count serves the whole stack, taken from its largest norm;
    # the small matrices must not lose accuracy to the extra squarings.
    rng = np.random.default_rng(23)
    scales = (0.0, 1e-3, 0.3, 2.0, 9.0, 40.0)
    stack = np.array([s * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for s in scales])
    got = expm(stack)
    assert got.shape == stack.shape
    for a, g in zip(stack, got):
        want = scipy.linalg.expm(a)
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(want))))
    with pytest.raises(ModelError):
        expm(np.ones((2, 3, 4)))


def _random_drift(rng, n):
    coupling = rng.normal(scale=0.3, size=(n, n))
    coupling = coupling + coupling.T
    np.fill_diagonal(coupling, 0.0)
    spec = NetworkSpec(omega=rng.uniform(1.0, 3.0, size=n), coupling=coupling)
    a = rng.normal(size=(n, n))
    return drift_matrix(spec, 0.5 * a @ a.T / n)


def test_propagators_accept_a_scalar_or_a_time_array():
    rng = np.random.default_rng(31)
    times = np.linspace(0.0, 4.0, 7)
    p = _params(n=3, gamma=0.7, eps=0.4)
    d = _random_drift(rng, 3)
    for one, stack, tol in (
        (lambda t: propagator_closed_form(p, t), propagator_closed_form(p, times), 1e-15),
        (lambda t: propagator_general(d, t), propagator_general(d, times), 1e-12),
    ):
        assert stack.shape == (times.size, 3, 3)
        for t, theta in zip(times, stack):
            single = one(float(t))
            assert single.shape == (3, 3)
            np.testing.assert_allclose(theta, single, rtol=0, atol=tol)


def test_closed_form_identity_at_zero():
    p = _params()
    np.testing.assert_allclose(propagator_closed_form(p, 0.0), np.eye(2), atol=1e-14)


def test_closed_form_unitary_without_damping():
    p = _params(n=3, gamma=0.0, eps=0.0)
    for t in (0.3, 1.7):
        theta = propagator_closed_form(p, t)
        np.testing.assert_allclose(theta @ theta.conj().T, np.eye(3), atol=1e-12)


def test_closed_form_equals_drift_exponential():
    rng = np.random.default_rng(29)
    for n in (2, 3, 5, 8):
        omega0 = float(rng.uniform(1.0, 5.0))
        lam = float(rng.uniform(-0.5, 0.5))
        gamma = float(rng.uniform(0.1, 2.0))
        eps = float(rng.uniform(0.0, 1.0))
        p = _params(n=n, gamma=gamma, eps=eps, omega0=omega0, lam=lam)
        d = drift_matrix(degenerate_network(n, omega0, lam), decay_matrix_common(n, gamma, eps))
        for t in (0.0, 0.4, 2.9):
            np.testing.assert_allclose(
                propagator_closed_form(p, t), propagator_general(d, t), atol=1e-9
            )


def test_trajectory_initial_point():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    traj = propagate(state, _params())
    assert abs(traj.purity[0] - 1.0) < 1e-12
    assert abs(traj.fidelity[0] - 1.0) < 1e-12
    np.testing.assert_allclose(traj.labels[0], state.labels, atol=1e-14)


def test_single_product_occupation_decay():
    # One coherent product in an uncorrelated reservoir: occupation decays at
    # exactly exp(-gamma t) and purity stays 1.
    gamma = 0.8
    state = make_superposition([1.0], np.array([[0.7, -0.3 + 0.2j]]))
    traj = propagate(state, _params(gamma=gamma, eps=0.0))
    n0 = np.sum(np.abs(state.labels[0]) ** 2)
    np.testing.assert_allclose(
        traj.total_occupation, n0 * np.exp(-gamma * traj.times), atol=1e-12
    )
    np.testing.assert_allclose(traj.purity, 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.coeffs[:, 0, 0], 1.0, atol=1e-12)


def test_balanced_state_protected_at_full_correlation():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    traj = propagate(state, _params(eps=1.0, t_max=10.0, steps=100))
    np.testing.assert_allclose(traj.purity, 1.0, atol=1e-9)
    np.testing.assert_allclose(traj.total_occupation, traj.total_occupation[0], atol=1e-9)


def test_unbalanced_state_decoheres():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=0, alpha=0.6, eta=0.0))
    traj = propagate(state, _params(eps=1.0, t_max=3.0))
    assert traj.purity[-1] < 1.0 - 1e-3


def test_decoherence_time_special_case():
    # R=1, S=0, alpha=1, gamma=1: the bracket reduces to gamma itself, so
    # tau = 1/(2 |alpha|^2) = 0.5 for every epsilon.
    for eps in (0.0, 0.3, 1.0):
        spec = RSFamilySpec(n=2, r=1, s=0, alpha=1.0)
        assert decoherence_time_formula(spec, 1.0, 1.0 - eps) == 0.5


def test_decoherence_time_alpha_scaling():
    spec1 = RSFamilySpec(n=3, r=1, s=1, alpha=0.4)
    spec2 = RSFamilySpec(n=3, r=1, s=1, alpha=0.8)
    t1 = decoherence_time_formula(spec1, 1.3, 0.8 * 1.3)
    t2 = decoherence_time_formula(spec2, 1.3, 0.8 * 1.3)
    assert abs(t1 / t2 - 4.0) < 1e-9


def test_decoherence_time_protected_cases():
    # R = S at full correlation never decoheres; neither does R = S = 0.
    assert math.isinf(decoherence_time_formula(RSFamilySpec(n=2, r=1, s=1, alpha=0.5), 1.0, 0.0))
    assert math.isinf(decoherence_time_formula(RSFamilySpec(n=3, r=0, s=0, alpha=0.5, eta=0.4), 1.0, 0.8))
    with pytest.raises(ModelError):
        decoherence_time_formula(RSFamilySpec(n=2, r=1, s=1, alpha=0.0, eta=1.0), 1.0, 0.5)


def test_decoherence_time_formula_needs_a_psd_rate_split():
    # gamma_down may exceed gamma (distinct reservoirs with gamma_minus >
    # gamma_plus) as long as gamma_up = n gamma - (n-1) gamma_down >= 0.
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    assert abs(decoherence_time_formula(spec, 1.5, 2.0) - 1.0 / 2.88) < 1e-12
    assert abs(decoherence_time_formula(spec, 1.0, 2.0) - 1.0 / 2.88) < 1e-12  # gamma_up = 0
    for gamma, gamma_down in ((1.0, -0.1), (1.0, 2.1), (-1.0, 0.0)):
        with pytest.raises(ModelError):
            decoherence_time_formula(spec, gamma, gamma_down)


def test_decoherence_numeric_matches_formula():
    rng = np.random.default_rng(41)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(0, n))
        s = int(rng.integers(0, n - r))
        if r == 0 and s == 0:
            r = 1
        alpha = float(rng.uniform(0.3, 1.0))
        eps = float(rng.uniform(0.0, 0.9))
        gamma = float(rng.uniform(0.5, 2.0))
        spec = RSFamilySpec(n=n, r=r, s=s, alpha=alpha)
        expected = decoherence_time_formula(spec, gamma, (1.0 - eps) * gamma)
        if math.isinf(expected):
            continue
        state = make_rs_state(spec)
        traj = propagate(state, _params(n=n, gamma=gamma, eps=eps, t_max=1.0, steps=10))
        got = decoherence_time_numeric(traj)
        assert abs(got - expected) < 0.01 * expected


def test_decoherence_numeric_infinite_for_protected():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    traj = propagate(state, _params(eps=1.0))
    assert math.isinf(decoherence_time_numeric(traj))


def test_decoherence_numeric_argument_checks():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    traj = propagate(state, _params())
    with pytest.raises(ModelError):
        decoherence_time_numeric(traj, 0, 0)
    with pytest.raises(ModelError):
        decoherence_time_numeric(traj, 0, 5)


def test_propagator_shape_rejected():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    with pytest.raises(ModelError):
        propagate_with(state, [0.0, 0.1], lambda t: np.eye(3))


def test_trace_abort_on_overflowing_propagator():
    # An exploding propagator drives the branch overlap to underflow; the
    # reconstructed trace turns non-finite and the run must abort.
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    with pytest.raises(NumericalError):
        propagate_with(state, [0.0, 1.0], lambda t: (1.0 + 29.0 * t)[:, None, None] * np.eye(2))


def test_trace_abort_names_first_failing_time_inside_a_block():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    times = np.linspace(0.0, 1.0, 100)
    bad = times[45]  # second block of 32, neither its first nor its last point
    with pytest.raises(NumericalError, match=f"at t = {bad:g};"):
        propagate_with(state, times, lambda t: np.where(t >= bad, 30.0, 1.0)[:, None, None] * np.eye(2))


def test_well_separated_cat_keeps_unit_trace():
    # exp(-1152) underflows to 0, so overlap ratios formed from two Gram
    # matrices turn into 0/0; the log-domain coefficients stay finite.
    state = make_rs_state(RSFamilySpec(n=4, r=4, s=0, alpha=12.0))
    for eps in (0.0, 1.0):
        traj = propagate(state, _params(n=4, eps=eps, steps=40))
        trace = np.sum(traj.coeffs * np.swapaxes(gram_matrix(traj.labels), -1, -2), axis=(-2, -1))
        np.testing.assert_allclose(trace, 1.0, rtol=0, atol=1e-12)
        assert np.all(np.isfinite(traj.purity)) and np.all(np.isfinite(traj.fidelity))


def test_large_random_labels_keep_unit_trace_and_match_the_ratio_form():
    # Labels scattered around centres of modulus up to 30: some pairs overlap
    # (finite but with exponents near -900 inside the Gram matrices), others
    # are so far apart that the overlaps underflow and the old ratio of two
    # exps turns into 0/0.
    compared = underflowed = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        terms = int(rng.integers(2, 7))
        centre = rng.uniform(0.0, 30.0, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
        spread = rng.uniform(0.2, 12.0, size=(terms, 1))
        labels = centre + spread * (rng.normal(size=(terms, n)) + 1j * rng.normal(size=(terms, n)))
        assert np.max(np.abs(labels)) < 80.0
        state = make_superposition(rng.normal(size=terms) + 1j * rng.normal(size=terms), labels)
        params = _params(n=n, gamma=float(rng.uniform(0.5, 2.0)), eps=float(rng.uniform()), steps=30)
        traj = propagate(state, params)
        trace = np.sum(traj.coeffs * np.swapaxes(gram_matrix(traj.labels), -1, -2), axis=(-2, -1))
        np.testing.assert_allclose(trace, 1.0, rtol=0, atol=1e-12, err_msg=f"seed {seed}")

        g0 = gram_matrix(state.labels)
        gt = gram_matrix(traj.labels)
        w_outer = state.norm_factor**2 * np.outer(state.weights, state.weights.conj())
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = w_outer * np.swapaxes(g0 / gt, -1, -2)
        # subnormal overlaps carry too few digits for a relative comparison
        normal = (np.abs(g0) > 1e-300) & (np.abs(gt) > 1e-300)
        ok = np.isfinite(ratio) & np.swapaxes(normal, -1, -2)
        np.testing.assert_allclose(traj.coeffs[ok], ratio[ok], rtol=1e-9, atol=0, err_msg=f"seed {seed}")
        compared += int(np.sum(ok & ~np.eye(terms, dtype=bool)))
        underflowed += int(np.sum(~np.isfinite(ratio)))
    assert compared > 0 and underflowed > 0


def _per_point_reference(state, times, propagator_at):
    """The per-time-point loop the batched propagation replaced, kept as its reference."""
    beta = np.asarray(state.labels)
    weights = np.asarray(state.weights)
    w_outer = state.norm_factor**2 * np.outer(weights, weights.conj())
    g0 = gram_matrix(beta)
    labels, coeffs, occ, purity, fid = [], [], [], [], []
    for t in times:
        zeta = beta @ propagator_at(float(t)).T
        gt = gram_matrix(zeta)
        coeff = w_outer * (g0 / gt).T
        m = coeff * gt.T
        cg = coeff @ gt
        w_in = state.norm_factor * (weights.conj() @ gram_matrix(beta, zeta))
        labels.append(zeta)
        coeffs.append(coeff)
        occ.append(np.einsum("rs,sm,rm->m", m, zeta.conj(), zeta).real)
        purity.append(np.real(np.sum(cg * cg.T)))
        fid.append(np.real(w_in @ (coeff @ w_in.conj())))
    return {
        "labels": np.array(labels),
        "coeffs": np.array(coeffs),
        "occupations": np.array(occ),
        "purity": np.array(purity),
        "fidelity": np.array(fid),
    }


@pytest.mark.parametrize("points", [1, 31, 32, 33, 100])
@pytest.mark.parametrize("path", ["closed_form", "general"])
def test_batched_propagation_matches_per_point_loop(points, path):
    rng = np.random.default_rng(1000 * points + len(path))
    n = int(rng.integers(2, 6))
    terms = int(rng.integers(3, 9))
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    labels = 0.6 * (rng.normal(size=(terms, n)) + 1j * rng.normal(size=(terms, n)))
    state = make_superposition(weights, labels)
    assert state.num_terms == terms
    times = np.linspace(0.0, 2.5, points)
    if path == "closed_form":
        plus, minus = degenerate_modes(n, 10.0, 0.5)
        p = EvolutionParams(
            n=n, gamma=0.8, epsilon=float(rng.uniform()), omega_plus=plus, omega_minus=minus, times=times
        )
        traj = propagate(state, p)
        ref = _per_point_reference(state, times, lambda t: propagator_closed_form(p, t))
    else:
        d = _random_drift(rng, n)
        traj = propagate_with(state, times, lambda t: propagator_general(d, t))
        ref = _per_point_reference(state, times, lambda t: propagator_general(d, t))
    for name, want in ref.items():
        np.testing.assert_allclose(getattr(traj, name), want, rtol=1e-12, atol=1e-12, err_msg=name)


def test_time_grid_validation():
    with pytest.raises(ModelError):
        EvolutionParams(n=2, gamma=1.0, epsilon=0.5, omega_plus=1.0, omega_minus=1.0, times=[])
    with pytest.raises(ModelError):
        EvolutionParams(n=2, gamma=1.0, epsilon=0.5, omega_plus=1.0, omega_minus=1.0, times=[0.1, 0.2])
    with pytest.raises(ModelError):
        EvolutionParams(n=2, gamma=1.0, epsilon=0.5, omega_plus=1.0, omega_minus=1.0, times=[0.0, 0.2, 0.1])


@pytest.mark.parametrize(
    "times, message",
    [
        ([], "start at 0"),
        ([0.1, 0.2], "start at 0"),
        ([0.0, -1.0], "strictly increasing"),
        ([0.0, 0.2, 0.1], "strictly increasing"),
        ([0.0, 0.2, 0.2], "strictly increasing"),
    ],
)
def test_propagate_with_rejects_a_bad_time_grid(times, message):
    # The same grid rules as EvolutionParams; [0, -1] used to give a
    # trajectory whose numeric decoherence time came out as 1.07, not 1/0.72.
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    plus, minus = degenerate_modes(2, 10.0, 0.5)
    p = EvolutionParams(n=2, gamma=1.0, epsilon=0.5, omega_plus=plus, omega_minus=minus, times=[0.0, 1.0])
    with pytest.raises(ModelError, match=message):
        propagate_with(make_rs_state(spec), times, lambda t: propagator_closed_form(p, t), gamma_rate=1.0)


def test_csv_round_trip():
    state = make_rs_state(RSFamilySpec(n=3, r=1, s=1, alpha=0.5))
    traj = propagate(state, _params(n=3, steps=5))
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "time"
    assert header.count("purity") == 1
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape[0] == traj.times.size
    np.testing.assert_allclose(rows[:, 0], traj.times, atol=1e-8)
    col = header.index("purity")
    np.testing.assert_allclose(rows[:, col], traj.purity, rtol=1e-8)
    col = header.index("occ_total")
    np.testing.assert_allclose(rows[:, col], traj.total_occupation, rtol=1e-8, atol=1e-8)


def test_minus_cat_evolution_stays_normalised():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.4, sign=-1))
    traj = propagate(state, _params(eps=0.7))
    assert np.all(traj.purity <= 1.0 + 1e-10)
    assert abs(traj.purity[0] - 1.0) < 1e-12
    assert abs(traj.fidelity[0] - 1.0) < 1e-12
