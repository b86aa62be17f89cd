"""Truncated-Fock embedding, master-equation integration, comparison."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from resonet import (
    DecayMatrix,
    ModelError,
    NetworkSpec,
    RSFamilySpec,
    decay_matrix_common,
    degenerate_network,
    drift_matrix,
    label_flow,
    make_rs_state,
    make_superposition,
    propagate_with,
)
from resonet import errors, evolve, oracle
from reference import (
    coherent_overlap,
    collect,
    generator_matrix,
    mean_amplitudes,
    mode_lowering_ops,
    mode_occupations,
    trace_distance_full,
)


def test_basis_dimension_guard():
    assert oracle.FockBasisSpec(n=2, cutoff=12).dim == 169
    with pytest.raises(ModelError):
        oracle.FockBasisSpec(n=3, cutoff=50)
    with pytest.raises(ModelError):
        oracle.FockBasisSpec(n=0, cutoff=3)


def test_working_set_estimate_and_budget():
    # 10 dim x dim complex arrays whatever the grid (the generator's diagonal
    # and scratch, the initial state, integrate's buffers, the states in
    # flight and compare's difference) plus one weight array per generator
    # offset: 8 at n = 2, 21 at n = 3, 40 at n = 4
    assert oracle.working_set_bytes(2, 12) == (10 + 8) * 169**2 * 16
    assert oracle.working_set_bytes(3, 9) == (10 + 21) * 1000**2 * 16
    oracle.check_working_set(2, 12)
    # n = 4, r = s = 2, alpha = 0.7: suggest_cutoff picks 13 (dim 38416,
    # 22 GiB per density matrix); even the minimum cutoff 10 cannot fit
    state = make_rs_state(RSFamilySpec(n=4, r=2, s=2, alpha=0.7))
    assert oracle.suggest_cutoff(state) == 13
    assert oracle.minimum_cutoff(0.7) == 10
    with pytest.raises(ModelError) as err:
        oracle.check_working_set(4, 13, state.labels)
    need = oracle.working_set_bytes(4, 13)
    assert need > oracle._BYTE_BUDGET
    assert oracle._sci(need) in str(err.value)
    assert "minimum cutoff is 10" in str(err.value)
    # astronomically large bases are rejected without overflowing the message
    with pytest.raises(ModelError):
        oracle.FockBasisSpec(n=400, cutoff=12)


def test_superoperator_matrix_budget(monkeypatch):
    gen = oracle.build_generator(
        degenerate_network(1, 2.0, 0.0), decay_matrix_common(1, 0.5, 0.0), oracle.FockBasisSpec(n=1, cutoff=3)
    )
    # dim 4: the matrix is 4^4 * 16 = 4096 bytes
    monkeypatch.setattr(errors, "_BYTE_BUDGET", 4096)
    assert generator_matrix(gen).shape == (16, 16)
    monkeypatch.setattr(errors, "_BYTE_BUDGET", 4095)
    with pytest.raises(ModelError):
        generator_matrix(gen)


def test_max_tail_mass_scans_a_whole_trajectory():
    labels = np.array([[[0.1, 2.0]], [[1.5j, 0.3]], [[0.0, -2.5]]])
    per_time = [oracle.max_tail_mass(labels[i], 6) for i in range(3)]
    assert oracle.max_tail_mass(labels, 6) == max(per_time) == oracle.poisson_tail(6.25, 6)
    # the tail rises with the mean, so the largest amplitude decides: the
    # same value as the largest tail over every amplitude, on random labels
    rng = np.random.default_rng(3)
    for _ in range(20):
        shape = (int(rng.integers(1, 30)), 2, int(rng.integers(1, 4)))
        labels = rng.normal(scale=1.5, size=shape) + 1j * rng.normal(scale=1.5, size=shape)
        cutoff = int(rng.integers(1, 25))
        worst = max(oracle.poisson_tail(float(a) ** 2, cutoff) for a in np.abs(labels).ravel())
        assert oracle.max_tail_mass(labels, cutoff) == worst


def test_lowering_operator_matrix_elements():
    basis = oracle.FockBasisSpec(n=1, cutoff=4)
    a = mode_lowering_ops(basis)[0]
    for k in range(1, 5):
        assert abs(a[k - 1, k] - math.sqrt(k)) < 1e-15
    # commutator is the identity away from the truncation edge
    comm = a @ a.conj().T - a.conj().T @ a
    np.testing.assert_allclose(np.diagonal(comm)[:-1], 1.0, atol=1e-14)


def test_lowering_operators_commute_between_modes():
    basis = oracle.FockBasisSpec(n=2, cutoff=3)
    a0, a1 = mode_lowering_ops(basis)
    np.testing.assert_allclose(a0 @ a1, a1 @ a0, atol=1e-14)


def test_poisson_tail_and_minimum_cutoff():
    assert oracle.poisson_tail(0.0, 1) == 0.0
    # mean 1, cutoff 1: 1 - e^-1 * (1 + 1)
    expected = 1.0 - math.exp(-1.0) * 2.0
    assert abs(oracle.poisson_tail(1.0, 1) - expected) < 1e-12
    c = oracle.minimum_cutoff(2.0)
    assert oracle.poisson_tail(4.0, c) < 1e-10
    assert oracle.poisson_tail(4.0, c - 1) >= 1e-10


def test_minimum_cutoff_bisects(monkeypatch):
    # The tail falls as the cutoff grows, so a cutoff takes at most one call
    # at the largest cutoff and 14 bisection steps on [1, 10000]; amplitude
    # 1e3 fits no cutoff and is rejected after the first.
    calls = []

    def counted(mean, cutoff):
        calls.append(cutoff)
        return tail(mean, cutoff)

    tail = oracle.poisson_tail
    monkeypatch.setattr(oracle, "poisson_tail", counted)
    assert oracle.minimum_cutoff(95.0) == 9636
    assert len(calls) <= 16
    calls.clear()
    with pytest.raises(ModelError, match="amplitude too large"):
        oracle.minimum_cutoff(1e3)
    assert len(calls) <= 16


def test_poisson_tail_keeps_relative_precision_for_tiny_tails():
    # 1 - sum_{k<=12} gives 3.33e-16 here, rounding noise of 1; the tail is
    # 1.96e-16.  Terms beyond k = 60 are below 1e-80 of it.
    mean = 0.36
    ref = math.fsum(math.exp(-mean) * mean**k / math.factorial(k) for k in range(13, 61))
    assert abs(oracle.poisson_tail(mean, 12) / ref - 1.0) < 1e-12
    # Both branches agree where 1 - sum is still accurate: the cutoff at the
    # mean is summed directly, the one just below it by the complement.
    below = 1.0 - math.fsum(math.exp(-6.25) * 6.25**k / math.factorial(k) for k in range(0, 6))
    assert abs(oracle.poisson_tail(6.25, 5) - below) < 1e-14
    above = 1.0 - math.fsum(math.exp(-6.25) * 6.25**k / math.factorial(k) for k in range(0, 8))
    assert abs(oracle.poisson_tail(6.25, 7) - above) < 1e-14
    # The cutoff rule is unchanged: the minimum cutoffs of the complement form.
    amplitudes = (0.01, 0.1, 0.3, 0.6, 0.7, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 10.0)
    expected = (2, 4, 6, 9, 10, 12, 17, 22, 34, 55, 80, 170)
    assert tuple(oracle.minimum_cutoff(a) for a in amplitudes) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 1.0)], ids=["nan", "inf", "complex-inf"])
def test_non_finite_amplitudes_are_rejected(bad):
    # A NaN mean never left the tail sum, and an infinite one gave a tail of
    # 0, which passed any cutoff as adequate.
    labels = np.array([[0.5, bad]])
    mean = abs(bad) ** 2
    with pytest.raises(ModelError, match="finite and nonnegative"):
        oracle.poisson_tail(mean, 3)
    with pytest.raises(ModelError, match="finite and nonnegative"):
        oracle.poisson_tail(-mean, 3)
    with pytest.raises(ModelError, match="finite and nonnegative"):
        oracle.max_tail_mass(labels, 3)
    with pytest.raises(ModelError, match="finite and nonnegative"):
        oracle.minimum_cutoff(abs(bad))
    # compare checks a label block's tails before it takes an integrated state
    (block,) = propagate_with(make_superposition([1.0], np.array([[0.5, 0.0]])), [0.0], label_flow(-0.5 * np.eye(2)))
    # a label-path block (k = 1 would read its labels from the images)
    broken = dataclasses.replace(block, _zeta=labels[None], _images=None)
    with pytest.raises(ModelError, match="finite and nonnegative"):
        oracle.compare([broken], [], oracle.FockBasisSpec(n=2, cutoff=3))


def test_suggest_cutoff_rule():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    assert oracle.suggest_cutoff(state) == math.ceil(0.36 + 3.6 + 8.0)
    # From |b| = 8 on the rule falls below the tail-based minimum (120 < 121).
    large = make_superposition([1.0], np.array([[8.0]]))
    assert oracle.suggest_cutoff(large) == oracle.minimum_cutoff(8.0) == 121


def test_coherent_vector_components():
    basis = oracle.FockBasisSpec(n=1, cutoff=20)
    alpha = 0.7 - 0.2j
    v = oracle.coherent_vector([alpha], basis)
    for k in (0, 1, 5):
        expected = math.exp(-0.5 * abs(alpha) ** 2) * alpha**k / math.sqrt(math.factorial(k))
        assert abs(v[k] - expected) < 1e-12
    assert abs(np.vdot(v, v) - 1.0) < 1e-10


def test_coherent_vector_overlaps_match_label_algebra():
    basis = oracle.FockBasisSpec(n=2, cutoff=18)
    a = np.array([0.5, -0.3 + 0.4j])
    b = np.array([-0.2, 0.6])
    va = oracle.coherent_vector(a, basis)
    vb = oracle.coherent_vector(b, basis)
    assert abs(np.vdot(va, vb) - coherent_overlap(a, b)) < 1e-10


def test_embed_state_properties():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    basis = oracle.FockBasisSpec(n=2, cutoff=12)
    rho = oracle.embed_state(state, basis)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-8
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-9
    occ = mode_occupations(rho, basis)
    flow = label_flow(drift_matrix(degenerate_network(2, 10.0, 0.5), decay_matrix_common(2, 1.0, 0.5)))
    traj = collect(propagate_with(state, [0.0], flow))
    np.testing.assert_allclose(occ, traj.occupations[0], atol=1e-9)


def test_embed_rejects_inadequate_cutoff():
    state = make_superposition([1.0], np.array([[3.0, 0.0]]))
    basis = oracle.FockBasisSpec(n=2, cutoff=2)
    with pytest.raises(ModelError) as err:
        oracle.embed_state(state, basis)
    assert "required minimum cutoff" in str(err.value)


def test_generator_respects_amplitude_transport():
    # tr(a_m L(rho)) must equal the drift matrix acting on tr(a_m rho); this
    # ties the truncated integrator to the label flow without any dynamics.
    # The generator is in the frame rotating at omega_bar, so its drift is
    # that of W - omega_bar I.
    n, cutoff = 2, 9
    basis = oracle.FockBasisSpec(n=n, cutoff=cutoff)
    spec = degenerate_network(n, 1.3, 0.2)
    decay = decay_matrix_common(n, 0.7, 0.4)
    gen = oracle.build_generator(spec, decay, basis)
    state = make_superposition([1.0, 0.5], np.array([[0.4, -0.2], [0.1, 0.3]]))
    rho = oracle.embed_state(state, basis)
    amp = mean_amplitudes(rho, basis)
    amp_dot = mean_amplitudes(gen.apply(rho), basis)
    shifted = spec.w_matrix() - gen.omega_bar * np.eye(n)
    d = (-1j * shifted - 0.5 * decay.matrix) @ amp
    np.testing.assert_allclose(amp_dot, d, atol=1e-8)


def test_generator_preserves_hermiticity_and_trace():
    basis = oracle.FockBasisSpec(n=2, cutoff=4)
    spec = degenerate_network(2, 1.0, 0.3)
    decay = decay_matrix_common(2, 1.0, 0.8)
    gen = oracle.build_generator(spec, decay, basis)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    out = gen.apply(rho)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
    assert abs(np.trace(out)) < 1e-10


def test_superoperator_matrix_is_linear_action():
    basis = oracle.FockBasisSpec(n=1, cutoff=3)
    spec = degenerate_network(1, 2.0, 0.0)
    decay = decay_matrix_common(1, 0.5, 0.0)
    gen = oracle.build_generator(spec, decay, basis)
    mat = generator_matrix(gen)
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_allclose(
        (mat @ rho.ravel()).reshape(4, 4), gen.apply(rho), atol=1e-12
    )


def test_single_mode_decay_against_exact_solution():
    # one resonator: <n>(t) = |alpha|^2 e^{-gamma t}, <a>(t) rotates and damps
    gamma, omega, alpha = 1.0, 3.0, 0.8
    basis = oracle.FockBasisSpec(n=1, cutoff=14)
    spec = degenerate_network(1, omega, 0.0)
    decay = decay_matrix_common(1, gamma, 0.0)
    gen = oracle.build_generator(spec, decay, basis)
    state = make_superposition([1.0], np.array([[alpha]]))
    rho0 = oracle.embed_state(state, basis)
    times = np.linspace(0.0, 1.0, 6)
    rhos = oracle.integrate(rho0, gen, times)
    for t, rho in zip(times, rhos):
        occ = mode_occupations(rho, basis)[0]
        assert abs(occ - alpha**2 * math.exp(-gamma * t)) < 1e-6
        amp = mean_amplitudes(rho, basis)[0]
        expected = alpha * np.exp((-1j * omega - 0.5 * gamma) * t)
        assert abs(amp - expected) < 1e-6
        assert abs(np.trace(rho) - 1.0) < 1e-9


def test_integration_step_halving_converges():
    # Halving the grid spacing must move the result by less than 1e-12: each
    # Taylor series is truncated at the unit roundoff, so the result does not
    # depend on how the interval is split.
    n = 2
    basis = oracle.FockBasisSpec(n=n, cutoff=8)
    spec = degenerate_network(n, 2.0, 0.4)
    decay = decay_matrix_common(n, 1.0, 0.5)
    gen = oracle.build_generator(spec, decay, basis)
    state = make_rs_state(RSFamilySpec(n=n, r=1, s=1, alpha=0.4))
    rho0 = oracle.embed_state(state, basis)
    times = np.array([0.0, 0.5])
    coarse = list(oracle.integrate(rho0, gen, times))[-1]

    halved = list(oracle.integrate(rho0, gen, np.linspace(0.0, 0.5, 3)))[-1]
    assert np.max(np.abs(coarse - halved)) < 1e-12


def test_rotating_frame_integration_matches_exact_exponential():
    # Detuned modes (mean frequency 3.9), so the frame phase is nonzero, and a
    # random positive semidefinite decay matrix with cross terms.  A wrong
    # sign of the back-rotation or a wrong mean frequency moves the result by
    # far more than the tolerance.  The non-uniform grid splits its last
    # interval into several Taylor substeps.
    basis = oracle.FockBasisSpec(n=2, cutoff=4)
    spec = NetworkSpec(omega=[3.1, 4.7], coupling=[[0.0, 0.4], [0.4, 0.0]])
    x = np.random.default_rng(7).normal(size=(2, 2))
    gen = oracle.build_generator(spec, DecayMatrix(x @ x.T), basis)
    assert abs(gen.omega_bar - 3.9) < 1e-15
    # a truncated cat (no tail check needed: both sides see the same basis)
    psi = oracle.coherent_vector([0.6, -0.4j], basis) + 0.5j * oracle.coherent_vector([-0.3, 0.5], basis)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    nonuniform = np.array([0.0, 0.05, 3.0, 3.01, 8.0])
    assert max(s for _, s in oracle._taylor_plans(gen, nonuniform)) > 1
    for times in (np.linspace(0.0, 0.6, 4), nonuniform):
        for rho, exact in zip(oracle.integrate(rho0, gen, times), _lab_frame_expm(gen, rho0, times)):
            assert np.max(np.abs(rho - exact)) < 1e-13


def _lab_frame_expm(gen, rho0, times):
    """rho0 carried to each time by the dense exponential of the lab-frame generator."""
    # the rotating-frame generator plus -i omega_bar [N, rho]
    occ = oracle._occupation_digits(gen.basis).sum(axis=1)
    mat = generator_matrix(gen) + np.diag(-1j * gen.omega_bar * (occ[:, None] - occ[None, :]).ravel())
    return [(scipy.linalg.expm(t * mat) @ rho0.ravel()).reshape(rho0.shape) for t in times]


def test_unshifted_series_keeps_its_digits_at_high_excitation():
    # A +-2.5 cat puts its weight around 6 excitations, far from the
    # stationary vacuum, where an unshifted series has the largest terms and
    # could lose digits to cancellation; the last two intervals take several
    # substeps.  Against the dense exponential of the lab-frame generator.
    basis = oracle.FockBasisSpec(n=1, cutoff=30)
    gen = oracle.build_generator(degenerate_network(1, 2.0, 0.0), decay_matrix_common(1, 1.0, 0.0), basis)
    psi = oracle.coherent_vector([2.5], basis) + oracle.coherent_vector([-2.5], basis)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    times = np.array([0.0, 0.05, 1.0, 4.0])
    assert [s > 1 for _, s in oracle._taylor_plans(gen, times)] == [False, True, True]
    for rho, exact in zip(oracle.integrate(rho0, gen, times), _lab_frame_expm(gen, rho0, times)):
        assert np.max(np.abs(rho - exact)) < 1e-13


def test_taylor_series_stops_early_near_the_vacuum(monkeypatch):
    # The oracle benchmark's scenario (n = 2, cutoff 12, alpha = 0.6, 11 grid
    # times on [0, 1]): the unshifted series stops after 13 terms per
    # interval, where one shifted by the mean diagonal took 20.
    basis = oracle.FockBasisSpec(n=2, cutoff=12)
    spec, decay = degenerate_network(2, 10.0, 0.5), decay_matrix_common(2, 1.0, 0.5)
    gen = oracle.build_generator(spec, decay, basis)
    rho0 = oracle.embed_state(make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6)), basis)
    calls = []
    apply = oracle.LindbladGenerator.apply
    monkeypatch.setattr(oracle.LindbladGenerator, "apply", lambda *args, **kw: calls.append(1) or apply(*args, **kw))
    for _ in oracle.integrate(rho0, gen, np.linspace(0.0, 1.0, 11)):
        pass
    assert len(calls) < 150


@pytest.mark.parametrize("n, cutoff", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_generator_matches_the_kron_superoperator(n, cutoff):
    # The offset form of apply against the superoperator built from dense
    # Kronecker-product mode operators, on the row-major vec(rho):
    # L = B (x) I + I (x) conj(B) + sum_k a_k (x) conj(J_k), with
    # B = -i (W - wbar I)_mk a_m+ a_k - gamma_mk a_m+ a_k / 2 and
    # J_k = sum_m gamma_mk a_m.  Detuned modes, every coupling and every
    # cross rate nonzero, so every row hop, column hop and jump is present.
    basis = oracle.FockBasisSpec(n=n, cutoff=cutoff)
    rng = np.random.default_rng(10 * n + cutoff)
    coupling = np.triu(rng.uniform(0.2, 0.6, size=(n, n)), 1)
    spec = NetworkSpec(omega=rng.uniform(1.0, 5.0, size=n), coupling=coupling + coupling.T)
    x = rng.normal(size=(n, n)) + 0.5
    gamma = x @ x.T
    assert np.all(gamma != 0.0)
    gen = oracle.build_generator(spec, DecayMatrix(gamma), basis)
    w = spec.w_matrix() - np.trace(spec.w_matrix()) / n * np.eye(n)
    a = mode_lowering_ops(basis)
    b = sum((-1j * w[m, k] - 0.5 * gamma[m, k]) * (a[m].conj().T @ a[k]) for m in range(n) for k in range(n))
    eye = np.eye(basis.dim)
    want = np.kron(b, eye) + np.kron(eye, b.conj())
    for k in range(n):
        want += np.kron(a[k], sum(gamma[m, k] * a[m] for m in range(n)).conj())
    got = generator_matrix(gen)
    assert np.max(np.abs(got - want)) < 1e-13
    # norm_bound by its formula on the dense B and Gamma: 2 max |diag B|
    # + 2 sum over B's off-diagonals (one per hop) of their largest |entry|
    # + cutoff sum |gamma_mk|
    bound = (
        2.0 * np.max(np.abs(np.diagonal(b)))
        + 2.0 * sum(np.max(np.abs(np.diagonal(b, o))) for o in range(1 - basis.dim, basis.dim) if o != 0)
        + cutoff * np.sum(np.abs(gamma))
    )
    assert gen.norm_bound == pytest.approx(bound, rel=1e-14)
    # out= writes the same numbers into the given array and returns it
    rho = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    out = np.empty_like(rho)
    assert gen.apply(rho, out=out) is out
    assert np.array_equal(out, gen.apply(rho))


@pytest.mark.parametrize("n, cutoff", [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2)])
def test_norm_bound_covers_the_rotating_frame_generator(n, cutoff):
    # The Taylor degree and substep count are chosen from the bound, so the
    # integration error is only guaranteed if it is at least the true norm.
    basis = oracle.FockBasisSpec(n=n, cutoff=cutoff)
    rng = np.random.default_rng(100 * n + cutoff)
    for _ in range(3):
        coupling = np.triu(rng.normal(scale=0.5, size=(n, n)), 1)
        spec = NetworkSpec(omega=rng.uniform(1.0, 5.0, size=n), coupling=coupling + coupling.T)
        x = rng.normal(size=(n, n))
        gen = oracle.build_generator(spec, DecayMatrix(x @ x.T), basis)
        exact = np.max(np.sum(np.abs(generator_matrix(gen)), axis=0))
        assert gen.norm_bound >= exact * (1.0 - 1e-12)


def test_taylor_substep_rule():
    basis = oracle.FockBasisSpec(n=2, cutoff=3)
    gen = oracle.build_generator(degenerate_network(2, 10.0, 0.5), decay_matrix_common(2, 1.0, 0.0), basis)
    b = gen.norm_bound
    # Substeps with the one degree 55 and theta_55 = 9.9:
    # ||dt L||_1 = 7 fits one substep, 10 takes two and 20 takes three.
    plans = oracle._taylor_plans(gen, np.array([0.0, 7.0, 17.0, 37.0]) / b)
    assert [s for _, s in plans] == [1, 2, 3]
    assert oracle.step_size(gen, [0.0, 7.0 / b]) == 7.0 / b
    # the largest substep of a non-uniform grid: 20 / 3 beats 1
    assert oracle.step_size(gen, [0.0, 1.0 / b, 21.0 / b]) == pytest.approx(20.0 / (3.0 * b), rel=1e-14)
    with pytest.raises(ModelError):
        oracle.step_size(gen, [0.0])
    with pytest.raises(ModelError):
        oracle.step_size(gen, [0.0, 0.5, 0.5])
    # a zero generator: one substep per interval, each series stopped after two zero terms, state unchanged
    zero = oracle.LindbladGenerator(oracle.FockBasisSpec(n=1, cutoff=3), np.zeros((1, 1)), np.zeros((1, 1)))
    assert zero.norm_bound == 0.0
    assert oracle.step_size(zero, [0.0, 0.5, 2.0]) == 1.5
    psi = oracle.coherent_vector([0.3 + 0.2j], zero.basis)
    rho0 = np.outer(psi, psi.conj())
    rho0 = (rho0 + rho0.conj().T) / (2.0 * np.trace(rho0).real)
    for rho in oracle.integrate(rho0, zero, [0.0, 0.5, 2.0]):
        assert np.array_equal(rho, rho0)


def test_compare_trajectory_to_integration():
    n, gamma, eps = 2, 1.0, 0.5
    omega0, lam = 10.0, 0.5
    basis = oracle.FockBasisSpec(n=n, cutoff=12)
    spec = degenerate_network(n, omega0, lam)
    decay = decay_matrix_common(n, gamma, eps)
    state = make_rs_state(RSFamilySpec(n=n, r=1, s=1, alpha=0.6))
    times = np.linspace(0.0, 0.4, 5)
    traj = list(propagate_with(state, times, label_flow(drift_matrix(spec, decay))))
    gen = oracle.build_generator(spec, decay, basis)
    rho0 = oracle.embed_state(state, basis)
    report = oracle.compare(traj, oracle.integrate(rho0, gen, times), basis)
    assert report.max_distance < 1e-6
    assert report.distances[0] < 1e-12
    rhos = list(oracle.integrate(rho0, gen, times))
    assert np.array_equal(oracle.compare(traj, rhos, basis).distances, report.distances)
    # a stream one state shorter or longer than the grid
    with pytest.raises(ModelError):
        oracle.compare(traj, rhos[:-1], basis)
    with pytest.raises(ModelError):
        oracle.compare(traj, rhos + [rhos[-1]], basis)


def test_compare_walks_label_blocks_in_lockstep(monkeypatch):
    # One grid time per label block or the whole grid in one: the same
    # distances, and the tail mass of the largest label amplitude of the grid.
    spec = NetworkSpec(omega=[9.4, 10.7], coupling=[[0.0, 0.6], [0.6, 0.0]])
    decay = decay_matrix_common(2, 1.0, 0.7)
    state = make_superposition([1.0, 0.5 + 0.3j], np.array([[0.5 + 0.1j, -0.3], [0.1 - 0.4j, 0.6 + 0.2j]]))
    basis = oracle.FockBasisSpec(n=2, cutoff=12)
    gen = oracle.build_generator(spec, decay, basis)
    times = np.linspace(0.0, 1.0, 6)
    rhos = list(oracle.integrate(oracle.embed_state(state, basis), gen, times))
    flow = label_flow(drift_matrix(spec, decay))
    reports = []
    for elements in (8, evolve._BLOCK_ELEMENTS):  # 2 terms on 2 modes: 8 elements per grid time
        monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", elements)
        blocks = list(propagate_with(state, times, flow))
        assert len(blocks) == (6 if elements == 8 else 1)
        reports.append(oracle.compare(iter(blocks), iter(rhos), basis))
        with pytest.raises(ModelError):
            oracle.compare(blocks[:-1] + [dataclasses.replace(blocks[-1], times=blocks[-1].times[:-1])], rhos, basis)
    assert np.array_equal(reports[0].distances, reports[1].distances)
    assert np.array_equal(reports[0].times, times) and reports[0].max_distance < 1e-6
    labels = collect(propagate_with(state, times, flow)).labels
    assert reports[0].tail_mass == reports[1].tail_mass == oracle.max_tail_mass(labels, basis.cutoff)


def test_compare_rejects_an_empty_grid():
    basis = oracle.FockBasisSpec(n=2, cutoff=3)
    with pytest.raises(ModelError, match="comparison grid is empty"):
        oracle.compare([], [], basis)
    with pytest.raises(ModelError, match="different grids"):
        oracle.compare([], [np.eye(basis.dim)], basis)


def _random_generator(n, cutoff, rng):
    """Generator of a detuned network with every coupling and a random positive semidefinite decay matrix."""
    coupling = np.triu(rng.uniform(0.2, 0.6, size=(n, n)), 1)
    spec = NetworkSpec(omega=rng.uniform(1.0, 5.0, size=n), coupling=coupling + coupling.T)
    x = rng.normal(scale=0.5, size=(n, n))
    return oracle.build_generator(spec, DecayMatrix(x @ x.T), oracle.FockBasisSpec(n=n, cutoff=cutoff))


def _off_sectors(basis, order, bounds):
    """Mask of the basis pairs (a, b) that lie in different sectors."""
    sector = np.empty(basis.dim, dtype=int)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        sector[order[lo:hi]] = i
    return sector[:, None] != sector[None, :]


@pytest.mark.parametrize("n, cutoffs", [(1, (9, 10)), (2, (8, 9)), (3, (4, 5))])
def test_parity_cats_stay_exactly_in_their_sectors(n, cutoffs):
    # A cat of beta and -beta is a parity eigenstate, so the sectors are the
    # classes of N mod 2; the master equation keeps each coherence order
    # N_a - N_b apart, so every integrated state is exactly zero outside them,
    # on random networks and decay matrices and at odd and even cutoffs.
    # An eta != 0 mode breaks the parity and leaves one sector.
    rng = np.random.default_rng(n)
    beta = 0.15 * np.exp(2j * np.pi * rng.uniform(size=n))
    cats = [make_superposition([1.0, sign], [beta, -beta]) for sign in (1.0, -1.0)]
    cats += [make_rs_state(RSFamilySpec(n=n, r=1, s=min(1, n - 1), alpha=0.15, sign=sign)) for sign in (1, -1)]
    if n == 3:
        cats.append(make_rs_state(RSFamilySpec(n=3, r=2, s=1, alpha=0.15)))
    times = np.array([0.0, 0.1, 0.25])
    for cutoff in cutoffs:
        gen = _random_generator(n, cutoff, rng)
        for state in cats:
            rho0 = oracle.embed_state(state, gen.basis)
            order, bounds = oracle._sectors(rho0, gen.basis)
            assert len(bounds) == 3
            occ = oracle._occupation_digits(gen.basis).sum(axis=1)
            assert np.array_equal(occ[order] % 2, np.repeat([0, 1], np.diff(bounds)))
            off = _off_sectors(gen.basis, order, bounds)
            for rho in oracle.integrate(rho0, gen, times):
                assert np.all(rho[off] == 0.0)
    if n == 3:
        broken = make_rs_state(RSFamilySpec(n=3, r=1, s=1, alpha=0.15, eta=0.1))
        order, bounds = oracle._sectors(oracle.embed_state(broken, gen.basis), gen.basis)
        assert np.array_equal(order, np.arange(gen.basis.dim)) and list(bounds) == [0, gen.basis.dim]


def test_sector_distance_bounds_the_full_distance():
    # With entries planted outside the sectors of the first state, the
    # reported distance is never below the full-matrix trace distance and
    # exceeds it by at most 0.5 sqrt(dim) ||Delta_off||_F; without them it
    # is the full distance to rounding.  The oracle benchmark's network and
    # decay with an n = 2, r = s = 1 cat.
    basis = oracle.FockBasisSpec(n=2, cutoff=10)
    spec, decay = degenerate_network(2, 10.0, 0.5), decay_matrix_common(2, 1.0, 0.5)
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    times = np.linspace(0.0, 0.5, 6)
    gen = oracle.build_generator(spec, decay, basis)
    rhos = list(oracle.integrate(oracle.embed_state(state, basis), gen, times))
    blocks = list(propagate_with(state, times, label_flow(drift_matrix(spec, decay))))
    order, bounds = oracle._sectors(rhos[0], basis)
    off = _off_sectors(basis, order, bounds)
    rng = np.random.default_rng(11)
    planted = [rhos[0]]
    for rho, scale in zip(rhos[1:], (1e-12, 1e-10, 1e-9, 1e-8, 1e-6)):
        x = rng.normal(scale=scale, size=rho.shape) + 1j * rng.normal(scale=scale, size=rho.shape)
        planted.append(rho + np.where(off, x + x.conj().T, 0.0))
    (block,) = blocks
    reports = []
    for rhos_in in (rhos, planted):
        reports.append(oracle.compare(blocks, rhos_in, basis))
        for dist, labels, coeffs, rho in zip(reports[-1].distances, block.labels, block.coeffs, rhos_in):
            full = trace_distance_full(labels, coeffs, rho, basis)
            delta_off = np.linalg.norm((oracle.embed_labels(labels, coeffs, basis) - rho)[off])
            assert full - 1e-15 <= dist <= full + 0.5 * math.sqrt(basis.dim) * delta_off
            if rhos_in is rhos:
                assert delta_off < 1e-15
    assert reports[1].distances[-1] > reports[0].distances[-1] + 1e-6


def test_one_sector_gives_the_full_distance_bit_for_bit():
    # A generic explicit state has every coherence order (g = 1): one sector,
    # the whole matrix, and the very numbers of one eigvalsh of it.
    spec = NetworkSpec(omega=[9.4, 10.7], coupling=[[0.0, 0.6], [0.6, 0.0]])
    decay = decay_matrix_common(2, 1.0, 0.7)
    state = make_superposition([1.0, 0.5 + 0.3j], np.array([[0.5 + 0.1j, -0.3], [0.1 - 0.4j, 0.6 + 0.2j]]))
    basis = oracle.FockBasisSpec(n=2, cutoff=12)
    gen = oracle.build_generator(spec, decay, basis)
    times = np.linspace(0.0, 1.0, 6)
    rhos = list(oracle.integrate(oracle.embed_state(state, basis), gen, times))
    order, bounds = oracle._sectors(rhos[0], basis)
    assert np.array_equal(order, np.arange(basis.dim)) and list(bounds) == [0, basis.dim]
    blocks = list(propagate_with(state, times, label_flow(drift_matrix(spec, decay))))
    report = oracle.compare(blocks, rhos, basis)
    block = collect(blocks)
    full = [trace_distance_full(*args, basis) for args in zip(block.labels, block.coeffs, rhos)]
    assert np.array_equal(report.distances, full)


def test_vacuum_has_one_sector_per_excitation_number():
    # The vacuum has only coherence order 0 (g = 0): one sector per value of
    # N, 0 to n cutoff, and it stays the vacuum, at distance 0.
    basis = oracle.FockBasisSpec(n=2, cutoff=5)
    spec, decay = degenerate_network(2, 10.0, 0.5), decay_matrix_common(2, 1.0, 0.5)
    state = make_superposition([1.0], np.zeros((1, 2)))
    rho0 = oracle.embed_state(state, basis)
    order, bounds = oracle._sectors(rho0, basis)
    occ = oracle._occupation_digits(basis).sum(axis=1)
    assert len(bounds) == 2 * 5 + 2
    assert np.array_equal(occ[order], np.repeat(np.arange(11), np.diff(bounds)))
    times = np.linspace(0.0, 0.5, 4)
    gen = oracle.build_generator(spec, decay, basis)
    rhos = list(oracle.integrate(rho0, gen, times))
    blocks = list(propagate_with(state, times, label_flow(drift_matrix(spec, decay))))
    report = oracle.compare(blocks, rhos, basis)
    block = collect(blocks)
    full = [trace_distance_full(*args, basis) for args in zip(block.labels, block.coeffs, rhos)]
    assert np.array_equal(report.distances, full) and report.max_distance == 0.0


@pytest.mark.parametrize("n, cutoff", [(1, 8), (2, 6), (3, 4)])
def test_integrated_states_stay_hermitian_without_a_projection(n, cutoff):
    # L(rho+) = L(rho)+, so the Taylor action keeps a generic state Hermitian
    # and its trace at 1 up to rounding, over 51 grid times to t = 10.
    rng = np.random.default_rng(40 + n)
    weights = rng.normal(size=3) + 1j * rng.normal(size=3)
    labels = 0.1 * (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
    state = make_superposition(weights, labels)
    gen = _random_generator(n, max(cutoff, oracle.minimum_cutoff(np.abs(labels).max())), rng)
    for rho in oracle.integrate(oracle.embed_state(state, gen.basis), gen, np.linspace(0.0, 10.0, 51)):
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


def test_oracle_memory_does_not_grow_with_the_grid():
    # compare consumes integrate's states one at a time, so 61 grid points
    # need no more memory than 6, and the peak stays within the estimate.
    # The window opens before the generator is built, so its weight arrays
    # count too, and the estimate is close: eigvalsh's copy of the matrix is
    # the only array it counts that tracemalloc does not see.
    n, cutoff = 2, 8
    basis = oracle.FockBasisSpec(n=n, cutoff=cutoff)
    spec = degenerate_network(n, 2.0, 0.4)
    decay = decay_matrix_common(n, 1.0, 0.5)
    state = make_rs_state(RSFamilySpec(n=n, r=1, s=1, alpha=0.4))
    flow = label_flow(drift_matrix(spec, decay))
    peaks = []
    for points in (6, 61):
        times = np.linspace(0.0, 0.6, points)
        traj = list(propagate_with(state, times, flow))
        tracemalloc.start()
        try:
            gen = oracle.build_generator(spec, decay, basis)
            rho0 = oracle.embed_state(state, basis)
            report = oracle.compare(traj, oracle.integrate(rho0, gen, times), basis)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.max_distance < 1e-6
        assert len(gen._hops) == 8
    array_bytes = basis.dim**2 * 16
    assert abs(peaks[1] - peaks[0]) < array_bytes
    need = oracle.working_set_bytes(n, cutoff)
    assert need - 2 * array_bytes <= max(peaks) <= need


def test_trace_abort_in_integrator():
    # An unnormalised start violates the trace window immediately.
    basis = oracle.FockBasisSpec(n=1, cutoff=3)
    gen = oracle.build_generator(
        degenerate_network(1, 1.0, 0.0), decay_matrix_common(1, 1.0, 0.0), basis
    )
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = 2.0
    from resonet import NumericalError

    with pytest.raises(NumericalError):
        list(oracle.integrate(bad, gen, [0.0, 0.1]))
