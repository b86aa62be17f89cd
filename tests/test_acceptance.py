"""Acceptance gate: the headline claims, each as one pass/fail test.

Every test prints a single ACCEPTANCE line on success; run with -v to get
one status line per criterion from pytest itself.
"""

import math
import time

import numpy as np
import pytest

from resonet import (
    ModelError,
    RSFamilySpec,
    collective_lowering_eigencheck,
    decay_matrix_common,
    decay_matrix_distinct,
    decoherence_time_numeric,
    degenerate_modes,
    degenerate_network,
    drift_matrix,
    make_rs_state,
    label_flow,
    make_superposition,
    propagate_with,
)
from resonet import oracle
from reference import (
    collect,
    decoherence_time_formula,
    master_equation_reduction_check,
    mode_occupations,
    propagator_closed_form,
)


def _degenerate_drift(n, gamma, eps, omega0, lam):
    return drift_matrix(degenerate_network(n, omega0, lam), decay_matrix_common(n, gamma, eps))


def _evolve(state, n, gamma, eps, omega0, lam, times):
    """The label stream on the degenerate network in common white noise, as the CLI evolves it."""
    flow = label_flow(_degenerate_drift(n, gamma, eps, omega0, lam))
    return propagate_with(state, times, flow)


def _integrate_scenario(n, omega0, lam, gamma, eps, state, times, cutoff):
    basis = oracle.FockBasisSpec(n=n, cutoff=cutoff)
    gen = oracle.build_generator(
        degenerate_network(n, omega0, lam), decay_matrix_common(n, gamma, eps), basis
    )
    rhos = oracle.integrate(oracle.embed_state(state, basis), gen, times)
    return basis, rhos


def test_criterion_1_oracle_equivalence_of_label_evolution():
    n, omega0, lam, gamma, alpha, cutoff = 2, 10.0, 0.5, 1.0, 0.6, 12
    state = make_rs_state(RSFamilySpec(n=n, r=1, s=1, alpha=alpha))
    times = np.linspace(0.0, 3.0, 31)
    worst = {}
    for eps in (0.0, 0.5, 1.0):
        start = time.perf_counter()
        traj = _evolve(state, n, gamma, eps, omega0, lam, times)
        basis, rhos = _integrate_scenario(n, omega0, lam, gamma, eps, state, times, cutoff)
        report = oracle.compare(traj, rhos, basis)
        elapsed = time.perf_counter() - start
        assert report.max_distance < 5e-3, f"eps={eps}: distance {report.max_distance:.3e}"
        assert elapsed < 60.0, f"eps={eps}: took {elapsed:.1f} s"
        worst[eps] = report.max_distance
    print(
        "ACCEPTANCE 1: PASS - analytic vs integrated max trace distance "
        + ", ".join(f"{d:.2e} (eps={e:g})" for e, d in worst.items())
    )


def test_criterion_2_relaxation_free_state_is_protected():
    n, omega0, lam, gamma, alpha = 2, 1.0, 0.25, 1.0, 0.6
    state = make_rs_state(RSFamilySpec(n=n, r=1, s=1, alpha=alpha))
    times = np.linspace(0.0, 10.0, 101)
    traj = collect(_evolve(state, n, gamma, 1.0, omega0, lam, times))
    purity_err = float(np.max(np.abs(traj.purity - 1.0)))
    occ_err = float(np.max(np.abs(traj.total_occupation - traj.total_occupation[0])))
    assert purity_err < 1e-9
    assert occ_err < 1e-9

    coarse = np.linspace(0.0, 10.0, 21)
    traj_c = _evolve(state, n, gamma, 1.0, omega0, lam, coarse)
    basis, rhos = _integrate_scenario(n, omega0, lam, gamma, 1.0, state, coarse, 12)
    report = oracle.compare(traj_c, rhos, basis)
    assert report.max_distance < 1e-3
    print(
        f"ACCEPTANCE 2: PASS - purity drift {purity_err:.1e}, occupation drift "
        f"{occ_err:.1e}, oracle distance {report.max_distance:.2e}"
    )


def test_criterion_3_uniform_state_superdecays_at_collective_rate():
    gamma, alpha, omega0, lam = 1.0, 0.5, 1.0, 0.2
    rates = {}
    for n in (2, 3, 4):
        state = make_superposition([1.0], np.full((1, n), alpha))
        times = np.linspace(0.0, 1.0 / (n * gamma), 21)
        traj = collect(_evolve(state, n, gamma, 1.0, omega0, lam, times))
        slope = np.polyfit(traj.times, np.log(traj.total_occupation), 1)[0]
        fitted = -slope
        assert abs(fitted - n * gamma) < 1e-3 * n * gamma, f"n={n}: fitted {fitted}"
        rates[n] = fitted

    n = 2
    state = make_superposition([1.0], np.full((1, n), alpha))
    times = np.linspace(0.0, 0.5, 11)
    basis, rhos = _integrate_scenario(n, omega0, lam, gamma, 1.0, state, times, 10)
    occ = np.array([float(np.sum(mode_occupations(r, basis))) for r in rhos])
    fitted = -np.polyfit(times, np.log(occ), 1)[0]
    assert abs(fitted - n * gamma) < 0.01 * n * gamma
    print(
        "ACCEPTANCE 3: PASS - fitted collective rates "
        + ", ".join(f"{r:.4f} (n={n})" for n, r in rates.items())
        + f"; oracle fit {fitted:.4f} (n=2)"
    )


def test_criterion_4_decoherence_time_formula_vs_numeric():
    special = decoherence_time_formula(RSFamilySpec(n=2, r=1, s=0, alpha=1.0), 1.0, 0.7)
    assert special == 0.5

    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 20:
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        s = int(rng.integers(0, n - r + 1))
        if r == 0 and s == 0:
            continue
        alpha = float(rng.uniform(0.2, 1.2))
        eps = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.3, 2.5))
        spec = RSFamilySpec(n=n, r=r, s=s, alpha=alpha)
        expected = decoherence_time_formula(spec, gamma, (1.0 - eps) * gamma)
        if not math.isfinite(expected):
            continue
        state = make_rs_state(spec)
        times = np.linspace(0.0, 0.5 / gamma, 6)
        flow = label_flow(_degenerate_drift(n, gamma, eps, 1.0, 0.1))
        got = decoherence_time_numeric(flow, state, times[1] - times[0], gamma)
        rel = abs(got - expected) / expected
        worst = max(worst, rel)
        assert rel < 0.01, f"spec {(n, r, s, alpha, eps, gamma)}: {got} vs {expected}"
        checked += 1
    print(
        f"ACCEPTANCE 4: PASS - special case 0.5 exact; 20 random specs within "
        f"1% (worst {worst:.2e})"
    )


def test_criterion_5_dissipator_reduces_to_single_collective_channel():
    assert master_equation_reduction_check(2, gamma=1.0, epsilon=1.0, cutoff=3)
    assert master_equation_reduction_check(2, gamma_plus=1.7, gamma_minus=0.0, cutoff=3)
    with pytest.raises(ModelError):
        master_equation_reduction_check(2, gamma=1.0, epsilon=0.5, cutoff=3)
    print(
        "ACCEPTANCE 5: PASS - double-sum dissipator matches the single "
        "collective channel (common and distinct), partial correlation rejected"
    )


def test_criterion_6_collective_eigenvalue_of_balanced_states():
    cases = 0
    for n in range(2, 9):
        for r in range(0, n // 2 + 1):
            for eta in (0.0, 0.37, -0.2 + 0.4j):
                if r == 0 and eta == 0.0:
                    continue
                spec = RSFamilySpec(n=n, r=r, s=r, alpha=0.5, eta=eta)
                ok, eig = collective_lowering_eigencheck(make_rs_state(spec))
                assert ok, f"n={n} r={r}"
                expected = eta * (n - 2 * r) / math.sqrt(n)
                assert abs(eig - expected) < 1e-12
                if n == 2 * r:
                    assert abs(eig) < 1e-12
                elif eta != 0.0:
                    assert abs(eig) > 1e-12
                cases += 1
    print(f"ACCEPTANCE 6: PASS - eigenvalue eta*(n-2R)/sqrt(n) exact on {cases} cases")


def test_criterion_7_distinct_reservoir_matrix_structure():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        gp = float(rng.uniform(0.0, 3.0))
        gm = float(rng.uniform(0.0, gp)) if gp > 0 else 0.0
        g = decay_matrix_distinct(n, gp, gm).matrix
        assert np.max(np.abs(g.sum(axis=1) - gp)) < 1e-12
        eigs = np.sort(np.linalg.eigvalsh(g))
        expected = np.sort(np.concatenate([np.full(n - 1, gm), [gp]]))
        assert np.max(np.abs(eigs - expected)) < 1e-12
    g = decay_matrix_distinct(6, 1.3, 1.3).matrix
    assert np.max(np.abs(g - 1.3 * np.eye(6))) == 0.0
    print(
        "ACCEPTANCE 7: PASS - row sums, eigenvalue split, and vanishing cross "
        "channels at equal rates, all exact"
    )


def test_criterion_8_rate_sum_rule_and_decay_spectrum():
    rng = np.random.default_rng(88)
    for _ in range(30):
        n = int(rng.integers(1, 17))
        gamma = float(rng.uniform(0.0, 4.0))
        eps = float(rng.uniform(0.0, 1.0))
        gamma_down, gamma_up = (1.0 - eps) * gamma, (1.0 + (n - 1) * eps) * gamma
        assert abs(gamma_up + (n - 1) * gamma_down - n * gamma) < 1e-12
        eigs = np.sort(np.linalg.eigvalsh(decay_matrix_common(n, gamma, eps).matrix))
        expected = np.sort(np.concatenate([np.full(n - 1, gamma_down), [gamma_up]]))
        assert np.max(np.abs(eigs - expected)) < 1e-12
    print("ACCEPTANCE 8: PASS - rate sum rule and decay spectrum exact on 30 draws")


def test_criterion_9_closed_form_propagator_consistency():
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in range(2, 9):
        omega0 = float(rng.uniform(0.5, 3.0))
        lam = float(rng.uniform(-0.4, 0.4))
        gamma = float(rng.uniform(0.2, 1.5))
        eps = float(rng.uniform(0.0, 1.0))
        plus, minus = degenerate_modes(n, omega0, lam)
        flow = label_flow(_degenerate_drift(n, gamma, eps, omega0, lam))
        assert np.max(np.abs(propagator_closed_form(n, gamma, eps, plus, minus, 0.0) - np.eye(n))) < 1e-12
        for t in np.linspace(0.0, 10.0 / gamma, 9):
            # the labels of the identity are the columns of exp(t D)
            theta = flow(np.eye(n))(np.array([t]))[0].T
            diff = np.max(np.abs(propagator_closed_form(n, gamma, eps, plus, minus, float(t)) - theta))
            worst = max(worst, float(diff))
            assert diff < 1e-9, f"n={n} t={t}: {diff:.2e}"
        for t in (0.7, 4.2):
            theta = propagator_closed_form(n, 0.0, 0.0, plus, minus, t)
            assert np.max(np.abs(theta @ theta.conj().T - np.eye(n))) < 1e-12
    print(
        f"ACCEPTANCE 9: PASS - closed form vs matrix exponential within "
        f"{worst:.2e}; identity at t=0 and lossless unitarity exact"
    )
