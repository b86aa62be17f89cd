"""Protected-subspace classification and the collective-channel reduction."""

import math

import numpy as np
import pytest

from resonet import (
    ClassificationReport,
    CouplingProfile,
    ModelError,
    Regime,
    ReservoirKind,
    ReservoirSpec,
    RSFamilySpec,
    classify,
    collective_lowering_eigencheck,
    make_rs_state,
    make_superposition,
    master_equation_reduction_check,
)


def _white(epsilon, sigma=1.0):
    return ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=sigma, epsilon=epsilon)


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
    report = classify(make_rs_state(spec), spec, _white(1.0))
    assert report.is_dfs and report.is_rfs
    assert math.isinf(report.tau_d)
    assert report.effective_decay_rate == 0.0

    spec2 = RSFamilySpec(n=4, r=1, s=1, alpha=0.5, eta=0.4)
    report2 = classify(make_rs_state(spec2), spec2, _white(1.0))
    assert report2.is_dfs and not report2.is_rfs

    spec3 = RSFamilySpec(n=2, r=1, s=0, alpha=0.6)
    report3 = classify(make_rs_state(spec3), spec3, _white(1.0))
    assert not report3.is_dfs and not report3.is_rfs
    assert math.isfinite(report3.tau_d)


def test_classify_weak_correlation():
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    report = classify(make_rs_state(spec), spec, _white(0.4))
    assert not report.is_dfs
    single = make_superposition([1.0], np.array([[0.3, 0.3]]))
    report2 = classify(single, None, _white(0.4))
    assert report2.is_dfs and not report2.is_rfs


def test_classify_regime_preconditions():
    # The reservoir alone decides the regime, so no regime can disagree
    # with epsilon; what is left to reject is a reservoir without a
    # closed-form regime and inconsistent inputs.
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    state = make_rs_state(spec)
    assert classify(state, spec, _white(1.0 - 0.9e-6)).regime is Regime.COMMON_EPS1
    assert classify(state, spec, _white(1.0 - 1.1e-6)).regime is Regime.COMMON_EPS_SMALL
    assert classify(state, spec, _distinct(2.0, 0.5)).regime is Regime.DISTINCT_STRONG
    p = CouplingProfile(amplitude=1.0, centers=[10.5], widths=[100.0])
    profile = ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, profiles=(p, p))
    with pytest.raises(ModelError, match="profile reservoirs have no closed-form regime"):
        classify(state, spec, profile)
    with pytest.raises(ModelError):
        classify(state, spec, _distinct(0.0, 0.5))
    with pytest.raises(ModelError):
        classify(state, RSFamilySpec(n=3, r=1, s=1, alpha=0.6), _white(0.5))


def test_classify_distinct_collective():
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    state = make_rs_state(spec)
    report = classify(state, spec, _distinct(2.0, 0.0))
    assert report.is_dfs and report.is_rfs
    assert math.isinf(report.tau_d)
    # a residual gamma_minus spoils the single-channel picture
    report2 = classify(state, spec, _distinct(2.0, 1.0))
    assert not report2.is_dfs


def test_classify_distinct_with_gamma_minus_above_gamma_plus():
    # gamma_minus > gamma_plus is a valid (positive-semidefinite) reservoir;
    # the balanced pair decoheres at 2 |alpha|^2 (R+S) gamma_minus = 2.88.
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    report = classify(make_rs_state(spec), spec, _distinct(1.0, 2.0))
    assert abs(report.tau_d - 1.0 / 2.88) < 1e-12
    assert not report.is_dfs
    assert report.effective_decay_rate == 2.0


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
        report = classify(make_rs_state(spec), spec, _white(1.0))
        if report.is_rfs:
            assert report.is_dfs


def test_report_json_dict():
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    report = classify(make_rs_state(spec), spec, _white(1.0))
    d = report.to_json_dict()
    assert d["tau_d"] == "inf"
    assert d["is_dfs"] is True and d["is_rfs"] is True
    assert isinstance(d["lindblad_eigenvalue"], list) and len(d["lindblad_eigenvalue"]) == 2
    assert d["regime"] == "common_eps1"


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
