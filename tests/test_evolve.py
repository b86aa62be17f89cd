"""Label-space evolution: propagators, trajectories, decoherence times."""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from resonet import (
    CouplingProfile,
    DecayMatrix,
    ModelError,
    NetworkSpec,
    NumericalError,
    ReservoirKind,
    ReservoirSpec,
    RSFamilySpec,
    build_decay_matrix,
    decay_matrix_common,
    decoherence_time_numeric,
    degenerate_modes,
    degenerate_network,
    drift_matrix,
    expm,
    gram_matrix,
    label_flow,
    make_rs_state,
    make_superposition,
    observables,
    propagate_with,
    trajectory_to_csv,
)
from resonet import artifacts, evolve
from resonet.states import log_gram_matrix
from reference import Trajectory, collect, decoherence_time_formula, probe_flow, propagator_closed_form


def _degenerate_drift(n=2, gamma=1.0, eps=0.5, omega0=10.0, lam=0.5):
    return drift_matrix(degenerate_network(n, omega0, lam), decay_matrix_common(n, gamma, eps))


def _evolve(state, n=2, gamma=1.0, eps=0.5, omega0=10.0, lam=0.5, t_max=3.0, steps=30):
    """Evolve on the degenerate network in common white noise, as the CLI does."""
    flow = label_flow(_degenerate_drift(n, gamma, eps, omega0, lam))
    return collect(propagate_with(state, np.linspace(0.0, t_max, steps + 1), flow))


def _tau(state, n=2, gamma=1.0, eps=0.5, omega0=10.0, lam=0.5, t_max=3.0, steps=30, r=0, s=1):
    """Numeric decoherence time over _evolve's flow and first grid step, as the CLI does."""
    flow = label_flow(_degenerate_drift(n, gamma, eps, omega0, lam))
    times = np.linspace(0.0, t_max, steps + 1)
    return decoherence_time_numeric(flow, state, times[1] - times[0], gamma, r, s)


def _closed_form(t, n=2, gamma=1.0, eps=0.5, omega0=10.0, lam=0.5):
    plus, minus = degenerate_modes(n, omega0, lam)
    return propagator_closed_form(n, gamma, eps, plus, minus, t)


def _theta(flow, n, times):
    """Propagator stack exp(t D) read off a flow: the labels of the identity are its columns."""
    return np.swapaxes(flow(np.eye(n), np.asarray(times, dtype=float)), -1, -2)


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


def _random_network(rng, n):
    coupling = rng.normal(scale=0.3, size=(n, n))
    coupling = coupling + coupling.T
    np.fill_diagonal(coupling, 0.0)
    return NetworkSpec(omega=rng.uniform(1.0, 3.0, size=n), coupling=coupling)


def _random_drift(rng, n):
    spec = _random_network(rng, n)
    a = rng.normal(size=(n, n))
    return drift_matrix(spec, DecayMatrix(0.5 * a @ a.T / n))


def test_propagators_accept_a_scalar_or_a_time_array():
    # The closed form takes a scalar or a 1-D array of times; a flow takes a
    # 1-D array and gives the same labels as one call per time.
    rng = np.random.default_rng(31)
    times = np.linspace(0.0, 4.0, 7)
    stack = _closed_form(times, n=3, gamma=0.7, eps=0.4)
    assert stack.shape == (times.size, 3, 3)
    for t, theta in zip(times, stack):
        single = _closed_form(float(t), n=3, gamma=0.7, eps=0.4)
        assert single.shape == (3, 3)
        np.testing.assert_allclose(theta, single, rtol=0, atol=1e-15)
    flow = label_flow(_random_drift(rng, 3))
    beta = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    zeta = flow(beta, times)
    assert zeta.shape == (times.size, 4, 3)
    for t, labels in zip(times, zeta):
        np.testing.assert_allclose(labels, flow(beta, np.array([t]))[0], rtol=0, atol=1e-12)


def test_closed_form_identity_at_zero():
    np.testing.assert_allclose(_closed_form(0.0), np.eye(2), atol=1e-14)


def test_closed_form_unitary_without_damping():
    for t in (0.3, 1.7):
        theta = _closed_form(t, n=3, gamma=0.0, eps=0.0)
        np.testing.assert_allclose(theta @ theta.conj().T, np.eye(3), atol=1e-12)


def test_closed_form_equals_drift_exponential():
    rng = np.random.default_rng(29)
    for n in (2, 3, 5, 8):
        omega0 = float(rng.uniform(1.0, 5.0))
        lam = float(rng.uniform(-0.5, 0.5))
        gamma = float(rng.uniform(0.1, 2.0))
        eps = float(rng.uniform(0.0, 1.0))
        times = np.array([0.0, 0.4, 2.9])
        flow = label_flow(_degenerate_drift(n, gamma, eps, omega0, lam))
        np.testing.assert_allclose(
            _closed_form(times, n, gamma, eps, omega0, lam), _theta(flow, n, times), atol=1e-9
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_label_flow_matches_scipy_expm_on_random_networks(n):
    rng = np.random.default_rng(700 + n)
    profile = CouplingProfile(amplitude=1.0, centers=[2.0], widths=[0.5])
    sigma, eps, gamma_plus, gamma_minus = rng.uniform(0.2, 2.0, size=4)
    reservoirs = (
        ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=sigma, epsilon=eps / 2.0),
        ReservoirSpec(kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=gamma_plus, gamma_minus=gamma_minus),
        ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=sigma, profiles=(profile,) * n),
    )
    times = np.linspace(0.0, 3.0, 7)
    beta = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    for reservoir in reservoirs:
        net = _random_network(rng, n)
        drift = drift_matrix(net, build_decay_matrix(reservoir, net))
        want = np.array([beta @ scipy.linalg.expm(t * drift).T for t in times])
        got = label_flow(drift)(beta, times)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=reservoir.kind.value)


@pytest.mark.parametrize("eps", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("n", [2, 8, 50, 200])
def test_label_flow_matches_the_closed_form_on_degenerate_networks(n, eps):
    # The (n-1)-fold eigenvalue gets an orthonormal null-space basis; the
    # solver's own vectors there reach cond(V) ~ 1e5 at n = 200.
    drift = _degenerate_drift(n, 1.0, eps)
    assert evolve._eigenbasis(drift) is not None
    times = np.linspace(0.0, 5.0, 6)
    np.testing.assert_allclose(
        _theta(label_flow(drift), n, times), _closed_form(times, n, 1.0, eps), rtol=0, atol=1e-12
    )


def test_label_flow_falls_back_to_taylor_at_an_exceptional_point():
    # Detuning 0.5 against a cross rate 0.5 merges both eigenvalues into one
    # with a single eigenvector (a Jordan block): cond(V) ~ 1e7 from eig.
    net = NetworkSpec(omega=[10.0, 10.5], coupling=np.zeros((2, 2)))
    drift = drift_matrix(net, decay_matrix_common(2, 1.0, 0.5))
    assert evolve._eigenbasis(drift) is None
    times = np.linspace(0.0, 5.0, 11)
    want = np.array([scipy.linalg.expm(t * drift) for t in times])
    np.testing.assert_allclose(_theta(label_flow(drift), 2, times), want, rtol=0, atol=1e-12)


def test_trajectory_initial_point():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    traj = _evolve(state)
    assert abs(traj.purity[0] - 1.0) < 1e-12
    assert abs(traj.fidelity[0] - 1.0) < 1e-12
    np.testing.assert_allclose(traj.labels[0], state.labels, atol=1e-14)


def test_single_product_occupation_decay():
    # One coherent product in an uncorrelated reservoir: occupation decays at
    # exactly exp(-gamma t) and purity stays 1.
    gamma = 0.8
    state = make_superposition([1.0], np.array([[0.7, -0.3 + 0.2j]]))
    traj = _evolve(state, gamma=gamma, eps=0.0)
    n0 = np.sum(np.abs(state.labels[0]) ** 2)
    np.testing.assert_allclose(
        traj.total_occupation, n0 * np.exp(-gamma * traj.times), atol=1e-12
    )
    np.testing.assert_allclose(traj.purity, 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.coeffs[:, 0, 0], 1.0, atol=1e-12)


def test_balanced_state_protected_at_full_correlation():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    traj = _evolve(state, eps=1.0, t_max=10.0, steps=100)
    np.testing.assert_allclose(traj.purity, 1.0, atol=1e-9)
    np.testing.assert_allclose(traj.total_occupation, traj.total_occupation[0], atol=1e-9)


def test_unbalanced_state_decoheres():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=0, alpha=0.6, eta=0.0))
    traj = _evolve(state, eps=1.0, t_max=3.0)
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
        got = _tau(state, n=n, gamma=gamma, eps=eps, t_max=1.0, steps=10)
        assert abs(got - expected) < 0.01 * expected


def test_decoherence_numeric_infinite_for_protected():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    assert math.isinf(_tau(state, eps=1.0))


def test_decoherence_numeric_argument_checks():
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    with pytest.raises(ModelError):
        _tau(state, r=0, s=0)
    with pytest.raises(ModelError):
        _tau(state, r=0, s=5)
    with pytest.raises(ModelError, match="positive first grid step"):
        decoherence_time_numeric(label_flow(_degenerate_drift()), state, 0.0, 1.0)


def test_propagator_shape_rejected():
    # A flow must return one (terms, n) label array per time.
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    with pytest.raises(ModelError, match="label flow returned shape"):
        collect(propagate_with(state, [0.0, 0.1], lambda beta, t: beta))


def test_trace_abort_on_overflowing_propagator():
    # An exploding propagator drives the branch overlap to underflow; the
    # reconstructed trace turns non-finite and the run must abort.
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    with pytest.raises(NumericalError):
        collect(propagate_with(state, [0.0, 1.0], lambda beta, t: (1.0 + 29.0 * t)[:, None, None] * beta))


def test_trace_abort_names_first_failing_time_inside_a_block(monkeypatch):
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    times = np.linspace(0.0, 1.0, 100)
    bad = times[45]  # in the second block of 32 or 40, neither its first nor its last point
    for block in (32, 40, 100):
        # 2 terms on 2 resonators: 8 elements per grid point.
        monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", 8 * block)
        calls = []

        def flow(beta, t):
            calls.append(t.size)
            return np.where(t >= bad, 30.0, 1.0)[:, None, None] * beta

        with pytest.raises(NumericalError, match=f"at t = {bad:g};"):
            collect(propagate_with(state, times, flow))
        # no block after the failing one is evolved
        assert calls == ([block, block] if block < 100 else [100])


def _counting_cross_gram(monkeypatch):
    """Calls of evolve.gram_matrix (the overlaps <beta_r|zeta_s(t)> behind the fidelity), one entry per call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return gram_matrix(*args)

    monkeypatch.setattr(evolve, "gram_matrix", counted)
    return calls


def _counting_self_gram(monkeypatch):
    """Shapes of the label stacks evolve.log_gram_matrix is called on, one entry per call that forms coefficients."""
    shapes = []

    def counted(labels_a, labels_b=None):
        if np.ndim(labels_a) == 3:
            shapes.append(np.shape(labels_a))
        return log_gram_matrix(labels_a, labels_b)

    monkeypatch.setattr(evolve, "log_gram_matrix", counted)
    return shapes


def test_observables_are_computed_only_when_read(monkeypatch):
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    times = np.linspace(0.0, 1.0, 20)
    flow = label_flow(_degenerate_drift())
    # 2 terms on 2 resonators: 8 elements per grid point, so 4 blocks of 5 times
    monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", 8 * 5)
    whole = collect(propagate_with(state, times, flow))
    calls = _counting_cross_gram(monkeypatch)
    formed = _counting_self_gram(monkeypatch)
    for last in propagate_with(state, times, flow):
        pass
    # draining the stream forms no coefficients and no observables
    assert calls == [] and formed == []
    final = observables(last, -1)
    # the final record forms coefficients for its one time only
    assert len(calls) == 1 and formed == [(1, 2, 2)]
    assert final["fidelity_to_initial"] == whole.fidelity[-1] and final["purity"] == whole.purity[-1]
    assert final["mean_occupation"] == whole.occupations[-1].tolist()
    assert final["total_occupation"] == whole.total_occupation[-1] and final["time"] == 1.0
    formed.clear()
    assert last.purity[-1] == last.purity[-1] == final["purity"]  # a block keeps what it computed
    assert formed == [(5, 2, 2)]
    calls.clear()
    formed.clear()
    records = [observables(block, 0) for block in propagate_with(state, times, flow)]
    assert len(records) == 4 and len(calls) == 4 and formed == [(1, 2, 2)] * 4
    assert [r["purity"] for r in records] == whole.purity[::5].tolist()


def test_trace_abort_does_not_wait_for_observables(monkeypatch):
    # The flow turns NaN in block 2 of 4; no block's observables are read.
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    times = np.linspace(0.0, 1.0, 20)
    monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", 8 * 5)
    calls = _counting_cross_gram(monkeypatch)

    def flow(beta, t):
        return np.where(t >= times[5], np.nan, 1.0)[:, None, None] * beta

    blocks = []
    with pytest.raises(NumericalError, match=f"at t = {times[5]:g};"):
        for block in propagate_with(state, times, flow):
            blocks.append(block.times)
    assert len(blocks) == 1 and calls == []


@pytest.mark.parametrize(
    "times, first",
    [
        (np.linspace(0.0, 2.0, 201), 0.01),
        # (1 + t/2)^2 passes 1 + 1e-6 between t = 9.9e-7 and 1.1e-6
        (np.array([0.0, 1e-7, 5e-7, 9.9e-7, 1.1e-6, 1e-3, 2.0]), 1.1e-6),
    ],
)
def test_label_guard_stops_a_flow_that_grows_the_labels(times, first):
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    blocks = []
    with pytest.raises(NumericalError, match=f"outgrew .* at t = {first:g};"):
        for block in propagate_with(state, times, probe_flow(2)):
            blocks.append(block.times)
    # the guard fires before the block holding the first failing time is yielded
    assert all(t < first for b in blocks for t in b)


def test_trace_check_runs_when_coefficients_are_formed():
    # Pair data that no longer matches the state puts the trace at 2 from t = 0;
    # the stream cannot tell, the coefficients can.
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    (block,) = propagate_with(state, np.linspace(0.0, 1.0, 5), label_flow(_degenerate_drift()))
    broken = dataclasses.replace(block, _w_outer=2.0 * block._w_outer)
    for read in ("coeffs", "occupations", "purity", "fidelity"):
        with pytest.raises(NumericalError, match="trace left 1 by 1.000e[+]00 at t = 0;"):
            getattr(broken, read)
    with pytest.raises(NumericalError, match="at t = 0.75;"):
        observables(broken, -2)
    assert np.all(np.isfinite(block.coeffs))


def _unphysical(weights, delta):
    """A valid block and one whose pair data N^2 w conj(w)^T + delta diag(1, -1) keeps
    the trace at 1 (every <zeta_r|zeta_r> = 1) but describes no density matrix."""
    state = make_superposition(np.array(weights), np.array([[1.0, 0.0], [0.0, 0.5j]]))
    (block,) = propagate_with(state, np.linspace(0.0, 1.0, 5), label_flow(_degenerate_drift()))
    return block, dataclasses.replace(block, _w_outer=block._w_outer + delta * np.diag([1.0, -1.0]))


def test_observables_outside_their_physical_bounds_raise():
    block, broken = _unphysical([1.0, 2.0], -0.3)
    trace = np.sum(broken.coeffs * np.swapaxes(gram_matrix(broken.labels), -1, -2), axis=(-2, -1))
    np.testing.assert_allclose(trace, 1.0, rtol=0, atol=1e-12)
    for read, message in (
        ("purity", "purity 1.308[0-9]* exceeds 1"),
        ("fidelity", "fidelity 1.089[0-9]* leaves \\[0, 1\\]"),
        ("occupations", "occupation -1.600e-01 is negative"),
    ):
        with pytest.raises(NumericalError, match=f"{message} at t = 0;"):
            getattr(broken, read)
        getattr(block, read)  # the valid block is within every bound
    with pytest.raises(NumericalError, match="at t = 0.75;"):
        observables(broken, -2)
    # equal weights: the occupations leave their bound first at the second time
    _, broken = _unphysical([1.0, 1.0], 0.3)
    with pytest.raises(NumericalError, match="occupation -2.37[0-9]e-03 is negative at t = 0.25;"):
        broken.occupations


def _growth(state, times, drift):
    """Largest relative growth max |zeta_r(t)|^2 / |beta_r|^2 - 1 of a drift's flow; the stream must accept it."""
    traj = collect(propagate_with(state, times, label_flow(drift)))
    assert np.all(np.isfinite(traj.purity)) and np.all(np.isfinite(traj.fidelity))
    beta2 = np.sum(np.abs(state.labels) ** 2, axis=-1)
    zeta2 = np.sum(np.abs(traj.labels) ** 2, axis=-1)
    return float(np.max(zeta2[:, beta2 > 0] / beta2[beta2 > 0] - 1.0))


def test_label_guard_has_headroom_on_valid_flows():
    # Every label flow of a positive-semidefinite Gamma contracts the labels;
    # rounding lets them grow by at most 6.7e-12 here, far below the guard's 1e-6.
    rng = np.random.default_rng(4242)
    profile = CouplingProfile(amplitude=1.0, centers=[2.0], widths=[0.5])
    growth = []
    for n in range(2, 7):
        for _ in range(4):
            terms = int(rng.integers(1, 6))
            labels = rng.uniform(0.1, 2.0) * (rng.normal(size=(terms, n)) + 1j * rng.normal(size=(terms, n)))
            state = make_superposition(rng.normal(size=terms) + 1j * rng.normal(size=terms), labels)
            sigma, eps, gamma_plus, gamma_minus = rng.uniform(0.2, 2.0, size=4)
            for reservoir in (
                ReservoirSpec(kind=ReservoirKind.COMMON_WHITE_NOISE, sigma=sigma, epsilon=eps / 2.0),
                ReservoirSpec(
                    kind=ReservoirKind.DISTINCT_STRONG_COUPLING, gamma_plus=gamma_plus, gamma_minus=gamma_minus
                ),
                ReservoirSpec(kind=ReservoirKind.COMMON_PROFILE, sigma=sigma, profiles=(profile,) * n),
            ):
                net = _random_network(rng, n)  # detuned: random frequencies in [1, 3]
                times = np.linspace(0.0, float(rng.uniform(1.0, 20.0)), 301)
                growth.append(_growth(state, times, drift_matrix(net, build_decay_matrix(reservoir, net))))
    # Near the exceptional point of Gamma = diag(1, 0) with coupling g = gamma / 4,
    # and on the Taylor fallback exactly there.
    state = make_rs_state(RSFamilySpec(n=2, r=1, s=1, alpha=0.6))
    for offset in (-1e-7, -3e-8, -1e-8, 0.0, 1e-8, 3e-8, 1e-7):
        g = 0.25 + offset
        net = NetworkSpec(omega=[10.0, 10.0], coupling=[[0.0, g], [g, 0.0]])
        drift = drift_matrix(net, DecayMatrix(np.diag([1.0, 0.0])))
        assert (evolve._eigenbasis(drift) is None) is (offset == 0.0)
        growth.append(_growth(state, np.linspace(0.0, 40.0, 401), drift))
    # white noise at full correlation, Gamma t_max = 1e4: the protected modes never decay
    for n in (2, 6):
        state = make_rs_state(RSFamilySpec(n=n, r=1, s=1, alpha=0.8))
        growth.append(_growth(state, np.linspace(0.0, 1e4, 4001), _degenerate_drift(n, 1.0, 1.0)))
    assert max(growth) < 1e-9


def test_block_size_does_not_change_the_trajectory(monkeypatch):
    rng = np.random.default_rng(2024)
    n, terms = 4, 5
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    labels = 0.7 * (rng.normal(size=(terms, n)) + 1j * rng.normal(size=(terms, n)))
    state = make_superposition(weights, labels)
    times = np.linspace(0.0, 3.0, 50)
    flow = label_flow(_random_drift(rng, n))
    per_point = terms * (n + terms)
    runs = {}
    # one-point blocks, 7-point blocks (the last one holds 1), one block for the whole grid
    for block in (1, 7, times.size):
        monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", block * per_point)
        runs[block] = collect(propagate_with(state, times, flow))
    for block in (1, 7):
        for name in ("labels", "coeffs", "occupations", "purity", "fidelity"):
            np.testing.assert_allclose(
                getattr(runs[block], name), getattr(runs[times.size], name), rtol=0, atol=1e-13, err_msg=name
            )


def test_sweep_sized_grid_takes_four_flow_calls():
    # The sweep benchmark's problem: n = 6, 2 terms, 4,001 points.  A 16 Ki
    # element budget over 2 * (6 + 2) elements per point gives 1,024-point
    # blocks; 32-point blocks took 126 calls.
    state = make_rs_state(RSFamilySpec(n=6, r=3, s=3, alpha=0.7))
    inner = label_flow(_degenerate_drift(n=6, eps=0.5))
    sizes = []

    def flow(beta, t):
        sizes.append(t.size)
        return inner(beta, t)

    traj = collect(propagate_with(state, np.linspace(0.0, 5.0, 4001), flow))
    assert len(sizes) == math.ceil(4001 / 1024) == 4
    assert sizes == [1024, 1024, 1024, 929]
    assert np.all(np.isfinite(traj.purity))


def test_label_stream_memory_does_not_grow_with_the_grid():
    # Only the block being worked on is held.  Kept whole, the longer grid's
    # labels and coefficients would take 10001 * 6 * (8 + 6) * 16 = 13 MB;
    # streamed, the peak rises by less than one block-sized complex array
    # (the grid's own frozen copy costs 8 bytes a time).
    rng = np.random.default_rng(5)
    n, terms = 8, 6
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    labels = 0.3 * (rng.normal(size=(terms, n)) + 1j * rng.normal(size=(terms, n)))
    state = make_superposition(weights, labels)
    flow = label_flow(_degenerate_drift(n=n))
    peaks = []
    for points in (1001, 10001):
        times = np.linspace(0.0, 5.0, points)
        tracemalloc.start()
        try:
            for block in propagate_with(state, times, flow):
                assert np.all(np.isfinite(block.purity))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * evolve._BLOCK_ELEMENTS


def test_well_separated_cat_keeps_unit_trace():
    # exp(-1152) underflows to 0, so overlap ratios formed from two Gram
    # matrices turn into 0/0; the log-domain coefficients stay finite.
    state = make_rs_state(RSFamilySpec(n=4, r=4, s=0, alpha=12.0))
    for eps in (0.0, 1.0):
        traj = _evolve(state, n=4, eps=eps, steps=40)
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
        traj = _evolve(state, n=n, gamma=float(rng.uniform(0.5, 2.0)), eps=float(rng.uniform()), steps=30)
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


def _per_point_reference(state, times, flow):
    """The per-time-point loop the batched propagation replaced, kept as its reference."""
    beta = np.asarray(state.labels)
    weights = np.asarray(state.weights)
    w_outer = state.norm_factor**2 * np.outer(weights, weights.conj())
    g0 = gram_matrix(beta)
    labels, coeffs, occ, purity, fid = [], [], [], [], []
    for t in times:
        zeta = flow(beta, np.array([t]))[0]
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
        eps = float(rng.uniform())
        d = _degenerate_drift(n, 0.8, eps)
        theta = lambda t: _closed_form(t, n, 0.8, eps)  # noqa: E731
    else:
        d = _random_drift(rng, n)
        theta = lambda t: np.array([scipy.linalg.expm(s * d) for s in t])  # noqa: E731
    ref = _per_point_reference(state, times, lambda beta, t: beta @ np.swapaxes(theta(t), -1, -2))
    traj = collect(propagate_with(state, times, label_flow(d)))
    for name, want in ref.items():
        np.testing.assert_allclose(getattr(traj, name), want, rtol=1e-12, atol=1e-12, err_msg=name)


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
    # [0, -1] used to give a trajectory whose numeric decoherence time came
    # out as 1.07, not 1/0.72.
    spec = RSFamilySpec(n=2, r=1, s=1, alpha=0.6)
    with pytest.raises(ModelError, match=message):
        propagate_with(make_rs_state(spec), times, label_flow(_degenerate_drift()))


def test_csv_round_trip():
    state = make_rs_state(RSFamilySpec(n=3, r=1, s=1, alpha=0.5))
    traj = _evolve(state, n=3, steps=5)
    buf = io.StringIO()
    for _ in trajectory_to_csv([traj], buf):
        pass
    text = buf.getvalue()
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
    traj = _evolve(state, eps=0.7)
    assert np.all(traj.purity <= 1.0 + 1e-10)
    assert abs(traj.purity[0] - 1.0) < 1e-12
    assert abs(traj.fidelity[0] - 1.0) < 1e-12


def _per_value_csv(traj):
    """The per-value f-string formatter that single-% rows replaced, kept as their reference."""
    _, terms, n = traj.labels.shape
    pairs = [(a, b) for a in range(terms) for b in range(a + 1, terms)]
    header = (
        ["time"]
        + [f"occ_{m + 1}" for m in range(n)]
        + ["occ_total", "purity", "fidelity"]
        + [f"coh_{a}_{b}" for a, b in pairs]
    )
    lines = [",".join(header)]
    for i in range(traj.times.size):
        row = [f"{traj.times[i]:.9g}"]
        row += [f"{x:.9g}" for x in traj.occupations[i]]
        row += [
            f"{traj.total_occupation[i]:.9g}",
            f"{traj.purity[i]:.9g}",
            f"{traj.fidelity[i]:.9g}",
        ]
        row += [f"{abs(traj.coeffs[i][a, b]):.9g}" for a, b in pairs]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _streamed_csv(traj):
    """The CSV text and the number of pieces it was written in (one write is the header)."""
    out = _CountingWriter()
    for _ in trajectory_to_csv([traj], out):
        pass
    return out.getvalue(), out.writes - 1


def test_csv_rows_match_the_per_value_formatter(monkeypatch):
    state = make_rs_state(RSFamilySpec(n=3, r=1, s=1, alpha=0.5))
    traj = _evolve(state, n=3, steps=40)
    # inf, nan, -0.0 and subnormals, in every kind of column
    occupations = np.array([[np.inf, -0.0], [np.nan, 5e-324], [1.0 / 3.0, -2.5e-310]])
    coeffs = np.zeros((3, 3, 3), dtype=complex)
    coeffs[:, 0, 1] = [np.inf, complex(np.nan, 1.0), 5e-324]
    coeffs[:, 0, 2] = [-0.0, 1e300j, 0.1 + 0.2j]
    coeffs[:, 1, 2] = [complex(-0.0, -0.0), 2.2e-308, complex(3.0, -np.inf)]
    odd = Trajectory(
        times=np.array([-0.0, 1e-320, 2.5]),
        labels=np.zeros((3, 3, 2), dtype=complex),
        coeffs=coeffs,
        occupations=occupations,
        purity=np.array([-0.0, np.inf, 2.2e-308]),
        fidelity=np.array([np.nan, 1.0, -np.inf]),
    )
    # Pieces follow _blocks: whole rows (3 of 8 columns at budget 30), and at
    # budget 1 each upper-triangle coefficient row of its own, the odd table's
    # empty last one skipped (2 pieces per row).
    for budget, pieces_41, pieces_odd in ((evolve._BLOCK_ELEMENTS, 1, 1), (30, 14, 1), (1, 41, 6)):
        monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", budget)
        text, pieces = _streamed_csv(traj)
        assert text == _per_value_csv(traj) and pieces == pieces_41
        text, pieces = _streamed_csv(odd)
        assert text == _per_value_csv(odd) and pieces == pieces_odd
        assert "inf" in text and "nan" in text and "-0" in text and "4.94065646e-324" in text


def _kernel_values(rng):
    """About 1e6 floats, a multiple of 7, that reach every branch of the CSV kernel (artifacts._g9), in random order.

    Next to a power of ten floor(log10) is one off (21 values here), and
    those go to the "%.9g" fallback with the ties and the values outside
    fixed notation.
    """
    powers = 10.0 ** np.arange(-12, 14)
    # exact ties: odd multiples of 2^(E - 9) in [10^E, 10^(E+1)) carry a 5 in the tenth significant digit
    exact = np.concatenate(
        [
            (2 * rng.integers(int(10.0**E * 2 ** (8 - E)), int(10.0 ** (E + 1) * 2 ** (8 - E)), 3000) + 1)
            / 2.0 ** (9 - E)
            for E in range(-4, 9)
        ]
    )
    near = ((rng.integers(10**8, 10**9, (16, 2000)) + 0.5) * 10.0 ** np.arange(-14, 2)[:, None]).ravel()
    values = np.concatenate(
        [
            # fixed notation, the fast path, with random mantissas
            rng.uniform(1.0, 10.0, 700_000) * 10.0 ** rng.integers(-5, 10, 700_000),
            # exponents across the double range, subnormals included
            np.ldexp(rng.uniform(0.5, 1.0, 50_000), rng.integers(-1074, 1024, 50_000)),
            *(np.nextafter(np.nextafter(powers, to), to) for to in (0.0, np.inf)),
            *(np.nextafter(powers, to) for to in (0.0, np.inf)),
            powers,
            *(np.nextafter(x, to) for x in (exact, near) for to in (0.0, np.inf)),
            exact,
            near,
            rng.integers(-(10**10), 10**10, 50_000).astype(float),
            np.arange(10_001.0),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        ]
    )
    values *= rng.choice([-1.0, 1.0], values.size)
    rng.shuffle(values)
    return values[: values.size // 7 * 7]


def test_csv_kernel_matches_the_percent_formatter():
    # Chunks of random sizes begin and end at every column of the 7-column rows.
    rng = np.random.default_rng(19)
    values = _kernel_values(rng)
    assert values.size >= 10**6
    starts = np.sort(rng.integers(0, values.size, 3000))
    chunks = zip(np.concatenate([[0], starts]), np.split(values, starts))
    text = "".join(artifacts._g9(chunk, start % 7, 7) for start, chunk in chunks if chunk.size)
    row = ",".join(["%.9g"] * 7) + "\n"
    if text != "".join(row % tuple(r) for r in values.reshape(-1, 7).tolist()):
        got = text.replace("\n", ",").split(",")
        bad = next(i for i, v in enumerate(values.tolist()) if got[i] != "%.9g" % v)
        pytest.fail(f"{values[bad]!r} gave {got[bad]!r}, not {'%.9g' % values[bad]!r}")
