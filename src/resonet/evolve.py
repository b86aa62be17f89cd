"""Dissipative evolution of coherent-state superpositions in label space.

For a quadratic resonator Hamiltonian with zero-temperature damping, a
superposition of coherent products stays a superposition of coherent
products: each label vector flows linearly, zeta_r(t) = exp(t D) beta_r with
the drift D = -i W - Gamma / 2, and each pair of terms picks up the exact
coefficient

    c_rs(t) = N^2 * w_r * conj(w_s) * <beta_s|beta_r> / <zeta_s|zeta_r>

multiplying |zeta_r><zeta_s|.  label_flow gives that flow for every network
and reservoir from one eigendecomposition of D (Moler & Van Loan, SIAM
Review 45, 2003, method 14, with a Taylor fallback, method 3).

All observables (occupations, purity, fidelity) are evaluated from the label
Gram matrices, never from a truncated Fock expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Optional, TextIO

import numpy as np

from .errors import _BYTE_BUDGET, _TRACE_ABORT, ModelError, NumericalError, _sci
from .network import _CLUSTER_RTOL, clusters
from .states import SuperpositionState, gram_matrix, log_gram_matrix

__all__ = [
    "Block",
    "expm",
    "label_flow",
    "propagate_with",
    "decoherence_time_numeric",
    "observables",
    "trajectory_to_csv",
]

# Elements per block (see _blocks): propagate_with takes max(1,
# _BLOCK_ELEMENTS // elements per point) grid points at a time, and the same
# rule cuts the pieces of CSV text trajectory_to_csv formats at once and the
# chunks of SVG points, so the Python overhead is paid once per block while a
# block's temporaries stay a few hundred KiB.
_BLOCK_ELEMENTS = 16 * 1024

# Bytes a run holds per term pair (terms^2) at one grid time: a block's
# terms x terms arrays.  Measured with tracemalloc as the slope of an `evolve`
# run's peak traced memory against terms^2 (n = 2 and 8, 300 to 600 terms,
# one time per block).
_TERM_PAIR_BYTES = 178

# Physical bounds on the observables, with this much room for rounding:
# purity <= 1, fidelity in [0, 1], occupations >= 0 (relative to max(1, total)).
_BOUND_SLACK = 1e-9

# An eigenvector matrix conditioned worse than this loses too many digits to
# V^-1; label_flow then uses the Taylor expm instead.
_COND_MAX = 1e4

# Labels (terms, n) and a 1-D array of T times -> the (T, terms, n) labels at those times.
LabelFlow = Callable[[np.ndarray, np.ndarray], np.ndarray]


def check_terms(terms: int) -> None:
    """Reject a state whose terms would need more than the byte budget at one grid time."""
    need = _TERM_PAIR_BYTES * terms * terms
    if need > _BYTE_BUDGET:
        raise ModelError(
            f"{terms} terms need {_sci(need)} bytes per grid time, over the {_sci(_BYTE_BUDGET)}-byte budget"
        )


def _blocks(points: int, per_point: int) -> Iterator[slice]:
    """Consecutive slices of range(points), max(1, _BLOCK_ELEMENTS // per_point) long."""
    size = max(1, _BLOCK_ELEMENTS // per_point)
    return (slice(start, start + size) for start in range(0, points, size))


def _require(ok: np.ndarray, times: np.ndarray, failure: Callable[[int], str]) -> None:
    """Raise NumericalError naming the first time where ok is False, described by failure(index)."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise NumericalError(f"{failure(i)} at t = {times[i]:g}; the label evolution is no longer trustworthy")


def _check_grid(times: np.ndarray) -> None:
    """A time grid is nonempty, starts at 0 and increases strictly."""
    if times.size == 0 or times[0] != 0.0:
        raise ModelError("time grid must start at 0")
    if np.any(np.diff(times) <= 0.0):
        raise ModelError("time grid must be strictly increasing")


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor kernel.

    The argument is a square matrix or a stack of them (leading axes).  It is
    halved until the largest 1-norm in the stack is at most 0.5, where a
    20-term Taylor sum is accurate to well below double rounding, then the
    result is squared back up; every matrix of a stack gets the same number
    of squarings.  Fully deterministic.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ModelError("expm expects a square matrix or a stack of them")
    norm = float(np.max(np.sum(np.abs(a), axis=-2), initial=0.0))
    if not math.isfinite(norm):
        raise ModelError("expm argument must be finite")
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    b = a / (2.0**squarings)
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 21):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _eigenbasis(d: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigenvalues lam, eigenvectors V and V^-1 of d, or None if V is unusable.

    Each cluster of eigenvalues (network.clusters) shares its mean value,
    and its vectors are replaced by an orthonormal basis of the null space
    of d - mean * I: on degenerate networks the solver's own vectors are
    nearly dependent.  None when a cluster's null space is smaller than the
    cluster (d is defective there) or cond(V) exceeds _COND_MAX.
    """
    n = d.shape[0]
    lam, v = np.linalg.eig(d)
    group = clusters(lam)
    for g in np.unique(group):
        members = np.flatnonzero(group == g)
        if members.size == 1:
            continue
        mean = lam[members].mean()
        _, sv, vh = np.linalg.svd(d - mean * np.eye(n))
        if sv[-members.size] > _CLUSTER_RTOL * max(sv[0], abs(mean)):
            return None
        lam[members] = mean
        v[:, members] = vh[-members.size :].conj().T
    u, sv, wh = np.linalg.svd(v)
    if sv[0] > _COND_MAX * sv[-1]:
        return None
    return lam, v, (wh.conj().T / sv) @ u.conj().T


def label_flow(drift: np.ndarray) -> LabelFlow:
    """The linear flow zeta(t) = exp(t D) beta of coherent labels under a drift D (see network.drift_matrix).

    D is factorised once, D = V diag(lam) V^-1 (see _eigenbasis), and the
    returned flow(beta, t) maps labels beta (terms, n) and a 1-D array of T
    times to zeta = (exp(lam t) * beta V^-T) V^T, of shape (T, terms, n),
    without forming exp(t D).  When the eigenvectors are unusable it takes
    zeta = beta exp(t D)^T with the Taylor expm of the stack t D instead.
    """
    d = np.asarray(drift)
    basis = _eigenbasis(d)
    if basis is None:

        def flow(beta: np.ndarray, t: np.ndarray) -> np.ndarray:
            theta = expm(d * np.asarray(t, dtype=float)[:, None, None])
            return np.asarray(beta) @ np.swapaxes(theta, -1, -2)

        return flow
    lam, v, v_inv = basis

    def flow(beta: np.ndarray, t: np.ndarray) -> np.ndarray:
        modes = np.asarray(beta) @ v_inv.T
        evolved = np.exp(np.multiply.outer(np.asarray(t, dtype=float), lam))[:, None, :] * modes
        # One gemm over the stacked rows: a batched matmul against a shared
        # matrix makes one BLAS call per time.
        return (evolved.reshape(-1, lam.size) @ v.T).reshape(evolved.shape)

    return flow


@dataclass(frozen=True, eq=False)
class Block:
    """Label-space evolution on a run of consecutive grid times.

    labels[i, r] is the coherent label of term r at times[i].  The rest is
    computed when first read and then kept: coeffs[i], the pair-coefficient
    matrix (entry (r, s) multiplies |zeta_r><zeta_s|) formed with the
    stream's shared pair data _log_g0_t = log G_0^T and _w_outer =
    N^2 w conj(w)^T, and the observables (occupations, purity, fidelity).
    Forming the coefficients checks the trace, the sum of c * G^T, and
    raises NumericalError at the first time it leaves 1 by more than 1e-6;
    as that sum equals N^2 w conj(w)^T * G_0^T up to rounding whatever the
    labels are, it catches only non-finite or overflowed coefficients.
    Each observable is checked against its physical bound when formed:
    purity <= 1, fidelity in [0, 1] and every occupation >= 0, each up to
    _BOUND_SLACK (relative to max(1, total occupation) for occupations), so
    coefficients that describe no density matrix raise NumericalError at
    the first time that breaks a bound.
    """

    times: np.ndarray
    labels: np.ndarray
    _log_g0_t: np.ndarray = field(repr=False)
    _w_outer: np.ndarray = field(repr=False)
    _state: SuperpositionState = field(repr=False)

    @cached_property
    def _formed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """coeffs, the transposed Gram matrices G^T[i, r, s] = <zeta_s|zeta_r> and the pair matrix c * G^T."""
        log_gt_t = np.swapaxes(log_gram_matrix(self.labels), -1, -2)
        gt_t = np.exp(log_gt_t)
        # An exploding flow overflows coeff; the trace check below is the arbiter.
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = np.exp(self._log_g0_t - log_gt_t)
            coeff *= self._w_outer
            m = coeff * gt_t
            trace = m.sum(axis=(-2, -1))
        drift = np.abs(trace - 1.0)
        _require(drift <= _TRACE_ABORT, self.times, lambda i: f"trace left 1 by {drift[i]:.3e}")
        return coeff, gt_t, m

    @property
    def coeffs(self) -> np.ndarray:
        return self._formed[0]

    @cached_property
    def occupations(self) -> np.ndarray:
        zeta = self.labels
        occ = (zeta * (self._formed[2] @ zeta.conj())).sum(axis=-2).real
        low = occ.min(axis=-1)
        ok = low >= -_BOUND_SLACK * np.maximum(1.0, occ.sum(axis=-1))
        _require(ok, self.times, lambda i: f"occupation {low[i]:.3e} is negative")
        return occ

    @cached_property
    def purity(self) -> np.ndarray:
        coeff, gt_t, _ = self._formed
        cg = coeff @ np.swapaxes(gt_t, -1, -2)
        purity = (cg * np.swapaxes(cg, -1, -2)).sum(axis=(-2, -1)).real
        _require(purity <= 1.0 + _BOUND_SLACK, self.times, lambda i: f"purity {purity[i]:.9g} exceeds 1")
        return purity

    @cached_property
    def fidelity(self) -> np.ndarray:
        terms = self._state.num_terms
        # w_in[t, s] = N sum_r conj(w_r) <beta_r|zeta_s(t)>, one gemv over the stacked rows
        g_in = np.swapaxes(gram_matrix(self._state.labels, self.labels), -1, -2).reshape(-1, terms)
        w_in = self._state.norm_factor * (g_in @ self._state.weights.conj()).reshape(-1, terms)
        fidelity = (w_in * (self.coeffs @ w_in.conj()[..., None])[..., 0]).sum(axis=-1).real
        ok = (fidelity >= -_BOUND_SLACK) & (fidelity <= 1.0 + _BOUND_SLACK)
        _require(ok, self.times, lambda i: f"fidelity {fidelity[i]:.9g} leaves [0, 1]")
        return fidelity

    @property
    def total_occupation(self) -> np.ndarray:
        return self.occupations.sum(axis=1)

    def at(self, index: int) -> Block:
        """The one-time Block at times[index]: views of this block's arrays, nothing computed carried over."""
        i = range(self.times.size)[index]
        return replace(self, times=self.times[i : i + 1], labels=self.labels[i : i + 1])


def propagate_with(state: SuperpositionState, times, flow: LabelFlow) -> Iterator[Block]:
    """Evolve a state along a label flow (see label_flow), one Block at a time.

    The time grid must be nonempty, start at 0 and increase strictly; it is
    checked before anything is evolved.  It is processed in blocks of
    max(1, _BLOCK_ELEMENTS // (terms * (n + terms))) consecutive times: the
    flow is called once per block with the state's labels and a 1-D array of
    T times and must return the (T, terms, n) stack of evolved labels, which
    are checked and yielded as a Block.  Its pair coefficients and
    observables are formed only when read (see Block): `evolve`'s CSV and
    `oracle-compare` read every block's coefficients, `sweep` those of its
    final time.  Only the block being worked on is held, so memory does not
    grow with the grid.  The pair coefficients are built in the log domain,
    c_rs = N^2 w_r conj(w_s) exp(log<beta_s|beta_r> - log<zeta_s|zeta_r>),
    so overlaps that underflow on their own still give finite coefficients.

    Before a block is yielded its labels must be finite and keep
    |zeta_r(t)|^2 <= |beta_r|^2 (1 + 1e-6), the contraction a positive
    semidefinite Gamma guarantees (d|zeta|^2/dt = -zeta^H Gamma zeta);
    otherwise NumericalError names the first failing time and no later block
    is evolved.  DecayMatrix admits eigenvalues down to -slack, so a valid
    run can reach the bound only when slack * t_max > 1e-6.  The trace check
    runs whenever a block's coefficients are formed (see Block).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_grid(times)
    return _stream(state, times, flow)


def _stream(state: SuperpositionState, times: np.ndarray, flow: LabelFlow) -> Iterator[Block]:
    beta = np.asarray(state.labels)
    terms, n = beta.shape
    weights = np.asarray(state.weights)
    w_outer = state.norm_factor**2 * np.outer(weights, weights.conj())
    log_g0_t = log_gram_matrix(beta).T
    b = beta.view(float)  # squared norms by einsum over float views: half the time of np.abs(z) ** 2
    bound = np.einsum("ri,ri->r", b, b) * (1.0 + _TRACE_ABORT)
    for block in _blocks(times.size, terms * (n + terms)):
        tb = times[block]
        zeta = np.ascontiguousarray(flow(beta, tb), dtype=complex)
        if zeta.shape != (tb.size, terms, n):
            raise ModelError(f"label flow returned shape {zeta.shape}, expected {(tb.size, terms, n)}")
        z = zeta.view(float)
        # NaN fails the comparison too, so this also rejects non-finite labels.
        _require(
            (np.einsum("tri,tri->tr", z, z) <= bound).all(axis=-1),
            tb,
            lambda i: f"labels are non-finite or outgrew |zeta_r|^2 <= |beta_r|^2 (1 + {_TRACE_ABORT:g})",
        )
        yield Block(times=tb, labels=zeta, _log_g0_t=log_g0_t, _w_outer=w_outer, _state=state)


def decoherence_time_numeric(
    flow: LabelFlow, state: SuperpositionState, step: float, gamma_rate: float = 0.0, r: int = 0, s: int = 1
) -> float:
    """Decoherence time of one term pair of a state from its label flow.

    The pair coherence D(t) = |<beta_r|beta_s> / <zeta_r(t)|zeta_s(t)>|
    decays from 1; the initial slope of -ln D, taken by a forward difference
    with step min(1e-6 / gamma_rate, step) (step alone when gamma_rate is 0;
    pass the first step of the time grid), gives 1/tau.  A slope smaller
    than 1e-12 * gamma_rate (or nonpositive) reports infinity.
    """
    terms = state.num_terms
    if r == s or not (0 <= r < terms and 0 <= s < terms):
        raise ModelError("decoherence time needs two distinct term indices")
    if not step > 0.0:
        raise ModelError("decoherence time needs a positive first grid step")
    beta = np.asarray(state.labels)
    delta0 = beta[r] - beta[s]
    if np.max(np.abs(delta0)) <= 1e-14:
        raise ModelError("the chosen terms carry identical labels")
    h = float(step) if gamma_rate == 0.0 else min(1e-6 / gamma_rate, float(step))
    delta_t = np.asarray(flow(delta0[None, :], np.array([h])))[0, 0]
    # -ln D(h) = (|delta0|^2 - |delta_t|^2) / 2, evaluated from the norms to
    # avoid cancellation inside an exp/log round trip.
    f = 0.5 * float(np.sum(np.abs(delta0) ** 2) - np.sum(np.abs(delta_t) ** 2))
    slope = f / h
    if slope <= 0.0 or abs(slope) < 1e-12 * gamma_rate:
        return math.inf
    return 1.0 / slope


def observables(block: Block, index: int) -> dict:
    """Observable record at one grid point of a block, computed for that time alone (see Block.at)."""
    one = block.at(index)
    return {
        "time": float(one.times[0]),
        "mean_occupation": [float(x) for x in one.occupations[0]],
        "total_occupation": float(one.total_occupation[0]),
        "purity": float(one.purity[0]),
        "fidelity_to_initial": float(one.fidelity[0]),
    }


@cache
def _ascii_words() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The uint32 words, four ASCII bytes each with NUL for nothing, that _g9 assembles its text from.

    Built on the first call, so commands that write no CSV never pay for it.

    groups: 3 digits of 0..999 at v + 1000 (2 c + t).  The decimal point
    follows digit c of the group for c = 1, 2, 3; c = 0 puts the group after
    the point and c = 4 before it.  t = 1 says every later digit of the
    number is 0, so the group's trailing fraction zeros read NUL, and its
    point too when no fraction digit is left ("1.20" -> "1.2", "1.00" -> "1").
    head: [separator, sign, "0", "."] at s + 13 (negative + 2 separator),
    with "0." for s >= 9 (no integer digit) and separators ",", newline and
    none.  zeros: the fraction's leading zeros, max(0, s - 9) of them, at s.
    s = 8 - E for the decimal exponent E.  offsets[g, s]: where the groups of
    digits 1-3, 4-6 and 7-9 (g = 0, 1, 2) find their class c, and t = 1 for
    the last group, which nothing follows.
    """
    v = np.arange(1000)[:, None]
    digits = 48 + v // np.array([100, 10, 1]) % 10
    zero_from = v % np.array([1000, 100, 10]) == 0  # digits k.. of the group are all 0
    nul = np.zeros_like(v)
    groups = []
    for c in range(5):
        first = 0 if c == 0 else min(c, 3)  # the group's first fraction digit
        for t in (0, 1):
            chars = np.where(zero_from & (np.arange(3) >= first) & bool(t), 0, digits)
            if 1 <= c <= 3:
                point = np.where(t and (first == 3 or zero_from[:, first : first + 1]), 0, 46 + nul)
                groups.append(np.hstack([chars[:, :c], point, chars[:, c:]]))
            else:
                groups.append(np.hstack([chars, nul]))
    s = np.arange(13)
    point = np.where((s >= 9)[:, None], [48, 46], 0)
    head = [
        np.hstack([np.full((13, 1), sep), np.full((13, 1), sign), point])
        for sep in (44, 10, 0)
        for sign in (0, 45)
    ]
    zeros = np.where(np.arange(4) < np.maximum(0, s - 9)[:, None], 48, 0)
    offsets = 2000 * np.clip(9 - np.array([[0], [3], [6]]) - s, 0, 4) + np.array([[0], [0], [1000]])
    words = (np.concatenate(w).astype(np.uint8).view(np.uint32).ravel() for w in (groups, head, [zeros]))
    return (*words, offsets)


_POW10 = np.array([10**k for k in range(14)], dtype=float)  # exact doubles


def _g9(values: np.ndarray, column: int, width: int) -> str:
    """The text of "%.9g" % v for each value, each followed by "," or, at a row's last column, "\\n".

    values (1-D, nonempty) starts at `column` of rows `width` values wide,
    so a piece may begin or end inside a row.  Each value gets five 4-byte
    words from the tables of _ascii_words, padded with NUL, which are
    dropped at the end.  The first word holds the separator that precedes
    the value (none for values[0]) and the sign; the separator after the
    last value is appended.

    A finite value in [9e-5, 9.99e8) whose rounded decimal exponent E lies
    in [-4, 8] is printed in fixed notation from the 9 significant digits
    m = rint(|x| 10^s), s = 8 - E, 10^8 <= m < 10^9: 10^s <= 10^14 is an
    exact double, so the product has one rounding, below 1.2e-7 for
    m < 10^9.  s comes from floor(log10 |x|), and m = 10^9 carries into
    E + 1.  A value whose product lands outside [10^8, 10^9) (floor(log10)
    one off next to a power of ten) or within 1e-6 of a half-integer (where
    that rounding could decide the last digit), and every other value (0,
    -0, inf, nan, exponent notation), is formatted by "%.9g" itself, so the
    text is exactly Python's, value by value.
    """
    groups, heads, zeros, offsets = _ascii_words()
    count = values.size
    a = np.abs(values)
    fast = (a >= 9e-5) & (a < 9.99e8)
    np.copyto(a, 1.0, where=~fast)  # keeps log10 finite; these are formatted by "%.9g"
    s = (8.0 - np.floor(np.log10(a))).astype(np.intp)  # in [0, 13] for a in [9e-5, 9.99e8)
    y = a * _POW10[s]
    m = np.rint(y)
    # outside [10^8, 10^9) floor(log10) was one off, next to a power of ten
    fast &= (y >= 1e8) & (y < 1e9) & (np.abs(y - m) < 0.5 - 1e-6)
    carry = m == 1e9
    m[carry] = 1e8
    s -= carry
    fast &= s <= 12
    slow = ~fast
    np.copyto(m, 1e8, where=slow)
    np.copyto(s, 0, where=slow)
    digits = m.astype(np.int64)
    a_digits = digits // 1_000_000
    rest = digits - 1_000_000 * a_digits
    b_digits = rest // 1000
    c_digits = rest - 1000 * b_digits
    head = s + 13 * (values < 0.0)
    head[(width - column) % width :: width] += 26  # a row's first value follows a newline
    head[0] = head[0] % 26 + 52  # none before values[0]: the previous piece ended with it
    r = np.empty((count, 5), dtype=np.uint32)
    r[:, 0] = heads[head]
    r[:, 1] = zeros[s]
    r[:, 2] = groups[a_digits + offsets[0, s] + 1000 * (rest == 0)]
    r[:, 3] = groups[b_digits + offsets[1, s] + 1000 * (c_digits == 0)]
    r[:, 4] = groups[c_digits + offsets[2, s]]
    slow = np.flatnonzero(slow)
    if slow.size:  # after the separator byte
        text = b"".join(("%.9g" % v).encode().ljust(19, b"\0") for v in values[slow].tolist())
        r.view(np.uint8)[slow, 1:] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 19)
    last = "\n" if (column + count) % width == 0 else ","
    return r.tobytes().translate(None, b"\0").decode("ascii") + last


def _csv_header(terms: int, n: int) -> str:
    """The CSV header line; its terms (terms - 1) / 2 coherence names live only while it is built."""
    first, second = np.triu_indices(terms, 1)
    header = ["time", *(f"occ_{m + 1}" for m in range(n)), "occ_total", "purity", "fidelity"]
    return ",".join(header + [f"coh_{a}_{b}" for a, b in zip(first, second)]) + "\n"


def trajectory_to_csv(blocks: Iterable[Block], out: TextIO) -> Iterator[Block]:
    """Write a label stream as CSV: time, per-resonator and total occupation, purity, fidelity, |c_rs| pairs.

    Each block is yielded on once its rows are written to the open text file
    `out`, so the caller sees the stream as it passes; nothing is written
    until the result is iterated.  Coherence columns cover ordered pairs
    r < s (0-based indices in the header), selected by an upper-triangle
    mask; every float is printed exactly as "%.9g" prints it, by a numpy
    kernel (_g9).  Each piece of text is formatted at once from the whole
    rows that _blocks gives for the row width; a row wider than
    _BLOCK_ELEMENTS is cut instead at the upper-triangle coefficient rows
    that _blocks gives for terms per row, so neither the block size nor the
    row width sets how much is held.
    """
    spans = None
    for block in blocks:
        if spans is None:
            _, terms, n = block.labels.shape
            upper = np.triu(np.ones((terms, terms), dtype=bool), 1)
            out.write(_csv_header(terms, n))
            width = n + 4 + terms * (terms - 1) // 2
            spans = [slice(0, terms)] if width <= _BLOCK_ELEMENTS else list(_blocks(terms, terms))
        columns = (block.times, block.occupations, block.total_occupation, block.purity, block.fidelity)
        columns = [np.reshape(c, (block.times.size, -1)) for c in columns]
        for rows in _blocks(block.times.size, width):
            head = [c[rows] for c in columns]
            coeffs = block.coeffs[rows]
            column = 0  # of the piece's first value, when a row is cut
            for span in spans:
                values = np.hstack(head + [np.abs(coeffs[:, span][:, upper[span]])])
                if values.size:  # the last coefficient row has no upper entry
                    out.write(_g9(values.ravel(), column, width))
                column += values.shape[1]
                head = []
        yield block
