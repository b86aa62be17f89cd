"""Machine-speed sampler: a fixed kernel timed throughout the measured calls.

The benchmark's host is a few cores of a shared machine whose single-core
speed drifts by up to 2x over tens of seconds, with the load of its
neighbours.  A run's raw times therefore say as much about the minute it ran
in as about the program.  While the worker times ``cli.main`` calls, a
``SIGALRM`` timer runs a small fixed kernel in the same thread every
``INTERVAL_S`` seconds of wall time, and once more after each call.  Each
call's time, less the time spent in the kernel, is scaled by how fast the
kernel ran during it:

    normalised = (raw - kernel time inside the call) * REFERENCE_S / mean(kernel times)

so the reported times are seconds at a fixed reference speed.  The kernel
never changes with the program under test, so a faster program still reads
proportionally faster; only the machine's drift is divided out.  Raw times
and kernel times stay in the run record.

The kernel mixes what resonet spends its time on: an interpreted Python
loop, numpy operations on small complex matrices, and strided passes over a
complex array the size of the oracle's density matrix.  The last part
matters: the oracle's share of cache and memory traffic makes it respond to
the neighbours' load unlike the label-space code.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Typical kernel time during the runs BASELINE.md reports (2-core x86-64 VM,
# Python 3.11, numpy 2.4, one BLAS thread).  Any constant works; this one
# keeps normalised times close to raw seconds there.
REFERENCE_S = 0.0028
INTERVAL_S = 0.1

_rng = np.random.default_rng(1)
_SMALL = _rng.normal(size=(8, 8)) * (1.0 + 0.5j)  # a label-space Gram matrix
_MEDIUM = _rng.normal(size=(170, 170)) * (1.0 + 0.5j)  # the oracle's 169x169 density matrix


def _kernel() -> float:
    acc, table = 0, {}
    for i in range(5000):
        acc += (i * 3) % 7
        table[i & 255] = acc
    a = _SMALL
    for _ in range(200):
        b = a @ a.conj().T
        a = np.exp(-1e-3 * b) * 0.5
    x = _MEDIUM
    for _ in range(4):
        x = x.T * 0.5 + x  # strided reads, as in rho.T products
    return acc + float(a.real.sum()) + float(x.real[0, 0])


def probe() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def probe_mean(count: int = 5) -> float:
    """Mean of a few kernel times, for a measurement too short to sample."""
    return sum(probe() for _ in range(count)) / count


def normalise(raw: list[float], kernel_s: list[float]) -> list[float]:
    """Scale each raw time by the kernel time measured with it."""
    if len(raw) != len(kernel_s):
        raise ValueError(f"need one kernel time per sample, got {len(kernel_s)} for {len(raw)}")
    return [t * REFERENCE_S / k for t, k in zip(raw, kernel_s)]


class Sampler:
    """Times the kernel on a wall-clock timer while a block of code runs.

    ``measure(fn)`` returns ``(fn(), seconds, normalised_seconds,
    kernel_times)``, where ``seconds`` excludes the ticks and
    ``kernel_times`` ends with one probe taken after the call.
    The timer only runs inside ``measure``; Python runs the handler between
    bytecodes of the main thread, so a long C call delays a tick.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._ticks.append(probe())

    def measure(self, fn):
        self._ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            raw = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        net = raw - sum(self._ticks)
        ticks = self._ticks + [probe()]
        return value, net, net * REFERENCE_S * len(ticks) / sum(ticks), ticks
