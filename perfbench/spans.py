"""In-memory span tracer that wraps resonet's public functions from outside.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces module
attributes (and one class attribute) with timing wrappers and
``Tracer.uninstall`` puts the originals back.  A function imported by name
into several modules is wrapped in each of them, found by identity, so the
wrapper sees every call whatever spelling the caller used.  Target modules are
imported first, so a module the CLI loads lazily is wrapped too.  A target
that a later version of the program no longer has is skipped and reads as
zero.

Each span records name, start, end and parent; all spans of one tracer share
its run id.  Self time is a span's duration minus that of its direct
children, which cover disjoint parts of it because the CLI is single-threaded.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from pathlib import Path

# (span name, module, attribute).  "Class.method" attributes patch the class.
TARGETS = (
    ("cli.main", "resonet.cli", "main"),
    ("config.parse_scenario", "resonet.config", "parse_scenario"),
    ("states.gram_matrix", "resonet.states", "gram_matrix"),
    ("evolve.propagate_with", "resonet.evolve", "propagate_with"),
    ("evolve.trajectory_to_csv", "resonet.evolve", "trajectory_to_csv"),
    ("reservoir.build_decay_matrix", "resonet.reservoir", "build_decay_matrix"),
    ("network.normal_modes", "resonet.network", "normal_modes"),
    ("network.jacobi_eigh", "resonet.network", "jacobi_eigh"),
    ("oracle.build_generator", "resonet.oracle", "build_generator"),
    ("oracle.embed_state", "resonet.oracle", "embed_state"),
    ("oracle.integrate", "resonet.oracle", "integrate"),
    ("oracle.generator_apply", "resonet.oracle", "LindbladGenerator.apply"),
    ("oracle.compare", "resonet.oracle", "compare"),
)
# Spans opened by the wrappers themselves rather than by a patched attribute.
PROPAGATOR = "evolve.propagator"
SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + (PROPAGATOR,)


def _array_bytes(obj) -> int:
    """Sum of ``nbytes`` over the ndarray fields of an object."""
    return sum(int(v.nbytes) for v in getattr(obj, "__dict__", {}).values() if hasattr(v, "nbytes"))


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Largest values seen within the current command; see take_gauges().
        self.gauges: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _gauge(self, key: str, value: float) -> None:
        self.gauges[key] = max(self.gauges.get(key, 0.0), float(value))

    def take_gauges(self) -> dict[str, float]:
        out, self.gauges = self.gauges, {}
        return out

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_propagate_with(self, name: str, fn):
        """Also time every Theta(t) evaluation and size the returned trajectory."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = list(args)
            if "propagator" in kwargs:
                kwargs["propagator"] = self.wrap(PROPAGATOR, kwargs["propagator"])
            elif len(args) > 2:
                args[2] = self.wrap(PROPAGATOR, args[2])
            idx = self._open(name)
            try:
                traj = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._gauge("evolve.trajectory_bytes", _array_bytes(traj))
            return traj

        return traced

    def _wrap_build_generator(self, name: str, fn):
        """Also record the Fock dimension the oracle works in."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            basis = kwargs.get("basis", args[2] if len(args) > 2 else None)
            if basis is not None:
                self._gauge("oracle.dim", basis.dim)
            return inner(*args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every target that exists; return the span names that were skipped."""
        special = {
            "evolve.propagate_with": self._wrap_propagate_with,
            "oracle.build_generator": self._wrap_build_generator,
        }
        skipped = []
        for name, modname, attr in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                skipped.append(name)
                continue
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                skipped.append(name)
                continue
            wrapped = special.get(name, self.wrap)(name, original)
            if owner is not module:
                self._set(owner, leaf, wrapped)
                continue
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "resonet"]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        return skipped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived numbers ---------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV: run_id, index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "index", "name", "start_s", "end_s", "parent"])
            for i, name in enumerate(self.names):
                out.writerow(
                    [self.run_id, i, name, f"{self.starts[i] - t0:.9f}", f"{self.ends[i] - t0:.9f}", self.parents[i]]
                )
