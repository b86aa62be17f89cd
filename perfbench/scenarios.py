"""Workload definitions: scenario JSON and CLI arguments, generated from a seed.

The program under test only ever sees the JSON written here.  Explicit-state
weights and labels come from ``numpy.random.default_rng(seed)``; the other
scenario fields are fixed, so one seed always yields the same inputs.

``size="tiny"`` shrinks every workload to a fraction of a second for the
smoke mode; it keeps the command, the reservoir kind and the propagation path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("evolve_wide", "evolve_profile", "sweep_eps", "oracle_n2")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    """One generated scenario: the CLI subcommand, its extra flags and the JSON."""

    name: str
    command: str
    extra_args: tuple[str, ...]
    scenario: dict
    points: int  # time-grid points per trajectory
    sweep_values: tuple[float, ...] = ()

    def argv(self, config: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(config), "--out", str(out), *self.extra_args]

    def write(self, config: Path) -> None:
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps(self.scenario, indent=1, sort_keys=True) + "\n")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _explicit_state(rng: np.random.Generator, terms: int, n: int, amplitude: float) -> dict:
    """Random superposition: |beta| = amplitude on every mode, uniform phases."""
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(terms, n))
    labels = amplitude * np.exp(1j * phases)
    return {
        "type": "explicit",
        "weights": [_pair(w) for w in weights],
        "labels": [[_pair(b) for b in row] for row in labels],
    }


def make_workload(name: str, seed: int, size: str = "full") -> Workload:
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}, got {size!r}")
    tiny = size == "tiny"
    rng = np.random.default_rng(seed)
    if name == "evolve_wide":
        n, terms, steps = (6, 4, 20) if tiny else (50, 32, 1000)
        scenario = {
            "network": {"n": n, "omega": 10.0, "lambda": 0.5},
            "reservoir": {"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 0.9},
            "state": _explicit_state(rng, terms, n, 0.3),
            "evolution": {"t_max": 5.0, "steps": steps},
        }
        return Workload(name, "evolve", (), scenario, steps + 1)
    if name == "evolve_profile":
        n, terms, steps = (4, 3, 20) if tiny else (16, 16, 4000)
        omega, lam = 10.0, 0.5
        omega_plus = omega + (n - 1) * lam
        profile = {"amplitude": 1.0, "centers": [omega_plus], "widths": [0.1]}
        scenario = {
            "network": {"n": n, "omega": omega, "lambda": lam},
            "reservoir": {"kind": "common_profile", "sigma": 1.0, "profiles": [profile] * n},
            "state": _explicit_state(rng, terms, n, 0.3),
            "evolution": {"t_max": 5.0, "steps": steps},
        }
        return Workload(name, "evolve", (), scenario, steps + 1)
    if name == "sweep_eps":
        count, steps = (3, 20) if tiny else (16, 4000)
        values = tuple(float(v) for v in np.linspace(0.0, 1.0, count))
        scenario = {
            "network": {"n": 6, "omega": 10.0, "lambda": 0.5},
            "reservoir": {"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 0.5},
            "state": {"type": "rs", "r": 3, "s": 3, "alpha": 0.7},
            "evolution": {"t_max": 5.0, "steps": steps},
        }
        extra = ("--sweep-param", "epsilon", "--sweep-values", ",".join(repr(v) for v in values))
        return Workload(name, "sweep", extra, scenario, steps + 1, values)
    if name == "oracle_n2":
        cutoff, steps = (5, 2) if tiny else (12, 10)
        t_max = 0.05 if tiny else 1.0
        alpha = 0.2 if tiny else 0.6
        scenario = {
            "network": {"n": 2, "omega": 10.0, "lambda": 0.5},
            "reservoir": {"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 0.5},
            "state": {"type": "rs", "r": 1, "s": 1, "alpha": alpha},
            "evolution": {"t_max": t_max, "steps": steps},
            "oracle": {"cutoff": cutoff},
        }
        return Workload(name, "oracle-compare", (), scenario, steps + 1)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
