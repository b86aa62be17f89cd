"""Scenario files: JSON in, validated model objects out.

A scenario bundles a network, a reservoir, an initial state, a time grid and
optional validation settings.  Parsing is split from loading so that sweeps
can patch the raw dictionary and re-parse.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import _BYTE_BUDGET, ConfigError, ModelError, _sci
from .evolve import check_terms
from .network import NetworkSpec, degenerate_network
from .reservoir import CouplingProfile, ReservoirKind, ReservoirSpec, renormalized_frequency
from .states import RSFamilySpec, SuperpositionState, make_rs_state, make_superposition

__all__ = ["ScenarioConfig", "load_config", "parse_scenario"]

_DEFAULT_THRESHOLD = 5e-3


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything a run needs, already validated.

    degenerate is the (omega, lambda) of the {n, omega, lambda} shorthand
    (None for an explicit network); like network, it carries omega already
    renormalised for distinct strong-coupling reservoirs.
    """

    network: NetworkSpec
    degenerate: tuple[float, float] | None
    reservoir: ReservoirSpec
    state: SuperpositionState | None
    times: np.ndarray | None
    oracle_cutoff: int | None
    oracle_threshold: float
    svg: bool


def load_config(path) -> dict:
    """Read a JSON scenario file, raising ConfigError on anything malformed."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {p} must hold a JSON object at top level")
    return data


def _section(cfg: dict, name: str, required: bool = True) -> dict | None:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config is missing the '{name}' section")
        return None
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return sec


@contextlib.contextmanager
def _model_errors(where: str):
    """Re-raise a ModelError from the block as a ConfigError prefixed with `where`."""
    try:
        yield
    except ModelError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _number(sec: dict, key: str, where: str, default=None):
    if key not in sec:
        if default is not None:
            return default
        raise ConfigError(f"{where} needs a numeric '{key}'")
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: '{key}' must be a number")
    return float(v)


def _integer(sec: dict, key: str, where: str) -> int:
    if key not in sec:
        raise ConfigError(f"{where} needs an integer '{key}'")
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: '{key}' must be an integer")
    return v


def _array(v, key: str, where: str) -> np.ndarray:
    """A number or a rectangular nested list of numbers as a float array."""

    def numeric(x) -> bool:
        if isinstance(x, list):
            return all(numeric(y) for y in x)
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if not numeric(v):
        raise ConfigError(f"{where}: '{key}' must be a number or a list of numbers")
    try:
        return np.asarray(v, dtype=float)
    except ValueError:
        raise ConfigError(f"{where}: '{key}' must be a rectangular array") from None


def _complex_entry(v, where: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        return complex(v[0], v[1])
    raise ConfigError(f"{where}: expected a number or a [re, im] pair, got {v!r}")


def _parse_network(sec: dict) -> tuple[NetworkSpec, tuple[float, float] | None]:
    if "n" in sec:
        n = _integer(sec, "n", "network")
        omega0 = _number(sec, "omega", "network")
        lam = _number(sec, "lambda", "network")
        return degenerate_network(n, omega0, lam), (omega0, lam)
    if "omega" not in sec or "coupling" not in sec:
        raise ConfigError(
            "network needs either the shorthand {n, omega, lambda} or explicit "
            "{omega: [...], coupling: [[...]]}"
        )
    omega = _array(sec["omega"], "omega", "network")
    coupling = _array(sec["coupling"], "coupling", "network")
    return NetworkSpec(omega=omega, coupling=coupling), None


def _parse_profiles(raw, where: str) -> tuple[CouplingProfile, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}: 'profiles' must be a non-empty list")
    out = []
    for i, item in enumerate(raw):
        at = f"{where}: profile {i}"
        if not isinstance(item, dict):
            raise ConfigError(f"{at} must be an object")
        with _model_errors(at):
            out.append(
                CouplingProfile(
                    amplitude=_number(item, "amplitude", at),
                    centers=_array(item.get("centers", []), "centers", at),
                    widths=_array(item.get("widths", []), "widths", at),
                )
            )
    return tuple(out)


def _parse_reservoir(sec: dict) -> ReservoirSpec:
    kind_name = sec.get("kind")
    if not isinstance(kind_name, str):
        raise ConfigError("reservoir needs a string 'kind'")
    try:
        kind = ReservoirKind(kind_name)
    except ValueError:
        valid = ", ".join(k.value for k in ReservoirKind)
        raise ConfigError(f"reservoir kind {kind_name!r} unknown (one of: {valid})") from None
    if kind is ReservoirKind.COMMON_WHITE_NOISE:
        if "Gamma" in sec and "sigma" in sec:
            raise ConfigError("reservoir: give either 'Gamma' or 'sigma', not both")
        key = "sigma" if "sigma" in sec else "Gamma"
        return ReservoirSpec(
            kind=kind,
            sigma=_number(sec, key, "reservoir"),
            epsilon=_number(sec, "epsilon", "reservoir", default=0.0),
        )
    if kind is ReservoirKind.COMMON_PROFILE:
        return ReservoirSpec(
            kind=kind,
            sigma=_number(sec, "sigma", "reservoir"),
            profiles=_parse_profiles(sec.get("profiles"), "reservoir"),
        )
    return ReservoirSpec(
        kind=kind,
        gamma_plus=_number(sec, "gamma_plus", "reservoir"),
        gamma_minus=_number(sec, "gamma_minus", "reservoir"),
    )


def _parse_state(sec: dict | None, n: int) -> SuperpositionState | None:
    if sec is None:
        return None
    kind = sec.get("type", "rs")
    if kind == "rs":
        rs = RSFamilySpec(
            n=n,
            r=_integer(sec, "r", "state"),
            s=_integer(sec, "s", "state"),
            alpha=_complex_entry(sec.get("alpha", 0.0), "state alpha"),
            eta=_complex_entry(sec.get("eta", 0.0), "state eta"),
            sign=sec.get("sign", 1),
        )
        return make_rs_state(rs)
    if kind == "explicit":
        raw_w = sec.get("weights")
        raw_l = sec.get("labels")
        if not isinstance(raw_w, list) or not isinstance(raw_l, list) or not raw_w:
            raise ConfigError("state: explicit form needs 'weights' and 'labels' lists")
        check_terms(len(raw_l))
        weights = [_complex_entry(w, f"state weight {i}") for i, w in enumerate(raw_w)]
        labels = []
        for i, row in enumerate(raw_l):
            if not isinstance(row, list) or len(row) != n:
                raise ConfigError(f"state: label {i} must list {n} mode amplitudes")
            labels.append([_complex_entry(x, f"state label {i}") for x in row])
        return make_superposition(np.array(weights), np.array(labels))
    raise ConfigError(f"state type {kind!r} unknown (use 'rs' or 'explicit')")


def _parse_times(sec: dict | None, svg: bool) -> np.ndarray | None:
    """The time grid; one whose grid and SVG series exceed the byte budget is rejected before allocating."""
    if sec is None:
        return None
    t_max = _number(sec, "t_max", "evolution")
    steps = _integer(sec, "steps", "evolution")
    if not 0.0 < t_max < math.inf:
        raise ConfigError(f"evolution: 't_max' must be positive and finite, got {t_max!r}")
    if steps < 1:
        raise ConfigError("evolution: 'steps' must be at least 1")
    # 8 bytes per time for the grid, and 8 more for each of the three SVG series
    need = (steps + 1) * (32 if svg else 8)
    if need > _BYTE_BUDGET:
        raise ConfigError(
            f"evolution: {steps + 1} grid times need {_sci(need)} bytes, over the {_sci(_BYTE_BUDGET)}-byte budget"
        )
    return np.linspace(0.0, t_max, steps + 1)


def parse_scenario(cfg: dict) -> ScenarioConfig:
    """Validate a raw scenario dictionary into model objects."""
    with _model_errors("network"):
        network, degenerate = _parse_network(_section(cfg, "network"))
    with _model_errors("reservoir"):
        reservoir = _parse_reservoir(_section(cfg, "reservoir"))
    if degenerate is not None and reservoir.kind is ReservoirKind.DISTINCT_STRONG_COUPLING:
        # Strong coupling to distinct reservoirs shifts the shorthand's bare
        # frequency; an explicit network is taken as already renormalised.
        omega0, lam = degenerate
        with _model_errors("network"):
            degenerate = (renormalized_frequency(omega0, lam, network.n), lam)
            network = degenerate_network(network.n, *degenerate)
    with _model_errors("state"):
        state = _parse_state(_section(cfg, "state", required=False), network.n)
    outsec = _section(cfg, "output", required=False) or {}
    svg = outsec.get("svg", False)
    if not isinstance(svg, bool):
        raise ConfigError("output: 'svg' must be true or false")
    times = _parse_times(_section(cfg, "evolution", required=False), svg)

    osec = _section(cfg, "oracle", required=False) or {}
    cutoff = osec.get("cutoff")
    if cutoff is not None and (isinstance(cutoff, bool) or not isinstance(cutoff, int) or cutoff < 1):
        raise ConfigError("oracle: 'cutoff' must be a positive integer")
    threshold = _number(osec, "threshold", "oracle", default=_DEFAULT_THRESHOLD)
    if not 0.0 < threshold < math.inf:
        raise ConfigError(f"oracle: 'threshold' must be positive and finite, got {threshold!r}")

    return ScenarioConfig(
        network=network,
        degenerate=degenerate,
        reservoir=reservoir,
        state=state,
        times=times,
        oracle_cutoff=cutoff,
        oracle_threshold=threshold,
        svg=svg,
    )
