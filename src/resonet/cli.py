"""Command line front end.

Subcommands:

  modes            normal-mode frequencies and transform of the network
  evolve           label-space trajectory, summary rates and decoherence times
  classify         decoherence-free / relaxation-free verdict for the state
  oracle-compare   truncated-Fock integration against the analytic trajectory
  sweep            repeat `evolve` over one swept parameter

All artifacts are written atomically (temp file, then rename) with floats
rendered at %.9g, so a rerun over the same scenario reproduces byte-identical
files.  Exit codes: 0 success, 1 bad config or model, 2 numerical failure,
3 oracle disagreement beyond threshold.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dfs, evolve, network, oracle, reservoir
from .config import ScenarioConfig, load_config, parse_scenario
from .errors import ConfigError, ModelError, NumericalError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_MISMATCH = 3

# ---------------------------------------------------------------------------
# serialisation helpers


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.9g}"


def _jsonable(obj):
    """Round floats through %.9g and name non-finite values, recursively."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonable(float(obj.real)), _jsonable(float(obj.imag))]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return _fmt(x)
        return float(f"{x:.9g}")
    return obj


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _svg_series(times: np.ndarray, values: np.ndarray, label: str) -> str:
    """A single polyline on fixed 800x500 axes; deterministic text output."""
    width, height = 800.0, 500.0
    left, right, top, bottom = 70.0, 780.0, 30.0, 460.0
    t0, t1 = float(times[0]), float(times[-1])
    v0, v1 = float(np.min(values)), float(np.max(values))
    if t1 <= t0:
        t1 = t0 + 1.0
    if v1 - v0 < 1e-12:
        pad = max(abs(v0) * 0.1, 0.5)
        v0, v1 = v0 - pad, v1 + pad
    sx = (right - left) / (t1 - t0)
    sy = (bottom - top) / (v1 - v0)
    pts = " ".join(
        f"{left + (float(t) - t0) * sx:.2f},{bottom - (float(v) - v0) * sy:.2f}"
        for t, v in zip(times, values)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">\n'
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>\n'
        f'<line x1="{left:g}" y1="{bottom:g}" x2="{right:g}" y2="{bottom:g}" stroke="black"/>\n'
        f'<line x1="{left:g}" y1="{top:g}" x2="{left:g}" y2="{bottom:g}" stroke="black"/>\n'
        f'<text x="{(left + right) / 2:g}" y="490" text-anchor="middle" font-size="14">time</text>\n'
        f'<text x="15" y="{(top + bottom) / 2:g}" font-size="14" '
        f'transform="rotate(-90 15 {(top + bottom) / 2:g})" text-anchor="middle">{label}</text>\n'
        f'<text x="{left:g}" y="478" text-anchor="middle" font-size="12">{_fmt(t0)}</text>\n'
        f'<text x="{right:g}" y="478" text-anchor="middle" font-size="12">{_fmt(t1)}</text>\n'
        f'<text x="{left - 6:g}" y="{bottom:g}" text-anchor="end" font-size="12">{_fmt(v0)}</text>\n'
        f'<text x="{left - 6:g}" y="{top + 4:g}" text-anchor="end" font-size="12">{_fmt(v1)}</text>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>\n'
        "</svg>\n"
    )


# ---------------------------------------------------------------------------
# shared pipeline


def _effective_network(cfg: ScenarioConfig) -> network.NetworkSpec:
    """Network used for evolution; strong-coupling reservoirs shift the bare
    degenerate frequency to omega * (1 + ((n-1) lambda / 2 omega)^2)."""
    if (
        cfg.degenerate is not None
        and cfg.reservoir.kind is reservoir.ReservoirKind.DISTINCT_STRONG_COUPLING
    ):
        omega0, lam = cfg.degenerate
        shifted = reservoir.renormalized_frequency(omega0, lam, cfg.network.n)
        return network.degenerate_network(cfg.network.n, shifted, lam)
    return cfg.network


def _decay_for(cfg: ScenarioConfig) -> reservoir.DecayMatrix:
    if cfg.reservoir.kind is reservoir.ReservoirKind.COMMON_PROFILE:
        decomp = network.normal_modes(cfg.network)
        return reservoir.build_decay_matrix(cfg.reservoir, cfg.network.n, decomp)
    return reservoir.build_decay_matrix(cfg.reservoir, cfg.network.n)


def _closed_form_applies(cfg: ScenarioConfig) -> bool:
    return (
        cfg.degenerate is not None
        and cfg.reservoir.kind is reservoir.ReservoirKind.COMMON_WHITE_NOISE
    )


def _run_trajectory(cfg: ScenarioConfig) -> tuple[evolve.Trajectory, str]:
    if cfg.state is None:
        raise ConfigError("this command needs a 'state' section in the scenario")
    if cfg.times is None:
        raise ConfigError("this command needs an 'evolution' section in the scenario")
    n = cfg.network.n
    if _closed_form_applies(cfg):
        omega0, lam = cfg.degenerate
        if n >= 2:
            plus, minus = network.degenerate_modes(n, omega0, lam)
        else:
            plus = minus = omega0
        params = evolve.EvolutionParams(
            n=n,
            gamma=cfg.reservoir.sigma,
            epsilon=cfg.reservoir.epsilon,
            omega_plus=plus,
            omega_minus=minus,
            times=cfg.times,
        )
        return evolve.propagate(cfg.state, params), "closed_form"
    decay = _decay_for(cfg)
    drift = network.drift_matrix(_effective_network(cfg), decay)
    rate = float(np.max(np.diagonal(decay.matrix), initial=0.0))
    traj = evolve.propagate_with(
        cfg.state, cfg.times, lambda t: evolve.propagator_general(drift, t), gamma_rate=rate
    )
    return traj, "general"


def _decay_extremes(decay: reservoir.DecayMatrix) -> tuple[float, float]:
    values = np.linalg.eigvalsh(decay.matrix)
    return float(np.min(values)), float(np.max(values))


def _tau_formula(cfg: ScenarioConfig) -> float | None:
    """Two-branch decoherence time when the scenario supports the formula."""
    if cfg.rs is None or complex(cfg.rs.alpha) == 0.0:
        return None
    kind = cfg.reservoir.kind
    if kind is reservoir.ReservoirKind.COMMON_WHITE_NOISE:
        return evolve.decoherence_time_formula(cfg.rs, cfg.reservoir.sigma, cfg.reservoir.epsilon)
    if kind is reservoir.ReservoirKind.DISTINCT_STRONG_COUPLING:
        gamma_eff, eps_eff = evolve.distinct_as_common(
            cfg.network.n, cfg.reservoir.gamma_plus, cfg.reservoir.gamma_minus
        )
        if gamma_eff <= 0.0:
            return None
        return evolve.decoherence_time_formula(cfg.rs, gamma_eff, eps_eff)
    return None


def _summarize(cfg: ScenarioConfig, traj: evolve.Trajectory, path_name: str) -> dict:
    gamma_down, gamma_up = _decay_extremes(_decay_for(cfg))
    tau_numeric = None
    if traj.num_terms >= 2:
        tau_numeric = evolve.decoherence_time_numeric(traj)
    return {
        "n": cfg.network.n,
        "reservoir": cfg.reservoir.kind.value,
        "propagator": path_name,
        "gamma_down": gamma_down,
        "gamma_up": gamma_up,
        "tau_d_formula": _tau_formula(cfg),
        "tau_d_numeric": tau_numeric,
        "final": evolve.observables(traj, -1),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_modes(args) -> int:
    cfg = parse_scenario(load_config(args.config))
    out = _outdir(args)
    decomp = network.normal_modes(cfg.network)
    payload = {
        "n": cfg.network.n,
        "frequencies": decomp.frequencies,
        "transform": decomp.transform,
        "symmetric": decomp.symmetric,
    }
    if cfg.degenerate is not None and cfg.network.n >= 2:
        omega0, lam = cfg.degenerate
        plus, minus = network.degenerate_modes(cfg.network.n, omega0, lam)
        payload["split"] = {
            "omega_plus": plus,
            "omega_minus": minus,
            "minus_multiplicity": cfg.network.n - 1,
        }
    _write_json(out / "modes.json", payload)
    print(f"wrote {out / 'modes.json'}")
    return EXIT_OK


def _cmd_evolve(args) -> int:
    cfg = parse_scenario(load_config(args.config))
    out = _outdir(args)
    traj, path_name = _run_trajectory(cfg)
    _write_text(out / "trajectory.csv", evolve.trajectory_to_csv(traj))
    _write_json(out / "summary.json", _summarize(cfg, traj, path_name))
    if cfg.svg:
        _write_text(out / "occupation.svg", _svg_series(traj.times, traj.total_occupation, "total occupation"))
        _write_text(out / "purity.svg", _svg_series(traj.times, traj.purity, "purity"))
        _write_text(out / "fidelity.svg", _svg_series(traj.times, traj.fidelity, "fidelity"))
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    return EXIT_OK


def _regime_for(cfg: ScenarioConfig) -> dfs.Regime:
    kind = cfg.reservoir.kind
    if kind is reservoir.ReservoirKind.COMMON_WHITE_NOISE:
        if cfg.reservoir.epsilon >= 1.0 - 1e-6:
            return dfs.Regime.COMMON_EPS1
        return dfs.Regime.COMMON_EPS_SMALL
    if kind is reservoir.ReservoirKind.DISTINCT_STRONG_COUPLING:
        return dfs.Regime.DISTINCT_STRONG
    raise ModelError(
        "classification covers white-noise and distinct reservoirs; "
        "profile reservoirs have no closed-form regime"
    )


def _cmd_classify(args) -> int:
    cfg = parse_scenario(load_config(args.config))
    out = _outdir(args)
    if cfg.state is None:
        raise ConfigError("classify needs a 'state' section in the scenario")
    regime = _regime_for(cfg)
    if regime is dfs.Regime.DISTINCT_STRONG:
        report = dfs.classify(
            cfg.state,
            cfg.rs,
            gamma=0.0,
            epsilon=0.0,
            regime=regime,
            gamma_plus=cfg.reservoir.gamma_plus,
            gamma_minus=cfg.reservoir.gamma_minus,
        )
    else:
        report = dfs.classify(
            cfg.state, cfg.rs, gamma=cfg.reservoir.sigma, epsilon=cfg.reservoir.epsilon, regime=regime
        )
    payload = {"n": cfg.network.n, **report.to_json_dict()}
    _write_json(out / "classification.json", payload)
    verdict = "DFS" if report.is_dfs else "not DFS"
    if report.is_rfs:
        verdict += ", RFS"
    print(f"{verdict} (regime {report.regime.value}); wrote {out / 'classification.json'}")
    return EXIT_OK


def _cmd_oracle_compare(args) -> int:
    cfg = parse_scenario(load_config(args.config))
    out = _outdir(args)
    threshold = args.threshold if args.threshold is not None else cfg.oracle_threshold
    if threshold <= 0.0:
        raise ConfigError("threshold must be positive")
    traj, _ = _run_trajectory(cfg)
    cutoff = cfg.oracle_cutoff or oracle.suggest_cutoff(cfg.state)
    basis = oracle.FockBasisSpec(n=cfg.network.n, cutoff=cutoff)
    decay = _decay_for(cfg)
    gen = oracle.build_generator(_effective_network(cfg), decay, basis)
    rho0 = oracle.embed_state(cfg.state, basis)
    rhos = oracle.integrate(rho0, gen, cfg.times)
    report = oracle.compare(traj, rhos, basis)

    lines = ["time,trace_distance"]
    for t, d in zip(report.times, report.distances):
        lines.append(f"{_fmt(float(t))},{_fmt(float(d))}")
    _write_text(out / "oracle.csv", "\n".join(lines) + "\n")

    tail = max(oracle.max_tail_mass(traj.labels[i], cutoff) for i in range(traj.times.size))
    passed = report.max_distance < threshold
    _write_json(
        out / "oracle_summary.json",
        {
            "max_distance": report.max_distance,
            "threshold": threshold,
            "cutoff": cutoff,
            "dim": basis.dim,
            "step": oracle.step_size(gen, cfg.times),
            "tail_mass": tail,
            "passed": passed,
        },
    )
    status = "OK" if passed else "MISMATCH"
    print(f"oracle max trace distance {_fmt(report.max_distance)} vs threshold {_fmt(threshold)}: {status}")
    return EXIT_OK if passed else EXIT_MISMATCH


_SWEEP_PARAMS = ("epsilon", "N", "alpha", "lambda")


def _patched(raw: dict, param: str, value: float) -> dict:
    patched = copy.deepcopy(raw)
    if param == "epsilon":
        sec = patched.get("reservoir")
        if not isinstance(sec, dict) or sec.get("kind") == "distinct_strong_coupling":
            raise ConfigError("epsilon sweeps need a common-reservoir scenario")
        sec["epsilon"] = value
    elif param == "N":
        sec = patched.get("network")
        if not isinstance(sec, dict) or "n" not in sec:
            raise ConfigError("N sweeps need the degenerate network shorthand")
        if not float(value).is_integer() or value < 1:
            raise ConfigError(f"N sweep values must be positive integers, got {value!r}")
        sec["n"] = int(value)
    elif param == "alpha":
        sec = patched.get("state")
        if not isinstance(sec, dict) or sec.get("type", "rs") != "rs":
            raise ConfigError("alpha sweeps need the two-branch state form")
        sec["alpha"] = value
    elif param == "lambda":
        sec = patched.get("network")
        if not isinstance(sec, dict) or "n" not in sec:
            raise ConfigError("lambda sweeps need the degenerate network shorthand")
        sec["lambda"] = value
    else:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    return patched


def _sweep_one(raw: dict, param: str, value: float) -> dict:
    cfg = parse_scenario(_patched(raw, param, value))
    traj, path_name = _run_trajectory(cfg)
    summary = _summarize(cfg, traj, path_name)
    return {
        "value": value,
        "status": "ok",
        "gamma_down": summary["gamma_down"],
        "gamma_up": summary["gamma_up"],
        "tau_d_formula": summary["tau_d_formula"],
        "tau_d_numeric": summary["tau_d_numeric"],
        "final_purity": summary["final"]["purity"],
        "final_fidelity": summary["final"]["fidelity_to_initial"],
        "final_occupation": summary["final"]["total_occupation"],
    }


def _cmd_sweep(args) -> int:
    raw = load_config(args.config)
    parse_scenario(raw)
    out = _outdir(args)
    param = args.sweep_param
    try:
        values = [float(v) for v in args.sweep_values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {args.sweep_values!r}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")

    results: list[dict] = []
    for value in values:
        try:
            results.append(_sweep_one(raw, param, value))
        except (ConfigError, ModelError, NumericalError) as exc:
            results.append({"value": value, "status": "error", "message": str(exc)})

    cols = (
        "gamma_down",
        "gamma_up",
        "tau_d_formula",
        "tau_d_numeric",
        "final_purity",
        "final_fidelity",
        "final_occupation",
    )
    lines = [param + "," + ",".join(cols) + ",status"]
    errors = {}
    for rec in results:
        fields = [_fmt(rec["value"])]
        for c in cols:
            v = rec.get(c)
            fields.append("nan" if v is None else _fmt(float(v)))
        fields.append(rec["status"])
        lines.append(",".join(fields))
        if rec["status"] != "ok":
            errors[_fmt(rec["value"])] = rec["message"]
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")

    completed = sum(1 for r in results if r["status"] == "ok")
    _write_json(
        out / "sweep_summary.json",
        {
            "param": param,
            "values": values,
            "completed": completed,
            "failed": len(values) - completed,
            "partial": completed != len(values),
            "errors": errors,
        },
    )
    print(f"sweep over {param}: {completed}/{len(values)} runs completed; wrote {out / 'sweep.csv'}")
    return EXIT_OK if completed == len(values) else EXIT_CONFIG


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonet",
        description="Coupled-resonator networks in correlated reservoirs: "
        "evolution, protected-subspace classification, brute-force checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    add_common(sub.add_parser("modes", help="normal-mode analysis of the network"))
    add_common(sub.add_parser("evolve", help="propagate the initial state over the time grid"))
    add_common(sub.add_parser("classify", help="decoherence-free / relaxation-free verdict"))

    p = sub.add_parser("oracle-compare", help="integrate the truncated master equation and compare")
    add_common(p)
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="maximum allowed trace distance (default: scenario setting or 5e-3)",
    )

    p = sub.add_parser("sweep", help="repeat evolve over one swept parameter")
    add_common(p)
    p.add_argument("--sweep-param", required=True, choices=_SWEEP_PARAMS)
    p.add_argument("--sweep-values", required=True, help="comma-separated values")
    return parser


_HANDLERS = {
    "modes": _cmd_modes,
    "evolve": _cmd_evolve,
    "classify": _cmd_classify,
    "oracle-compare": _cmd_oracle_compare,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
