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
import contextlib
import copy
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import dfs, evolve, network, reservoir
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
    return format(x, ".9g")


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


@contextlib.contextmanager
def _atomic_file(path: Path) -> Iterator[TextIO]:
    """A text file that replaces `path` when the block completes; a failed write leaves `path` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _svg_series(times: np.ndarray, values: np.ndarray, label: str, out: TextIO) -> None:
    """A single polyline on fixed 800x500 axes, written to the open text file `out`; deterministic text output.

    The points are formatted and written in evolve._blocks chunks, so only
    one chunk's text is ever held, whatever the length of the series.
    """
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
    out.write(
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
        '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="'
    )
    sep = ""
    for rows in evolve._blocks(times.size, 2):  # two coordinates per point
        xy = np.column_stack((left + (times[rows] - t0) * sx, bottom - (values[rows] - v0) * sy))
        out.write(sep + " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist()))
        sep = " "
    out.write('"/>\n</svg>\n')


# ---------------------------------------------------------------------------
# shared pipeline


def _label_flow(cfg: ScenarioConfig, decay: reservoir.DecayMatrix) -> evolve.LabelFlow:
    if cfg.state is None:
        raise ConfigError("this command needs a 'state' section in the scenario")
    if cfg.times is None:
        raise ConfigError("this command needs an 'evolution' section in the scenario")
    return evolve.label_flow(network.drift_matrix(cfg.network, decay))


def _summarize(cfg: ScenarioConfig, flow: evolve.LabelFlow, last: evolve.Block, decay: reservoir.DecayMatrix) -> dict:
    """Summary record of a run whose label stream ended with the block `last`."""
    # Whether the paper's closed form covers the scenario; the flow is the same either way.
    closed_form = (
        cfg.degenerate is not None and cfg.reservoir.kind is reservoir.ReservoirKind.COMMON_WHITE_NOISE
    )
    tau_numeric = None
    if cfg.state.num_terms >= 2:
        rate = float(np.max(np.diagonal(decay.matrix), initial=0.0))
        tau_numeric = evolve.decoherence_time_numeric(flow, cfg.state, cfg.times[1] - cfg.times[0], rate)
    return {
        "n": cfg.network.n,
        "reservoir": cfg.reservoir.kind.value,
        "propagator": "closed_form" if closed_form else "general",
        "gamma_down": decay.rates[0],
        "gamma_up": decay.rates[-1],
        "tau_d_formula": dfs.decoherence_time(cfg.rs, decay),
        "tau_d_numeric": tau_numeric,
        "final": evolve.observables(last, -1),
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
        # transform entries within 1e-12 of 0 are eigh rounding noise
        "transform": np.where(np.abs(decomp.transform) <= 1e-12, 0.0, decomp.transform),
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
    decay = reservoir.build_decay_matrix(cfg.reservoir, cfg.network)
    flow = _label_flow(cfg, decay)
    # total occupation, purity and fidelity per time, for the SVG plots
    series = np.empty((cfg.times.size, 3)) if cfg.svg else None
    start = 0
    with _atomic_file(out / "trajectory.csv") as fh:
        for block in evolve.trajectory_to_csv(evolve.propagate_with(cfg.state, cfg.times, flow), fh):
            if cfg.svg:
                stop = start + block.times.size
                series[start:stop] = np.column_stack((block.total_occupation, block.purity, block.fidelity))
                start = stop
        # inside the temp file's block, so a failed summary leaves no trajectory.csv
        summary = _summarize(cfg, flow, block, decay)
    _write_json(out / "summary.json", summary)
    if cfg.svg:
        plots = (("occupation", "total occupation"), ("purity", "purity"), ("fidelity", "fidelity"))
        for (name, label), column in zip(plots, series.T):
            with _atomic_file(out / f"{name}.svg") as fh:
                _svg_series(cfg.times, column, label, fh)
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg = parse_scenario(load_config(args.config))
    out = _outdir(args)
    if cfg.state is None:
        raise ConfigError("classify needs a 'state' section in the scenario")
    report = dfs.classify(cfg.state, cfg.rs, cfg.reservoir, cfg.network)
    _write_json(out / "classification.json", {"n": cfg.network.n, **dataclasses.asdict(report)})
    verdict = "DFS" if report.is_dfs else "not DFS"
    if report.is_rfs:
        verdict += ", RFS"
    print(f"{verdict} (regime {report.regime.value}); wrote {out / 'classification.json'}")
    return EXIT_OK


def _cmd_oracle_compare(args) -> int:
    # Only this command needs the oracle, so the other commands never import it.
    from . import oracle

    cfg = parse_scenario(load_config(args.config))
    out = _outdir(args)
    decay = reservoir.build_decay_matrix(cfg.reservoir, cfg.network)
    blocks = evolve.propagate_with(cfg.state, cfg.times, _label_flow(cfg, decay))
    cutoff = cfg.oracle_cutoff or oracle.suggest_cutoff(cfg.state)
    oracle.check_working_set(cfg.network.n, cutoff, cfg.state.labels)
    basis = oracle.FockBasisSpec(n=cfg.network.n, cutoff=cutoff)
    gen = oracle.build_generator(cfg.network, decay, basis)
    rho0 = oracle.embed_state(cfg.state, basis)
    report = oracle.compare(blocks, oracle.integrate(rho0, gen, cfg.times), basis)

    lines = ["time,trace_distance"]
    for t, d in zip(report.times, report.distances):
        lines.append(f"{_fmt(float(t))},{_fmt(float(d))}")
    _write_text(out / "oracle.csv", "\n".join(lines) + "\n")

    passed = report.max_distance < cfg.oracle_threshold
    _write_json(
        out / "oracle_summary.json",
        {
            "max_distance": report.max_distance,
            "threshold": cfg.oracle_threshold,
            "cutoff": cutoff,
            "dim": basis.dim,
            "step": oracle.step_size(gen, cfg.times),
            "tail_mass": report.tail_mass,
            "passed": passed,
        },
    )
    status = "OK" if passed else "MISMATCH"
    print(f"oracle max trace distance {_fmt(report.max_distance)} vs threshold {_fmt(cfg.oracle_threshold)}: {status}")
    return EXIT_OK if passed else EXIT_MISMATCH


_SWEEP_PARAMS = ("epsilon", "N", "alpha", "lambda")


def _patched(raw: dict, param: str, value: float) -> dict:
    patched = copy.deepcopy(raw)
    if param == "epsilon":
        sec = patched.get("reservoir")
        if not isinstance(sec, dict) or sec.get("kind") != "common_white_noise":
            raise ConfigError("epsilon sweeps need a white-noise reservoir scenario")
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
    decay = reservoir.build_decay_matrix(cfg.reservoir, cfg.network)
    flow = _label_flow(cfg, decay)
    for last in evolve.propagate_with(cfg.state, cfg.times, flow):
        pass  # only the final block is summarised
    summary = _summarize(cfg, flow, last, decay)
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

    add_common(sub.add_parser("oracle-compare", help="integrate the truncated master equation and compare"))

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
