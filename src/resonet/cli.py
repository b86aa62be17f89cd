"""Command line front end.

Subcommands:

  modes            normal-mode frequencies and transform of the network
  evolve           label-space trajectory, summary rates and decoherence times
  classify         decoherence-free / relaxation-free verdict for the state
  oracle-compare   truncated-Fock integration against the analytic trajectory
  sweep            repeat `evolve` over one swept parameter

Every artifact is written by the artifacts module, so a rerun over the same
scenario reproduces byte-identical files.  Exit codes: 0 success, 1 bad
config or model, 2 numerical failure, 3 oracle disagreement beyond threshold.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import artifacts, dfs, evolve, network, reservoir
from .artifacts import _atomic_file, _fmt, _g9, _svg_series, _write_json, _write_text
from .config import ScenarioConfig, load_config, parse_scenario
from .errors import ConfigError, ModelError, NumericalError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_MISMATCH = 3


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
    # The key is vestigial but stays: perfbench/checks.py::_same_numbers requires every key
    # of the recorded reference, so dropping it fails the benchmark's output check.
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
        "tau_d_formula": dfs.decoherence_time(cfg.state, decay),
        "tau_d_numeric": tau_numeric,
        "final": evolve.observables(last, -1),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_modes(cfg: ScenarioConfig, out: Path) -> int:
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


def _cmd_evolve(cfg: ScenarioConfig, out: Path) -> int:
    decay = reservoir.build_decay_matrix(cfg.reservoir, cfg.network)
    flow = _label_flow(cfg, decay)
    # total occupation, purity and fidelity per time, for the SVG plots
    series = np.empty((cfg.times.size, 3)) if cfg.svg else None
    start = 0
    with _atomic_file(out / "trajectory.csv") as fh:
        for block in artifacts.trajectory_to_csv(evolve.propagate_with(cfg.state, cfg.times, flow), fh):
            if cfg.svg:
                stop = start + block.times.size
                series[start:stop] = np.column_stack((block.total_occupation, block.purity, block.fidelity))
                start = stop
            # only the final time is summarised; the loop variable would hold this block's
            # pair arrays while the next block forms its own
            last = block.at(-1)
            del block
        # inside the temp file's block, so a failed summary leaves no trajectory.csv
        summary = _summarize(cfg, flow, last, decay)
    _write_json(out / "summary.json", summary)
    if cfg.svg:
        plots = (("occupation", "total occupation"), ("purity", "purity"), ("fidelity", "fidelity"))
        for (name, label), column in zip(plots, series.T):
            with _atomic_file(out / f"{name}.svg") as fh:
                _svg_series(cfg.times, column, label, fh)
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    return EXIT_OK


def _cmd_classify(cfg: ScenarioConfig, out: Path) -> int:
    if cfg.state is None:
        raise ConfigError("classify needs a 'state' section in the scenario")
    report = dfs.classify(cfg.state, cfg.reservoir, cfg.network)
    _write_json(out / "classification.json", {"n": cfg.network.n, **dataclasses.asdict(report)})
    verdict = "DFS" if report.is_dfs else "not DFS"
    if report.is_rfs:
        verdict += ", RFS"
    print(f"{verdict} (regime {report.regime.value}); wrote {out / 'classification.json'}")
    return EXIT_OK


def _cmd_oracle_compare(cfg: ScenarioConfig, out: Path) -> int:
    # Only this command needs the oracle, so the other commands never import it.
    from . import oracle

    decay = reservoir.build_decay_matrix(cfg.reservoir, cfg.network)
    blocks = evolve.propagate_with(cfg.state, cfg.times, _label_flow(cfg, decay))
    cutoff = cfg.oracle_cutoff or oracle.suggest_cutoff(cfg.state)
    oracle.check_working_set(cfg.network.n, cutoff, cfg.state.labels)
    basis = oracle.FockBasisSpec(n=cfg.network.n, cutoff=cutoff)
    gen = oracle.build_generator(cfg.network, decay, basis)
    rho0 = oracle.embed_state(cfg.state, basis)
    report = oracle.compare(blocks, oracle.integrate(rho0, gen, cfg.times), basis)

    table = np.column_stack((report.times, report.distances)).ravel()
    _write_text(out / "oracle.csv", "time,trace_distance\n" + _g9(table, 0, 2))

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
    # Per-sector bound on the trace distance (see oracle.compare), not the distance itself.
    print(
        f"oracle max trace distance bound {_fmt(report.max_distance)} vs threshold {_fmt(cfg.oracle_threshold)}: {status}"
    )
    return EXIT_OK if passed else EXIT_MISMATCH


# sweep parameter -> (scenario section, key it sets, whether the section
# takes it, the error when it does not)
_SWEEPS = {
    "epsilon": (
        "reservoir",
        "epsilon",
        lambda sec: sec.get("kind") == "common_white_noise",
        "epsilon sweeps need a white-noise reservoir scenario",
    ),
    "N": ("network", "n", lambda sec: "n" in sec, "N sweeps need the degenerate network shorthand"),
    "alpha": (
        "state",
        "alpha",
        lambda sec: sec.get("type", "rs") == "rs",
        "alpha sweeps need the two-branch state form",
    ),
    "lambda": ("network", "lambda", lambda sec: "n" in sec, "lambda sweeps need the degenerate network shorthand"),
}
_SWEEP_PARAMS = tuple(_SWEEPS)


def _patched(raw: dict, param: str, value: float) -> dict:
    section, key, takes, message = _SWEEPS[param]
    patched = copy.deepcopy(raw)
    sec = patched.get(section)
    if not isinstance(sec, dict) or not takes(sec):
        raise ConfigError(message)
    if param == "N":
        if not float(value).is_integer() or value < 1:
            raise ConfigError(f"N sweep values must be positive integers, got {value!r}")
        value = int(value)
    sec[key] = value
    return patched


_SWEEP_COLUMNS = (
    "gamma_down", "gamma_up", "tau_d_formula", "tau_d_numeric", "final_purity", "final_fidelity", "final_occupation"
)


def _sweep_one(raw: dict, param: str, value: float) -> tuple:
    """The _SWEEP_COLUMNS values of one sweep point (tau_d_numeric None for one-term states)."""
    cfg = parse_scenario(_patched(raw, param, value))
    decay = reservoir.build_decay_matrix(cfg.reservoir, cfg.network)
    flow = _label_flow(cfg, decay)
    for last in evolve.propagate_with(cfg.state, cfg.times, flow):
        pass  # only the final block is summarised
    summary = _summarize(cfg, flow, last, decay)
    return (
        summary["gamma_down"],
        summary["gamma_up"],
        summary["tau_d_formula"],
        summary["tau_d_numeric"],
        summary["final"]["purity"],
        summary["final"]["fidelity_to_initial"],
        summary["final"]["total_occupation"],
    )


def _cmd_sweep(raw: dict, out: Path, param: str, sweep_values: str) -> int:
    try:
        values = [float(v) for v in sweep_values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {sweep_values!r}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")

    lines = [",".join((param, *_SWEEP_COLUMNS, "status"))]
    errors, failed = {}, 0
    for value in values:
        try:
            row, status = _sweep_one(raw, param, value), "ok"
        except (ConfigError, ModelError, NumericalError) as exc:
            row, status = (None,) * len(_SWEEP_COLUMNS), "error"
            errors[_fmt(value)] = str(exc)
            failed += 1
        lines.append(",".join((_fmt(value), *("nan" if v is None else _fmt(float(v)) for v in row), status)))
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")

    completed = len(values) - failed
    _write_json(
        out / "sweep_summary.json",
        {
            "param": param,
            "values": values,
            "completed": completed,
            "failed": failed,
            "partial": failed > 0,
            "errors": errors,
        },
    )
    print(f"sweep over {param}: {completed}/{len(values)} runs completed; wrote {out / 'sweep.csv'}")
    return EXIT_OK if failed == 0 else EXIT_CONFIG


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
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = parse_scenario(raw)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "sweep":
            return _cmd_sweep(raw, out, args.sweep_param, args.sweep_values)
        return _HANDLERS[args.command](cfg, out)
    except (ConfigError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
