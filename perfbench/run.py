"""resonet benchmark: time the public CLI on seeded scenarios and check its output.

    python3 perfbench/run.py --workload evolve_wide --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root; it imports the package from ``src/``.  The
workloads and the reason for each are in ``perfbench/README.md``.

Each run writes the scenario JSON under ``.perfbench_out/``, times
``import resonet.cli`` in several fresh interpreters (``setup_s``), then
starts one worker process that calls ``resonet.cli.main`` until ``--seconds``
have passed.  ``wall_s`` and ``setup_s`` are normalised for the machine's
speed drift by the sampler in ``speed.py``.  Every child gets ``OMP/OPENBLAS/MKL_NUM_THREADS=1``.
Children run one at a time, so the benchmark keeps one core busy.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports the per-layer ones from a run where the tracer in ``spans.py`` wraps
the layers.  Human-readable lines and one JSON record with the environment,
samples and checks come first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

PIN_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN_THREADS)  # before numpy loads here (scenarios) or in a child

import speed
from checks import Outcome, check_artifacts, compare_reference, record_reference
from scenarios import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
DEFAULT_SEED = 0
SETUP_PROBES = 5  # fresh interpreters timed per run, after one warm-up
RUN_LIMIT_S = 170  # a workload run, children included, must end within this

# Per-layer metrics: (name, unit, span, field) read from the tracer totals, as
# a mean per command.  Gauges and trace_overhead_s are added in _layer_metrics.
_SPAN_METRICS = (
    ("states.gram_matrix.calls", "count", "states.gram_matrix", "calls"),
    ("states.gram_matrix.s", "s", "states.gram_matrix", "s"),
    ("evolve.propagate_with.self_s", "s", "evolve.propagate_with", "self_s"),
    ("evolve.propagator.calls", "count", "evolve.propagator", "calls"),
    ("evolve.propagator.s", "s", "evolve.propagator", "s"),
    ("evolve.trajectory_to_csv.s", "s", "evolve.trajectory_to_csv", "s"),
    ("reservoir.build_decay_matrix.calls", "count", "reservoir.build_decay_matrix", "calls"),
    ("reservoir.build_decay_matrix.s", "s", "reservoir.build_decay_matrix", "s"),
    ("network.normal_modes.s", "s", "network.normal_modes", "s"),
    ("network.jacobi_eigh.calls", "count", "network.jacobi_eigh", "calls"),
    ("network.jacobi_eigh.s", "s", "network.jacobi_eigh", "s"),
    ("config.parse_scenario.calls", "count", "config.parse_scenario", "calls"),
    ("config.parse_scenario.s", "s", "config.parse_scenario", "s"),
    ("oracle.generator_apply.calls", "count", "oracle.generator_apply", "calls"),
    ("oracle.generator_apply.s", "s", "oracle.generator_apply", "s"),
    ("oracle.integrate.self_s", "s", "oracle.integrate", "self_s"),
    ("oracle.compare.s", "s", "oracle.compare", "s"),
    ("oracle.build_generator.s", "s", "oracle.build_generator", "s"),
    ("oracle.embed_state.s", "s", "oracle.embed_state", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


def _child_env() -> dict:
    # Bytecode is cached as for an installed package, so setup_s is the
    # import itself; the warm-up probe in measure_setup writes the cache.
    drop = ("RESONET_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str], deadline: float) -> dict:
    """Run a worker process to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(probes: int, deadline: float) -> tuple[list[float], list[float]]:
    """`import resonet.cli` times in fresh interpreters and the speed probe after each.

    The first interpreter writes the bytecode cache and is dropped.
    """
    _child(["--import-only"], deadline)
    runs = [_child(["--import-only"], deadline) for _ in range(probes)]
    return [r["import_s"] for r in runs], [r["probe_s"] for r in runs]


def _percentiles(samples: list[float]) -> dict:
    """Median, plus the highest of p90/p99 with at least ten samples beyond it."""
    out = {"n": len(samples), "p50": statistics.median(samples), "samples": samples}
    ordered = sorted(samples)
    for q in (99, 90):
        beyond = len(samples) * (100 - q) / 100.0
        if beyond >= 10:
            out[f"p{q}"] = ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))]
            break
    return out


def _layer_metrics(res: dict) -> dict:
    """Per-layer numbers as means per traced command."""
    commands, totals, gauges = len(res["traced_walls"]), res["totals"], res["gauges"]
    metrics = {}
    for name, unit, span, fld in _SPAN_METRICS:
        metrics[name] = (totals[span][fld] / commands, unit)
    dim = gauges.get("oracle.dim", 0.0)
    metrics["evolve.trajectory_bytes"] = (gauges.get("evolve.trajectory_bytes", 0.0), "B")
    metrics["cli.artifact_bytes"] = (gauges.get("cli.artifact_bytes", 0.0), "B")
    metrics["oracle.dim"] = (dim, "count")
    metrics["oracle.rho_bytes"] = (dim * dim * 16.0, "B")
    overhead = statistics.median(res["traced_walls"]) - statistics.median(res["walls"])
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    store_reference: bool = False,
    probes: int = SETUP_PROBES,
) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = make_workload(name, seed, size)
    base = WORK / (name if size == "full" else f"{name}-{size}")
    config = base / "scenario.json"
    workload.write(config)
    setup, setup_probes = measure_setup(probes, deadline)

    out = base / "out"
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.iterdir():
        stale.unlink()
    job = {
        "argv": workload.argv(config, out),
        "out": str(out),
        "seconds": seconds,
        "trace": trace,
        "run_id": uuid.uuid4().hex,
        "spans": str(base / "spans.csv"),
    }
    job_path = base / "job.json"
    job_path.write_text(json.dumps(job))
    res = _child(["--job", str(job_path)], deadline)

    outcome = Outcome()
    for code in res["exit_codes"]:
        outcome.check(code == 0, f"command exited {code}")
    check_artifacts(workload, out, outcome)
    if store_reference:
        record_reference(workload, out, HERE / "reference" / f"{name}.json")
    elif size == "full":
        compare_reference(workload, out, outcome)

    if trace:
        metrics = _layer_metrics(res)
    else:
        metrics = {
            "wall_s": (statistics.median(res["normalised"]), "s"),
            "setup_s": (statistics.median(speed.normalise(setup, setup_probes)), "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
            "pass_frac": (1.0 - outcome.failed / outcome.attempted, "ratio"),
        }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "environment": res["environment"],
        "setup_samples_s": setup,
        "setup_probes_s": setup_probes,
        "wall_s": _percentiles(res["walls"]),
        "checks": {"attempted": outcome.attempted, "failures": outcome.failures, **outcome.details},
    }
    if not trace:
        record.update(
            wall_normalised_s=_percentiles(res["normalised"]),
            wall_kernel_s=res["kernel_s"],
            setup_normalised_s=speed.normalise(setup, setup_probes),
        )
    if trace:
        record.update(traced_wall_s=_percentiles(res["traced_walls"]), skipped_spans=res["skipped_spans"])
    (base / f"record-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"record": record, "outcome": outcome, "metrics": metrics}


def _print_table(name: str, metrics: dict, outcome: Outcome) -> None:
    failed_frac = outcome.failed / outcome.attempted
    print(f"== {name}: {outcome.attempted} attempted, {outcome.failed} failed, failed_frac {failed_frac:.4g} ratio")
    for metric, (value, unit) in metrics.items():
        print(f"   {metric:<38} {value:>14.6g} {unit}")
    for failure in outcome.failures:
        print(f"   FAILED: {failure}")


def _result(outcome_list: list[Outcome], metrics: dict) -> dict:
    attempted = sum(o.attempted for o in outcome_list)
    failed = sum(o.failed for o in outcome_list)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at tiny size, both modes; metric names and units must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            run = run_workload(name, DEFAULT_SEED, 0.0, bool(trace), size="tiny", probes=1)
            got = {k: u for k, (_, u) in run["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} differ from BENCHMARK.json {want[trace]}")
            problems += [f"{name} trace={trace}: {f}" for f in run["outcome"].failures]
            _print_table(f"{name} (tiny, trace {trace})", run["metrics"], run["outcome"])
    for p in problems:
        print(f"SMOKE PROBLEM: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, check metric names and units")
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's artifacts as perfbench/reference (default seed only)",
    )
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run so that it kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "resonet" / "cli.py").is_file():
        print(f"error: no resonet sources under {ROOT / 'src'}; run from a resonet checkout", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("references are recorded for the default seed only")
    try:
        if args.smoke:
            return smoke()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        outcomes, metrics = [], {}
        started = time.perf_counter()
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), store_reference=args.record_reference)
            outcomes.append(run["outcome"])
            _print_table(name, run["metrics"], run["outcome"])
            if not args.trace:
                rec = run["record"]
                raw_wall, raw_setup = rec["wall_s"]["p50"], statistics.median(rec["setup_samples_s"])
                print(f"   raw medians, not normalised: wall {raw_wall:.6g} s, setup {raw_setup:.6g} s")
            print(json.dumps({"record": run["record"]}))
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in run["metrics"].items()})
        print(f"total {time.perf_counter() - started:.1f} s")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_result(outcomes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
