"""Child process of the benchmark: times ``resonet.cli.main`` in one interpreter.

    python3 perfbench/worker.py --import-only
    python3 perfbench/worker.py --job job.json

The parent sets the BLAS thread variables and ``PYTHONPATH`` in this
process's environment before it starts, so numpy reads them at import.  The
last line of standard output is one JSON object with the measurements.

A job runs the command repeatedly until its time is spent (and at least once).
Untraced, every call is a ``wall_s`` sample, timed under the speed sampler
of ``speed.py``; an import-only run times the sampler's kernel right after
the import.  Traced, untraced and traced
calls alternate: the parent compares the two medians for the tracing
overhead, and the spans of the traced calls give the per-layer numbers.
"""

from __future__ import annotations

import sys
import time

if __name__ == "__main__" and sys.argv[1:] == ["--import-only"]:
    # Time the import before this script imports anything resonet.cli would
    # otherwise find already loaded (argparse, json, ...).
    _start = time.perf_counter()
    import resonet.cli  # noqa: F401

    _import_s = time.perf_counter() - _start
    from speed import probe_mean

    print('{"import_s": %r, "probe_s": %r}' % (_import_s, probe_mean()))
    sys.exit(0)

import argparse
import json
import os
import platform
import resource
import traceback
from pathlib import Path

from speed import Sampler

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in _THREAD_VARS + ("RESONET_THREADS",)},
    }


def _peak_rss_kb() -> int:
    """This process's peak resident set.

    ru_maxrss starts from the parent's resident set at exec on Linux, so the
    kernel's own high-water mark for this address space is preferred.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _exit_code(cli, argv: list[str]) -> int:
    try:
        return int(cli.main(argv))
    except Exception:  # a crash is a failed command, reported with the rest
        traceback.print_exc()
        return -1


def _call(cli, argv: list[str]) -> tuple[float, int]:
    """Wall time and exit code of one cli.main(argv) call."""
    start = time.perf_counter()
    code = _exit_code(cli, argv)
    return time.perf_counter() - start, code


def run_job(job: dict) -> dict:
    import resonet.cli as cli

    argv, out = job["argv"], Path(job["out"])
    deadline = time.perf_counter() + job["seconds"]
    walls, codes = [], []
    result = {"environment": _environment(), "walls": walls, "exit_codes": codes}
    if not job["trace"]:
        sampler = Sampler()
        normalised, speeds = result["normalised"], result["kernel_s"] = [], []
        while not walls or time.perf_counter() < deadline:
            code, wall, norm, ticks = sampler.measure(lambda: _exit_code(cli, argv))
            walls.append(wall)
            codes.append(code)
            normalised.append(norm)
            speeds.append(sum(ticks) / len(ticks))
        result["peak_rss_kb"] = _peak_rss_kb()
        return result

    # Untraced and traced calls alternate, so a drift in machine speed
    # during the run affects both medians alike.
    from spans import Tracer

    tracer = Tracer(job["run_id"])
    traced, gauges = [], []
    while not traced or time.perf_counter() < deadline:
        wall, code = _call(cli, argv)
        walls.append(wall)
        codes.append(code)
        result["skipped_spans"] = tracer.install()
        try:
            wall, code = _call(cli, argv)
        finally:
            tracer.uninstall()
        traced.append(wall)
        codes.append(code)
        gauges.append({**tracer.take_gauges(), "cli.artifact_bytes": _dir_bytes(out)})
    tracer.write(Path(job["spans"]))
    result.update(
        traced_walls=traced,
        totals=tracer.totals(),
        gauges={k: max(g.get(k, 0.0) for g in gauges) for k in set().union(*gauges)},
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", type=Path, required=True, help="JSON job written by run.py")
    args = parser.parse_args()
    print(json.dumps(run_job(json.loads(args.job.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
