"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/selftest.py

They run the CLI in-process on the tiny workloads, so they take seconds,
except the smoke test, which starts `run.py --smoke`.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import Outcome, check_artifacts, compare_reference, record_reference  # noqa: E402
from scenarios import WORKLOADS, make_workload  # noqa: E402
import speed  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402


def _run_tiny(name: str, tmp_path: Path, seed: int = 0):
    from resonet import cli

    workload = make_workload(name, seed, "tiny")
    config, out = tmp_path / "scenario.json", tmp_path / "out"
    workload.write(config)
    assert cli.main(workload.argv(config, out)) == 0
    return workload, out


def _checked(workload, out: Path) -> Outcome:
    outcome = Outcome()
    check_artifacts(workload, out, outcome)
    return outcome


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_scenarios_depend_only_on_seed():
    for name in WORKLOADS:
        assert make_workload(name, 3).scenario == make_workload(name, 3).scenario
    assert make_workload("evolve_wide", 3).scenario != make_workload("evolve_wide", 4).scenario


@pytest.mark.parametrize("name", WORKLOADS)
def test_untouched_artifacts_pass(name, tmp_path):
    workload, out = _run_tiny(name, tmp_path)
    outcome = _checked(workload, out)
    assert outcome.failures == [] and outcome.attempted > 0


def test_purity_above_one_fails(tmp_path):
    workload, out = _run_tiny("evolve_wide", tmp_path)
    header = (out / "trajectory.csv").read_text().split("\n", 1)[0].split(",")
    col = header.index("purity")

    def tamper(lines):
        row = lines[3].split(",")
        row[col] = "1.001"
        lines[3] = ",".join(row)
        return lines

    _rewrite_csv(out / "trajectory.csv", tamper)
    assert any("purity" in f for f in _checked(workload, out).failures)


def test_deleted_row_fails(tmp_path):
    workload, out = _run_tiny("evolve_profile", tmp_path)
    _rewrite_csv(out / "trajectory.csv", lambda lines: lines[:5] + lines[6:])
    assert any("rows" in f for f in _checked(workload, out).failures)

    _rewrite_csv(out / "trajectory.csv", lambda lines: lines[:5] + ["garbage"] + lines[5:])
    assert any("malformed" in f for f in _checked(workload, out).failures)


def test_failed_sweep_point_and_oracle_mismatch_fail(tmp_path):
    workload, out = _run_tiny("sweep_eps", tmp_path / "sweep")
    _rewrite_csv(out / "sweep.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",error"])
    assert any("status error" in f for f in _checked(workload, out).failures)

    workload, out = _run_tiny("oracle_n2", tmp_path / "oracle")
    summary = json.loads((out / "oracle_summary.json").read_text())
    summary.update(passed=False, max_distance=0.01)
    (out / "oracle_summary.json").write_text(json.dumps(summary))
    assert len(_checked(workload, out).failures) == 2


def test_reference_compares_numbers_and_reports_bytes(tmp_path):
    workload, out = _run_tiny("evolve_wide", tmp_path)
    ref = tmp_path / "ref.json"
    record_reference(workload, out, ref)

    same = Outcome()
    compare_reference(workload, out, same, ref)
    assert same.failures == [] and same.details["byte_identical"] is True

    def shift(delta):
        def edit(lines):
            row = lines[-1].split(",")
            row[1] = repr(float(row[1]) + delta)
            lines[-1] = ",".join(row)
            return lines

        return edit

    _rewrite_csv(out / "trajectory.csv", shift(1e-9))
    close = Outcome()
    compare_reference(workload, out, close, ref)
    assert close.failures == [] and close.details["byte_identical"] is False

    _rewrite_csv(out / "trajectory.csv", shift(1e-5))
    far = Outcome()
    compare_reference(workload, out, far, ref)
    assert len(far.failures) == 1

    other_seed = Outcome()
    compare_reference(make_workload("evolve_wide", 1, "tiny"), out, other_seed, ref)
    assert other_seed.attempted == 0


def test_tracer_counts_spans_and_restores_originals(tmp_path):
    import resonet.cli
    import resonet.evolve
    import resonet.states

    originals = (resonet.states.gram_matrix, resonet.evolve.gram_matrix, resonet.cli.main)
    workload = make_workload("sweep_eps", 0, "tiny")
    config = tmp_path / "scenario.json"
    workload.write(config)
    tracer = Tracer("test")
    assert tracer.install() == []
    try:
        assert resonet.cli.main(workload.argv(config, tmp_path / "out")) == 0
    finally:
        tracer.uninstall()
    assert (resonet.states.gram_matrix, resonet.evolve.gram_matrix, resonet.cli.main) == originals

    totals = tracer.totals()
    assert set(totals) == set(SPAN_NAMES)
    assert totals["cli.main"]["calls"] == 1
    points, sweeps = workload.points, len(workload.sweep_values)
    assert totals["evolve.propagator"]["calls"] >= sweeps * points
    assert totals["states.gram_matrix"]["calls"] >= 2 * sweeps * points
    for rec in totals.values():
        assert rec["self_s"] <= rec["s"] + 1e-12
    main = totals["cli.main"]
    assert main["self_s"] < main["s"]


def test_sampler_ticks_inside_the_call_and_removes_its_own_time():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    sampler = speed.Sampler(interval=0.05)
    start = time.perf_counter()
    value, net, norm, ticks = sampler.measure(lambda: busy(0.4))
    outer = time.perf_counter() - start
    assert value == "done"
    assert len(ticks) >= 5  # about eight timer ticks plus the closing probe
    assert net == pytest.approx(outer - sum(ticks), abs=2e-3)  # the busy loop is wall-timed
    assert norm == pytest.approx(net * speed.REFERENCE_S * len(ticks) / sum(ticks))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_normalise_divides_out_machine_speed():
    k = speed.REFERENCE_S
    assert speed.normalise([1.0, 2.0, 3.0], [k, 2 * k, 0.5 * k]) == pytest.approx([1.0, 1.0, 6.0])
    with pytest.raises(ValueError):
        speed.normalise([1.0], [k, k])


def test_smoke_mode_keeps_metric_names_and_units():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_eps", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
