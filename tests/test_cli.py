"""End-to-end runs of the command line interface."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import resonet
from resonet import artifacts, config, dfs, evolve, network, oracle, reservoir
from resonet.cli import main
from reference import probe_flow


def _write_scenario(path, **overrides):
    scenario = {
        "network": {"n": 2, "omega": 10.0, "lambda": 0.5},
        "reservoir": {"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 0.5},
        "state": {"type": "rs", "r": 1, "s": 1, "alpha": 0.6},
        "evolution": {"t_max": 1.0, "steps": 10},
    }
    scenario.update(overrides)
    path.write_text(json.dumps(scenario))
    return path


def test_modes_command(tmp_path):
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "modes.json").read_text())
    assert payload["n"] == 2
    assert payload["split"]["omega_plus"] == 10.5
    assert payload["split"]["omega_minus"] == 9.5
    freqs = sorted(payload["frequencies"])
    assert abs(freqs[0] - 9.5) < 1e-9 and abs(freqs[1] - 10.5) < 1e-9


def test_modes_explicit_network(tmp_path):
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"omega": [1.0, 2.0], "coupling": [[0.0, 0.1], [0.1, 0.0]]},
    )
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "modes.json").read_text())
    assert "split" not in payload


def test_modes_writes_no_rounding_noise_as_a_transform_entry(tmp_path):
    # The renormalised n = 3 network's first degenerate mode has an exact 0
    # where eigh leaves about 6e-17.
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"n": 3, "omega": 10.0, "lambda": 2.0},
        reservoir={"kind": "distinct_strong_coupling", "gamma_plus": 1.0, "gamma_minus": 0.0},
    )
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    transform = json.loads((out / "modes.json").read_text())["transform"]
    assert transform[0] == [0.0, 0.707106781, -0.707106781]
    assert all(x == 0.0 or abs(x) > 1e-12 for row in transform for x in row)


def test_evolve_outputs(tmp_path):
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    csv_lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert csv_lines[0].startswith("time,occ_1,occ_2,occ_total,purity,fidelity")
    assert len(csv_lines) == 12
    summary = json.loads((out / "summary.json").read_text())
    assert summary["propagator"] == "closed_form"
    assert abs(summary["gamma_down"] - 0.5) < 1e-9
    assert abs(summary["gamma_up"] - 1.5) < 1e-9
    assert abs(summary["tau_d_formula"] - summary["tau_d_numeric"]) < 1e-3
    assert summary["final"]["purity"] < 1.0


def test_evolve_general_path_for_explicit_network(tmp_path):
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"omega": [10.0, 10.0], "coupling": [[0.0, 0.5], [0.5, 0.0]]},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["propagator"] == "general"
    # same physics as the shorthand scenario, so the same decay split
    assert abs(summary["gamma_down"] - 0.5) < 1e-9


def test_profile_reservoir_builds_decay_matrix_once_per_command(tmp_path, monkeypatch):
    calls = {"normal_modes": 0, "build_decay_matrix": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(network, "normal_modes")
    counted(reservoir, "build_decay_matrix")
    profile = {"amplitude": 1.0, "centers": [10.5], "widths": [100.0]}
    cfg = _write_scenario(
        tmp_path / "s.json",
        reservoir={"kind": "common_profile", "sigma": 1.0, "profiles": [profile, profile]},
        evolution={"t_max": 0.3, "steps": 3},
        oracle={"cutoff": 12},
    )
    for command in ("evolve", "oracle-compare"):
        calls.update(normal_modes=0, build_decay_matrix=0)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"normal_modes": 1, "build_decay_matrix": 1}, command


def test_cli_import_leaves_scipy_linalg_unloaded():
    # Every command pays the import; scipy.linalg alone would add about 0.1 s.
    env = dict(os.environ, PYTHONPATH=str(Path(resonet.__file__).resolve().parents[1]))
    code = "import sys, resonet.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_label_space_commands_import_numpy_alone(tmp_path):
    # Every command pays the import, and scipy.sparse alone took about two
    # thirds of it.  The oracle is numpy-only too: oracle-compare loads no
    # scipy module (scipy.sparse alone added about 9 MB to its peak RSS).
    cfg = _write_scenario(tmp_path / "s.json")
    env = dict(os.environ, PYTHONPATH=str(Path(resonet.__file__).resolve().parents[1]))
    code = f"""
import sys
preloaded = set(sys.modules)  # site may load packages before this line
import resonet, resonet.cli
allowed = set(sys.stdlib_module_names) | {{"numpy", "resonet"}}
print("added:", sorted(m for m in set(sys.modules) - preloaded if m.split(".")[0] not in allowed))
codes = []
for command, extra in (("modes", []), ("evolve", []), ("classify", []),
                       ("sweep", ["--sweep-param", "epsilon", "--sweep-values", "0.2,0.8"])):
    codes.append(resonet.cli.main([command, "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}, *extra]))
print("after:", codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
code = resonet.cli.main(["oracle-compare", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
print("oracle-compare:", code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    checks = [line for line in proc.stdout.splitlines() if line.split(":")[0] in ("added", "after", "oracle-compare")]
    assert checks == ["added: []", "after: [0, 0, 0, 0] []", "oracle-compare: 0 []"]


# Detuning 0.5 against the cross rate eps * Gamma = 0.5: the drift has one
# doubly repeated eigenvalue with a single eigenvector (an exceptional point).
_EXCEPTIONAL_POINT = dict(
    network={"omega": [10.0, 10.5], "coupling": [[0.0, 0.0], [0.0, 0.0]]},
    reservoir={"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 0.5},
)


@pytest.mark.parametrize("scenario", [{}, _EXCEPTIONAL_POINT], ids=["degenerate", "exceptional_point"])
def test_evolve_leaves_scipy_linalg_unloaded(tmp_path, scenario):
    # Neither the eigenvector flow nor its Taylor fallback (taken at the
    # exceptional point) may pull scipy.linalg into a run: it would show in
    # setup time and peak RSS.  Both runs must also exit 0.
    cfg = _write_scenario(tmp_path / "s.json", **scenario)
    env = dict(os.environ, PYTHONPATH=str(Path(resonet.__file__).resolve().parents[1]))
    code = (
        "import sys; from resonet.cli import main; "
        f"code = main(['evolve', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'scipy.linalg' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_evolve_writes_no_rounding_noise_as_a_decay_rate(tmp_path):
    # Sixteen identical profiles give a decay matrix of rank one; eigvalsh
    # puts its zero eigenvalues at about -1e-15, which used to reach the summary.
    profile = {"amplitude": 1.0, "centers": [17.5], "widths": [0.1]}
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"n": 16, "omega": 10.0, "lambda": 0.5},
        reservoir={"kind": "common_profile", "sigma": 1.0, "profiles": [profile] * 16},
        evolution={"t_max": 0.5, "steps": 5},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma_down"] == 0.0
    assert summary["gamma_up"] == pytest.approx(16.0)


def test_evolve_reruns_are_byte_identical(tmp_path):
    cfg = _write_scenario(tmp_path / "s.json", output={"svg": True})
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert "purity.svg" in first


def test_oracle_compare_reruns_are_byte_identical(tmp_path):
    cfg = _write_scenario(tmp_path / "s.json", evolution={"t_max": 0.3, "steps": 3}, oracle={"cutoff": 12})
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert set(first) == {"oracle.csv", "oracle_summary.json"}


def test_distinct_reservoir_run(tmp_path):
    cfg = _write_scenario(
        tmp_path / "s.json",
        reservoir={"kind": "distinct_strong_coupling", "gamma_plus": 2.0, "gamma_minus": 0.0},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["propagator"] == "general"
    assert abs(summary["gamma_down"] - 0.0) < 1e-9
    assert abs(summary["gamma_up"] - 2.0) < 1e-9
    # balanced branches survive the purely collective channel
    assert summary["tau_d_formula"] == "inf"


def test_distinct_tau_formula_matches_classify(tmp_path):
    # With a residual rate gamma_minus > 0 the decoherence time is finite, and
    # evolve and classify must map the distinct rates onto the same
    # effective common reservoir.
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"n": 3, "omega": 10.0, "lambda": 0.5},
        reservoir={"kind": "distinct_strong_coupling", "gamma_plus": 2.0, "gamma_minus": 0.3},
        state={"type": "rs", "r": 2, "s": 1, "alpha": 0.6},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    report = json.loads((out / "classification.json").read_text())
    assert math.isfinite(summary["tau_d_formula"])
    assert report["tau_d"] == summary["tau_d_formula"]


def test_distinct_reservoir_with_gamma_minus_above_gamma_plus(tmp_path):
    # gamma_minus > gamma_plus is a positive-semidefinite decay matrix; both
    # commands used to exit 1 with "epsilon must lie in [0, 1]".  The
    # balanced pair decoheres at 2 |alpha|^2 (R+S) gamma_minus = 2.88.
    cfg = _write_scenario(
        tmp_path / "s.json",
        reservoir={"kind": "distinct_strong_coupling", "gamma_plus": 1.0, "gamma_minus": 2.0},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    report = json.loads((out / "classification.json").read_text())
    assert report["tau_d"] == summary["tau_d_formula"] == float(f"{1.0 / 2.88:.9g}")
    assert abs(summary["tau_d_numeric"] - 1.0 / 2.88) < 1e-3


def test_evolve_writes_no_file_when_the_summary_fails(tmp_path, monkeypatch):
    def broken(*args):
        raise resonet.ModelError("no summary")

    monkeypatch.setattr(dfs, "decoherence_time", broken)
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(_write_scenario(tmp_path / "s.json")), "--out", str(out)]) == 1
    assert list(out.iterdir()) == []


def test_strong_coupling_shift_is_the_same_for_both_network_spellings(tmp_path):
    # The {n, omega, lambda} shorthand is renormalised when the scenario is
    # read; the explicit spelling of the shifted network gives the same files.
    # modes.json differs only by the shorthand's "split".
    distinct = {"kind": "distinct_strong_coupling", "gamma_plus": 1.0, "gamma_minus": 0.0}
    for n, t_max, steps, commands in (
        (3, 2.0, 20, ("modes", "evolve", "classify")),
        (2, 0.3, 3, ("modes", "evolve", "classify", "oracle-compare")),
    ):
        shifted = reservoir.renormalized_frequency(10.0, 2.0, n)
        coupling = np.full((n, n), 2.0)
        np.fill_diagonal(coupling, 0.0)
        spellings = {
            "shorthand": {"n": n, "omega": 10.0, "lambda": 2.0},
            "explicit": {"omega": [shifted] * n, "coupling": coupling.tolist()},
        }
        files = {}
        for name, net in spellings.items():
            cfg = _write_scenario(
                tmp_path / f"{name}{n}.json",
                network=net,
                reservoir=distinct,
                evolution={"t_max": t_max, "steps": steps},
                oracle={"cutoff": 12},
            )
            out = tmp_path / f"{name}{n}"
            for command in commands:
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        modes = json.loads(files["shorthand"].pop("modes.json"))
        split = modes.pop("split")
        assert modes == json.loads(files["explicit"].pop("modes.json"))
        assert split["omega_plus"] == float(f"{shifted + (n - 1) * 2.0:.9g}")
        assert split["omega_minus"] == float(f"{shifted - 2.0:.9g}")
        assert files["shorthand"] == files["explicit"]
        assert "classification.json" in files["shorthand"] and "trajectory.csv" in files["shorthand"]
        assert ("oracle.csv" in files["shorthand"]) is ("oracle-compare" in commands)
        if n == 3:
            # fidelity at t = 2; the bare omega = 10 written explicitly reads 0.937409825
            header, *_, last = files["shorthand"]["trajectory.csv"].decode().splitlines()
            last = dict(zip(header.split(","), last.split(",")))
            assert last["time"] == "2" and last["fidelity"] == "0.469758377"


def test_classify_command(tmp_path):
    cfg = _write_scenario(
        tmp_path / "s.json",
        reservoir={"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 1.0},
    )
    out = tmp_path / "out"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "classification.json").read_text())
    assert payload["is_dfs"] is True
    assert payload["is_rfs"] is True
    assert payload["tau_d"] == "inf"
    assert payload["regime"] == "common_eps1"


def test_classify_profile_reservoir(tmp_path):
    # Profile reservoirs get the same protected-subspace verdict as the
    # others, and classify reports the tau_d that evolve writes.
    profile = {"amplitude": 1.0, "centers": [10.5], "widths": [100.0]}
    for r, s, dfs_expected in ((1, 1, True), (1, 0, False)):
        cfg = _write_scenario(
            tmp_path / "s.json",
            reservoir={"kind": "common_profile", "sigma": 1.0, "profiles": [profile, profile]},
            state={"type": "rs", "r": r, "s": s, "alpha": 0.6},
        )
        out = tmp_path / "out"
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "classification.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert report["regime"] == "common_profile"
        assert report["is_dfs"] is dfs_expected
        assert report["tau_d"] == summary["tau_d_formula"]
        assert (report["tau_d"] == "inf") is dfs_expected


def test_classify_distinct_reservoir_without_collective_rate(tmp_path):
    # gamma_plus = 0 is a valid decay matrix; classify used to exit 1 with
    # "distinct-reservoir classification needs gamma_plus > 0".
    cfg = _write_scenario(
        tmp_path / "s.json",
        reservoir={"kind": "distinct_strong_coupling", "gamma_plus": 0.0, "gamma_minus": 0.5},
    )
    out = tmp_path / "out"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "classification.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert report["is_dfs"] is False
    assert report["tau_d"] == summary["tau_d_formula"] == float(f"{1.0 / 0.72:.9g}")


def test_classify_reads_the_network(tmp_path):
    # Detuned resonators in fully correlated white noise: the balanced pair
    # starts in ker Gamma but the network carries it out, so it is neither
    # decoherence- nor relaxation-free (it used to be reported as both), and
    # evolve loses purity.  Its short-time tau_d is infinite because the
    # initial rate vanishes; an unbalanced pair has a finite one.
    network = {"omega": [10.0, 10.3, 9.6], "coupling": [[0.0, 0.4, 0.4], [0.4, 0.0, 0.4], [0.4, 0.4, 0.0]]}
    reservoir = {"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 1.0}
    out = tmp_path / "out"
    for r, s in ((1, 1), (1, 0)):
        cfg = _write_scenario(
            tmp_path / "s.json",
            network=network,
            reservoir=reservoir,
            state={"type": "rs", "r": r, "s": s, "alpha": 0.7},
            evolution={"t_max": 20.0, "steps": 40},
        )
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "classification.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert report["is_dfs"] is False and report["is_rfs"] is False
        assert report["tau_d"] == summary["tau_d_formula"]
        if (r, s) == (1, 1):
            assert report["tau_d"] == "inf"
            assert summary["final"]["purity"] == pytest.approx(0.727, abs=1e-3)
        else:
            assert report["tau_d"] == float(f"{1.0 / 0.98:.9g}")


def test_profile_reservoir_on_a_detuned_network(tmp_path):
    # Identical profiles on detuned resonators used to be rejected as an
    # asymmetric decay matrix (relative asymmetry 0.147).
    rng = np.random.default_rng(1)
    omega = 10.0 + rng.uniform(-0.5, 0.5, size=8)
    coupling = np.full((8, 8), 0.5)
    np.fill_diagonal(coupling, 0.0)
    profile = {"amplitude": 1.0, "centers": [13.5], "widths": [0.1]}
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"omega": omega.tolist(), "coupling": coupling.tolist()},
        reservoir={"kind": "common_profile", "sigma": 1.0, "profiles": [profile] * 8},
        state={"type": "rs", "r": 2, "s": 2, "alpha": 0.5},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma_down"] > 0.0
    assert math.isfinite(summary["tau_d_formula"])


def test_profile_reservoir_ignores_epsilon(tmp_path):
    # Gamma of a profile reservoir comes from its profiles alone, so an
    # epsilon key is ignored like any unknown key, even out of range.
    profile = {"amplitude": 1.0, "centers": [10.5], "widths": [1.0]}
    outputs = []
    for extra in ({}, {"epsilon": 0.3}, {"epsilon": 7.0}):
        reservoir = {"kind": "common_profile", "sigma": 1.0, "profiles": [profile, profile], **extra}
        cfg = _write_scenario(tmp_path / "s.json", reservoir=reservoir)
        out = tmp_path / f"out{len(outputs)}"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]
    assert set(outputs[0]) == {"trajectory.csv", "summary.json", "classification.json"}
    # nothing reads it, so it cannot be swept either
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--sweep-param", "epsilon", "--sweep-values", "0.5"]
    assert main(argv) == 1
    assert json.loads((out / "sweep_summary.json").read_text())["errors"] == {
        "0.5": "epsilon sweeps need a white-noise reservoir scenario"
    }


def test_oracle_compare_pass_and_mismatch(tmp_path):
    cfg = _write_scenario(
        tmp_path / "s.json",
        evolution={"t_max": 0.3, "steps": 3},
        oracle={"cutoff": 12, "threshold": 0.005},
    )
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["max_distance"] < 5e-3
    assert summary["cutoff"] == 12
    lines = (out / "oracle.csv").read_text().strip().split("\n")
    assert lines[0] == "time,trace_distance"
    assert len(lines) == 5
    # an impossible threshold flips the exit code to the mismatch value
    strict = _write_scenario(
        tmp_path / "strict.json",
        evolution={"t_max": 0.3, "steps": 3},
        oracle={"cutoff": 12, "threshold": 1e-12},
    )
    assert main(["oracle-compare", "--config", str(strict), "--out", str(out)]) == 3
    # the threshold comes from the scenario alone; argparse rejects the old flag
    with pytest.raises(SystemExit) as exc:
        main(["oracle-compare", "--config", str(cfg), "--out", str(out), "--threshold", "1e-12"])
    assert exc.value.code == 2


def test_oracle_csv_prints_each_value_as_percent_9g(tmp_path, monkeypatch):
    # The table goes through the CSV kernel; its text must be format(x, ".9g") of every value, the kernel's
    # fallbacks (zeros, a subnormal, inf, nan) included.  The exit code depends on nan and is not the point.
    values = np.array([0.0, -0.0, 5e-324, 4.8e-8, 0.1, np.inf, np.nan])
    times, distances = values, values[::-1]
    report = oracle.ComparisonReport(times, distances, float(np.max(distances)), 0.0)
    monkeypatch.setattr(oracle, "compare", lambda blocks, rhos, basis: report)
    cfg = _write_scenario(tmp_path / "s.json", evolution={"t_max": 0.3, "steps": 3}, oracle={"cutoff": 12})
    out = tmp_path / "out"
    main(["oracle-compare", "--config", str(cfg), "--out", str(out)])
    rows = "".join(f"{format(t, '.9g')},{format(d, '.9g')}\n" for t, d in zip(times, distances))
    assert (out / "oracle.csv").read_text() == "time,trace_distance\n" + rows


def test_oracle_compare_accepts_its_default_cutoff_at_large_amplitude(tmp_path):
    # One resonator at amplitude 8 without oracle.cutoff: the default must
    # pass the tail check (minimum cutoff 121), not stop at the rule's 120.
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"n": 1, "omega": 10.0, "lambda": 0.5},
        state={"type": "explicit", "weights": [1.0], "labels": [[8.0]]},
        evolution={"t_max": 0.1, "steps": 2},
    )
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert summary["cutoff"] == 121 and summary["passed"] is True


def test_oracle_compare_rejects_a_working_set_over_budget(tmp_path, capsys):
    # The README's example scenario: cutoff 13 gives dim 38416 and 22 GiB per
    # density matrix.  The byte estimate stops it before anything is embedded.
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"n": 4, "omega": 10.0, "lambda": 0.5},
        reservoir={"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 1.0},
        state={"r": 2, "s": 2, "alpha": 0.7},
        evolution={"t_max": 5.0, "steps": 50},
    )
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "minimum cutoff is 10" in err
    assert not (out / "oracle.csv").exists()


@pytest.mark.parametrize("existing", [None, "earlier run\n"], ids=["absent", "present"])
def test_failed_csv_stream_leaves_no_trajectory_csv(tmp_path, monkeypatch, existing):
    # One row per block; the write after the header and the first row fails.
    monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", 1)
    original = artifacts.trajectory_to_csv

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes > 2:
                raise OSError("disk full")
            return self.fh.write(text)

    monkeypatch.setattr(artifacts, "trajectory_to_csv", lambda traj, out: original(traj, FailingFile(out)))
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    out.mkdir()
    if existing is not None:
        (out / "trajectory.csv").write_text(existing)
    with pytest.raises(OSError, match="disk full"):
        main(["evolve", "--config", str(cfg), "--out", str(out)])
    if existing is None:
        assert not (out / "trajectory.csv").exists()
    else:
        assert (out / "trajectory.csv").read_text() == existing
    assert sorted(p.name for p in out.iterdir()) == ([] if existing is None else ["trajectory.csv"])


def test_evolve_rejects_a_trajectory_over_budget(tmp_path, monkeypatch, capsys):
    # 11 grid times: 8 bytes each for the grid, 32 with the three SVG series.
    monkeypatch.setattr(config, "_BYTE_BUDGET", 80)
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "11 grid times need 8.80e1 bytes" in err and "8.00e1-byte budget" in err
    assert not (out / "trajectory.csv").exists()
    monkeypatch.setattr(config, "_BYTE_BUDGET", 100)
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    cfg = _write_scenario(tmp_path / "svg.json", output={"svg": True})
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "svg")]) == 1
    assert "need 3.52e2 bytes" in capsys.readouterr().err
    assert not (tmp_path / "svg" / "trajectory.csv").exists()


def _explicit_state(terms):
    """A state of `terms` distinct products on 2 resonators, every label amplitude 0.3."""
    labels = 0.3 * np.exp(1j * np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=(terms, 2)))
    return {
        "type": "explicit",
        "weights": [[1.0, 0.5 * k] for k in range(terms)],
        "labels": [[[z.real, z.imag] for z in row] for row in labels],
    }


def test_evolve_rejects_a_state_over_the_term_budget(tmp_path, monkeypatch, capsys):
    # 3 terms: the budget must hold _TERM_PAIR_BYTES per term pair, 9 of them.
    need = evolve._TERM_PAIR_BYTES * 9
    cfg = _write_scenario(tmp_path / "s.json", state=_explicit_state(3))
    out = tmp_path / "out"
    monkeypatch.setattr(evolve, "_BYTE_BUDGET", need - 1)

    def unreachable(*args):
        raise AssertionError("the state was built")

    with monkeypatch.context() as m:
        m.setattr(config, "make_superposition", unreachable)
        for command in ("evolve", "classify", "sweep"):
            args = ["--sweep-param", "epsilon", "--sweep-values", "0.5"] if command == "sweep" else []
            assert main([command, "--config", str(cfg), "--out", str(out), *args]) == 1
            err = capsys.readouterr().err
            assert f"state: 3 terms need {resonet.errors._sci(need)} bytes per grid time" in err
            assert f"{resonet.errors._sci(need - 1)}-byte budget" in err
    assert not out.exists() or not any(out.iterdir())
    monkeypatch.setattr(evolve, "_BYTE_BUDGET", need)
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    # at the real budget 3,473 terms pass and 5,000 are rejected, without building either
    monkeypatch.setattr(evolve, "_BYTE_BUDGET", resonet.errors._BYTE_BUDGET)
    evolve.check_terms(3473)
    with pytest.raises(resonet.ModelError, match="5000 terms need"):
        evolve.check_terms(5000)


def test_term_budget_bounds_the_traced_memory_of_evolve(tmp_path):
    # The peak grows by at most _TERM_PAIR_BYTES per added term pair.
    peaks = []
    for terms in (150, 300):
        cfg = _write_scenario(
            tmp_path / f"s{terms}.json", state=_explicit_state(terms), evolution={"t_max": 1.0, "steps": 2}
        )
        tracemalloc.start()
        try:
            assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / f"out{terms}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= evolve._TERM_PAIR_BYTES * (300**2 - 150**2)


@pytest.mark.parametrize("existing", [None, "earlier run\n"], ids=["absent", "present"])
def test_trace_abort_mid_stream_leaves_no_trajectory_csv(tmp_path, monkeypatch, existing):
    # One row per block, and the flow explodes at t = 0.5: the rows of the
    # five earlier times reach the temp file before the abort is known.
    monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", 1)
    label_flow, trajectory_to_csv = evolve.label_flow, artifacts.trajectory_to_csv

    def exploding(drift):
        flow = label_flow(drift)
        return lambda beta, t: np.where(t >= 0.5, 30.0, 1.0)[:, None, None] * flow(beta, t)

    written = []

    def watched(blocks, fh):
        for block in trajectory_to_csv(blocks, fh):
            written.append(fh.tell())
            yield block

    monkeypatch.setattr(evolve, "label_flow", exploding)
    monkeypatch.setattr(artifacts, "trajectory_to_csv", watched)
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    out.mkdir()
    if existing is not None:
        (out / "trajectory.csv").write_text(existing)
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert len(written) == 5 and 0 < written[0] < written[-1]
    if existing is not None:
        assert (out / "trajectory.csv").read_text() == existing
    assert sorted(p.name for p in out.iterdir()) == ([] if existing is None else ["trajectory.csv"])


def test_label_guard_stops_evolve_on_a_flow_that_grows_the_labels(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(evolve, "label_flow", lambda drift: probe_flow(2))
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "outgrew" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists() and not (out / "summary.json").exists()


def test_evolve_memory_does_not_grow_with_the_grid(tmp_path):
    # Rows are written as the label stream passes, and only the last block
    # is kept for the summary.  Kept whole, the longer grid's labels and
    # coefficients would take 5001 * 6 * (8 + 6) * 16 = 6.7 MB; streamed, the
    # peak rises by less than one block-sized complex array.
    rng = np.random.default_rng(5)
    n, terms = 8, 6
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    labels = 0.3 * (rng.normal(size=(terms, n)) + 1j * rng.normal(size=(terms, n)))
    state = {
        "type": "explicit",
        "weights": [[w.real, w.imag] for w in weights],
        "labels": [[[b.real, b.imag] for b in row] for row in labels],
    }
    peaks = []
    for steps in (500, 5000):
        cfg = _write_scenario(
            tmp_path / "s.json",
            network={"n": n, "omega": 10.0, "lambda": 0.5},
            state=state,
            evolution={"t_max": 5.0, "steps": steps},
        )
        out = tmp_path / f"out{steps}"
        tracemalloc.start()
        try:
            assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len((out / "trajectory.csv").read_text().splitlines()) == steps + 2
    assert peaks[1] - peaks[0] < 16 * evolve._BLOCK_ELEMENTS


def test_sweep_command(tmp_path):
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", str(cfg), "--out", str(out), "--sweep-param", "epsilon", "--sweep-values", "0,0.5,1"]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "0"
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["partial"] is False and summary["completed"] == 3
    # the fully correlated endpoint preserves the balanced state
    last = lines[3].split(",")
    header = lines[0].split(",")
    assert last[header.index("tau_d_formula")] == "inf"
    assert abs(float(last[header.index("final_purity")]) - 1.0) < 1e-9


def test_sweep_final_values_match_the_last_trajectory_row(tmp_path, monkeypatch):
    # 2 terms on 2 resonators: 8 elements per grid time, so the 11 times
    # stream in blocks of 4, 4 and 3 and only the last block is summarised.
    monkeypatch.setattr(evolve, "_BLOCK_ELEMENTS", 8 * 4)
    cfg = _write_scenario(tmp_path / "s.json")
    args = ["--sweep-param", "epsilon", "--sweep-values", "0.7"]
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"), *args]) == 0
    patched = _write_scenario(
        tmp_path / "p.json", reservoir={"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 0.7}
    )
    assert main(["evolve", "--config", str(patched), "--out", str(tmp_path / "evolve")]) == 0
    header, row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    swept = dict(zip(header.split(","), row.split(",")))
    lines = (tmp_path / "evolve" / "trajectory.csv").read_text().splitlines()
    last = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert last["time"] == "1"
    assert swept["final_purity"] == last["purity"]
    assert swept["final_fidelity"] == last["fidelity"]
    assert swept["final_occupation"] == last["occ_total"]


@pytest.mark.parametrize("seed", range(3))
def test_sweep_finals_match_the_evolve_summary(tmp_path, seed):
    # sweep forms its final record from a one-time block, as evolve's summary does.
    rng = np.random.default_rng(seed)
    n, terms = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    labels = rng.uniform(0.2, 1.5) * (rng.normal(size=(terms, n)) + 1j * rng.normal(size=(terms, n)))
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    state = {
        "type": "explicit",
        "weights": [[w.real, w.imag] for w in weights],
        "labels": [[[b.real, b.imag] for b in row] for row in labels],
    }
    evolution = {"t_max": float(rng.uniform(1.0, 5.0)), "steps": int(rng.integers(10, 3000))}
    values = [round(float(v), 3) for v in rng.uniform(0.0, 1.0, size=2)]
    network = {"n": n, "omega": 10.0, "lambda": 0.5}
    cfg = _write_scenario(tmp_path / "s.json", network=network, state=state, evolution=evolution)
    args = ["--sweep-param", "epsilon", "--sweep-values", ",".join(map(str, values))]
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"), *args]) == 0
    header, *rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    for value, row in zip(values, rows):
        swept = dict(zip(header.split(","), row.split(",")))
        patched = _write_scenario(
            tmp_path / "p.json",
            network=network,
            reservoir={"kind": "common_white_noise", "Gamma": 1.0, "epsilon": value},
            state=state,
            evolution=evolution,
        )
        assert main(["evolve", "--config", str(patched), "--out", str(tmp_path / "evolve")]) == 0
        final = json.loads((tmp_path / "evolve" / "summary.json").read_text())["final"]
        assert swept["final_purity"] == artifacts._fmt(final["purity"])
        assert swept["final_fidelity"] == artifacts._fmt(final["fidelity_to_initial"])
        assert swept["final_occupation"] == artifacts._fmt(final["total_occupation"])


@pytest.mark.parametrize("param, values", [("alpha", (0.3, 1.1)), ("lambda", (0.2, 1.5))])
def test_sweep_rows_match_the_evolve_summary_of_the_patched_scenario(tmp_path, param, values):
    cfg = _write_scenario(tmp_path / "s.json")
    raw = json.loads(cfg.read_text())
    section = "state" if param == "alpha" else "network"
    args = ["--sweep-param", param, "--sweep-values", ",".join(map(str, values))]
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"), *args]) == 0
    header, *rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        swept = dict(zip(header.split(","), row.split(",")))
        assert swept[param] == artifacts._fmt(value) and swept["status"] == "ok"
        patched = _write_scenario(tmp_path / "p.json", **{section: {**raw[section], param: value}})
        assert main(["evolve", "--config", str(patched), "--out", str(tmp_path / "evolve")]) == 0
        summary = json.loads((tmp_path / "evolve" / "summary.json").read_text())
        want = {
            **{key: summary[key] for key in ("gamma_down", "gamma_up", "tau_d_formula", "tau_d_numeric")},
            "final_purity": summary["final"]["purity"],
            "final_fidelity": summary["final"]["fidelity_to_initial"],
            "final_occupation": summary["final"]["total_occupation"],
        }
        for key, v in want.items():
            assert swept[key] == (v if isinstance(v, str) else artifacts._fmt(v))


@pytest.mark.parametrize(
    "param, override, message",
    [
        ("alpha", {"state": {"type": "explicit", "weights": [1.0], "labels": [[0.5, 0.5]]}},
         "alpha sweeps need the two-branch state form"),
        ("lambda", {"network": {"omega": [10.0, 10.0], "coupling": [[0.0, 0.5], [0.5, 0.0]]}},
         "lambda sweeps need the degenerate network shorthand"),
    ],
)
def test_sweep_rejects_a_scenario_without_the_swept_key(tmp_path, param, override, message):
    cfg = _write_scenario(tmp_path / "s.json", **override)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--sweep-param", param, "--sweep-values", "0.5"]) == 1
    assert json.loads((out / "sweep_summary.json").read_text())["errors"] == {"0.5": message}


def test_sweep_partial_failure(tmp_path):
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", str(cfg), "--out", str(out), "--sweep-param", "N", "--sweep-values", "2,3,1.5"]
    )
    assert code == 1
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["partial"] is True
    assert summary["completed"] == 2 and summary["failed"] == 1


def test_bad_config_exit_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["evolve", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["evolve", "--config", str(broken), "--out", str(tmp_path / "o")]) == 1
    nostate = tmp_path / "nostate.json"
    _write_scenario(nostate)
    raw = json.loads(nostate.read_text())
    del raw["state"]
    nostate.write_text(json.dumps(raw))
    assert main(["evolve", "--config", str(nostate), "--out", str(tmp_path / "o")]) == 1
    badkind = _write_scenario(tmp_path / "bk.json", reservoir={"kind": "warm_bath"})
    assert main(["modes", "--config", str(badkind), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_threshold_and_t_max_are_rejected(tmp_path, capsys, value):
    # json writes these as NaN and Infinity, which the reader accepts
    for key, overrides in (
        ("threshold", {"oracle": {"threshold": value}}),
        ("t_max", {"evolution": {"t_max": value, "steps": 10}}),
    ):
        cfg = _write_scenario(tmp_path / "s.json", **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle-compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"'{key}' must be positive and finite" in capsys.readouterr().err


_PAIR = [[0.0, 0.5], [0.5, 0.0]]


def _profiles(**profile):
    return {"kind": "common_profile", "sigma": 1.0, "profiles": [{"amplitude": 1.0, **profile}] * 2}


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("network", {"omega": "ab", "coupling": _PAIR}, "network: 'omega' must be a number or a list"),
        ("network", {"omega": ["10", 10.0], "coupling": _PAIR}, "network: 'omega' must be a number or a list"),
        ("network", {"omega": "10", "coupling": _PAIR}, "network: 'omega' must be a number or a list"),
        ("network", {"omega": [10.0, 10.0], "coupling": [[0.0, 0.5], [0.5]]}, "network: 'coupling' must be a rect"),
        ("reservoir", _profiles(centers="x"), "reservoir: profile 0: 'centers' must be a number or a list"),
        ("reservoir", _profiles(widths=[[1.0], 2.0]), "reservoir: profile 0: 'widths' must be a rect"),
    ],
)
def test_array_keys_are_checked(tmp_path, capsys, section, value, message):
    cfg = _write_scenario(tmp_path / "s.json", **{section: value})
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: " + message)


@pytest.mark.parametrize(
    "shorthand",
    [
        {"omega": -1.0, "lambda": 0.5},
        {"omega": math.nan, "lambda": 0.5},
        {"omega": 10.0, "lambda": math.nan},
        {"n": -1, "omega": 10.0, "lambda": 0.5},
    ],
    ids=["omega=-1", "omega=nan", "lambda=nan", "n=-1"],
)
@pytest.mark.parametrize("command", ["modes", "evolve", "classify", "oracle-compare"])
def test_invalid_network_shorthand_is_rejected_by_every_command(tmp_path, capsys, shorthand, command):
    cfg = _write_scenario(
        tmp_path / "s.json",
        network={"n": 2, **shorthand},
        reservoir={"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 1.0},
    )
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: network:") and "Traceback" not in err


@pytest.mark.parametrize(
    "value",
    [
        {"kind": "distinct_strong_coupling", "gamma_plus": math.nan, "gamma_minus": 0.1},
        {"kind": "distinct_strong_coupling", "gamma_plus": 1.0, "gamma_minus": math.inf},
        _profiles(amplitude=math.nan, centers=[10.5], widths=[0.1]),
        _profiles(centers=[math.nan], widths=[0.1]),
    ],
    ids=["gamma_plus=nan", "gamma_minus=inf", "amplitude=nan", "centers=nan"],
)
def test_non_finite_reservoir_fields_are_rejected(tmp_path, capsys, value):
    cfg = _write_scenario(tmp_path / "s.json", reservoir=value)
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: reservoir: ")


_GOOD = {"amplitude": 1.0, "centers": [10.0], "widths": [0.1]}


@pytest.mark.parametrize(
    "section, value, line",
    [
        ("network", {"n": 0, "omega": 10.0, "lambda": 0.5}, "network: network needs at least one resonator"),
        ("network", {"omega": [10.0, 10.0], "coupling": [[0.0, 0.5], [0.4, 0.0]]},
         "network: coupling matrix must be symmetric"),
        ("reservoir", {"kind": "common_white_noise", "Gamma": 1.0, "epsilon": 1.5},
         "reservoir: epsilon must lie in [0, 1]"),
        ("reservoir", {"kind": "common_profile", "sigma": 1.0, "profiles": [_GOOD, {**_GOOD, "widths": [-0.1]}]},
         "reservoir: profile 1: profile widths must be positive and finite"),
        ("state", {"type": "rs", "r": 2, "s": 1, "alpha": 0.6}, "state: R + S cannot exceed the number of resonators"),
        ("state", {"type": "explicit", "weights": [1.0, -1.0], "labels": [[0.5, 0.5], [0.5, 0.5]]},
         "state: all terms cancelled: the state has zero norm"),
        ("state", {"type": "explicit", "weights": [1.0], "labels": [0] * 4000},
         "state: 4000 terms need 2.85e9 bytes per grid time, over the 2.15e9-byte budget"),
    ],
    ids=["shorthand-network", "explicit-network", "reservoir", "profile", "rs-state", "explicit-state", "term-budget"],
)
def test_model_errors_name_their_section(tmp_path, capsys, section, value, line):
    cfg = _write_scenario(tmp_path / "s.json", **{section: value})
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


def test_usage_error_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["evolve"])


def test_float_rendering_in_outputs(tmp_path):
    cfg = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    main(["evolve", "--config", str(cfg), "--out", str(out)])
    text = (out / "trajectory.csv").read_text()
    for token in text.strip().split("\n")[1].split(","):
        # every token parses and carries at most 9 significant digits
        float(token)
        digits = token.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(digits) <= 9


def _svg_series_per_point(times, values, label):
    """The SVG text built from one formatted string per point, as a reference for the chunked writer."""
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
        f"{left + (float(t) - t0) * sx:.2f},{bottom - (float(v) - v0) * sy:.2f}" for t, v in zip(times, values)
    )
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 500">\n'
        '<rect width="800" height="500" fill="white"/>\n'
        '<line x1="70" y1="460" x2="780" y2="460" stroke="black"/>\n'
        '<line x1="70" y1="30" x2="70" y2="460" stroke="black"/>\n'
        '<text x="425" y="490" text-anchor="middle" font-size="14">time</text>\n'
        f'<text x="15" y="245" font-size="14" transform="rotate(-90 15 245)" text-anchor="middle">{label}</text>\n'
        f'<text x="70" y="478" text-anchor="middle" font-size="12">{t0:.9g}</text>\n'
        f'<text x="780" y="478" text-anchor="middle" font-size="12">{t1:.9g}</text>\n'
        f'<text x="64" y="460" text-anchor="end" font-size="12">{v0:.9g}</text>\n'
        f'<text x="64" y="34" text-anchor="end" font-size="12">{v1:.9g}</text>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>\n'
        "</svg>\n"
    )


@pytest.mark.parametrize("shape", ["random", "flat"])
def test_svg_series_writes_chunks_identical_to_per_point_text(tmp_path, shape):
    points = 3 * evolve._BLOCK_ELEMENTS + 17  # several chunks of points, the last one short
    times = np.linspace(0.0, 7.5, points)
    values = np.random.default_rng(3).normal(size=points) if shape == "random" else np.full(points, 0.25)
    path = tmp_path / "series.svg"
    with path.open("w") as fh:
        artifacts._svg_series(times, values, "purity", fh)
    assert path.read_text() == _svg_series_per_point(times, values, "purity")


def test_svg_series_memory_stays_within_the_grid_guard(tmp_path):
    # config._parse_times counts 32 bytes per time with output.svg on: the
    # grid and the three series.  Writing a plot must add less than that.
    points = 10**5
    times = np.linspace(0.0, 1.0, points)
    values = np.random.default_rng(4).uniform(size=points)
    with (tmp_path / "series.svg").open("w") as fh:
        tracemalloc.start()
        try:
            artifacts._svg_series(times, values, "fidelity", fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 32 * points
