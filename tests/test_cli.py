"""End-to-end runs of the command line interface."""

import json
import math

import numpy as np
import pytest

from resonet.cli import main


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


def test_evolve_reruns_are_byte_identical(tmp_path):
    cfg = _write_scenario(tmp_path / "s.json", output={"svg": True})
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert "purity.svg" in first


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


def test_classify_profile_reservoir_rejected(tmp_path):
    cfg = _write_scenario(
        tmp_path / "s.json",
        reservoir={
            "kind": "common_profile",
            "sigma": 1.0,
            "profiles": [
                {"amplitude": 1.0, "centers": [10.5], "widths": [100.0]},
                {"amplitude": 1.0, "centers": [10.5], "widths": [100.0]},
            ],
        },
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1


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
    assert (
        main(
            [
                "oracle-compare",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--threshold",
                "1e-12",
            ]
        )
        == 3
    )


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
