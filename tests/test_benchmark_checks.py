"""The benchmark's own output checks, run on each of its workloads at the recorded seed.

perfbench/scenarios.py and perfbench/checks.py are loaded from their files,
unchanged: the same scenario JSON, the same artifact checks and the same
comparison with the recorded reference numbers as a benchmark run, without
its timing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from resonet import evolve
from resonet.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


scenarios = _load("scenarios")
checks = _load("checks")


def _spy(monkeypatch, name: str) -> list:
    """What each call of evolve.<name> returned, in call order."""
    made, function = [], getattr(evolve, name)

    def spied(*args):
        made.append(function(*args))
        return made[-1]

    monkeypatch.setattr(evolve, name, spied)
    return made


@pytest.mark.parametrize("name", scenarios.WORKLOADS)
def test_workload_passes_the_benchmark_checks(tmp_path, monkeypatch, name):
    # At seeds 0 and 1, every workload's drift is factorised in real arithmetic, and every label stream
    # reads its forms from the label images, except oracle_n2's, whose k = 2 clusters on n = 2
    # resonators have k^2 > n.  The recorded reference numbers are those of seed 0.
    for seed in (0, 1):
        bases, images = _spy(monkeypatch, "_eigenbasis"), _spy(monkeypatch, "_images")
        workload = scenarios.make_workload(name, seed)
        config, out = tmp_path / f"scenario{seed}.json", tmp_path / f"out{seed}"
        workload.write(config)
        out.mkdir()
        assert main(workload.argv(config, out)) == 0
        monkeypatch.undo()
        assert bases and all(basis.v.dtype == float for basis in bases)
        assert images and all(isinstance(made, evolve._Images) is (name != "oracle_n2") for made in images)
        outcome = checks.Outcome()
        checks.check_artifacts(workload, out, outcome)
        if seed == 0:
            checks.compare_reference(workload, out, outcome)
            assert outcome.details["reference"] == "numbers match"
        assert outcome.failures == []
