"""The package's public surface: the README's library example runs as documented, and every export resolves."""

import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import resonet
from resonet import evolve
from resonet.errors import _BYTE_BUDGET, ModelError

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_prints_its_verdict():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(resonet.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "True True"


def test_every_exported_name_resolves():
    # A stale __all__ entry breaks `from resonet.<module> import *`.
    # Names moved to tests/reference.py (the paper's closed forms) or deleted stay out of the library.
    moved = {"DriftMatrix", "degenerate_decomposition", "coherent_overlap", "swap_resonators", "mode_occupations",
             "mean_amplitudes", "propagator_closed_form", "decoherence_time_formula", "master_equation_reduction_check",
             "validate_network"}
    for name in ("", ".cli", ".config", ".dfs", ".evolve", ".network", ".oracle", ".reservoir", ".states"):
        module = importlib.import_module("resonet" + name)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
        assert moved.isdisjoint(vars(module)), module.__name__
    assert not hasattr(importlib.import_module("resonet.oracle").LindbladGenerator, "matrix")
    assert not hasattr(importlib.import_module("resonet.dfs").ClassificationReport, "to_json_dict")


def test_readme_budget_numbers_match_the_code():
    text = " ".join(README.read_text().split())  # sentences run across line breaks
    budget = evolve._BLOCK_ELEMENTS
    assert f"a budget of {budget // 1024} Ki complex elements, max(1, {budget} // (terms" in text
    assert f"holds {evolve._TERM_PAIR_BYTES} bytes per pair of terms" in text
    ceiling = math.isqrt(_BYTE_BUDGET // evolve._TERM_PAIR_BYTES)
    assert f"more than {ceiling:,} terms is rejected" in text
    evolve.check_terms(ceiling)
    with pytest.raises(ModelError, match=f"{ceiling + 1} terms need"):
        evolve.check_terms(ceiling + 1)
