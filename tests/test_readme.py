"""The package's public surface: the README's library example runs as documented, and every export resolves."""

import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resonet
from resonet import evolve, network, oracle, reservoir
from resonet.errors import _BYTE_BUDGET, ModelError, _sci

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
    modules = ("", ".artifacts", ".cli", ".config", ".dfs", ".evolve", ".network", ".oracle", ".reservoir", ".states")
    for name in modules:
        module = importlib.import_module("resonet" + name)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
        assert moved.isdisjoint(vars(module)), module.__name__
    assert not hasattr(importlib.import_module("resonet.oracle").LindbladGenerator, "matrix")
    assert not hasattr(importlib.import_module("resonet.dfs").ClassificationReport, "to_json_dict")


def _package_imports(module: str) -> set[str]:
    """The resonet modules that src/resonet/<module>.py imports, by any spelling."""
    dotted = []
    for node in ast.walk(ast.parse((Path(resonet.__file__).parent / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["resonet" if node.level else "", node.module]))
            dotted += [f"{base}.{a.name}" for a in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("resonet.")}


def test_modules_import_one_way():
    # evolve -> artifacts -> cli: the label physics knows nothing of the artifact bytes, and the bytes know
    # nothing of the commands, the scenario format or the oracle.
    assert {"evolve"} <= _package_imports("artifacts") and {"artifacts", "evolve"} <= _package_imports("cli")
    assert _package_imports("evolve").isdisjoint({"artifacts", "cli"})
    assert _package_imports("artifacts").isdisjoint({"cli", "config", "oracle"})
    assert "artifacts" not in _package_imports("oracle")


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
    assert f"{network._NETWORK_ENTRY_BYTES} bytes per entry of an n x n network" in text
    largest = math.isqrt(_BYTE_BUDGET // network._NETWORK_ENTRY_BYTES)
    assert f"an `n` above {largest:,} is rejected" in text
    with pytest.raises(ModelError, match=f"{largest + 1} resonators need"):
        network.degenerate_network(largest + 1, 10.0, 0.5)
    # the evolve.py paragraph: the shorthand's cluster count and real factorisation, and the images' bytes
    net = network.degenerate_network(6, 10.0, 0.5)
    kinds = reservoir.ReservoirKind
    profiles = (reservoir.CouplingProfile(1.0, [12.5], [0.1]),) * 6
    bases = [
        evolve._eigenbasis(network.drift_matrix(net, reservoir.build_decay_matrix(res, net)))
        for res in (
            reservoir.ReservoirSpec(kind=kinds.COMMON_WHITE_NOISE, sigma=1.0, epsilon=0.5),
            reservoir.ReservoirSpec(kind=kinds.DISTINCT_STRONG_COUPLING, gamma_plus=2.0, gamma_minus=0.3),
            reservoir.ReservoirSpec(kind=kinds.COMMON_PROFILE, sigma=1.0, profiles=profiles),
        )
    ]
    (k,) = {np.unique(basis.group).size for basis in bases}
    assert f"has k = {k} clusters" in text and "in all three reservoir kinds" in text
    assert all(basis.v.dtype == float for basis in bases) and "V is real and orthogonal, V^-1 = V^T" in text
    assert "The images hold 16 k terms n bytes" in text
    assert f"max(1, {budget} // n^2) times at a time" in text  # the Taylor fallback's slices
    # the memory paragraph's image bytes: per pair of terms (the second difference in terms) and per resonator
    image_bytes = evolve._image_bytes
    assert (image_bytes(k, 4, 6) - 2 * image_bytes(k, 3, 6) + image_bytes(k, 2, 6)) // 2 == 24 * k + 40 == 88
    assert image_bytes(k, 3, 7) - image_bytes(k, 3, 6) == 16 * (3 * 3 + 2 * k) * k
    assert "24 k + 40 bytes per pair of terms, 88 at k = 2, and 16 (3 terms + 2 k) k bytes per resonator" in text
    # a generic network (k^2 > n) forms eigen-coordinates instead, so no generic size is rejected
    assert "from n = 2,049 on" not in text and "the same k terms n work per time, in terms n memory" in text
    assert f"within {evolve._ROUNDING_UNITS} n 2^-53 |delta|^2" in text
    # the oracle-compare paragraph: the array count, the generator's offsets and the n = 4 example
    arrays = oracle._WORKING_ARRAYS
    assert f"{arrays} for the states, the integrator's buffers" in text
    offsets = {n: oracle.working_set_bytes(n, 1) // (4**n * 16) - arrays for n in (2, 3)}
    assert offsets == {n: 3 * n * n - 2 * n for n in (2, 3)}
    assert f"3n^2 - 2n of them ({offsets[2]} at n = 2, {offsets[3]} at n = 3)" in text
    for word, cutoff in (("suggested", 13), ("minimum", 10)):
        need, array = oracle.working_set_bytes(4, cutoff), (cutoff + 1) ** 8 * 16
        assert f"{word} cutoff {cutoff} needs {_sci(need)} bytes ({need // array} arrays of {array / 2**30:.2g} GiB)" in text
