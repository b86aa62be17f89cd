"""The README's library example runs as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import resonet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_prints_its_verdict():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(Path(resonet.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "True True"
