"""The README's Python example runs against the package's top-level names."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    out = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True,
                         text=True, timeout=120).stdout
    assert 0.0 <= float(out) < 1.0  # the exact L2(Q) risk of the fit
