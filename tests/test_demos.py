"""Every demo script runs to completion against the package in ``src``, and
every Python block of the README prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_blocks_print_what_their_comments_say(capsys):
    # each `print(...)  # text` line promises one output line, `text`
    blocks = _PYTHON_BLOCK.findall(README.read_text())
    assert blocks
    for block in blocks:
        promised = [line.split("#", 1)[1].strip() for line in block.splitlines()
                    if line.startswith("print(") and "#" in line]
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        assert capsys.readouterr().out.splitlines() == promised
