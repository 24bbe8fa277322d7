"""Every script under ``demos/``, and every ``python`` block of README.md,
runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rsm

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)


def run_python(args, cwd):
    # the child imports the same rsm as this process
    source = str(Path(rsm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    # demos that write files write them under the working directory
    completed = run_python([str(script)], tmp_path)
    assert completed.returncode == 0, completed.stderr


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    completed = run_python(["-c", block], tmp_path)
    assert completed.returncode == 0, completed.stderr
