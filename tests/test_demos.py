"""Every script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsm

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    # the child imports the same rsm as this process; demos that write files
    # write them under the working directory
    source = str(Path(rsm.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": path})
    assert completed.returncode == 0, completed.stderr
