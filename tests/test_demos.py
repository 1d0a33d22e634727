"""Each quick demo script runs to completion against the current API.

``03_baseline_comparison.py`` trains every baseline and takes about 15 s,
so it is left to manual runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_hierarchy_layout.py", "02_train_and_evaluate.py",
         "04_visual_dimensions.py"]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
