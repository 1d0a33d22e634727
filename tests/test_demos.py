"""Each quick demo script runs to completion against the current API.

``03_baseline_comparison.py`` trains every baseline and takes about 15 s,
so it is left to manual runs; its imports, and the README quickstart's,
are still checked without running them.
"""

import ast
import importlib
import os
import re
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


def _sources():
    """Every demo script and the README's Python blocks, by name."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        yield f"README.md block {k}", block


SOURCES = dict(_sources())


@pytest.mark.parametrize("name", SOURCES)
def test_imported_names_exist(name):
    imports = [node for node in ast.walk(ast.parse(SOURCES[name], name))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "hierbpr"]
    assert imports, f"{name} imports nothing from hierbpr"
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [alias.name for alias in node.names
                   if not hasattr(module, alias.name)]
        assert not missing, f"{name}: {node.module} has no {missing}"
