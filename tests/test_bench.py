"""The benchmark's hooks into the library still hold.

``bench/tracer.py`` patches library functions and methods by name, and
``bench/selftest.py`` drives the CLI and checks the benchmark's AUC oracle,
so a rename under ``src/`` can break the benchmark while every other test
passes. Each check runs in its own process: the tracer patches modules and
classes in place.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_selftest_passes():
    done = run_python(str(ROOT / "bench" / "selftest.py"))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_tracer_patches_every_name():
    done = run_python("-c", "from tracer import Tracer, install; "
                            "install(Tracer(), full=True)")
    assert done.returncode == 0, done.stderr[-2000:]
