"""The benchmark's hooks into the library still hold.

``bench/tracer.py`` patches library functions and methods by name, and
``bench/selftest.py`` drives the CLI and checks the benchmark's AUC oracle,
so a rename under ``src/`` can break the benchmark while every other test
passes. Each check runs in its own process: the tracer patches modules and
classes in place.
"""

import json
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


def test_traced_round_records_every_layer(tmp_path):
    # ``test_tracer_patches_every_name`` shows that the patched names exist;
    # this shows that every wrapped seam is still on the path the CLI runs:
    # a traced worker round on the self-test's tiny corpus fills every
    # per-layer metric, or the worker fails naming the empty span.
    from hierbpr.synthdata import SynthConfig, generate

    paths = generate(SynthConfig(n_users=40, n_items=90, feature_dim=8,
                                 branching=(3,), n_positives=6,
                                 planted_scheme=(2, 2), rng_seed=5),
                     tmp_path / "data")
    inputs = {k: paths[k] for k in
              ("feedback", "features", "hierarchy", "item_leaves")}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "inputs": inputs,
        "model": {"kind": "HVBPR", "n_latent": 4, "n_visual": 4,
                  "scheme": [2, 2]},
        "train": {"learning_rate": 0.05, "iterations": 2},
        "seeds": {"split": 1, "init": 2, "sample": 3},
        "out_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    (tmp_path / "out").mkdir()
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "src": str(ROOT / "src"),
        "manifest": str(manifest),
        "feedback": inputs["feedback"],
        "out_dir": str(tmp_path / "out"),
        "queries": [[0, None], [3, None], [2, "c2_001"]],
        "read_reps": 1,
        "trace": True,
        "result": str(tmp_path / "result.json"),
    }), encoding="utf-8")
    done = run_python(str(ROOT / "bench" / "worker.py"), str(job))
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert [op["exit"] for op in result["ops"]] == [0] * 6, result["ops"]
    names = run_python("-c", "import json, tracer; "
                             "print(json.dumps(list(tracer.SPAN_METRICS)))")
    assert names.returncode == 0, names.stderr[-2000:]
    missing = set(json.loads(names.stdout)) - set(result["layers"])
    assert not missing
