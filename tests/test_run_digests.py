"""SHA-256 pins of what ``hierbpr run`` writes, for each trainable kind.

One small synthetic corpus is generated and run once per kind, in a fresh
process at one and at two BLAS threads. The checkpoint, the report and the
metrics file (its wall-clock ``seconds`` column dropped) must keep these
bytes: a change meant to leave training and evaluation bit-identical, such
as a faster SGD step, moves none of them. They hold for the numpy and
OpenBLAS build the tests run on, as ``test_synthdata``'s golden digests do.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# The kinds ``Trainer`` steps, each with its own flags and regularisation:
# HVBPR also shrinks its segment blocks and visual bias.
RUN_MODELS = {
    "BPR-MF": ({"kind": "BPR-MF", "n_latent": 4, "scheme": []}, {}),
    "VBPR": ({"kind": "VBPR", "n_latent": 3, "scheme": [3]}, {}),
    "VBPR-C": ({"kind": "VBPR-C", "n_latent": 3, "scheme": [3]}, {}),
    "HVBPR": ({"kind": "HVBPR", "n_latent": 2, "scheme": [2, 2]},
              {"segments": 0.3, "visual_bias": 0.1}),
}

SCRIPT = """
import json, sys
from pathlib import Path
from hierbpr.cli import main

out, models = Path(sys.argv[1]), json.loads(sys.argv[2])
data = out / "data"
assert main(["synth", "--out-dir", str(data), "--users", "60",
             "--items", "150", "--feature-dim", "12", "--branching", "2:3",
             "--positives", "5", "--planted-scheme", "2:2", "--seed", "3"]) == 0
inputs = {key: str(data / name) for key, name in (
    ("feedback", "feedback.tsv"), ("features", "features.bin"),
    ("hierarchy", "hierarchy.tsv"), ("item_leaves", "item_categories.tsv"))}
for kind, (model, reg) in models.items():
    manifest = out / f"{kind}.json"
    manifest.write_text(json.dumps({
        "inputs": inputs, "model": model, "out_dir": str(out / kind),
        "train": {"learning_rate": 0.05, "iterations": 4, "reg": reg},
        "seeds": {"split": 1, "init": 2, "sample": 3}}))
    assert main(["run", "--manifest", str(manifest)]) == 0
"""

RUN_SHA256 = {
    "BPR-MF/model.ckpt":
        "d2a70d9f480b2c2294f02fb4c0240c45c5d4b2cbae0ee2709816c03dce6bba0c",
    "BPR-MF/report.json":
        "77183862d35b7c316f6bdb5b86187b2b29d8fa195e337b11eae145a6dc5d9bfb",
    "BPR-MF/metrics.tsv":
        "58d91925e4c90b6b28f6776cb9be346a7472eacb3a9ad5248b99eee77a0f8201",
    "VBPR/model.ckpt":
        "573842795347c8a25563d9fe6537fdd3f440c1a58dff23be0f45b7aeeb00ca6f",
    "VBPR/report.json":
        "8b42a3e74b64ae79438e91572f3d2d094bb71237922e8f74c0bc90d0f4919ccf",
    "VBPR/metrics.tsv":
        "a765cee973e0e4a1f4071250a0c8dc1c198f59a6b0c5de0bd2c6c0a99f18afac",
    "VBPR-C/model.ckpt":
        "69bcc37f81cb35f06e3651a9220d1e3ddc885a5feb77ada7d814cf14b67ac63d",
    "VBPR-C/report.json":
        "cf8f433f90a5401340fb18100346768c93c9046a037696831390dc0a4fbcd03f",
    "VBPR-C/metrics.tsv":
        "e28325f345c0181f7baa7924c52a8edefeeb75757b6dd7df70190e2ef483b81a",
    "HVBPR/model.ckpt":
        "6943927625cdbd08a522b1946a69e6f1676cbbaff6ab7c8963e9ac5985e24ad0",
    "HVBPR/report.json":
        "511cd979219dd08a2bfe66976bb28605df2591d1835ecabec66b9e405cec88e1",
    "HVBPR/metrics.tsv":
        "49517db4f882ace9d3c142084a098df1906a5f218a7ba6c3235a41984e759278",
}


def run_digests(out: Path) -> dict[str, str]:
    """SHA-256 of each kind's ``model.ckpt``, ``report.json`` and
    ``metrics.tsv`` less its last (seconds) column."""
    digests = {}
    for kind in RUN_MODELS:
        metrics = (out / kind / "metrics.tsv").read_text().splitlines()
        files = {
            "model.ckpt": (out / kind / "model.ckpt").read_bytes(),
            "report.json": (out / kind / "report.json").read_bytes(),
            "metrics.tsv": "".join(line.rsplit("\t", 1)[0] + "\n"
                                   for line in metrics).encode(),
        }
        for name, data in files.items():
            digests[f"{kind}/{name}"] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_outputs_keep_their_bytes(tmp_path, threads):
    # A fresh process, as BLAS reads its thread count once at start-up.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(RUN_MODELS)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert run_digests(tmp_path) == RUN_SHA256
