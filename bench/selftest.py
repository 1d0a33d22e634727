"""Self-test of the benchmark's AUC oracle on a tiny corpus.

Usage (from the root of a checkout): python3 bench/selftest.py

Trains a tiny model through ``hierbpr run``, then shows that the oracle's
warm and cold AUC agree with ``hierbpr.evaluation.auc`` on the checkpoint,
and that they stop agreeing when one score is perturbed: raising one
candidate above a user's test item, or tying it with the test item (ties
score zero), lowers that user's AUC by exactly one candidate's share.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from checks import AUC_TOL
from oracle import Oracle


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "hierbpr" / "cli.py").is_file():
        print("selftest: run from the root of a hierbpr checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from hierbpr import cli
    from hierbpr.checkpoint import load_checkpoint
    from hierbpr.evaluation import ColdItemSet, auc
    from hierbpr.ingestion import load_corpus
    from hierbpr.synthdata import SynthConfig, generate

    work = root / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    try:
        paths = generate(SynthConfig(n_users=40, n_items=90, feature_dim=8,
                                     branching=(3,), n_positives=6,
                                     planted_scheme=(2, 2), rng_seed=5),
                         work / "data")
        inputs = {k: paths[k] for k in
                  ("feedback", "features", "hierarchy", "item_leaves")}
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps({
            "inputs": inputs,
            "model": {"kind": "HVBPR", "n_latent": 4, "n_visual": 4,
                      "scheme": [2, 2]},
            "train": {"learning_rate": 0.05, "iterations": 3},
            "seeds": {"split": 1, "init": 2, "sample": 3},
            "out_dir": str(work / "out"),
        }), encoding="utf-8")
        with redirect_stdout(StringIO()):
            code = cli.main(["run", "--manifest", str(manifest)])
        check(code == 0, "hierbpr run trains the tiny model")
        if code != 0:
            return 1

        ckpt = work / "out" / "model.ckpt"
        threshold = 5
        oracle = Oracle(ckpt, inputs, "none")
        bundle = load_checkpoint(ckpt)
        corpus, _ = load_corpus(*inputs.values())
        frozen = bundle.frozen_model()
        cold_set = ColdItemSet(threshold, bundle.item_train_count < threshold)
        program = {}
        for setting in ("warm", "cold"):
            got = auc(frozen, corpus, bundle.split, setting=setting,
                      cold_set=cold_set)
            program[setting] = got
            value, users = oracle.auc(setting, threshold)
            check(abs(got.auc - value) <= AUC_TOL
                  and got.users_evaluated == users,
                  f"{setting}: oracle AUC {value:.12f} over {users} users "
                  f"equals evaluation.auc {got.auc:.12f}")

        # Pick a user and a candidate the test item beats strictly.
        base = oracle.scores(np.arange(len(oracle.user_ids)))
        n_users = program["warm"].users_evaluated
        for u in np.flatnonzero(oracle.test >= 0):
            cand = np.setdiff1d(np.arange(len(oracle.item_ids)),
                                oracle.positives[u])
            below = cand[base[u, cand] < base[u, oracle.test[u]]]
            if len(below):
                break
        target = base[u, oracle.test[u]]
        share = 1.0 / len(cand) / n_users
        for label, new in (("raised above", target + 1.0), ("tied with", target)):
            def perturbed(users, new=new):
                s = base[users].copy()
                s[users == u, below[0]] = new
                return s
            value, _ = oracle.auc("warm", threshold, score_fn=perturbed)
            check(abs(value - program["warm"].auc) > AUC_TOL
                  and abs((program["warm"].auc - value) - share) <= AUC_TOL,
                  f"one candidate {label} user {u}'s test item lowers the "
                  f"oracle AUC below evaluation.auc by one candidate's share "
                  f"({share:.3e})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
