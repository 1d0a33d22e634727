"""Output checks for one benchmark round.

The first round's outputs are checked against the oracle; every later
round (traced or not) must reproduce them byte for byte, which is also the
rerun-determinism check. Each function returns a list of problems; an empty
list means the check passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from oracle import Oracle, read_rank_list
from workloads import COLD_THRESHOLD, MIN_WARM_AUC, TOP

# Scores are recomputed in another summation order, so they agree with the
# program's to rounding; AUCs average such comparisons over users.
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12
AUC_TOL = 1e-9

# Round outputs that carry no timing and must repeat byte for byte.
DETERMINISTIC = ("report.json", "model.ckpt", "eval_warm.json",
                 "eval_cold.json")


def read_metrics_tsv(path) -> list[float]:
    """Validation AUC per epoch from the run's metrics.tsv."""
    lines = Path(path).read_text(encoding="utf-8").strip("\n").split("\n")
    if lines[0].split("\t")[:2] != ["epoch", "val_auc"]:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return [float(line.split("\t")[1]) for line in lines[1:]]


def epochs_to_target(val: list[float], target: float) -> int | None:
    for epoch, value in enumerate(val, start=1):
        if value >= target:
            return epoch
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_ATOL + SCORE_RTOL * max(abs(a), abs(b))


def check_rank_list(rows, expected, category_items: set[str] | None,
                    top: int, label: str) -> list[str]:
    """A rank-dim list against the oracle's full ordering of its candidates."""
    problems = []
    if len(rows) != min(top, len(expected)):
        return [f"{label}: {len(rows)} rows, expected "
                f"{min(top, len(expected))}"]
    oracle_score = dict(expected)
    ids = [item for item, _ in rows]
    if len(set(ids)) != len(ids):
        problems.append(f"{label}: an item is listed twice")
    for k, (item, score) in enumerate(rows):
        if category_items is not None and item not in category_items:
            problems.append(f"{label}: {item} lies outside the category")
            break
        if item not in oracle_score or not _close(score, oracle_score[item]):
            problems.append(f"{label}: {item} scored {score!r}, oracle "
                            f"{oracle_score.get(item)!r}")
            break
        if not _close(score, expected[k][1]):
            problems.append(f"{label}: rank {k + 1} scored {score!r}, "
                            f"oracle's rank {k + 1} is {expected[k][1]!r}")
            break
        if k and (score > rows[k - 1][1]
                  or (score == rows[k - 1][1] and item < rows[k - 1][0])):
            problems.append(f"{label}: rank {k + 1} breaks the descending "
                            "score / ascending id order")
            break
    return problems


def check_reference(workload, inputs: dict, out_dir: Path,
                    queries) -> tuple[list[str], Oracle]:
    """Every output of one round against the oracle and the run's own log."""
    problems = []
    oracle = Oracle(out_dir / "model.ckpt", inputs, workload.feature_norm)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    arrays = oracle.arrays

    if not np.allclose(arrays["item_theta"], oracle.theta,
                       rtol=SCORE_RTOL, atol=SCORE_ATOL):
        problems.append("checkpoint item_theta differs from the stacked "
                        "path blocks x features")
    if not np.allclose(arrays["item_base"], oracle.base,
                       rtol=SCORE_RTOL, atol=SCORE_ATOL):
        problems.append("checkpoint item_base differs from the recomputed "
                        "item offsets")
    if not np.array_equal(arrays["item_train_count"], oracle.train_counts):
        problems.append("checkpoint item_train_count differs from the "
                        "feedback minus held-out items")

    for setting in ("warm", "cold"):
        value, users = oracle.auc(setting, COLD_THRESHOLD)
        evaluated = json.loads(
            (out_dir / f"eval_{setting}.json").read_text(encoding="utf-8"))
        for source, got in (("report.json", report[setting]),
                            (f"hierbpr eval --setting {setting}", evaluated)):
            if abs(got["auc"] - value) > AUC_TOL:
                problems.append(f"{setting} AUC from {source} is "
                                f"{got['auc']!r}, oracle {value!r}")
            if got["users_evaluated"] != users:
                problems.append(f"{setting} AUC from {source} averages "
                                f"{got['users_evaluated']} users, oracle "
                                f"{users}")
    if report["warm"]["auc"] < MIN_WARM_AUC:
        problems.append(f"warm AUC {report['warm']['auc']:.4f} is below "
                        f"{MIN_WARM_AUC}")

    val = read_metrics_tsv(out_dir / "metrics.tsv")
    best = int(np.argmax(val)) + 1
    if report["best_epoch"] != best or report["best_val_auc"] != val[best - 1]:
        problems.append(f"best_epoch {report['best_epoch']} is not the "
                        f"validation argmax (epoch {best})")

    leaf_items: dict[str, set[str]] = {}
    for item, node in zip(oracle.item_ids, oracle.item_leaf):
        leaf_items.setdefault(oracle.node_ids[node], set()).add(item)
    for k, (dim, category) in enumerate(queries):
        label = f"rank-dim --dim {dim} --category {category}"
        rows = read_rank_list(out_dir / f"rank_{k}.tsv")
        problems += check_rank_list(
            rows, oracle.rank_dim(dim, category),
            leaf_items[category] if category is not None else None,
            TOP, label)
    return problems, oracle


def compare_round(ref_dir: Path, out_dir: Path, n_queries: int) -> list[str]:
    """A later round must reproduce the reference round's outputs exactly."""
    problems = []
    names = [*DETERMINISTIC, *(f"rank_{k}.tsv" for k in range(n_queries))]
    for name in names:
        if (ref_dir / name).read_bytes() != (out_dir / name).read_bytes():
            problems.append(f"{name} differs between two runs of one seed")
    ref_val = read_metrics_tsv(ref_dir / "metrics.tsv")
    val = read_metrics_tsv(out_dir / "metrics.tsv")
    if val != ref_val:
        problems.append("metrics.tsv validation AUCs differ between two "
                        "runs of one seed")
    return problems


def check_traced(oracle: Oracle, out_dir: Path, layers: dict,
                 epochs_run: int) -> list[str]:
    """Step count and every sampled triple of a traced round."""
    problems = []
    expected = epochs_run * oracle.n_train
    if layers["training.step_calls"] != expected:
        problems.append(f"{layers['training.step_calls']} SGD steps, expected "
                        f"{epochs_run} epochs x {oracle.n_train} interactions")
    triples = np.load(out_dir / "triples.npy")
    n_items = len(oracle.item_ids)
    train_keys = np.concatenate(
        [u * n_items + p for u, p in enumerate(oracle.train_pos)])
    full_keys = np.concatenate(
        [u * n_items + p for u, p in enumerate(oracle.positives)])
    u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
    bad_i = ~np.isin(u * n_items + i, train_keys)
    bad_j = np.isin(u * n_items + j, full_keys)
    if bad_i.any():
        problems.append(f"{int(bad_i.sum())} sampled triples have i outside "
                        "u's training positives")
    if bad_j.any():
        problems.append(f"{int(bad_j.sum())} sampled triples have j inside "
                        "u's positive set")
    return problems
