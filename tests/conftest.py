"""Shared fixtures and oracle helpers for the test suite."""

import json
import math
import time

import numpy as np
import pytest

from hierbpr.evaluation import split_leave_one_out
from hierbpr.ingestion import (
    Feedback,
    Positives,
    TrainingCorpus,
    assemble_corpus,
)
from hierbpr.model import ModelConfig, PreferenceModel
from hierbpr.synthdata import SynthConfig, make_corpus
from hierbpr.training import TrainConfig, Trainer, _step_buffer, sample_triple

# Shape of the running example tree: three branches under the root, each
# with fine-grained leaves (layer 1 = root, layer 2 = branches, layer 3 = leaves).
TREE3_EDGES = [
    ("clothing", "root"),
    ("shoes", "root"),
    ("intimates", "root"),
    ("skirts", "clothing"),
    ("jeans", "clothing"),
    ("boots", "shoes"),
    ("flats", "shoes"),
    ("bras", "intimates"),
]

TREE3_LEAVES = ["skirts", "jeans", "boots", "flats", "bras"]


def build_corpus(edges, item_leaves, features, feedback, policy="strict"):
    """Assemble an in-memory corpus from plain dicts (test convenience)."""
    ids = sorted(features)
    matrix = np.array([features[i] for i in ids], dtype=float)
    corpus, _report = assemble_corpus(
        Feedback.from_pairs(feedback), ids, matrix, list(edges),
        dict(item_leaves), policy=policy)
    return corpus


def feedback_pairs(feedback):
    """A ``Feedback``'s (user, item) id pairs, in its order."""
    pairs = feedback.pairs
    return [(feedback.user_ids[u], feedback.item_ids[i])
            for u, i in zip(pairs.rows().tolist(), pairs.indices.tolist())]


def positives_of(rows, n_items):
    """Positives from per-user item lists (test convenience)."""
    users = [u for u, row in enumerate(rows) for _ in row]
    items = [int(i) for row in rows for i in row]
    return Positives.from_pairs(users, items, len(rows), n_items)


def training_corpus(train_rows, full_rows, n_items):
    """TrainingCorpus from per-user training and full item lists."""
    return TrainingCorpus(train_pos=positives_of(train_rows, n_items),
                          full_pos=positives_of(full_rows, n_items))


def tree3_corpus(rng=None, n_users=4, feature_dim=3):
    """Small corpus over the 3-layer tree with one item per leaf."""
    rng = np.random.default_rng(0 if rng is None else rng)
    items = {f"it_{leaf}": leaf for leaf in TREE3_LEAVES}
    features = {item: rng.normal(size=feature_dim) for item in items}
    users = [f"u{k}" for k in range(n_users)]
    feedback = []
    item_list = sorted(items)
    for k, user in enumerate(users):
        for item in item_list[k % 2::2]:
            feedback.append((user, item))
    return build_corpus(TREE3_EDGES, items, features, feedback)


def numeric_gradient(fn, arr, index, step=1e-5):
    """Central finite difference of fn() with respect to arr[index]."""
    original = arr[index]
    arr[index] = original + step
    hi = fn()
    arr[index] = original - step
    lo = fn()
    arr[index] = original
    return (hi - lo) / (2.0 * step)


def relative_error(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-12)
    return abs(analytic - numeric) / denom


def log_sigmoid(x):
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def auc_pair_counting(score, n_items, targets, positives, cold_mask=None):
    """Exhaustive pair counting: the independent AUC oracle.

    ``score(u, j)`` returns one scalar. Averages the per-user fraction of
    candidates scored strictly below the target, in user order, exactly as
    the metric definition reads.
    """
    fractions = []
    for u in range(len(targets)):
        t = int(targets[u])
        if t < 0:
            continue
        if cold_mask is not None and not cold_mask[t]:
            continue
        pos = set(int(p) for p in positives[u])
        candidates = [j for j in range(n_items)
                      if j not in pos and (cold_mask is None or cold_mask[j])]
        if not candidates:
            continue
        target_score = score(u, t)
        wins = 0
        for j in candidates:
            if score(u, j) < target_score:
                wins += 1
        fractions.append(wins / len(candidates))
    if not fractions:
        return None, 0
    return sum(fractions) / len(fractions), len(fractions)


def per_triple_cost_probe(configs, n_steps=300, n_items=256, n_users=64,
                          seed=0):
    """Mean wall time per SGD step across parameter scales.

    Each config dict supplies ``n_latent``, ``n_visual``, ``feature_dim``.
    Visual rows are split over a two-layer tree when there is more than one.
    The warm-up and timed steps call the library's ``Trainer.step`` with
    Python ints from one ``sample_triple`` array, inside the same
    ``_step_buffer`` scope as ``train``'s step loop, so the probe times the
    step as training runs it. Returns one record per config with
    ``seconds_per_step`` added.
    """
    results = []
    for cfg in configs:
        kp = int(cfg.get("n_visual", 0))
        scheme = [kp - kp // 2, kp // 2] if kp > 1 else [kp]
        synth = SynthConfig(
            n_users=n_users, n_items=n_items,
            feature_dim=int(cfg["feature_dim"]), branching=(4,),
            n_positives=4, planted_scheme=(1,), rng_seed=seed)
        corpus, _ = make_corpus(synth)
        mconfig = ModelConfig.from_dict({
            "n_latent": cfg.get("n_latent", 0), "scheme": scheme,
            "use_visual_bias": True, "rng_seed": seed})
        model = PreferenceModel.create(mconfig, corpus)
        tconfig = TrainConfig(learning_rate=0.01, rng_seed=seed, iterations=1)
        trainer = Trainer(model, tconfig)
        rng = np.random.default_rng(seed)
        tc, _split = split_leave_one_out(corpus, rng)
        triples = sample_triple(tc, rng, n_steps).tolist()
        with _step_buffer():
            for u, i, j in triples[: min(50, n_steps)]:
                trainer.step(u, i, j)      # warm-up: caches, code paths
            started = time.perf_counter()
            for u, i, j in triples:
                trainer.step(u, i, j)
            elapsed = time.perf_counter() - started
        results.append({**cfg, "seconds_per_step": elapsed / n_steps})
    return results


def one_error(capsys):
    """The one JSON error line a failed command printed, stdout empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
