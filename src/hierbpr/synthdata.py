"""Synthetic corpora with a planted hierarchy and visual preference structure.

Items live on a balanced category tree. Features are a leaf-specific center
plus item-specific variation; a planted per-node projection (global rows at
the root, category-specific rows below) turns features into true visual
positions, and users carry true preference vectors over those positions.
Each user's positives are the top-scoring items under logistic (Gumbel)
choice noise, so ``temperature`` interpolates between deterministic
preference and uniform randomness. Everything is a pure function of the
config, and regenerating with one seed reproduces the files byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .embedding import SegmentStore
from .errors import InvalidShape
from .hierarchy import AllocationScheme, assign_layers, build_hierarchy
from .ingestion import (
    Feedback,
    InteractionCorpus,
    assemble_corpus,
    write_features_binary,
    write_pairs,
)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 300
    n_items: int = 900
    feature_dim: int = 64
    branching: tuple[int, ...] = (6,)
    n_positives: int = 8
    planted_scheme: tuple[int, ...] = (5, 5)
    temperature: float = 0.35
    feature_noise: float = 1.0
    center_scale: float = 1.0
    unit_norm_items: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "branching", tuple(int(b) for b in self.branching))
        object.__setattr__(self, "planted_scheme",
                           tuple(int(r) for r in self.planted_scheme))
        if self.n_users < 1 or self.n_items < 1 or self.feature_dim < 1:
            raise InvalidShape("users, items and feature_dim must be positive")
        if not 1 <= self.n_positives <= self.n_items:
            raise InvalidShape("n_positives must lie in [1, n_items]")
        if any(b < 1 for b in self.branching):
            raise InvalidShape("branching factors must be >= 1")
        if len(self.planted_scheme) > len(self.branching) + 1:
            raise InvalidShape("planted scheme deeper than the tree")
        if any(r < 0 for r in self.planted_scheme) or sum(self.planted_scheme) < 1:
            raise InvalidShape("planted scheme needs at least one row")
        if not np.isfinite([self.temperature, self.feature_noise,
                            self.center_scale]).all():
            raise InvalidShape("temperature, feature_noise and center_scale "
                               "must be finite")
        if self.temperature <= 0:
            raise InvalidShape("temperature must be positive")
        if self.rng_seed < 0:
            raise InvalidShape(f"rng_seed must be non-negative, got "
                               f"{self.rng_seed}")


def _tree_nodes(branching: tuple[int, ...]):
    """Node ids by layer plus (child, parent) edges, breadth-first."""
    layers: list[list[str]] = [["root"]]
    edges: list[tuple[str, str]] = []
    for depth, fanout in enumerate(branching, start=2):
        prev = layers[-1]
        layer = []
        for parent in prev:
            for k in range(fanout):
                child = f"c{depth}_{len(layer):03d}"
                layer.append(child)
                edges.append((child, parent))
        layers.append(layer)
    return layers, edges


@dataclass
class SynthData:
    """In-memory tables before serialization."""

    user_ids: list[str]
    item_ids: list[str]
    pairs: list[tuple[str, str]]
    edges: list[tuple[str, str]]
    leaf_map: dict[str, str]
    features: np.ndarray        # float32, as the feature files store them
    ground_truth: dict


def _materialize(cfg: SynthConfig) -> SynthData:
    rng = np.random.default_rng(cfg.rng_seed)
    layers, edges = _tree_nodes(cfg.branching)
    leaf_names = layers[-1]
    n_leaves = len(leaf_names)
    feat = cfg.feature_dim

    item_ids = [f"i{k:05d}" for k in range(cfg.n_items)]
    user_ids = [f"u{k:05d}" for k in range(cfg.n_users)]
    item_leaf = rng.integers(n_leaves, size=cfg.n_items)

    # Every consumer of the features (both writers, make_corpus) takes the
    # float32 copy the feature files store; the planted truth below uses
    # the float64 draw. Overflow is caught here, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        centers = rng.normal(0.0, 1.0, size=(n_leaves, feat)) * cfg.center_scale
        features = centers[item_leaf] + cfg.feature_noise * rng.normal(
            0.0, 1.0, size=(cfg.n_items, feat))
        stored = features.astype(np.float32)
    if not np.isfinite(stored).all():
        raise InvalidShape("feature_noise and center_scale give feature "
                           "values that do not fit in float32")

    # Planted projection: one block per node on each planted layer, drawn
    # in (layer, node) generation order so the stream is reproducible. The
    # hierarchy numbers nodes in sorted-id order, where c2_1000 comes before
    # c2_101, so each block is found by its owner node's name.
    k_true = sum(cfg.planted_scheme)
    hierarchy = build_hierarchy(edges, leaf_names)
    assignment = assign_layers(hierarchy, AllocationScheme(cfg.planted_scheme))
    block_of = {owner: b for b, (owner, _, _) in enumerate(assignment.blocks)}
    projection = SegmentStore(assignment, feat)
    for layer, rows in enumerate(cfg.planted_scheme, start=1):
        if rows == 0:
            continue
        for name in layers[layer - 1]:
            block = block_of[hierarchy.node_of(name)]
            projection.blocks[block][:] = rng.normal(
                0.0, 1.0 / np.sqrt(feat), size=(rows, feat))
    leaf_nodes = np.array([hierarchy.node_of(name) for name in leaf_names])
    true_item = projection.project_all(features, leaf_nodes[item_leaf])
    if cfg.unit_norm_items:
        # Flat popularity: every item the same preference-space magnitude.
        norms = np.linalg.norm(true_item, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        true_item *= np.sqrt(k_true) / norms

    true_user = rng.normal(0.0, 1.0, size=(cfg.n_users, k_true))
    scores = true_user @ true_item.T

    pairs: list[tuple[str, str]] = []
    for u in range(cfg.n_users):
        utility = scores[u] / cfg.temperature + rng.gumbel(
            0.0, 1.0, size=cfg.n_items)
        top = np.argpartition(-utility, cfg.n_positives - 1)[: cfg.n_positives]
        top.sort()
        for item in top:
            pairs.append((user_ids[u], item_ids[item]))

    leaf_map = {item_ids[k]: leaf_names[item_leaf[k]]
                for k in range(cfg.n_items)}
    ground_truth = {
        "config": asdict(cfg),
        "leaf_names": leaf_names,
        "item_leaf": item_leaf.tolist(),
        "true_user_vectors": true_user.tolist(),
        "true_item_vectors": true_item.tolist(),
    }
    return SynthData(
        user_ids=user_ids,
        item_ids=item_ids,
        pairs=pairs,
        edges=edges,
        leaf_map=leaf_map,
        features=stored,
        ground_truth=ground_truth,
    )


def make_corpus(cfg: SynthConfig) -> tuple[InteractionCorpus, dict]:
    """Generate straight to an in-memory corpus (file round-trip parity).

    The features are the float32 values the binary file format stores, so
    this corpus matches one loaded back from generate()'s output bit for bit.
    """
    data = _materialize(cfg)
    corpus, _report = assemble_corpus(
        feedback=Feedback.from_pairs(data.pairs),
        feat_ids=data.item_ids,
        feat_matrix=data.features,
        edges=data.edges,
        leaf_map=data.leaf_map,
        policy="strict",
    )
    return corpus, data.ground_truth


def generate(cfg: SynthConfig, out_dir) -> dict:
    """Write feedback, features, hierarchy files, and the ground-truth record.

    Returns a dict of output paths keyed by artifact name.
    """
    data = _materialize(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths = {
        "feedback": out / "feedback.tsv",
        "features": out / "features.bin",
        "hierarchy": out / "hierarchy.tsv",
        "item_leaves": out / "item_categories.tsv",
        "ground_truth": out / "ground_truth.json",
    }
    write_pairs(paths["feedback"], data.pairs)
    write_features_binary(paths["features"], data.item_ids, data.features)
    write_pairs(paths["hierarchy"], data.edges)
    write_pairs(paths["item_leaves"], data.leaf_map.items())
    with open(paths["ground_truth"], "w", encoding="utf-8") as fh:
        json.dump(data.ground_truth, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return {name: str(path) for name, path in paths.items()}
