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
import math
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

# Users per score block in _draw_positives. Each block's scores must carry
# the bits of the whole users x items product. OpenBLAS's AVX-512 dgemm
# takes users 12 at a time, so a multiple of 12 groups them as the whole
# product does; 64-row blocks moved the last bit of some scores (seen at
# n_items = 333 and 1001). A block never holds one row unless the corpus
# has one user: numpy takes a matrix-vector path for a 1-row product.
SYNTH_BLOCK_ROWS = 48
# An item whose approximate utility lies within this fraction of 64 plus
# the row's largest |score / temperature| below the row's k-th value is
# recomputed exactly. A Gumbel draw from a double uniform is below 37 in
# size, and np.log and libm's log differ by a few ulp, which moves a
# utility by about 1e-14 plus 2e-16 of its size: far inside the margin.
_UTILITY_TOLERANCE = 2.0 ** -30


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


def _block_bounds(n_users: int) -> list[int]:
    """Row bounds of the score blocks: ``SYNTH_BLOCK_ROWS`` users each, a
    trailing single user folded into the block before it."""
    bounds = [*range(0, n_users, SYNTH_BLOCK_ROWS), n_users]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def _draw_positives(rng, true_user, true_item, cfg: SynthConfig) -> np.ndarray:
    """Each user's positives, ascending: the top ``n_positives`` items of
    ``score / temperature`` plus one Gumbel draw per item.

    The result and the generator's stream are those of drawing
    ``rng.gumbel(0.0, 1.0, size=n_items)`` for each user in turn against
    the dense score matrix. numpy's Gumbel is ``0.0 - 1.0 * log(-log(U))``
    with ``U = 1 - next_double``, drawn again only where ``next_double``
    is exactly 0.0, so one ``rng.random`` block holds the same uniforms.
    Utilities are approximated with ``np.log``; every item within the
    tolerance of a row's k-th value is recomputed with ``math.log``, the
    libm ``log`` that numpy's generator calls, and the top k taken from
    those. A block holding an exact 0.0 uniform, a non-finite utility or
    a tie at the k-th place is redrawn the dense way from the saved state.
    """
    n, k = cfg.n_items, cfg.n_positives
    top = np.empty((cfg.n_users, k), dtype=np.int64)
    bounds = _block_bounds(cfg.n_users)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        scaled = true_user[lo:hi] @ true_item.T
        scaled /= cfg.temperature
        state = rng.bit_generator.state
        uniform = rng.random(size=(hi - lo, n))
        if uniform.all():
            np.subtract(1.0, uniform, out=uniform)
            chosen = _exact_top(scaled, uniform, k)
            if chosen is not None:
                top[lo:hi] = chosen
                continue
        rng.bit_generator.state = state
        for row, utility in enumerate(scaled):
            utility += rng.gumbel(0.0, 1.0, size=n)
            chosen = np.argpartition(-utility, k - 1)[:k]
            chosen.sort()
            top[lo + row] = chosen
    return top


def _exact_top(scaled, uniform, k):
    """Per row, the ascending indices of the k largest ``scaled - log(-log
    uniform)`` as numpy's generator computes it, or None where a value is
    not finite or two tie at the k-th place."""
    rows, n = scaled.shape
    approx = np.log(uniform)
    np.negative(approx, out=approx)
    np.log(approx, out=approx)
    np.subtract(scaled, approx, out=approx)
    if not np.isfinite(approx).all():
        return None
    kth = np.partition(approx, n - k, axis=1)[:, n - k]
    reach = np.maximum(scaled.max(axis=1), -scaled.min(axis=1))
    near = np.flatnonzero(
        approx >= (kth - _UTILITY_TOLERANCE * (64.0 + reach))[:, None])
    near_row, near_col = np.divmod(near, n)
    gumbel = [0.0 - math.log(-math.log(u))
              for u in uniform.ravel()[near].tolist()]
    exact = scaled.ravel()[near] + np.array(gumbel)
    order = np.lexsort((-exact, near_row))
    starts = np.searchsorted(near_row, np.arange(rows))
    stops = np.append(starts[1:], len(near_row))
    more = stops > starts + k
    edge = order[starts[more] + k - 1], order[starts[more] + k]
    if (exact[edge[0]] == exact[edge[1]]).any():
        return None
    chosen = near_col[order[starts[:, None] + np.arange(k)]]
    chosen.sort(axis=1)
    return chosen


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
    top = _draw_positives(rng, true_user, true_item, cfg)
    pairs = [(user_ids[u], item_ids[item])
             for u, row in enumerate(top.tolist()) for item in row]

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
    _write_ground_truth(paths["ground_truth"], data.ground_truth)
    return {name: str(path) for name, path in paths.items()}


def _write_ground_truth(path, record) -> None:
    """The bytes of ``json.dump(record, fh, sort_keys=True, indent=1)`` and
    a newline, without json's pure-Python indented encoder."""
    Path(path).write_text(_indented_json(record) + "\n", encoding="utf-8")


def _indented_json(value, level: int = 0) -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=1)`` for
    scalars, lists, tuples and dicts with string keys.

    json's indented encoder is pure Python, one call per element. Here a
    list of numbers, or of non-empty lists of numbers, is one C-encoder
    call whose ``", "``-separated element strings are laid out one a line,
    as the indented encoder lays them.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = "\n" + " " * (level + 1)
    if isinstance(value, dict):
        opening, closing = "{", "}"
        elements = [json.dumps(key) + ": " + _indented_json(value[key],
                                                            level + 1)
                    for key in sorted(value)]
    else:
        opening, closing = "[", "]"
        if _numbers(value):
            elements = json.dumps(value)[1:-1].split(", ")
        elif all(isinstance(row, (list, tuple)) and row and _numbers(row)
                 for row in value):
            deeper = inner + " "
            elements = [f"[{deeper}{row.replace(', ', ',' + deeper)}{inner}]"
                        for row in json.dumps(value)[2:-2].split("], [")]
        else:
            elements = [_indented_json(v, level + 1) for v in value]
    return (opening + inner + ("," + inner).join(elements)
            + "\n" + " " * level + closing)


def _numbers(values) -> bool:
    """Whether every element is a plain int, float or bool."""
    return set(map(type, values)) <= {int, float, bool}
