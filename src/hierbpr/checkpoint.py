"""Single-file model checkpoints.

Layout: 8-byte magic, little-endian u64 header length, a JSON header (config,
id maps, seeds, array directory, CRC-32 of the payload), then raw
little-endian array bytes. The writer is fully deterministic (same model,
same bytes), which is what makes rerun-identity checks possible; zip-based
containers embed timestamps. The reader checks every length, that the array
directory tiles the payload, the digest, and every array's shape against
the id lists and config, and raises ``ParseError`` for any damaged file.

Checkpoints carry the raw parameter blocks plus the frozen per-item
projections and visual-bias scores, so ranking and evaluation need only the
checkpoint and a feedback file, not the original feature matrix.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .evaluation import EvalSplit
from .hierarchy import CategoryHierarchy, assign_layers, build_hierarchy
from .ingestion import Positives
from .model import KIND_RAND, ItemTable, ModelConfig, ModelParams, PreferenceModel
from .embedding import SegmentStore

MAGIC = b"HBPRCKP1"
VERSION = 2            # 2 added the payload digest

_DTYPES = {"float64": "<f8", "int64": "<i8"}


def _hierarchy_from_parts(node_ids, parent, item_leaf) -> CategoryHierarchy:
    edges = [(node_ids[k], node_ids[int(p)])
             for k, p in enumerate(parent) if p >= 0]
    leaves = np.unique(item_leaf)
    if leaves.size and not 0 <= leaves[0] <= leaves[-1] < len(node_ids):
        raise ValueError(f"item_leaf holds node indices outside "
                         f"[0, {len(node_ids)})")
    hierarchy = build_hierarchy(edges, [node_ids[n] for n in leaves])
    if hierarchy.node_ids != tuple(node_ids):
        raise ValueError("node ids are not sorted and unique")
    return hierarchy


def save_checkpoint(
    path,
    model: PreferenceModel,
    split: EvalSplit | None = None,
    seeds: dict | None = None,
    item_train_count: np.ndarray | None = None,
) -> None:
    """Serialize params, id maps, hierarchy, and frozen item tables."""
    corpus = model.corpus
    table = model.item_table()

    arrays: dict[str, np.ndarray] = {
        "parent": np.asarray(model.corpus.hierarchy.parent, dtype=np.int64),
        "item_leaf": np.asarray(corpus.item_leaf, dtype=np.int64),
        "item_theta": table.theta,
        "item_base": table.base,
        **model.params.arrays(),
    }
    if split is not None:
        arrays["split_val"] = np.asarray(split.val_item, dtype=np.int64)
        arrays["split_test"] = np.asarray(split.test_item, dtype=np.int64)
    if item_train_count is not None:
        arrays["item_train_count"] = np.asarray(item_train_count, dtype=np.int64)

    directory = []
    offset = 0
    payload = []
    crc = 0
    for name in sorted(arrays):
        arr = arrays[name]
        kind = "int64" if arr.dtype.kind == "i" else "float64"
        arr = np.ascontiguousarray(arr).astype(_DTYPES[kind], copy=False)
        blob = arr.tobytes(order="C")
        directory.append({
            "name": name,
            "dtype": kind,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(blob),
        })
        payload.append(blob)
        crc = zlib.crc32(blob, crc)
        offset += len(blob)

    header = {
        "version": VERSION,
        "config": model.config.to_dict(),
        "feature_dim": corpus.feature_dim,
        "user_ids": list(corpus.user_ids),
        "item_ids": list(corpus.item_ids),
        "node_ids": list(corpus.hierarchy.node_ids),
        "seeds": seeds,
        "arrays": directory,
        "payload_crc32": crc,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for blob in payload:
            fh.write(blob)


@dataclass
class CheckpointBundle:
    """Everything a checkpoint restores, plus the frozen scoring view."""

    config: ModelConfig
    params: ModelParams
    hierarchy: CategoryHierarchy
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    item_leaf: np.ndarray
    item_theta: np.ndarray
    item_base: np.ndarray
    split: EvalSplit | None
    item_train_count: np.ndarray | None
    seeds: dict | None
    feature_dim: int

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def frozen_model(self) -> ItemTable:
        """The checkpoint's scorer: its frozen item table and user matrices."""
        return ItemTable(
            theta=self.item_theta,
            latent=self.params.item_latent,
            base=self.item_base,
            item_leaf=self.item_leaf,
            user_visual=self.params.user_visual,
            user_latent=self.params.user_latent,
            rand_seed=(self.config.rng_seed
                       if self.config.kind == KIND_RAND else None),
        )

    def positives_from_pairs(self, pairs) -> tuple[Positives, int]:
        """Positives of the pairs, and how many named an unknown id."""
        user_index = {u: k for k, u in enumerate(self.user_ids)}
        item_index = {i: k for k, i in enumerate(self.item_ids)}
        users = np.array([user_index.get(u, -1) for u, _ in pairs],
                         dtype=np.int64)
        items = np.array([item_index.get(i, -1) for _, i in pairs],
                         dtype=np.int64)
        known = (users >= 0) & (items >= 0)
        positives = Positives.from_pairs(users[known], items[known],
                                         self.n_users, self.n_items)
        return positives, len(known) - int(known.sum())


# ``bench/tracer.py`` patches the checkpoint scorer under its old name.
FrozenModel = ItemTable


def _read_checked(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a checkpoint, every length and the digest checked."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ParseError(f"{path}: not a checkpoint (magic {blob[:8]!r})")
    header_len = int.from_bytes(blob[8:16], "little")
    if 16 + header_len > len(blob):
        raise ParseError(f"{path}: truncated inside the header")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: malformed header: {exc}") from None
    version = header.get("version") if isinstance(header, dict) else None
    if version == 1:
        raise ParseError(
            f"{path}: checkpoint version 1 has no payload digest; write it "
            f"again with this release (version {VERSION})")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version!r}")
    # Rankings break ties by dense index, which must follow the item ids,
    # and feedback names users by id: both lists are densified in sorted
    # order, so a repeated or unsorted id means a damaged header.
    for key in ("user_ids", "item_ids"):
        ids = header[key]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ParseError(f"{path}: {key.replace('_', ' ')} are not "
                             "strictly increasing")

    # The directory must tile the payload: each array starts where the
    # previous one ends, and the last ends with the file.
    payload = memoryview(blob)[16 + header_len:]
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for entry in header["arrays"]:
        name, start, nbytes = entry["name"], entry["offset"], entry["nbytes"]
        if (entry["dtype"] not in _DTYPES
                or nbytes != 8 * int(np.prod(entry["shape"]))):
            raise ParseError(f"{path}: bad directory entry for {name!r}")
        if start != end:
            raise ParseError(f"{path}: array {name!r} starts at payload byte "
                             f"{start}, not {end}")
        if not 0 <= nbytes <= len(payload) - start:
            raise ParseError(f"{path}: array {name!r} runs past the end of "
                             "the file (truncated?)")
        end = start + nbytes
        arrays[name] = np.frombuffer(
            payload[start:end],
            dtype=_DTYPES[entry["dtype"]]).reshape(entry["shape"]).copy()
    if end != len(payload):
        raise ParseError(f"{path}: {len(payload) - end} payload bytes follow "
                         "the last array")
    if zlib.crc32(payload) != header["payload_crc32"]:
        raise ParseError(f"{path}: payload digest mismatch (corrupted file)")
    return header, arrays


def load_checkpoint(path) -> CheckpointBundle:
    """Restore a checkpoint; a damaged or malformed file raises ParseError."""
    try:
        return _bundle(*_read_checked(path))
    except (LookupError, TypeError, ValueError) as exc:
        # The header is outside input: a missing or mistyped field ends here.
        raise ParseError(f"{path}: malformed checkpoint: {exc!r}") from None


def _check_shapes(header: dict, config: ModelConfig,
                  arrays: dict[str, np.ndarray]) -> None:
    """Every array has one row per item, user, node or feature, as it applies.

    ``segments`` is left to ``SegmentStore``, which knows the block rows.
    """
    items, users = len(header["item_ids"]), len(header["user_ids"])
    nodes, feat = len(header["node_ids"]), header["feature_dim"]
    expected = {
        "parent": (nodes,),
        "item_leaf": (items,),
        "item_theta": (items, config.n_visual),
        "item_base": (items,),
        "item_bias": (items,),
        "item_latent": (items, config.n_latent),
        "item_train_count": (items,),
        "user_latent": (users, config.n_latent),
        "user_visual": (users, config.n_visual),
        "split_val": (users,),
        "split_test": (users,),
        "visual_bias": (feat,),
        "category_bias": (nodes,),
    }
    for name, shape in expected.items():
        if name in arrays and arrays[name].shape != shape:
            raise ValueError(f"array {name!r} has shape "
                             f"{arrays[name].shape}, expected {shape}")


def _bundle(header: dict, arrays: dict[str, np.ndarray]) -> CheckpointBundle:
    config = ModelConfig.from_dict(header["config"])
    _check_shapes(header, config, arrays)
    item_ids = tuple(header["item_ids"])
    user_ids = tuple(header["user_ids"])
    hierarchy = _hierarchy_from_parts(header["node_ids"], arrays["parent"],
                                      arrays["item_leaf"])

    segments = None
    if "segments" in arrays:
        assignment = assign_layers(hierarchy, config.scheme)
        segments = SegmentStore(assignment, header["feature_dim"],
                                backing=arrays["segments"])
    params = ModelParams(
        item_bias=arrays["item_bias"],
        item_latent=arrays["item_latent"],
        user_latent=arrays["user_latent"],
        user_visual=arrays["user_visual"],
        visual_bias=arrays["visual_bias"],
        segments=segments,
        category_bias=arrays.get("category_bias"),
    )
    split = None
    if "split_val" in arrays:
        split = EvalSplit(
            val_item=arrays["split_val"],
            test_item=arrays["split_test"],
        )
    return CheckpointBundle(
        config=config,
        params=params,
        hierarchy=hierarchy,
        user_ids=user_ids,
        item_ids=item_ids,
        item_leaf=arrays["item_leaf"],
        item_theta=arrays["item_theta"],
        item_base=arrays["item_base"],
        split=split,
        item_train_count=arrays.get("item_train_count"),
        seeds=header.get("seeds"),
        feature_dim=header["feature_dim"],
    )
