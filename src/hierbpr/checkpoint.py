"""Single-file model checkpoints.

Layout: 8-byte magic, little-endian u64 header length, a JSON header (config,
id maps, seeds, array directory, digest), then raw little-endian array
bytes. The digest is the header's last member, ``"crc32"``: the CRC-32 of
the header bytes before that member, followed by the payload. The writer
is fully deterministic (same model, same bytes), which is what makes
rerun-identity checks possible; zip-based containers embed timestamps. The
reader checks every length, that the array directory tiles the payload,
the digest, that the arrays are exactly those the format and the config
name, and every array's dtype and shape, and raises ``ParseError`` for any
damaged file.

Every checkpoint carries the raw parameter blocks, the frozen per-item
projections and visual-bias scores, the evaluation split, the seeds and the
per-item training counts, so ranking and evaluation need only the
checkpoint and a feedback file, not the original feature matrix.
"""

from __future__ import annotations

import json
import operator
import os
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (CycleDetected, DanglingItemLeaf, HeldOutMissing,
                     MultipleRoots, ParseError, SchemeTooDeep)
from .evaluation import EvalSplit
from .hierarchy import CategoryHierarchy, assign_layers, build_hierarchy
from .ingestion import Feedback, Positives, sorted_unique
from .model import ItemTable, ModelConfig, ModelParams, PreferenceModel, frozen_table
from .embedding import SegmentStore

MAGIC = b"HBPRCKP1"
VERSION = 3            # 2 added the payload digest, 3 the header to it
# The header's last member: the CRC-32 of the header bytes before it, then
# of the payload.
DIGEST_MEMBER = b',"crc32":%d}'

_DTYPES = {"float64": "<f8", "int64": "<i8"}


def _hierarchy_from_parts(node_ids, parent, item_leaf) -> CategoryHierarchy:
    edges = [(node_ids[k], node_ids[int(p)])
             for k, p in enumerate(parent) if p >= 0]
    leaves = sorted_unique(item_leaf)
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
    split: EvalSplit,
    seeds: dict,
    item_train_count: np.ndarray,
) -> None:
    """Serialize params, id maps, hierarchy, item tables, split and counts."""
    corpus = model.corpus
    table = model.item_table()

    arrays: dict[str, np.ndarray] = {
        "parent": np.asarray(model.corpus.hierarchy.parent, dtype=np.int64),
        "item_leaf": np.asarray(corpus.item_leaf, dtype=np.int64),
        "item_theta": table.theta,
        "item_base": table.base,
        "item_train_count": np.asarray(item_train_count, dtype=np.int64),
        "split_val": np.asarray(split.val_item, dtype=np.int64),
        "split_test": np.asarray(split.test_item, dtype=np.int64),
        **model.params.arrays(),
    }

    directory = []
    offset = 0
    payload = []
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
    }
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")[:-1]
    crc = zlib.crc32(head)
    for blob in payload:
        crc = zlib.crc32(blob, crc)
    header_bytes = head + DIGEST_MEMBER % crc
    # Written beside ``path`` and renamed onto it, so a failed or killed
    # write leaves any earlier checkpoint at ``path`` intact.
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header_bytes).to_bytes(8, "little"))
            fh.write(header_bytes)
            for blob in payload:
                fh.write(blob)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass
class CheckpointBundle:
    """Everything a checkpoint restores, its frozen scoring table included."""

    config: ModelConfig
    params: ModelParams
    hierarchy: CategoryHierarchy
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    table: ItemTable
    split: EvalSplit
    item_train_count: np.ndarray
    seeds: dict
    feature_dim: int

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def frozen_model(self) -> ItemTable:
        """The checkpoint's scorer: the table it restored."""
        return self.table

    def positives_from_pairs(self, feedback: Feedback
                             ) -> tuple[Positives, int]:
        """Positives of the feedback's pairs, and how many pairs named an
        unknown id."""
        return feedback.positives_in(self.user_ids, self.item_ids)

    def check_held_out(self, positives: Positives) -> None:
        """``HeldOutMissing`` for the first user whose held-out test item, or
        validation item where one is assigned, is not in ``positives``."""
        held = np.stack([self.split.test_item, self.split.val_item])
        pairs = np.arange(self.n_users) * self.n_items + held
        # Closed by a key past every pair's.
        keys = np.append(positives.keys(), self.n_users * self.n_items)
        missing = (held >= 0) & (keys[np.searchsorted(keys, pairs)] != pairs)
        if missing.any():
            u = int(missing.any(axis=0).argmax())
            role = "test" if missing[0, u] else "validation"
            raise HeldOutMissing(f"feedback lacks the held-out {role} item "
                                 f"of user {self.user_ids[u]!r}")


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
    raw_header = blob[16:16 + header_len]
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: malformed header: {exc}") from None
    version = header.get("version") if isinstance(header, dict) else None
    if version in (1, 2):
        raise ParseError(
            f"{path}: checkpoint version {version} has no header digest; "
            f"write it again with this release (version {VERSION})")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version!r}")
    # Rankings break ties by dense index, which must follow the item ids,
    # and feedback names users by id: both lists are densified in sorted
    # order, so a repeated or unsorted id means a damaged header.
    for key in ("user_ids", "item_ids"):
        ids = header[key]
        if not all(map(operator.lt, ids, ids[1:])):
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
        if name in arrays:
            raise ParseError(f"{path}: array {name!r} is listed twice")
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
    digest = header.pop("crc32")
    member = DIGEST_MEMBER % digest
    if (not raw_header.endswith(member) or digest != zlib.crc32(
            payload, zlib.crc32(raw_header[:-len(member)]))):
        raise ParseError(f"{path}: digest mismatch (corrupted file)")
    return header, arrays


def load_checkpoint(path) -> CheckpointBundle:
    """Restore a checkpoint; a damaged or malformed file raises ParseError."""
    try:
        return _bundle(*_read_checked(path))
    except (LookupError, TypeError, ValueError, CycleDetected, MultipleRoots,
            DanglingItemLeaf, SchemeTooDeep) as exc:
        # The header is outside input: a missing or mistyped field, or a
        # tree or scheme that cannot be rebuilt, ends here.
        raise ParseError(f"{path}: malformed checkpoint: {exc!r}") from None


def _check_arrays(header: dict, config: ModelConfig,
                  arrays: dict[str, np.ndarray]) -> None:
    """The file holds exactly the format's arrays that ``config`` creates
    (every one but the parameter arrays it goes without), each with its
    dtype and one row per item, user, node or feature, as it applies.

    ``segments`` is shaped by ``SegmentStore``, which knows the block rows.
    """
    items, users = len(header["item_ids"]), len(header["user_ids"])
    nodes, feat = len(header["node_ids"]), header["feature_dim"]
    i, f = "int64", "float64"
    expected = {name: spec for name, spec in {
        "parent": (i, (nodes,)),
        "item_leaf": (i, (items,)),
        "item_theta": (f, (items, config.n_visual)),
        "item_base": (f, (items,)),
        "item_bias": (f, (items,)),
        "item_latent": (f, (items, config.n_latent)),
        "item_train_count": (i, (items,)),
        "user_latent": (f, (users, config.n_latent)),
        "user_visual": (f, (users, config.n_visual)),
        "split_val": (i, (users,)),
        "split_test": (i, (users,)),
        "visual_bias": (f, (feat,)),
        "category_bias": (f, (nodes,)),
        "segments": (f, None),
    }.items() if config.creates(name)}
    if arrays.keys() != expected.keys():
        missing, extra = expected.keys() - arrays, arrays.keys() - expected
        raise ValueError(f"{config.kind} checkpoint arrays: missing "
                         f"{sorted(missing)}, unexpected {sorted(extra)}")
    for name, arr in arrays.items():
        dtype, shape = expected[name]
        if arr.dtype.name != dtype or shape not in (None, arr.shape):
            raise ValueError(f"array {name!r} is {arr.dtype.name} "
                             f"{arr.shape}, expected {dtype} {shape}")


def _bundle(header: dict, arrays: dict[str, np.ndarray]) -> CheckpointBundle:
    config = ModelConfig.from_dict(header["config"])
    if config.to_dict() != header["config"]:
        raise ValueError(f"config {header['config']} is not in to_dict form")
    _check_arrays(header, config, arrays)
    if not isinstance(header["seeds"], dict):
        raise ValueError(f"seeds {header['seeds']!r} are not an object")
    item_leaf = arrays["item_leaf"]
    hierarchy = _hierarchy_from_parts(header["node_ids"], arrays["parent"],
                                      item_leaf)
    if "segments" in arrays:
        arrays["segments"] = SegmentStore(
            assign_layers(hierarchy, config.scheme), header["feature_dim"],
            backing=arrays["segments"])
    params = ModelParams(**{f.name: arrays.get(f.name)
                            for f in fields(ModelParams)})
    return CheckpointBundle(
        config=config,
        params=params,
        hierarchy=hierarchy,
        user_ids=tuple(header["user_ids"]),
        item_ids=tuple(header["item_ids"]),
        table=frozen_table(config, params, arrays["item_theta"],
                           arrays["item_base"], item_leaf),
        split=EvalSplit(arrays["split_val"], arrays["split_test"]),
        item_train_count=arrays["item_train_count"],
        seeds=header["seeds"],
        feature_dim=header["feature_dim"],
    )
