"""Independent recomputation of the program's scores, AUCs and rankings.

Nothing here imports hierbpr. The oracle parses the checkpoint (magic,
u64 header length, JSON header, raw little-endian arrays), the binary
feature file with its id sidecar, the feedback file and the two hierarchy
files itself, and recomputes from the definitions:

    theta_i   = stacked path blocks of i's leaf  x  f_i
    x_ui      = b_i + <gamma_u, gamma_i> + <theta_u, theta_i>
                + <beta', f_i> (+ category bias of i's leaf)
    AUC_u     = #{candidates c : x_uc < x_ut} / #candidates

Ties score zero. Candidates are the items outside the user's full positive
set; the cold setting keeps users whose test item is cold and restricts the
candidates to cold items, an item being cold when it occurs fewer than
``threshold`` times among the training positives.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"HBPRCKP1"
FEATURE_MAGIC = b"VFEATB01"
_DTYPES = {"float64": "<f8", "int64": "<i8"}
AUC_CHUNK = 256        # users scored per block, bounding the score matrix


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint")
    size = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + size].decode("utf-8"))
    payload = memoryview(blob)[16 + size:]
    arrays = {}
    for entry in header["arrays"]:
        start = entry["offset"]
        raw = payload[start:start + entry["nbytes"]]
        arrays[entry["name"]] = np.frombuffer(
            raw, dtype=_DTYPES[entry["dtype"]]).reshape(entry["shape"])
    return header, arrays


def read_features(path) -> tuple[list[str], np.ndarray]:
    ids = [line for line in Path(str(path) + ".ids").read_text(
        encoding="utf-8").split("\n") if line.strip()]
    blob = Path(path).read_bytes()
    if blob[:8] != FEATURE_MAGIC:
        raise ValueError(f"{path}: not a binary feature file")
    n, dim = struct.unpack("<QQ", blob[8:24])
    record = np.dtype([("idx", "<u8"), ("vec", "<f4", (dim,))])
    records = np.frombuffer(blob, dtype=record, count=n, offset=24)
    matrix = np.empty((n, dim), dtype=np.float32)
    matrix[records["idx"].astype(np.int64)] = records["vec"]
    return ids, matrix


def read_tsv_pairs(path) -> list[tuple[str, str]]:
    pairs = []
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        cols = line.split("\t")
        if len(cols) >= 2 and cols[0] and cols[1]:
            pairs.append((cols[0], cols[1]))
    return pairs


def read_rank_list(path) -> list[tuple[str, float]]:
    """A ``rank-dim`` output file: header line, then rank, item id, score."""
    lines = Path(path).read_text(encoding="utf-8").strip("\n").split("\n")
    if lines[0] != "rank\titem_id\tscore":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        rank, item, score = line.split("\t")
        if int(rank) != k:
            raise ValueError(f"{path}: rank {rank} on line {k + 1}")
        rows.append((item, float(score)))
    return rows


class Oracle:
    """Scores and metrics recomputed from the files on disk."""

    def __init__(self, ckpt_path, inputs: dict, feature_norm: str):
        header, arrays = read_checkpoint(ckpt_path)
        config = header["config"]
        if config["kind"] == "RAND":
            raise ValueError("the oracle covers parametric models only")
        self.header, self.arrays, self.config = header, arrays, config
        self.user_ids = list(header["user_ids"])
        self.item_ids = list(header["item_ids"])
        n_items = len(self.item_ids)
        self._id_rank = np.argsort(np.argsort(np.array(self.item_ids)))
        user_index = {u: k for k, u in enumerate(self.user_ids)}
        item_index = {i: k for k, i in enumerate(self.item_ids)}

        # Full positive sets from the feedback file, in the checkpoint's ids.
        positives: list[set[int]] = [set() for _ in self.user_ids]
        for user, item in read_tsv_pairs(inputs["feedback"]):
            positives[user_index[user]].add(item_index[item])
        self.positives = [np.array(sorted(p), dtype=np.int64) for p in positives]
        self.test = arrays["split_test"]
        self.val = arrays["split_val"]

        # Training positives: full set minus the held-out items.
        counts = np.zeros(n_items, dtype=np.int64)
        self.n_train = 0
        self.train_pos = []
        for u, pos in enumerate(self.positives):
            held = [int(x) for x in (self.val[u], self.test[u]) if x >= 0]
            keep = np.setdiff1d(pos, held)
            self.train_pos.append(keep)
            counts[keep] += 1
            self.n_train += len(keep)
        self.train_counts = counts

        # Hierarchy: dense node ids in sorted order, depth from the root.
        edges = read_tsv_pairs(inputs["hierarchy"])
        self.node_ids = sorted({n for edge in edges for n in edge})
        node_index = {n: k for k, n in enumerate(self.node_ids)}
        parent = np.full(len(self.node_ids), -1, dtype=np.int64)
        for child, par in edges:
            parent[node_index[child]] = node_index[par]
        depth = np.zeros(len(parent), dtype=np.int64)
        for node in range(len(parent)):
            cur, d = node, 1
            while parent[cur] >= 0:
                cur, d = parent[cur], d + 1
            depth[node] = d
        self.node_index = node_index
        leaf_of = dict(read_tsv_pairs(inputs["item_leaves"]))
        self.item_leaf = np.array([node_index[leaf_of[i]] for i in self.item_ids],
                                  dtype=np.int64)

        # Features in the checkpoint's item order, as ingestion promotes them.
        feat_ids, feat = read_features(inputs["features"])
        row = {i: k for k, i in enumerate(feat_ids)}
        self.features = feat[[row[i] for i in self.item_ids]].astype(np.float64)
        if feature_norm == "l2":
            norms = np.linalg.norm(self.features, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            self.features = self.features / norms

        self.theta = self._project(parent, depth)
        base = arrays["item_bias"].copy()
        if config["use_visual_bias"]:
            base += self.features @ arrays["visual_bias"]
        if config["use_category_bias"]:
            base += arrays["category_bias"][self.item_leaf]
        self.base = base

    def _project(self, parent: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """theta for every item: its leaf's stacked path blocks times f_i."""
        scheme = [int(c) for c in self.config["scheme"]]
        n_visual = sum(scheme)
        theta = np.zeros((len(self.item_ids), n_visual))
        if n_visual == 0:
            return theta
        segments = self.arrays["segments"]
        # Blocks are layer-major, nodes ascending; each owns `count` rows.
        block_row: dict[int, int] = {}
        offset = 0
        for layer, count in enumerate(scheme, start=1):
            if count == 0:
                continue
            for node in np.flatnonzero(depth == layer):
                block_row[int(node)] = offset
                offset += count
        if offset != segments.shape[0]:
            raise ValueError(f"segments hold {segments.shape[0]} rows, "
                             f"the scheme needs {offset}")
        for leaf in np.unique(self.item_leaf):
            chain = [int(leaf)]
            while parent[chain[-1]] >= 0:
                chain.append(int(parent[chain[-1]]))
            chain.reverse()                 # chain[layer - 1] sits on `layer`
            blocks = []
            for layer, count in enumerate(scheme, start=1):
                if count:
                    start = block_row[chain[layer - 1]]
                    blocks.append(segments[start:start + count])
            stacked = np.vstack(blocks)
            sel = np.flatnonzero(self.item_leaf == leaf)
            theta[sel] = self.features[sel] @ stacked.T
        return theta

    def scores(self, users: np.ndarray) -> np.ndarray:
        """Score rows (users x items) for the given dense user indices."""
        a = self.arrays
        return (self.base[None, :]
                + a["user_visual"][users] @ self.theta.T
                + a["user_latent"][users] @ a["item_latent"].T)

    def cold_mask(self, threshold: int) -> np.ndarray:
        return self.train_counts < threshold

    def auc(self, setting: str, threshold: int,
            score_fn=None) -> tuple[float, int]:
        """Mean test AUC and the number of users it averages over."""
        score_fn = score_fn or self.scores
        n_items = len(self.item_ids)
        cold = self.cold_mask(threshold) if setting == "cold" else None
        users = np.flatnonzero(self.test >= 0)
        if cold is not None:
            users = users[cold[self.test[users]]]
        fractions = []
        for lo in range(0, len(users), AUC_CHUNK):
            block = users[lo:lo + AUC_CHUNK]
            s = score_fn(block)
            rows = np.arange(len(block))
            cand = np.ones((len(block), n_items), dtype=bool)
            for r, u in enumerate(block):
                cand[r, self.positives[u]] = False
            if cold is not None:
                cand &= cold[None, :]
            target = s[rows, self.test[block]]
            wins = ((s < target[:, None]) & cand).sum(axis=1)
            n_cand = cand.sum(axis=1)
            ok = n_cand > 0
            fractions.append(wins[ok] / n_cand[ok])
        fractions = np.concatenate(fractions) if fractions else np.zeros(0)
        if len(fractions) == 0:
            raise ValueError("no evaluable user")
        return float(fractions.mean()), len(fractions)

    def rank_dim(self, dim: int, category: str | None) -> list[tuple[str, float]]:
        """Every candidate item by theta[:, dim], descending, ties by id."""
        items = np.arange(len(self.item_ids))
        if category is not None:
            items = items[self.item_leaf == self.node_index[category]]
        col = self.theta[items, dim]
        order = np.lexsort((self._id_rank[items], -col))
        return [(self.item_ids[items[k]], float(col[k])) for k in order]
