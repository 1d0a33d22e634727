"""Input parsing, id densification, and corpus assembly.

Three artifacts feed a run: a feedback TSV (``user<TAB>item``, extra columns
ignored), a binary feature file with an ``.ids`` sidecar, and two hierarchy
files (``child<TAB>parent`` edges plus ``item<TAB>leaf`` assignments).
String ids are densified to contiguous integers in sorted-id order, which
makes loading independent of input line order. Every text file is split
into lines (and the tab-separated ones into columns) on its bytes with
numpy; a feedback file's pairs are ``Positives`` over its sorted ids
(``Feedback``), re-indexed once into a corpus's or checkpoint's ids.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DanglingItemLeaf,
    EmptyCorpus,
    OrphanItem,
    ParseError,
)
from .hierarchy import CategoryHierarchy, build_hierarchy

FEATURE_MAGIC = b"VFEATB01"
POLICIES = ("strict", "prune")
FEATURE_NORMS = ("none", "l2")
# Rows per pass over the feature matrix: records are scattered into their
# catalog rows, then checked and l2-normalised, a block at a time; an l2
# norm squares a whole block, so the block, not the matrix, bounds those
# temporaries.
FEATURE_BLOCK_ROWS = 256
# Bytes per read of a binary feature file: 255 records at F=4096, and the
# whole file of a small corpus.
FEATURE_READ_BYTES = 4 << 20


# ---------------------------------------------------------------- text files

# What ``str.strip`` removes, on the bytes: ``_SOLID`` marks each byte
# that is not whitespace by itself (ASCII non-whitespace, and the lead byte
# of a multi-byte character), and ``_SPACE_CHARS`` holds the multi-byte
# whitespace characters' UTF-8 bytes as big-endian integers (none lies
# past U+3000).
_SOLID = np.array([b >= 0xC0 or b < 0x80 and not chr(b).isspace()
                   for b in range(256)])
_SPACE_CHARS = np.array([int.from_bytes(chr(c).encode("utf-8"), "big")
                         for c in range(0x80, 0x3001) if chr(c).isspace()])


def _text_lines(path) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """A UTF-8 text file's bytes, and the byte range and line number of each
    nonblank line: the k-th is ``buf[starts[k]:stops[k]]``, without its line
    break, on line ``lineno[k]``.

    The rules of text-mode ``open`` and ``str.strip``, found on the bytes
    with numpy: ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end a line, and a
    line of whitespace only is blank. Bytes that are not UTF-8 are a
    ParseError naming the file, before any line is looked at.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    buf = np.frombuffer(data, dtype=np.uint8)
    lf, cr = buf == 10, buf == 13
    # Each line break's last byte: a LF, or a CR that no LF follows.
    ends = np.flatnonzero(lf | (cr & ~np.append(lf[1:], False)))
    starts = np.append(0, ends + 1)
    stops = np.append(ends - (lf[ends] & cr[ends - 1] & (ends > 0)), len(buf))
    if starts[-1] == len(buf):  # nothing follows the last line break
        starts, stops = starts[:-1], stops[:-1]
    solid = _SOLID.take(buf)
    lead = np.flatnonzero(buf >= 0xC0)
    # Each multi-byte character's bytes as one integer: two or three bytes
    # (four-byte characters are never whitespace).
    char = sum(buf.take(lead + k, mode="clip").astype(np.int64) << 8 * (2 - k)
               for k in range(3)) >> np.where(buf[lead] < 0xE0, 8, 0)
    solid[lead[np.isin(char, _SPACE_CHARS)]] = False
    blank = ~np.logical_or.reduceat(solid, starts)
    return buf, starts[~blank], stops[~blank], np.flatnonzero(~blank) + 1


def _tsv_columns(path, expected: str
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A UTF-8 text file's bytes and the byte ranges of the first two
    tab-separated columns of each nonblank line: column ``c`` of the k-th
    is ``buf[starts[c, k]:stops[c, k]]``.

    Lines are ``_text_lines``'. Each needs a nonempty first and second
    column, or the first that lacks one is a ParseError naming
    ``expected`` and its line number.
    """
    buf, starts, stops, lineno = _text_lines(path)
    tabs = np.append(np.flatnonzero(buf == 9), [len(buf), len(buf)])
    first = np.searchsorted(tabs, starts)
    tab, cut = tabs[first], np.minimum(tabs[first + 1], stops)
    ok = (starts < tab) & (tab + 1 < cut)
    if not ok.all():
        raise ParseError(f"{path}:{lineno[np.argmin(ok)]}: expected "
                         f"{expected}")
    return buf, np.stack((starts, tab + 1)), np.stack((tab, cut))


def _densify(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray
             ) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct strings among the byte ranges, sorted, and each range's
    index among them; ranges hold UTF-8 text without line breaks.

    Ranges are grouped by length, so a range costs its own bytes (rounded
    up to whole 8-byte words), never those of the longest; and ``"a"`` and
    ``"a\\0"``, of different lengths, stay apart. Within a group the bytes,
    read as big-endian words, sort as the strings do (UTF-8 keeps code
    point order); each distinct one is decoded once.
    """
    # The eight bytes from each offset on, as one big-endian word.
    padded = np.append(buf, np.zeros(8, dtype=np.uint8))
    word_at = np.ndarray(len(buf) + 1, dtype=">u8", buffer=padded,
                         strides=(1,))
    lengths = stops - starts
    by_length = np.argsort(lengths, kind="stable")
    codes = np.empty(len(starts), dtype=np.int64)
    names: list[str] = []
    for group in np.split(by_length,
                          np.flatnonzero(np.diff(lengths[by_length])) + 1):
        if not group.size:
            continue
        width = int(lengths[group[0]])
        count = -(-width // 8)
        words = word_at[starts[group, None] + 8 * np.arange(count)]
        past = 8 * (8 * count - width)  # bits of the last word past the end
        words[:, -1] &= np.uint64((2**64 - 1) >> past << past)
        order = (np.argsort(words[:, 0]) if count == 1
                 else np.lexsort(words.T[::-1]))
        words = words[order]
        new = np.ones(len(group), dtype=bool)
        new[1:] = (words[1:] != words[:-1]).any(axis=1)
        codes[group[order]] = len(names) + np.cumsum(new) - 1
        # No range holds a line break, so one joins the group's strings.
        text = np.column_stack((words[new].view(np.uint8)[:, :width],
                                np.full(int(new.sum()), 10, dtype=np.uint8)))
        names += text.tobytes().decode("utf-8").split("\n")[:-1]
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return tuple(names[k] for k in order), rank[codes]


def _read_pairs(path, expected: str) -> list[tuple[str, str]]:
    """The first two tab-separated columns of every nonblank line, in order."""
    buf, starts, stops = _tsv_columns(path, expected)
    columns = []
    for c in (0, 1):
        names, codes = _densify(buf, starts[c], stops[c])
        columns.append([names[k] for k in codes.tolist()])
    return list(zip(*columns))


def sorted_unique(values) -> np.ndarray:
    """The distinct values, ascending: one sort and a neighbour compare,
    where numpy 2's ``np.unique`` hashes first and is slower on int64."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def index_of(names, ids) -> np.ndarray:
    """Each of ``names``' index in the sequence ``ids``, -1 where ``ids``
    lacks it: one lookup per name."""
    index = {name: k for k, name in enumerate(ids)}
    return np.fromiter((index.get(name, -1) for name in names),
                       dtype=np.int64, count=len(names))


@dataclass(frozen=True, eq=False)
class Feedback:
    """The distinct (user, item) pairs of a feedback file.

    ``user_ids`` and ``item_ids`` are the distinct ids, sorted, and
    ``pairs`` holds the pairs by index into them: user ``user_ids[u]``'s
    items are ``item_ids[k]`` for each ``k`` in ``pairs[u]``.
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    pairs: Positives

    @classmethod
    def from_pairs(cls, pairs) -> "Feedback":
        """The feedback of ``(user, item)`` string pairs: what
        ``read_feedback`` gives for the file ``write_pairs`` writes."""
        pairs = list(pairs)
        users, items = ([pair[c] for pair in pairs] for c in (0, 1))
        user_ids, item_ids = (tuple(sorted(set(c))) for c in (users, items))
        return cls(user_ids, item_ids, Positives.from_pairs(
            index_of(users, user_ids), index_of(items, item_ids),
            len(user_ids), len(item_ids)))

    def positives_in(self, user_ids, item_ids) -> tuple[Positives, int]:
        """The pairs as positives over the id lists ``user_ids`` and
        ``item_ids``, and how many pairs named an id they lack."""
        users = index_of(self.user_ids, user_ids)[self.pairs.rows()]
        items = index_of(self.item_ids, item_ids)[self.pairs.indices]
        known = (users >= 0) & (items >= 0)
        positives = Positives.from_pairs(users[known], items[known],
                                         len(user_ids), len(item_ids))
        return positives, len(known) - int(known.sum())

    def __len__(self) -> int:
        return len(self.pairs.indices)


def read_feedback(path) -> Feedback:
    """The distinct (user, item) pairs of a feedback file; columns past
    the second are ignored."""
    buf, starts, stops = _tsv_columns(path, "user<TAB>item")
    (user_ids, users), (item_ids, items) = (
        _densify(buf, starts[c], stops[c]) for c in (0, 1))
    return Feedback(user_ids, item_ids, Positives.from_pairs(
        users, items, len(user_ids), len(item_ids)))


def _unreadable(line: str) -> bool:
    """Whether the text reader would not give ``line`` back as one line:
    it is blank (empty or whitespace only) or holds a line break."""
    return not line or line.isspace() or "\n" in line or "\r" in line


def write_pairs(path, pairs) -> None:
    """One tab-separated pair a line: feedback, hierarchy edges or item
    leaves (pass ``leaves.items()``).

    A pair that would not read back is a ValueError naming it, before the
    file is opened: an empty id, one holding a tab or line break, or a
    line of whitespace only; so is text that is not UTF-8 (a lone
    surrogate).
    """
    lines = []
    for first, second in pairs:
        line = f"{first}\t{second}"
        if (not first or not second or line.count("\t") > 1
                or _unreadable(line)):
            raise ValueError(f"{path}: pair {(first, second)!r} would not "
                             "read back: an id is empty or holds a tab or "
                             "line break, or the line is blank")
        lines.append(f"{line}\n")
    Path(path).write_bytes("".join(lines).encode("utf-8"))


def read_hierarchy_edges(path) -> list[tuple[str, str]]:
    return _read_pairs(path, "child<TAB>parent")


def read_item_leaves(path) -> dict[str, str]:
    """Each item's category node; a repeated line is accepted, a conflict not."""
    leaves: dict[str, str] = {}
    for item, node in _read_pairs(path, "item<TAB>node"):
        if leaves.setdefault(item, node) != node:
            raise ParseError(f"{path}: item {item!r} is listed under both "
                             f"{leaves[item]!r} and {node!r}")
    return leaves


# ------------------------------------------------------------- feature files

def _feature_record(feat: int) -> np.dtype:
    """One binary feature record: id_index(u64), then F float32 values."""
    return np.dtype([("index", "<u8"), ("vector", "<f4", (feat,))])


def write_features_binary(path, item_ids, matrix) -> None:
    """Binary feature file plus ``<path>.ids`` sidecar (one id per line).

    Layout: magic(8) item_count(u64) F(u64), then per item id_index(u64)
    followed by F little-endian float32 values. id_index ``k`` names the
    sidecar's k-th nonblank line, counting from 0. An id the sidecar would
    not read back (blank, holding a line break, or not UTF-8) is a
    ValueError before either file is written.
    """
    matrix = np.asarray(matrix)
    n, feat = matrix.shape
    if n != len(item_ids):
        raise ValueError("item_ids and matrix row count differ")
    bad = next((i for i in item_ids if _unreadable(i)), None)
    if bad is not None:
        raise ValueError(f"{path}.ids: item id {bad!r} would not read back: "
                         "it is blank or holds a line break")
    ids = "".join(f"{item_id}\n" for item_id in item_ids).encode("utf-8")
    records = np.empty(n, dtype=_feature_record(feat))
    records["index"] = np.arange(n)
    records["vector"] = matrix
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<QQ", n, feat))
        records.tofile(fh)
    Path(f"{path}.ids").write_bytes(ids)


class _FeatureRecords:
    """A binary feature file's records, read from disk once, front to back.

    ``blocks()`` reads them in file order into one reused window of about
    FEATURE_READ_BYTES and yields ``(index, rows)``: each record's id_index
    and float32 vector. A window is yielded only after its id_index range
    check, and after the last window every id_index must have been seen,
    so a damaged index is a ParseError, never another item's vector.
    """

    def __init__(self, path, n: int, feat: int):
        self.path = path
        self.shape = (n, feat)

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n, feat = self.shape
        record = _feature_record(feat)
        count = max(1, min(n, FEATURE_READ_BYTES // record.itemsize))
        window = np.empty(count, dtype=record)
        seen = np.zeros(n, dtype=bool)
        with open(self.path, "rb") as fh:
            fh.seek(24)  # past the header
            for first in range(0, n, len(window)):
                held = window[:min(len(window), n - first)]
                got = fh.readinto(held.view(np.uint8))
                if got < held.nbytes:
                    raise ParseError(f"{self.path}: truncated at record "
                                     f"{first + got // record.itemsize} "
                                     "while being read")
                index = held["index"]
                bad = np.flatnonzero(index >= n)
                if bad.size:
                    raise ParseError(f"{self.path}: id_index "
                                     f"{index[bad[0]]} out of range")
                seen[index] = True
                yield index, held["vector"]
        if not seen.all():
            raise ParseError(f"{self.path}: missing vector for id_index "
                             f"{np.argmin(seen)}")


def _read_ids(path) -> list[str]:
    """A sidecar's ids: each nonblank line's exact text, in line order.

    One feature row per item: a repeated id would silently pick a row, so
    the first line that repeats one is a ParseError naming the id.
    """
    buf, starts, stops, _ = _text_lines(path)
    names, codes = _densify(buf, starts, stops)
    if len(names) < len(codes):
        # Equal codes stay in line order, so each run's first is the
        # original and the rest are repeats.
        order = np.argsort(codes, kind="stable")
        repeat = order[1:][np.diff(codes[order]) == 0]
        raise ParseError(f"{path}: item {names[codes[repeat.min()]]!r} has "
                         "more than one feature row")
    return [names[k] for k in codes.tolist()]


def read_features(path) -> tuple[list[str], _FeatureRecords]:
    """A binary feature file's ids and a row source over its records, after
    every header and size check; no record is read here.

    Row ``k`` belongs to ``ids[k]``. The row source reads the file once,
    when it is iterated, so no whole-file copy exists: ``rows.shape``, and
    ``rows.blocks()``, each window's ``(id_index, vectors)`` in file order.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != FEATURE_MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        ids_path = str(path) + ".ids"
        if not Path(ids_path).exists():
            raise ParseError(f"{path}: missing id sidecar {ids_path}")
        ids = _read_ids(ids_path)
        sizes = fh.read(16)
        if len(sizes) < 16:
            raise ParseError(f"{path}: header cut at {8 + len(sizes)} of 24 "
                             "bytes")
        n, feat = struct.unpack("<QQ", sizes)
        if n != len(ids):
            raise ParseError(
                f"{path}: header says {n} items, sidecar lists {len(ids)}")
        # numpy sizes a record's vector with a C int.
        if not 0 < feat < 2**31:
            raise ParseError(f"{path}: header gives feature vectors of "
                             f"length {feat}")
        # Sizes are checked before any record is read, so a corrupt F
        # cannot ask for more memory than the file holds.
        record_bytes = 8 + 4 * feat
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body < n * record_bytes:
            k, part = divmod(body, record_bytes)
            where = "vector at record" if part >= 8 else "at record"
            raise ParseError(f"{path}: truncated {where} {k}")
        if body > n * record_bytes:
            raise ParseError(f"{path}: bytes follow the {n} records the "
                             "header counts")
    return ids, _FeatureRecords(path, n, feat)


# ------------------------------------------------------------------- corpora

@dataclass(frozen=True, eq=False)
class Positives:
    """Each user's positive items as CSR rows, sorted and unique per user.

    User ``u``'s items are ``indices[indptr[u]:indptr[u + 1]]``; item ids are
    dense indices below ``n_items``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    n_items: int

    @classmethod
    def from_pairs(cls, users, items, n_users: int, n_items: int
                   ) -> "Positives":
        """Rows from dense (user, item) index arrays; duplicates collapse."""
        keys = sorted_unique(np.asarray(users, dtype=np.int64) * n_items
                             + np.asarray(items, dtype=np.int64))
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n_items, minlength=n_users),
                  out=indptr[1:])
        return cls(indptr=indptr, indices=keys % n_items, n_items=n_items)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, u) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def rows(self) -> np.ndarray:
        """The user of each entry of ``indices``."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def keys(self) -> np.ndarray:
        """Every (u, j) pair as the int64 ``u * n_items + j``, ascending."""
        return self.rows() * self.n_items + self.indices


@dataclass
class InteractionCorpus:
    """Everything a model needs: users, items, positives, tree, features.

    ``features`` is the read-only, C-contiguous float64 ``(n_items, F)``
    matrix whose row ``k`` belongs to ``item_ids[k]``.
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    positives: Positives
    hierarchy: CategoryHierarchy
    item_leaf: np.ndarray
    features: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_interactions(self) -> int:
        return len(self.positives.indices)


@dataclass
class TrainingCorpus:
    """Leave-one-out training side: positives minus held-out items.

    ``full_pos`` is each user's complete positive set (train + held-out):
    the sampler draws negatives outside it and rankings exclude it.
    """

    train_pos: Positives
    full_pos: Positives

    @property
    def n_items(self) -> int:
        return self.full_pos.n_items

    @property
    def n_interactions(self) -> int:
        return len(self.train_pos.indices)

    def item_counts(self) -> np.ndarray:
        """How often each item occurs in the training positives."""
        return np.bincount(self.train_pos.indices, minlength=self.n_items)


def _scatter_rows(features: np.ndarray, catalog_row: np.ndarray,
                  feat_matrix) -> None:
    """Write each float32 row, in file order and at most
    FEATURE_BLOCK_ROWS at a time, into ``features[catalog_row[id_index]]``;
    a row whose catalog row is -1 is skipped. Row ``k`` of an ndarray has
    id_index ``k``."""
    windows = (feat_matrix.blocks() if isinstance(feat_matrix, _FeatureRecords)
               else [(np.arange(len(feat_matrix)), feat_matrix)])
    for index, window in windows:
        for start in range(0, len(window), FEATURE_BLOCK_ROWS):
            rows = window[start:start + FEATURE_BLOCK_ROWS]
            dest = catalog_row[index[start:start + len(rows)]]
            keep = dest >= 0
            if not keep.all():  # only copy rows when some item was dropped
                dest, rows = dest[keep], rows[keep]
            # A signalling NaN warns as it is cast; the finite check in
            # _catalog_features names it.
            with np.errstate(invalid="ignore"):
                features[dest] = rows


def _catalog_features(feat_ids: list[str], feat_matrix, catalog: list[str],
                      feature_norm: str) -> np.ndarray:
    """The catalog's feature rows as one read-only float64 matrix.

    ``feat_matrix`` is the float32 matrix or a binary file's row source.
    Its rows are scattered in file order, each by its id_index, into their
    catalog rows, so a file is read once, front to back, whatever its
    record order; rows the catalog dropped are skipped. Then a block of
    rows at a time is checked and (for ``l2``) scaled to unit norm in
    place; zero rows stay zero. So the peak is the matrix plus one block
    and, for a binary file, one read window.
    """
    feat_row = {item: k for k, item in enumerate(feat_ids)}
    # Each id_index's catalog row, -1 where the catalog dropped the item.
    catalog_row = np.full(len(feat_ids), -1, dtype=np.int64)
    catalog_row[[feat_row[i] for i in catalog]] = np.arange(len(catalog))
    features = np.empty((len(catalog), feat_matrix.shape[1]))
    _scatter_rows(features, catalog_row, feat_matrix)
    for start in range(0, len(features), FEATURE_BLOCK_ROWS):
        block = features[start:start + FEATURE_BLOCK_ROWS]
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            raise ParseError(f"item {catalog[start + bad[0]]!r} has a "
                             "non-finite feature value")
        if feature_norm == "l2":
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            block /= norms
    features.flags.writeable = False
    return features


def assemble_corpus(
    feedback: Feedback,
    feat_ids: list[str],
    feat_matrix,
    edges: list[tuple[str, str]],
    leaf_map: dict[str, str],
    policy: str = "strict",
    feature_norm: str = "none",
) -> tuple[InteractionCorpus, dict]:
    """Cross-validate the three sources and densify ids.

    policy="strict" raises OrphanItem on any item missing a feature vector or
    category, and DanglingItemLeaf on one whose category node is not in the
    tree; policy="prune" drops such items (and their feedback) and reports
    them. A kept item with a non-finite feature value raises ParseError.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if feature_norm not in FEATURE_NORMS:
        raise ValueError(f"unknown feature_norm {feature_norm!r}")
    if not len(feedback):
        raise EmptyCorpus("no feedback pairs")

    have_feat = set(feat_ids)
    have_leaf = set(leaf_map)
    universe = have_feat | have_leaf | set(feedback.item_ids)

    missing_feat = sorted(universe - have_feat)
    missing_leaf = sorted(universe - have_leaf)
    if policy == "strict":
        if missing_feat:
            raise OrphanItem(f"item {missing_feat[0]!r} has no feature vector")
        if missing_leaf:
            raise OrphanItem(f"item {missing_leaf[0]!r} has no category")
    catalog = sorted(have_feat & have_leaf)

    # An item may name a node the tree lacks. Without edges the tree is the
    # single node the items name, so nothing can dangle.
    dangling: list[str] = []
    if edges:
        nodes = {n for edge in edges for n in edge}
        dangling = [i for i in catalog if leaf_map[i] not in nodes]
        if dangling and policy == "strict":
            raise DanglingItemLeaf(f"item {dangling[0]!r} maps to unknown "
                                   f"node {leaf_map[dangling[0]]!r}")
        if dangling:
            catalog = [i for i in catalog if leaf_map[i] in nodes]
    if not catalog:
        raise EmptyCorpus("no item has both features and a category")

    positives, dropped_pairs = feedback.positives_in(feedback.user_ids,
                                                     catalog)
    if not len(positives.indices):
        raise EmptyCorpus("no feedback pair references a usable item")
    # Users left without a pair go; their rows are empty.
    has_pair = np.diff(positives.indptr) > 0
    users = [feedback.user_ids[k] for k in np.flatnonzero(has_pair)]
    positives = Positives(np.append(0, positives.indptr[1:][has_pair]),
                          positives.indices, len(catalog))

    leaf_ids = [leaf_map[i] for i in catalog]
    hierarchy = build_hierarchy(edges, leaf_ids)
    item_leaf = np.array([hierarchy.node_index[n] for n in leaf_ids],
                         dtype=np.int64)
    item_leaf.flags.writeable = False

    features = _catalog_features(feat_ids, feat_matrix, catalog, feature_norm)

    report = {
        "users": len(users),
        "items": len(catalog),
        "interactions": len(positives.indices),
        "feature_dim": features.shape[1],
        "policy": policy,
        "feature_norm": feature_norm,
        "pruned": {
            "items_missing_features": missing_feat,
            "items_missing_category": missing_leaf,
            "items_dangling_category": dangling,
            "feedback_pairs_dropped": dropped_pairs,
        },
    }
    corpus = InteractionCorpus(
        user_ids=tuple(users),
        item_ids=tuple(catalog),
        positives=positives,
        hierarchy=hierarchy,
        item_leaf=item_leaf,
        features=features,
    )
    return corpus, report


def load_corpus(
    feedback_path,
    features_path,
    hierarchy_path,
    item_leaves_path,
    policy: str = "strict",
    feature_norm: str = "none",
) -> tuple[InteractionCorpus, dict]:
    """Parse the three artifacts and assemble a validated corpus."""
    feedback = read_feedback(feedback_path)
    feat_ids, feat_matrix = read_features(features_path)
    edges = read_hierarchy_edges(hierarchy_path)
    leaf_map = read_item_leaves(item_leaves_path)
    return assemble_corpus(feedback, feat_ids, feat_matrix, edges, leaf_map,
                           policy=policy, feature_norm=feature_norm)
