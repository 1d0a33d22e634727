"""Independent references the library is checked against.

The per-pair scorer is plain loops over ``ModelParams``, the features,
``item_leaf`` and the tree's ``parent`` array. The segment layout comes from
the scheme alone: on each layer with a nonzero row count every node of that
layer owns one block, numbered layer-major and node-ascending, stored in
that order in the backing array. Nothing in the scorer reads the chains
that ``assign_layers`` builds.

``TwoProductTrainer`` is the SGD step as it stood before shared blocks took
one product: its ``margin`` and ``step`` are kept verbatim, so every block
on both paths still takes W_b f_i and W_b f_j in the margin and
+su (x) f_i then -su (x) f_j in the update.

``read_feedback`` (with ``_lines`` and ``_read_pairs``) and
``positives_from_pairs`` are the feedback reader and the checkpoint's
densifier as they stood before feedback became arrays, kept verbatim: a
text-mode line loop, one tuple and one dict entry per pair, and two dict
lookups per pair. ``_lines`` is also the sidecar reader as it stood before
every text file went through the byte scanner: each nonblank line's text.

``draw_positives`` and ``write_ground_truth`` are the synthetic corpus's
positive draw and ground-truth writer as they stood before users were
scored in blocks: the dense users x items score matrix, one
``rng.gumbel`` row and one ``argpartition`` per user, and ``json.dump``.
"""

import json
import math
from collections.abc import Iterator

import numpy as np

from hierbpr.errors import NonFiniteUpdate, ParseError
from hierbpr.ingestion import Positives
from hierbpr.training import Trainer, _sigmoid, _softplus


def visual_rows(per_layer, parent, leaf):
    """The backing row behind each visual dimension of an item on ``leaf``:
    ``backing[rows]`` is the leaf's stacked matrix."""
    def depth(node):
        return 1 if parent[node] < 0 else 1 + depth(parent[node])

    ancestor, node = {}, leaf
    while node >= 0:
        ancestor[depth(node)] = node
        node = parent[node]
    rows, first = [], 0
    for layer, count in enumerate(per_layer, start=1):
        if count:
            on_layer = [n for n in range(len(parent)) if depth(n) == layer]
            start = first + on_layer.index(ancestor[layer]) * count
            rows += range(start, start + count)
            first += count * len(on_layer)
    return rows


def project(backing, per_layer, parent, leaf, f):
    """theta of feature vector ``f`` on ``leaf``, one dot product per row."""
    return [sum(float(backing[row][k]) * float(f[k]) for k in range(len(f)))
            for row in visual_rows(per_layer, parent, leaf)]


def path_rows(model, *items):
    """The backing rows on the paths of ``items``, sorted."""
    parent = model.corpus.hierarchy.parent
    return sorted({row for i in items for row in visual_rows(
        model.config.scheme.per_layer, parent, int(model.item_leaf[i]))})


def score(model, u, i):
    """x_ui = <gamma_u, gamma_i> + <theta_u, theta_i> + <visual_bias, f_i>
    + item_bias_i (+ category_bias[leaf_i]), at the current parameters."""
    config, p, f = model.config, model.params, model.features[i]
    leaf = int(model.item_leaf[i])
    total = float(p.item_bias[i])
    for k in range(config.n_latent):
        total += float(p.user_latent[u][k]) * float(p.item_latent[i][k])
    if config.n_visual:
        theta = project(p.arrays()["segments"], config.scheme.per_layer,
                        model.corpus.hierarchy.parent, leaf, f)
        for r, value in enumerate(theta):
            total += float(p.user_visual[u][r]) * value
    if config.use_visual_bias:
        for k in range(len(f)):
            total += float(p.visual_bias[k]) * float(f[k])
    if config.use_category_bias:
        total += float(p.category_bias[leaf])
    return total


def margin(model, u, i, j):
    """x_ui - x_uj from two ``score`` calls."""
    return score(model, u, i) - score(model, u, j)


class TwoProductTrainer(Trainer):
    """``Trainer`` with the two-product margin and step."""

    def __init__(self, model, config):
        super().__init__(model, config)
        self._ti = np.empty(self.n_visual)

    def margin(self, u: int, i: int, j: int) -> float:
        """x_ui - x_uj using the scratch buffers (leaves them populated)."""
        m = self.item_bias[i] - self.item_bias[j]
        if self.n_latent:
            np.subtract(self.item_latent[i], self.item_latent[j], out=self._gd)
            m += self.user_latent[u] @ self._gd
        if self.n_visual:
            # Both paths list the same row ranges in the same layer order.
            path_i = self._chains[self.leaves[i]]
            path_j = self._chains[self.leaves[j]]
            self._paths = (path_i, path_j)
            blocks = self.segments.blocks
            fi, fj = self.features[i], self.features[j]
            ti, tj = self._ti, self._tj
            for (bi, start, stop), (bj, _, _) in zip(path_i, path_j):
                np.matmul(blocks[bi], fi, out=ti[start:stop])
                np.matmul(blocks[bj], fj, out=tj[start:stop])
            np.subtract(ti, tj, out=self._td)
            m += self.user_visual[u] @ self._td
        if self.use_vb:
            np.subtract(self.features[i], self.features[j], out=self._fd)
            m += self.visual_bias @ self._fd
        if self.use_cb:
            m += (self.category_bias[self.leaves[i]]
                  - self.category_bias[self.leaves[j]])
        return float(m)

    def step(self, u: int, i: int, j: int) -> float:
        """One ascent step on ln sigmoid(margin); returns the step's loss.

        A bare call is correct but runs under numpy's default ufunc
        buffering; ``train`` calls it inside ``_step_buffer``, where its
        cost is linear in K'xF.
        """
        m = self.margin(u, i, j)
        if not math.isfinite(m):
            raise NonFiniteUpdate(
                f"margin for triple ({u}, {i}, {j}) is {m}")
        c = _sigmoid(-m)
        lr = self.lr
        ac = lr * c

        ib = self.item_bias
        ib[i] = ib[i] * self.shrink_bias + ac
        ib[j] = ib[j] * self.shrink_bias - ac

        if self.n_latent:
            gu = self.user_latent[u]
            np.copyto(self._gu_old, gu)
            gu *= self.shrink_latent
            gu += ac * self._gd          # _gd = gamma_i - gamma_j from margin()
            gi = self.item_latent[i]
            gi *= self.shrink_latent
            gi += ac * self._gu_old
            gj = self.item_latent[j]
            gj *= self.shrink_latent
            gj -= ac * self._gu_old

        if self.n_visual:
            tu = self.user_visual[u]
            np.copyto(self._tu_old, tu)
            tu *= self.shrink_uv
            tu += ac * self._td          # _td = theta_i - theta_j from margin()
            # One rank-1 pass per layer at the old theta_u: shrink the
            # layer's blocks once, then add su (x) f_i and subtract
            # su (x) f_j. A block on both paths takes both updates, i first.
            seg_shrink = 1.0 - lr * self.seg_reg
            blocks = self.segments.blocks
            scratch = self._scratch
            su = self._su
            np.multiply(self._tu_old, ac, out=su)
            fi, fj = self.features[i], self.features[j]
            for (bi, start, stop), (bj, _, _) in zip(*self._paths):
                block_i = blocks[bi]
                block_j = blocks[bj]
                if self.seg_reg:
                    block_i *= seg_shrink
                    if bj != bi:
                        block_j *= seg_shrink
                work = scratch[: stop - start]
                np.multiply(su[start:stop, None], fi[None, :], out=work)
                block_i += work
                np.multiply(su[start:stop, None], fj[None, :], out=work)
                block_j -= work

        if self.use_vb:
            vb = self.visual_bias
            vb *= self.shrink_vb
            self._fd *= ac               # _fd = f_i - f_j from margin()
            vb += self._fd

        if self.use_cb:
            cb = self.category_bias
            ci = self.leaves[i]
            cj = self.leaves[j]
            if ci != cj:
                cb[ci] = cb[ci] * self.shrink_cb + ac
                cb[cj] = cb[cj] * self.shrink_cb - ac
            else:
                cb[ci] = cb[ci] * self.shrink_cb

        return _softplus(-m)


def _lines(path) -> Iterator[tuple[int, str]]:
    """Numbered nonblank lines of a UTF-8 text file, newline stripped.

    Bytes that are not UTF-8 are a ParseError naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_pairs(path, expected: str) -> Iterator[tuple[str, str]]:
    """The first two tab-separated columns of every nonblank line, in order."""
    for lineno, line in _lines(path):
        cols = line.split("\t")
        if len(cols) < 2 or not cols[0] or not cols[1]:
            raise ParseError(f"{path}:{lineno}: expected {expected}")
        yield cols[0], cols[1]


def read_feedback(path) -> list[tuple[str, str]]:
    """Parse (user, item) pairs, dropping duplicates but keeping order."""
    return list(dict.fromkeys(_read_pairs(path, "user<TAB>item")))


# ``CheckpointBundle.positives_from_pairs``; ``self`` is the bundle.
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


def draw_positives(rng, true_user, true_item, cfg) -> np.ndarray:
    """Each user's positives, ascending, one row per user."""
    scores = true_user @ true_item.T

    rows = []
    for u in range(cfg.n_users):
        utility = scores[u] / cfg.temperature + rng.gumbel(
            0.0, 1.0, size=cfg.n_items)
        top = np.argpartition(-utility, cfg.n_positives - 1)[: cfg.n_positives]
        top.sort()
        rows.append(top)
    return np.array(rows)


def write_ground_truth(path, record) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")
