"""Pairwise ranking optimization via stochastic gradient ascent.

Each epoch draws as many (user, positive, non-positive) triples as there
are training interactions, in one array call, then steps through them in
order. A step nudges every touched parameter along the gradient of
ln sigmoid(margin) with L2 shrinkage applied to touched parameters only
(full-parameter decay per step would break the per-triple cost bound).
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .errors import EmptyCorpus, ExhaustedRejection, NonFiniteUpdate
from .ingestion import TrainingCorpus
from .model import KIND_RAND, ModelParams, PreferenceModel

_STEP_BUFSIZE = 1024


@contextlib.contextmanager
def _step_buffer():
    """Run SGD steps with a small ufunc buffer; restore the old size after.

    The rank-1 update in ``Trainer.step`` broadcasts ``su[:, None] *
    f[None, :]``. numpy (2.4.6 measured; 1.x not checked) buffers such a
    broadcast across rows whenever three or more rows fit its default
    8192-element buffer, and buffered it costs 1.13 ns per element at
    10x2730 against 0.32 ns at 10x2731. So a 10x2048 outer product took
    26-35 us and a 10x4096 one 11-18 us, and a step at F=2048 cost as much
    as one at F=4096. With 1024 elements the rows of any F past 341 are
    never buffered and the step cost rises with F. The arithmetic is the
    same, so results are bit-identical. Setting the size costs about 3.5 us,
    so this wraps step loops, not single steps.
    """
    old = np.setbufsize(_STEP_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


@dataclass(frozen=True)
class RegWeights:
    """Per-group L2 strengths. Groups follow the parameter families."""

    bias: float = 0.01
    latent: float = 0.01
    user_visual: float = 0.01
    visual_bias: float = 0.0
    segments: float = 0.0
    category_bias: float = 0.01

    def __post_init__(self):
        for name in ("bias", "latent", "user_visual", "visual_bias",
                     "segments", "category_bias"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"regularization for {name} must be finite "
                                 "and non-negative")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    reg: RegWeights = field(default_factory=RegWeights)
    iterations: int = 20
    rng_seed: int = 0
    patience: int | None = None

    def __post_init__(self):
        # A zero rate is a legal no-op step (handy for tests); a negative or
        # non-finite one is not.
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning rate must be finite and non-negative")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 when set")


@dataclass
class EpochStats:
    epoch: int
    val_auc: float | None
    train_loss: float
    seconds: float


@dataclass
class TrainResult:
    best_params: ModelParams | None
    best_epoch: int | None
    best_val_auc: float | None
    history: list[EpochStats]


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softplus(x: float) -> float:
    # log(1 + e^x), overflow-safe
    if x > 35.0:
        return x
    if x < -35.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def sample_triple(corpus: TrainingCorpus, rng: np.random.Generator,
                  n: int) -> np.ndarray:
    """``n`` uniform BPR triples as an ``(n, 3)`` int64 array of (u, i, j).

    u is uniform over users with a training positive and a non-positive
    item (held-out items count as positives), i over u's training row and
    j over u's non-positives, with no rejection: for r uniform below their
    count, j is r plus the number of u's full positives p_m (m-th in the
    row) with p_m - m <= r, one ``np.searchsorted`` over ``u * n_items +
    p_m - m``.
    """
    train, full = corpus.train_pos, corpus.full_pos
    n_items = corpus.n_items
    n_train = np.diff(train.indptr)
    n_free = n_items - np.diff(full.indptr)
    users = np.flatnonzero((n_train > 0) & (n_free > 0))
    if not len(users):
        raise ExhaustedRejection(
            "no user has both a training positive and a non-positive item")
    u = users[rng.integers(len(users), size=n)]
    i = train.indices[train.indptr[u] + rng.integers(n_train[u])]
    r = rng.integers(n_free[u])
    rows = full.rows()
    gaps = (rows * n_items + full.indices - np.arange(len(rows))
            + full.indptr[rows])
    j = r + np.searchsorted(gaps, u * n_items + r, side="right")
    j -= full.indptr[u]
    return np.stack([u, i, j], axis=1)


class Trainer:
    """Owns the scratch buffers and applies single-triple updates in place.

    All partial derivatives are evaluated at the pre-step parameter values;
    the user vectors are snapshotted before mutation so the segment and item
    updates see the old state. A segment block on both items' paths (any
    block from the root down to their deepest common ancestor) enters
    the margin only as W_b (f_i - f_j), so it takes one product in the
    margin and one rank-1 update with f_i - f_j in the step; a block on one
    path takes its item's product and update.
    """

    def __init__(self, model: PreferenceModel, config: TrainConfig):
        if model.config.kind == KIND_RAND:
            raise ValueError("the random baseline has nothing to train")
        self.model = model
        self.config = config
        p = model.params
        self.n_latent = model.config.n_latent
        self.n_visual = model.config.n_visual
        self.use_vb = model.config.use_visual_bias
        self.use_cb = model.config.use_category_bias
        self.item_bias = p.item_bias
        self.item_latent = p.item_latent
        self.user_latent = p.user_latent
        self.user_visual = p.user_visual
        self.visual_bias = p.visual_bias
        self.category_bias = p.category_bias
        self.segments = p.segments
        self.features = model.features
        self.leaves = model.item_leaf
        self.lr = config.learning_rate
        r = config.reg
        self.shrink_bias = 1.0 - self.lr * r.bias
        self.shrink_latent = 1.0 - self.lr * r.latent
        self.shrink_uv = 1.0 - self.lr * r.user_visual
        self.shrink_vb = 1.0 - self.lr * r.visual_bias
        self.shrink_cb = 1.0 - self.lr * r.category_bias
        self.seg_reg = r.segments
        feat_dim = self.features.shape[1]
        self._fd = np.empty(feat_dim)
        self._tj = np.empty(self.n_visual)
        self._td = np.empty(self.n_visual)
        self._tu_old = np.empty(self.n_visual)
        self._su = np.empty(self.n_visual)
        self._gd = np.empty(self.n_latent)
        self._gu_old = np.empty(self.n_latent)
        max_rows = 0
        self._chains = ()
        if self.segments is not None:
            max_rows = max((b.shape[0] for b in self.segments.blocks), default=0)
            self._chains = self.segments.assignment.chains
        self._scratch = np.empty((max_rows, feat_dim))
        self._paths = ((), ())         # (path_i, path_j), set by margin()

    def margin(self, u: int, i: int, j: int) -> float:
        """x_ui - x_uj using the scratch buffers (leaves them populated)."""
        m = self.item_bias[i] - self.item_bias[j]
        if self.n_latent:
            np.subtract(self.item_latent[i], self.item_latent[j], out=self._gd)
            m += self.user_latent[u] @ self._gd
        if self.n_visual or self.use_vb:
            np.subtract(self.features[i], self.features[j], out=self._fd)
        if self.n_visual:
            # Both paths list the same row ranges in the same layer order.
            path_i = self._chains[self.leaves[i]]
            path_j = self._chains[self.leaves[j]]
            self._paths = (path_i, path_j)
            blocks = self.segments.blocks
            fi, fj, fd = self.features[i], self.features[j], self._fd
            td, tj = self._td, self._tj
            for (bi, start, stop), (bj, _, _) in zip(path_i, path_j):
                if bi == bj:
                    np.matmul(blocks[bi], fd, out=td[start:stop])
                else:
                    np.matmul(blocks[bi], fi, out=td[start:stop])
                    np.matmul(blocks[bj], fj, out=tj[start:stop])
                    td[start:stop] -= tj[start:stop]
            m += self.user_visual[u] @ td
        if self.use_vb:
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
            # layer's blocks once, then give a block on both paths
            # su (x) (f_i - f_j), and otherwise add su (x) f_i to i's block
            # and subtract su (x) f_j from j's.
            seg_shrink = 1.0 - lr * self.seg_reg
            blocks = self.segments.blocks
            scratch = self._scratch
            su = self._su
            np.multiply(self._tu_old, ac, out=su)
            fi, fj, fd = self.features[i], self.features[j], self._fd
            for (bi, start, stop), (bj, _, _) in zip(*self._paths):
                block_i = blocks[bi]
                if self.seg_reg:
                    block_i *= seg_shrink
                work = scratch[: stop - start]
                if bi == bj:
                    np.multiply(su[start:stop, None], fd[None, :], out=work)
                    block_i += work
                    continue
                block_j = blocks[bj]
                if self.seg_reg:
                    block_j *= seg_shrink
                np.multiply(su[start:stop, None], fi[None, :], out=work)
                block_i += work
                np.multiply(su[start:stop, None], fj[None, :], out=work)
                block_j -= work

        if self.use_vb:
            vb = self.visual_bias
            if self.shrink_vb != 1.0:
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


def train(
    model: PreferenceModel,
    corpus: TrainingCorpus,
    config: TrainConfig,
    split=None,
) -> TrainResult:
    """Run the SGD loop for ``config.iterations`` epochs.

    With a split supplied, validation AUC is computed after every epoch, the
    best-on-validation parameter snapshot is kept, and (if ``patience`` is
    set) training stops after that many epochs without improvement.
    """
    if corpus.n_interactions == 0:
        raise EmptyCorpus("no training interactions")
    rng = np.random.default_rng(config.rng_seed)
    trainer = Trainer(model, config)
    steps_per_epoch = corpus.n_interactions

    history: list[EpochStats] = []
    best_params = None
    best_epoch = None
    best_auc = -1.0
    for epoch in range(1, config.iterations + 1):
        started = time.perf_counter()
        triples = sample_triple(corpus, rng, steps_per_epoch)
        loss_sum = 0.0
        # The first overflow raises, in place of a numpy warning per
        # operation. numpy cannot see BLAS threads' flags: the checks stay.
        try:
            with _step_buffer(), np.errstate(over="raise", invalid="raise"):
                block = 1024  # a whole-epoch .tolist() would raise peak RSS
                for a in range(0, steps_per_epoch, block):
                    for u, i, j in triples[a:a + block].tolist():
                        loss_sum += trainer.step(u, i, j)
        except FloatingPointError as exc:
            raise NonFiniteUpdate(f"epoch {epoch}, triple ({u}, {i}, {j}): "
                                  f"{exc}") from None
        try:
            model.params.check_finite()
        except ValueError as exc:
            raise NonFiniteUpdate(f"after epoch {epoch}: {exc}") from None

        val_auc = None
        if split is not None:
            val_auc = evaluation.validation_auc(model, corpus, split)
            if val_auc > best_auc:
                best_auc = val_auc
                best_epoch = epoch
                best_params = model.params.copy()
        stats = EpochStats(epoch=epoch, val_auc=val_auc,
                           train_loss=loss_sum / steps_per_epoch,
                           seconds=time.perf_counter() - started)
        history.append(stats)
        if (config.patience is not None and best_epoch is not None
                and epoch - best_epoch >= config.patience):
            break

    return TrainResult(
        best_params=best_params,
        best_epoch=best_epoch,
        best_val_auc=(best_auc if best_epoch is not None else None),
        history=history,
    )

