"""Pairwise ranking optimization via stochastic gradient ascent.

Each epoch draws as many (user, positive, non-positive) triples as there
are training interactions, in one array call, then steps through them in
order. A step nudges every touched parameter along the gradient of
ln sigmoid(margin) with L2 shrinkage applied to touched parameters only
(full-parameter decay per step would break the per-triple cost bound).
The trainer keeps each user's latent and visual factors as one row, and
each item's bias and latent factors as one row, so a step moves a user or
an item with one shrink and one update.
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
from .model import KIND_RAND, ItemTable, ModelParams, PreferenceModel

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
    """The best epoch on validation: a copy of its parameters and, when
    that epoch ran last, the table its validation froze, bound to that
    copy's user rows."""

    best_params: ModelParams | None
    best_epoch: int | None
    best_val_auc: float | None
    history: list[EpochStats]
    best_table: ItemTable | None = None


class _Freezer:
    """A scorer for ``evaluation.validation_auc`` that remembers the table
    it freezes, so that table need not be built again."""

    def __init__(self, model: PreferenceModel):
        self.model = model
        self.table: ItemTable | None = None

    def item_table(self) -> ItemTable:
        self.table = self.model.item_table()
        return self.table

    def keep(self, params: ModelParams) -> ItemTable | None:
        """The table, its user rows rebound to ``params``, a copy of the
        parameters it froze: its own are the live rows, which a later step
        would move. None if no table was frozen."""
        if self.table is not None:
            self.table.user_visual = params.user_visual
            self.table.user_latent = params.user_latent
        return self.table


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
    """Owns the parameter rows and scratch buffers; applies single-triple
    updates in place.

    The arrays a step touches per user and per item are laid out as rows:
    user u's ``[gamma_u | theta_u]`` is one row of an ``(n_users, K + K')``
    array and item i's ``[b_i | gamma_i]`` one row of an ``(n_items, 1 + K)``
    array. The constructor copies the parameters into them once and rebinds
    ``user_latent``, ``user_visual``, ``item_bias`` and ``item_latent`` of
    ``model.params`` to views, so everything else reads the live values.
    A step then shrinks and moves a whole row per ufunc call. A second
    ``Trainer`` on the same model takes fresh rows, and the first one's
    steps no longer reach the model.

    All partial derivatives are evaluated at the pre-step parameter values:
    ``ac * [1 | gamma_u | theta_u]`` is taken from the old user row before
    it moves, and the item rows and segment blocks take their updates from
    it. A segment block on both items' paths (any block from the root down
    to their deepest common ancestor) enters the margin only as
    W_b (f_i - f_j), so it takes one product in the margin and one rank-1
    update with f_i - f_j in the step; a block on one path takes its item's
    product and update.
    """

    def __init__(self, model: PreferenceModel, config: TrainConfig):
        if model.config.kind == KIND_RAND:
            raise ValueError("the random baseline has nothing to train")
        self.model = model
        self.config = config
        p = model.params
        k = self.n_latent = model.config.n_latent
        kp = self.n_visual = model.config.n_visual
        self.use_vb = model.config.use_visual_bias
        self.use_cb = model.config.use_category_bias
        self.user_rows = np.concatenate([p.user_latent, p.user_visual], axis=1)
        self.item_rows = np.concatenate([p.item_bias[:, None], p.item_latent],
                                        axis=1)
        p.user_latent = self.user_rows[:, :k]
        p.user_visual = self.user_rows[:, k:]
        p.item_bias = self.item_rows[:, 0]
        p.item_latent = self.item_rows[:, 1:]
        self.visual_bias = p.visual_bias
        self.category_bias = p.category_bias
        self.segments = p.segments
        self.features = model.features
        self.leaves = model.item_leaf.tolist()   # Python ints index fastest
        self.lr = config.learning_rate
        r = config.reg
        shrink_bias = 1.0 - self.lr * r.bias
        shrink_latent = 1.0 - self.lr * r.latent
        shrink_uv = 1.0 - self.lr * r.user_visual
        self.shrink_user = np.array([shrink_latent] * k + [shrink_uv] * kp)
        self.shrink_item = np.array([shrink_bias] + [shrink_latent] * k)
        self.shrink_vb = 1.0 - self.lr * r.visual_bias
        self.shrink_cb = 1.0 - self.lr * r.category_bias
        self.seg_reg = r.segments
        # diff = [b_i - b_j | gamma_i - gamma_j | theta_i - theta_j] from
        # margin(), grad = ac * [1 | gamma_u | theta_u] from step(); the
        # views are their item-row, user-row and per-group parts.
        diff = np.empty(1 + k + kp)
        grad = np.empty(1 + k + kp)
        self._item_diff, self._user_diff = diff[:1 + k], diff[1:]
        self._gd, self._td = diff[1:1 + k], diff[1 + k:]
        # A 0-d view of grad[0], which holds ac: numpy scales an array by
        # it faster than by a Python float.
        self._ac = grad[0, ...]
        self._item_grad, self._user_grad = grad[:1 + k], grad[1:]
        self._su = grad[1 + k:]
        feat_dim = self.features.shape[1]
        self._fd = np.empty(feat_dim)
        # Per leaf, one link per layer, root first: the layer's block and
        # its rows of diff's theta part, of theta_j, of ac * theta_u (as a
        # column) and of the outer-product scratch. A layer's rows are fixed
        # for the run, so every view is built here, once.
        self._chains = ()
        if self.segments is not None:
            blocks = self.segments.blocks
            tj = np.empty(kp)
            scratch = np.empty((max(b.shape[0] for b in blocks), feat_dim))
            views = {}
            for _, start, stop in self.segments.assignment.blocks:
                views[start] = (self._td[start:stop], tj[start:stop],
                                self._su[start:stop, None],
                                scratch[:stop - start])
            self._chains = tuple(
                None if chain is None else
                tuple((blocks[b], *views[start]) for b, start, _ in chain)
                for chain in self.segments.assignment.chains)
        self._paths = ((), ())         # (path_i, path_j), set by margin()

    def margin(self, u: int, i: int, j: int) -> float:
        """x_ui - x_uj using the scratch buffers (leaves them populated)."""
        k = self.n_latent
        diff = self._item_diff
        np.subtract(self.item_rows[i], self.item_rows[j], out=diff)
        m = diff[0]
        user = self.user_rows[u]
        if k:
            m += user[:k].dot(self._gd)
        if self.n_visual or self.use_vb:
            np.subtract(self.features[i], self.features[j], out=self._fd)
        if self.n_visual:
            # Both paths list the same row ranges in the same layer order.
            path_i = self._chains[self.leaves[i]]
            path_j = self._chains[self.leaves[j]]
            self._paths = (path_i, path_j)
            fi, fj, fd = self.features[i], self.features[j], self._fd
            for (bi, td, tj, _, _), (bj, _, _, _, _) in zip(path_i, path_j):
                if bi is bj:
                    bi.dot(fd, out=td)
                else:
                    bi.dot(fi, out=td)
                    bj.dot(fj, out=tj)
                    td -= tj
            m += user[k:].dot(self._td)
        if self.use_vb:
            m += self.visual_bias.dot(self._fd)
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

        # grad = ac * [1 | gamma_u | theta_u] at the old user row; ac * 1.0
        # is ac, and a per-column shrink multiplies each value by the same
        # double as a per-group one, so every bit matches a step on
        # separate arrays.
        ac_arr = self._ac
        ac_arr[()] = ac
        user = self.user_rows[u]
        np.multiply(user, ac_arr, out=self._user_grad)
        user *= self.shrink_user
        d = self._user_diff
        d *= ac_arr
        user += d
        item_grad = self._item_grad
        row = self.item_rows[i]
        row *= self.shrink_item
        row += item_grad
        row = self.item_rows[j]
        row *= self.shrink_item
        row -= item_grad

        if self.n_visual:
            # One rank-1 pass per layer at the old theta_u: shrink the
            # layer's blocks once, then give a block on both paths
            # su (x) (f_i - f_j), and otherwise add su (x) f_i to i's block
            # and subtract su (x) f_j from j's. su is the layer's rows of
            # ac * theta_u (old), as a column.
            seg_shrink = 1.0 - lr * self.seg_reg
            fi, fj, fd = self.features[i], self.features[j], self._fd
            for (bi, _, _, su, work), (bj, _, _, _, _) in zip(*self._paths):
                if self.seg_reg:
                    bi *= seg_shrink
                if bi is bj:
                    np.multiply(su, fd, out=work)
                    bi += work
                    continue
                if self.seg_reg:
                    bj *= seg_shrink
                np.multiply(su, fi, out=work)
                bi += work
                np.multiply(su, fj, out=work)
                bj -= work

        if self.use_vb:
            vb = self.visual_bias
            if self.shrink_vb != 1.0:
                vb *= self.shrink_vb
            self._fd *= ac_arr           # _fd = f_i - f_j from margin()
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
    best-on-validation parameter snapshot is kept (with its frozen table
    when the last epoch is the best), and (if ``patience`` is set) training
    stops after that many epochs without improvement.
    """
    if corpus.n_interactions == 0:
        raise EmptyCorpus("no training interactions")
    rng = np.random.default_rng(config.rng_seed)
    trainer = Trainer(model, config)
    steps_per_epoch = corpus.n_interactions

    history: list[EpochStats] = []
    best_params = None
    best_table = None
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
            # Only the last epoch's validation keeps its table: an earlier
            # one held through the later validations raised catalog's peak
            # RSS by about 1.5 MB.
            last = epoch == config.iterations
            scorer = _Freezer(model) if last else model
            val_auc = evaluation.validation_auc(scorer, corpus, split)
            if val_auc > best_auc:
                best_auc = val_auc
                best_epoch = epoch
                best_params = model.params.copy()
                if last:
                    best_table = scorer.keep(best_params)
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
        best_table=best_table,
    )

