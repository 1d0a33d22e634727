"""The preference predictor and the baseline configurations it subsumes.

A score is the inner product of concatenated user/item factors plus item
offsets:

    score(u, i) = <theta_u, theta_i> + <gamma_u, gamma_i>
                  + <visual_bias, f_i> + item_bias_i (+ category_bias[leaf_i])

where theta_i is the hierarchical projection of the item's raw features.
Baselines are configurations of the same parameter system: BPR-MF drops the
visual half, VBPR allocates all visual rows at the root, VBPR-C adds a
per-leaf bias, and HVBPR spreads rows over several layers. RAND bypasses
parameters entirely with a seeded hash ranking.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .embedding import SegmentStore
from .errors import (
    ArrayTooLarge,
    DimensionOutOfRange,
    UnknownItem,
    UnknownUser,
)
from .hierarchy import AllocationScheme, assign_layers

KIND_RAND = "RAND"
KIND_BPRMF = "BPR-MF"
KIND_VBPR = "VBPR"
KIND_VBPRC = "VBPR-C"
KIND_HVBPR = "HVBPR"

KINDS = (KIND_RAND, KIND_BPRMF, KIND_VBPR, KIND_VBPRC, KIND_HVBPR)

LATENT_INIT_SCALE = 0.05


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, allocation scheme, and flags for one predictor.

    A baseline is a configuration, and one rule fills whatever is left
    out: kind HVBPR, no latent rows, an empty scheme, a visual bias exactly
    when there are visual rows, and a category bias exactly for VBPR-C.
    Explicit values win; the kind must still match the rest.
    """

    n_latent: int = 0
    scheme: AllocationScheme = AllocationScheme(())
    use_visual_bias: bool | None = None
    use_category_bias: bool | None = None
    rng_seed: int = 0
    kind: str = KIND_HVBPR

    def __post_init__(self):
        if self.use_visual_bias is None:
            object.__setattr__(self, "use_visual_bias", self.n_visual > 0)
        if self.use_category_bias is None:
            object.__setattr__(self, "use_category_bias",
                               self.kind == KIND_VBPRC)
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind != KIND_RAND and self.n_latent + self.n_visual < 1:
            raise ValueError("model needs at least one rating dimension")
        # A kind names a configuration, so the configuration must match it.
        if self.kind == KIND_RAND and self.n_latent + self.n_visual > 0:
            raise ValueError("RAND has no rating dimensions")
        if self.kind == KIND_BPRMF and self.n_visual > 0:
            raise ValueError("BPR-MF has no visual dimensions")
        if self.kind in (KIND_VBPR, KIND_VBPRC) and self.scheme.depth_used > 1:
            raise ValueError(f"{self.kind} allocates every visual row at the "
                             f"root, got scheme {self.scheme}")
        if self.kind == KIND_VBPRC and not self.use_category_bias:
            raise ValueError("VBPR-C needs use_category_bias")

    @property
    def n_visual(self) -> int:
        return self.scheme.total

    def creates(self, param: str) -> bool:
        """Whether a model under this config has the ``ModelParams`` array
        ``param``: ``segments`` exactly when there are visual rows,
        ``category_bias`` exactly with its flag, every other one always."""
        return {"segments": self.n_visual > 0,
                "category_bias": self.use_category_bias}.get(param, True)

    def to_dict(self) -> dict:
        return {**asdict(self), "n_visual": self.n_visual,
                "scheme": list(self.scheme.per_layer)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config a model section or ``to_dict`` output describes.

        A key left out takes the field's default; an unknown key is an
        error. ``n_visual`` is not a field; when given, it must equal the
        scheme's total.
        """
        unknown = set(d) - set(_FIELD_PARSERS) - {"n_visual"}
        if unknown:
            raise ValueError(f"unknown model config keys {sorted(unknown)}")
        config = cls(**{key: parse(d[key]) for key, parse in
                        _FIELD_PARSERS.items() if key in d})
        if "n_visual" in d and int(d["n_visual"]) != config.n_visual:
            raise ValueError(f"scheme {config.scheme} allocates "
                             f"{config.n_visual} rows but n_visual is "
                             f"{d['n_visual']}")
        return config


# How ``ModelConfig.from_dict`` reads each field's JSON value.
_FIELD_PARSERS = {"n_latent": int, "scheme": AllocationScheme,
                  "use_visual_bias": bool, "use_category_bias": bool,
                  "rng_seed": int, "kind": str}


@dataclass
class ModelParams:
    """All learnable arrays. Shapes follow the owning ModelConfig."""

    item_bias: np.ndarray
    item_latent: np.ndarray
    user_latent: np.ndarray
    user_visual: np.ndarray
    visual_bias: np.ndarray
    segments: SegmentStore | None
    category_bias: np.ndarray | None

    def copy(self) -> "ModelParams":
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return ModelParams(**{name: value if value is None else value.copy()
                              for name, value in values.items()})

    def arrays(self) -> dict[str, np.ndarray]:
        """Each array the model has, by field name; ``segments`` gives its
        backing."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.segments is not None:
            out["segments"] = self.segments.backing
        return {name: arr for name, arr in out.items() if arr is not None}

    def check_finite(self) -> None:
        for name, arr in self.arrays().items():
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in {name}")


def init_params(config: ModelConfig, corpus) -> ModelParams:
    """Seeded initialization of the arrays ``config`` creates for ``corpus``.

    Draw order is fixed (user latent, item latent, user visual, segments) so
    identical configs always produce identical parameters. Latent factors are
    uniform in +-0.05, segments uniform in +-1/sqrt(F); biases start at zero.
    """
    k, kp = config.n_latent, config.n_visual
    n_users, n_items = corpus.n_users, corpus.n_items
    shapes = {"user_latent": (n_users, k), "item_latent": (n_items, k),
              "user_visual": (n_users, kp)}
    if config.creates("segments"):
        assignment = assign_layers(corpus.hierarchy, config.scheme)
        shapes["segments"] = (assignment.parameter_count(1),
                              corpus.feature_dim)
    # Sizes in Python ints, before numpy sees them: an array numpy cannot
    # address would end in its own ValueError.
    limit = np.iinfo(np.intp).max
    for name, shape in shapes.items():
        if max(shape) > limit or 8 * math.prod(shape) > limit:
            raise ArrayTooLarge(f"parameter array {name!r} of shape {shape} "
                                "is too large to allocate")
    rng = np.random.default_rng(config.rng_seed)
    user_latent = rng.uniform(-LATENT_INIT_SCALE, LATENT_INIT_SCALE, (n_users, k))
    item_latent = rng.uniform(-LATENT_INIT_SCALE, LATENT_INIT_SCALE, (n_items, k))
    user_visual = rng.uniform(-LATENT_INIT_SCALE, LATENT_INIT_SCALE, (n_users, kp))
    segments = None
    if config.creates("segments"):
        segments = SegmentStore.create(assignment, corpus.feature_dim, rng)
    return ModelParams(
        item_bias=np.zeros(n_items),
        item_latent=item_latent,
        user_latent=user_latent,
        user_visual=user_visual,
        visual_bias=np.zeros(corpus.feature_dim),
        segments=segments,
        category_bias=(np.zeros(corpus.hierarchy.n_nodes)
                       if config.creates("category_bias") else None),
    )


# ------------------------------------------------------------- RAND scoring

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix(x: np.ndarray) -> np.ndarray:
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def rand_scores(seed: int, user: int, n_items: int) -> np.ndarray:
    """Deterministic pseudo-random scores in [0, 1) for one user's row."""
    base = np.uint64((seed & 0xFFFFFFFF) ^ (user << 32))
    with np.errstate(over="ignore"):
        mixed = _splitmix(np.arange(n_items, dtype=np.uint64) ^ _splitmix(
            np.array([base], dtype=np.uint64))[0])
    return mixed.astype(np.float64) / float(2**64)


# ----------------------------------------------------------------- the model

class ItemTable:
    """A frozen model: per-item quantities bound to the two user matrices.

    ``base`` folds every user-independent additive term (item bias, visual
    bias score, category bias) into one vector, so a score is
    ``base[i] + <user_visual[u], theta[i]> + <user_latent[u], latent[i]>``,
    which is the product of ``[theta_u | gamma_u | 1]`` with one column of
    the C-order item matrix ``[theta | latent | base]^T``. The first
    ``score_all`` builds that matrix and rebinds ``theta``, ``latent`` and
    ``base`` to views of it, so their values stay and no second copy lives.
    The live model and the checkpoint both score and rank through one.
    """

    def __init__(self, theta: np.ndarray, latent: np.ndarray, base: np.ndarray,
                 item_leaf: np.ndarray, user_visual: np.ndarray,
                 user_latent: np.ndarray, rand_seed: int | None = None):
        self.theta = theta
        self.latent = latent
        self.base = base
        self.item_leaf = item_leaf
        self.user_visual = user_visual
        self.user_latent = user_latent
        self.rand_seed = rand_seed
        self._items: np.ndarray | None = None
        self._users = np.empty((0, theta.shape[1] + latent.shape[1] + 1))
        self._block = np.empty((0, len(base)))

    @property
    def n_items(self) -> int:
        return len(self.base)

    def item_table(self) -> "ItemTable":
        """The table itself, so evaluation can ask any scorer for its table."""
        return self

    def _item_matrix(self) -> np.ndarray:
        """The ``(K' + K + 1, n_items)`` matrix ``[theta | latent | base]^T``,
        built once; filled row by row, as a concatenation of the transposed
        views would come out F-order."""
        if self._items is None:
            kp, k = self.theta.shape[1], self.latent.shape[1]
            items = np.empty((kp + k + 1, self.n_items))
            items[:kp] = self.theta.T
            items[kp:kp + k] = self.latent.T
            items[-1] = self.base
            self._items = items
            self.theta = items[:kp].T
            self.latent = items[kp:kp + k].T
            self.base = items[-1]
        return self._items

    def score_all(self, users) -> np.ndarray:
        """Every item's score for an int user or an index array of users.

        An int gives an ``(n_items,)`` row; an array is a block of users and
        gives ``(len(users), n_items)``. The block is one matrix product of
        the gathered ``[theta_u | gamma_u | 1]`` rows with the item matrix.
        The result lives in a buffer the table reuses: it holds until the
        next ``score_all`` on this table, so copy it to keep it.
        """
        block = np.atleast_1d(users)
        b = len(block)
        if len(self._block) < b:
            self._block = np.empty((b, self.n_items))
            # Gathers fill all but the last column, which stays 1.
            self._users = np.ones((b, self._users.shape[1]))
        out = self._block[:b]
        if self.rand_seed is not None:
            for r, u in enumerate(block):
                out[r] = rand_scores(self.rand_seed, int(u), self.n_items)
        else:
            items = self._item_matrix()
            kp = self.theta.shape[1]
            rows = self._users[:b]
            np.take(self.user_visual, block, axis=0, out=rows[:, :kp])
            np.take(self.user_latent, block, axis=0, out=rows[:, kp:-1])
            np.matmul(rows, items, out=out)
        return out if np.ndim(users) else out[0]

    def rank_by_dimension(self, d: int, top_n: int,
                          category: int | None = None
                          ) -> list[tuple[int, float]]:
        """The ``top_n`` items with the highest ``theta[:, d]``.

        Ties go to the lower dense index, which is the lower item id: the
        catalog is densified in sorted id order. ``category`` keeps only the
        items of that leaf node; a node that holds none is ``UnknownItem``.
        """
        if not 0 <= d < self.theta.shape[1]:
            raise DimensionOutOfRange(
                f"dimension {d} outside [0, {self.theta.shape[1]})")
        items = (np.arange(self.n_items) if category is None
                 else np.flatnonzero(self.item_leaf == category))
        if category is not None and not items.size:
            raise UnknownItem(
                f"category node index {category} holds no items")
        col = self.theta[items, d]
        # Only items at or above the top_n-th score can rank. Every item
        # tied with it stays a candidate (so does a NaN, which sorts last
        # either way), so the stable sort of the candidates orders them as
        # one of the whole column would.
        candidates = np.arange(len(col))
        if 0 < top_n < len(col):
            kth = np.partition(-col, top_n - 1)[top_n - 1]
            candidates = np.flatnonzero(~(-col > kth))
        order = candidates[np.argsort(-col[candidates], kind="stable")]
        return [(int(items[k]), float(col[k])) for k in order[:top_n]]


def frozen_table(config: ModelConfig, params: ModelParams, theta: np.ndarray,
                 base: np.ndarray, item_leaf: np.ndarray) -> ItemTable:
    """The ``ItemTable`` of ``params`` with the item projections ``theta``
    and the folded offsets ``base``; a RAND model ranks by its seed instead.
    The live model and a restored checkpoint both freeze through here."""
    return ItemTable(theta, params.item_latent, base, item_leaf,
                     params.user_visual, params.user_latent,
                     config.rng_seed if config.kind == KIND_RAND else None)


class PreferenceModel:
    """Parameters plus the corpus's features and item leaves; it scores
    through the ``ItemTable`` that ``item_table`` freezes."""

    def __init__(self, config: ModelConfig, corpus, params: ModelParams):
        self.config = config
        self.corpus = corpus
        self.params = params
        self.features: np.ndarray = corpus.features
        self.item_leaf: np.ndarray = corpus.item_leaf

    @classmethod
    def create(cls, config: ModelConfig, corpus) -> "PreferenceModel":
        """Initialize parameters for ``corpus`` under ``config``."""
        return cls(config, corpus, init_params(config, corpus))

    @property
    def n_users(self) -> int:
        return self.params.user_latent.shape[0]

    @property
    def n_items(self) -> int:
        return self.params.item_bias.shape[0]

    def item_table(self) -> ItemTable:
        """Freeze the parameters into an ``ItemTable`` for whole-catalog
        scoring and ranking."""
        p = self.params
        if p.segments is not None:
            theta = p.segments.project_all(self.features, self.item_leaf)
        else:
            theta = np.zeros((self.n_items, 0))
        base = p.item_bias.copy()
        if self.config.use_visual_bias:
            base += self.features @ p.visual_bias
        if self.config.use_category_bias:
            base += p.category_bias[self.item_leaf]
        return frozen_table(self.config, p, theta, base, self.item_leaf)

    def score_all(self, users, table: ItemTable | None = None) -> np.ndarray:
        """``ItemTable.score_all`` with the users range-checked.

        Pass ``table`` to reuse one ``item_table`` across calls. Library code
        scores through the table; this stays because ``bench/tracer.py``
        patches it.
        """
        block = np.atleast_1d(users)
        if block.size and not (0 <= block.min() and block.max() < self.n_users):
            raise UnknownUser(f"user index out of range [0, {self.n_users})")
        return (table or self.item_table()).score_all(users)
