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

from dataclasses import dataclass

import numpy as np

from .embedding import SegmentStore
from .errors import (
    DimensionOutOfRange,
    InvalidSchemeForBaseline,
    UnknownItem,
    UnknownUser,
)
from .hierarchy import AllocationScheme, LayerAssignment, assign_layers

KIND_RAND = "RAND"
KIND_BPRMF = "BPR-MF"
KIND_VBPR = "VBPR"
KIND_VBPRC = "VBPR-C"
KIND_HVBPR = "HVBPR"

KINDS = (KIND_RAND, KIND_BPRMF, KIND_VBPR, KIND_VBPRC, KIND_HVBPR)

LATENT_INIT_SCALE = 0.05


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, allocation scheme, and flags for one predictor."""

    n_latent: int
    n_visual: int
    scheme: AllocationScheme
    use_visual_bias: bool = True
    use_category_bias: bool = False
    rng_seed: int = 0
    kind: str = KIND_HVBPR

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.scheme.total != self.n_visual:
            raise ValueError(
                f"scheme {self.scheme} allocates {self.scheme.total} rows "
                f"but n_visual is {self.n_visual}")
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_latent": self.n_latent,
            "n_visual": self.n_visual,
            "scheme": list(self.scheme.per_layer),
            "use_visual_bias": self.use_visual_bias,
            "use_category_bias": self.use_category_bias,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            n_latent=int(d["n_latent"]),
            n_visual=int(d["n_visual"]),
            scheme=AllocationScheme(tuple(d["scheme"])),
            use_visual_bias=bool(d["use_visual_bias"]),
            use_category_bias=bool(d["use_category_bias"]),
            rng_seed=int(d["rng_seed"]),
            kind=str(d["kind"]),
        )


def make_baseline(
    kind: str,
    *,
    total_dims: int = 20,
    visual_dims: int = 10,
    scheme: AllocationScheme | None = None,
    rng_seed: int = 0,
) -> ModelConfig:
    """Express a named baseline as a configuration.

    ``total_dims`` is the overall rating-dimension budget; visually-aware
    kinds split it into ``total_dims - visual_dims`` latent plus
    ``visual_dims`` visual rows. VBPR and VBPR-C force an all-root scheme;
    HVBPR requires an explicit (usually multi-layer) scheme whose total
    matches ``visual_dims``.
    """
    empty = AllocationScheme(())
    if kind == KIND_RAND:
        return ModelConfig(0, 0, empty, use_visual_bias=False,
                           rng_seed=rng_seed, kind=kind)
    if kind == KIND_BPRMF:
        return ModelConfig(total_dims, 0, empty, use_visual_bias=False,
                           rng_seed=rng_seed, kind=kind)
    if kind in (KIND_VBPR, KIND_VBPRC):
        if scheme is not None and scheme.depth_used > 1:
            raise InvalidSchemeForBaseline(
                f"{kind} uses a single root segment, got scheme {scheme}")
        root_scheme = AllocationScheme((visual_dims,))
        return ModelConfig(
            total_dims - visual_dims, visual_dims, root_scheme,
            use_visual_bias=True, use_category_bias=(kind == KIND_VBPRC),
            rng_seed=rng_seed, kind=kind)
    if kind == KIND_HVBPR:
        if scheme is None:
            raise InvalidSchemeForBaseline("HVBPR needs an allocation scheme")
        if scheme.total != visual_dims:
            raise InvalidSchemeForBaseline(
                f"scheme {scheme} allocates {scheme.total} rows, "
                f"expected {visual_dims}")
        return ModelConfig(total_dims - visual_dims, visual_dims, scheme,
                           use_visual_bias=True, rng_seed=rng_seed, kind=kind)
    raise ValueError(f"unknown baseline kind {kind!r}")


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
        return ModelParams(
            item_bias=self.item_bias.copy(),
            item_latent=self.item_latent.copy(),
            user_latent=self.user_latent.copy(),
            user_visual=self.user_visual.copy(),
            visual_bias=self.visual_bias.copy(),
            segments=self.segments.copy() if self.segments is not None else None,
            category_bias=(self.category_bias.copy()
                           if self.category_bias is not None else None),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        out = {
            "item_bias": self.item_bias,
            "item_latent": self.item_latent,
            "user_latent": self.user_latent,
            "user_visual": self.user_visual,
            "visual_bias": self.visual_bias,
        }
        if self.segments is not None:
            out["segments"] = self.segments.backing
        if self.category_bias is not None:
            out["category_bias"] = self.category_bias
        return out

    def check_finite(self) -> None:
        for name, arr in self.arrays().items():
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in {name}")


def init_params(
    config: ModelConfig,
    n_users: int,
    n_items: int,
    n_nodes: int,
    feature_dim: int,
    assignment: LayerAssignment | None,
) -> ModelParams:
    """Seeded initialization.

    Draw order is fixed (user latent, item latent, user visual, segments) so
    identical configs always produce identical parameters. Latent factors are
    uniform in +-0.05, segments uniform in +-1/sqrt(F); biases start at zero.
    """
    rng = np.random.default_rng(config.rng_seed)
    k, kp = config.n_latent, config.n_visual
    user_latent = rng.uniform(-LATENT_INIT_SCALE, LATENT_INIT_SCALE, (n_users, k))
    item_latent = rng.uniform(-LATENT_INIT_SCALE, LATENT_INIT_SCALE, (n_items, k))
    user_visual = rng.uniform(-LATENT_INIT_SCALE, LATENT_INIT_SCALE, (n_users, kp))
    segments = None
    if kp > 0:
        if assignment is None:
            raise ValueError("visual dimensions need a layer assignment")
        segments = SegmentStore.create(assignment, feature_dim, rng)
    return ModelParams(
        item_bias=np.zeros(n_items),
        item_latent=item_latent,
        user_latent=user_latent,
        user_visual=user_visual,
        visual_bias=np.zeros(feature_dim),
        segments=segments,
        category_bias=np.zeros(n_nodes) if config.use_category_bias else None,
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
    ``base[i] + <user_visual[u], theta[i]> + <user_latent[u], latent[i]>``.
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
        self._block = self._work = np.empty((0, len(base)))

    @property
    def n_items(self) -> int:
        return len(self.base)

    def item_table(self) -> "ItemTable":
        """The table itself, so evaluation can ask any scorer for its table."""
        return self

    def score_all(self, users) -> np.ndarray:
        """Every item's score for an int user or an index array of users.

        An int gives an ``(n_items,)`` row; an array is a block of users and
        gives ``(len(users), n_items)``. Each term is one matrix product for
        the block. The result lives in a buffer the table reuses: it holds
        until the next ``score_all`` on this table, so copy it to keep it.
        """
        block = np.atleast_1d(users)
        b = len(block)
        if len(self._block) < b:
            self._block = np.empty((b, self.n_items))
            self._work = np.empty((b, self.n_items))
        out = self._block[:b]
        if self.rand_seed is not None:
            for r, u in enumerate(block):
                out[r] = rand_scores(self.rand_seed, int(u), self.n_items)
        else:
            if self.theta.shape[1]:
                np.matmul(self.user_visual[block], self.theta.T, out=out)
                out += self.base
            else:
                out[:] = self.base
            if self.latent.shape[1]:
                out += np.matmul(self.user_latent[block], self.latent.T,
                                 out=self._work[:b])
        return out if np.ndim(users) else out[0]

    def rank_by_dimension(self, d: int, top_n: int,
                          category: int | None = None
                          ) -> list[tuple[int, float]]:
        """The ``top_n`` items with the highest ``theta[:, d]``.

        Ties go to the lower dense index, which is the lower item id: the
        catalog is densified in sorted id order. ``category`` keeps only the
        items of that leaf node.
        """
        if not 0 <= d < self.theta.shape[1]:
            raise DimensionOutOfRange(
                f"dimension {d} outside [0, {self.theta.shape[1]})")
        items = (np.arange(self.n_items) if category is None
                 else np.flatnonzero(self.item_leaf == category))
        col = self.theta[items, d]
        order = np.argsort(-col, kind="stable")[:top_n]
        return [(int(items[k]), float(col[k])) for k in order]


class PreferenceModel:
    """Parameters plus the corpus-side stores needed to score pairs."""

    def __init__(self, config: ModelConfig, corpus, params: ModelParams):
        self.config = config
        self.corpus = corpus
        self.params = params
        self.features: np.ndarray = corpus.features
        self.item_leaf: np.ndarray = corpus.item_leaf

    @classmethod
    def create(cls, config: ModelConfig, corpus) -> "PreferenceModel":
        """Initialize parameters for ``corpus`` under ``config``."""
        assignment = None
        if config.n_visual > 0:
            assignment = assign_layers(corpus.hierarchy, config.scheme)
        params = init_params(config, corpus.n_users, corpus.n_items,
                             corpus.hierarchy.n_nodes, corpus.feature_dim,
                             assignment)
        return cls(config, corpus, params)

    # -- bounds ------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return self.params.user_latent.shape[0]

    @property
    def n_items(self) -> int:
        return self.params.item_bias.shape[0]

    def _check_user(self, u: int) -> None:
        if not 0 <= u < self.n_users:
            raise UnknownUser(f"user index {u} out of range")

    def _check_item(self, i: int) -> None:
        if not 0 <= i < self.n_items:
            raise UnknownItem(f"item index {i} out of range")

    # -- scoring -----------------------------------------------------------

    def project(self, i: int) -> np.ndarray:
        """Visual projection theta_i of a registered item."""
        self._check_item(i)
        if self.params.segments is None:
            return np.zeros(0)
        return self.params.segments.project(self.features[i],
                                            int(self.item_leaf[i]))

    def score(self, u: int, i: int) -> float:
        """One pair scored term by term: the per-pair test oracle.

        Whole-catalog scoring goes through ``item_table``/``score_all`` and
        training margins through ``Trainer.margin``.
        """
        self._check_user(u)
        self._check_item(i)
        if self.config.kind == KIND_RAND:
            return float(rand_scores(self.config.rng_seed, u, self.n_items)[i])
        p = self.params
        total = float(p.item_bias[i])
        if self.config.n_latent:
            total += float(np.dot(p.user_latent[u], p.item_latent[i]))
        if self.config.n_visual:
            total += float(np.dot(p.user_visual[u], self.project(i)))
        if self.config.use_visual_bias:
            total += float(np.dot(p.visual_bias, self.features[i]))
        if self.config.use_category_bias:
            total += float(p.category_bias[self.item_leaf[i]])
        return total

    # -- frozen-model helpers ------------------------------------------------

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
        rand_seed = self.config.rng_seed if self.config.kind == KIND_RAND else None
        return ItemTable(theta, p.item_latent, base, self.item_leaf,
                         p.user_visual, p.user_latent, rand_seed)

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
