"""The benchmark's workloads: corpus shape, model manifest, target and queries.

Every workload is a pure function of the run seed. The seed yields the
synthetic-corpus seed and the manifest's split/init/sample seeds; the
program only ever sees the files generated from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Shared by every workload.
LEARNING_RATE = 0.05
COLD_THRESHOLD = 5
TOP = 20               # list length of every rank-dim query
MIN_WARM_AUC = 0.6     # trained warm test AUC must clear this


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict            # SynthConfig fields except rng_seed
    model: dict            # the manifest's "model" section
    epochs: int
    feature_norm: str
    target_auc: float      # validation AUC the training run must reach

    @property
    def n_visual(self) -> int:
        return int(self.model["n_visual"])

    def leaf_names(self) -> list[str]:
        """Node ids of the synthetic tree's leaves (synthdata's naming)."""
        depth = len(self.synth["branching"]) + 1
        count = int(np.prod(self.synth["branching"]))
        return [f"c{depth}_{k:03d}" for k in range(count)]

    def category_sample(self) -> list[str]:
        """The first, middle and last leaf: the per-category queries' scope."""
        leaves = self.leaf_names()
        return [leaves[0], leaves[len(leaves) // 2], leaves[-1]]

    def queries(self) -> list[tuple[int, str | None]]:
        """Every visual dimension, over the catalog and per sampled leaf."""
        return [(d, cat) for cat in [None, *self.category_sample()]
                for d in range(self.n_visual)]


def derive_seeds(seed: int) -> dict:
    """Synthetic-corpus seed plus the manifest's three named seeds."""
    synth, split, init, sample = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(4))
    return {"synth": synth, "split": split, "init": init, "sample": sample}


WORKLOADS = {
    w.name: w for w in (
        # Wide features: every step is K'xF outer-product work.
        Workload(
            name="wide",
            synth=dict(n_users=5000, n_items=5000, feature_dim=4096,
                       branching=(6, 4), n_positives=8,
                       planted_scheme=(4, 3, 3)),
            model={"kind": "HVBPR", "n_latent": 10, "n_visual": 10,
                   "scheme": [4, 3, 3]},
            epochs=2, feature_norm="l2",
            target_auc=0.80),
        # Large catalog, few positives: whole-catalog scoring dominates.
        Workload(
            name="catalog",
            synth=dict(n_users=5000, n_items=10000, feature_dim=64,
                       branching=(10, 10), n_positives=4,
                       planted_scheme=(5, 5)),
            model={"kind": "VBPR-C", "n_latent": 10, "n_visual": 10,
                   "scheme": [10], "use_visual_bias": True,
                   "use_category_bias": True},
            epochs=3, feature_norm="none",
            target_auc=0.65),
    )
}
