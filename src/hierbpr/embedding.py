"""Segmented linear projection from raw feature space to visual dimensions.

Every node on an allocated layer owns an independent segment block (a
``width x F`` matrix). An item's projection stacks the blocks along its
root-to-leaf path, so row ranges high in the tree are shared by entire
subtrees while deeper rows are category-specific. The stacked matrix is
never materialized in the training hot path; per-layer matrix-vector
products give the same result.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import LayerAssignment


class SegmentStore:
    """Per-node segment blocks backing the hierarchical projection.

    All blocks live in one contiguous ``(total_rows, F)`` float64 array;
    ``blocks[b]`` is a writable view. Block order follows the assignment's
    dense block ids.
    """

    def __init__(self, assignment: LayerAssignment, feature_dim: int,
                 backing: np.ndarray | None = None):
        self.assignment = assignment
        self.feature_dim = int(feature_dim)
        widths = [stop - start for _, start, stop in assignment.blocks]
        total = sum(widths)
        if backing is None:
            backing = np.zeros((total, feature_dim), dtype=np.float64)
        else:
            backing = np.ascontiguousarray(backing, dtype=np.float64)
            if backing.shape != (total, feature_dim):
                raise ValueError(
                    f"backing shape {backing.shape} != {(total, feature_dim)}")
        self.backing = backing
        self.blocks: list[np.ndarray] = []
        offset = 0
        for w in widths:
            self.blocks.append(self.backing[offset:offset + w])
            offset += w

    @classmethod
    def create(cls, assignment: LayerAssignment, feature_dim: int,
               rng: np.random.Generator) -> "SegmentStore":
        """Seeded uniform init in [-1/sqrt(F), 1/sqrt(F)]."""
        store = cls(assignment, feature_dim)
        scale = 1.0 / np.sqrt(feature_dim)
        store.backing[:] = rng.uniform(-scale, scale, size=store.backing.shape)
        return store

    @property
    def n_visual(self) -> int:
        return self.assignment.n_visual

    def copy(self) -> "SegmentStore":
        return SegmentStore(self.assignment, self.feature_dim, self.backing.copy())

    def stacked_matrix(self, leaf: int) -> np.ndarray:
        """Materialized K' x F projection matrix for one leaf node."""
        out = np.empty((self.n_visual, self.feature_dim))
        for block, start, stop in self.assignment.blocks_for_leaf(leaf):
            out[start:stop] = self.blocks[block]
        return out

    def project_all(self, features: np.ndarray, leaves: np.ndarray) -> np.ndarray:
        """Projections for every item at once (frozen-model precompute)."""
        n = features.shape[0]
        out = np.zeros((n, self.n_visual))
        for leaf in np.unique(leaves):
            sel = np.flatnonzero(leaves == leaf)
            out[sel] = features[sel] @ self.stacked_matrix(int(leaf)).T
        return out

