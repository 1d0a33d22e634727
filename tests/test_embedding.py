import numpy as np
import pytest

from hierbpr.embedding import SegmentStore
from hierbpr.errors import DimensionOutOfRange
from hierbpr.hierarchy import AllocationScheme, assign_layers, build_hierarchy
from hierbpr.model import ItemTable

import reference
from conftest import TREE3_EDGES


def two_layer(n_leaves=3):
    edges = [(f"leaf{k}", "root") for k in range(n_leaves)]
    return build_hierarchy(edges, [f"leaf{k}" for k in range(n_leaves)])


def single_layer():
    return build_hierarchy([], ["root"])


def project(store, f, leaf):
    """One feature vector's projection on the library's path."""
    return store.project_all(np.asarray(f)[None, :], np.array([leaf]))[0]


class TestProject:
    def test_zero_feature_gives_zero(self, rng):
        h = two_layer()
        a = assign_layers(h, AllocationScheme((2, 2)))
        store = SegmentStore.create(a, 5, rng)
        theta = project(store, np.zeros(5), h.node_of("leaf0"))
        assert np.all(theta == 0.0)

    def test_hand_computed_product(self):
        h = single_layer()
        a = assign_layers(h, AllocationScheme((2,)))
        store = SegmentStore(a, 2)
        store.blocks[0][:] = [[1.0, 0.0], [0.0, 2.0]]
        theta = project(store, np.array([3.0, 5.0]), h.node_of("root"))
        assert np.allclose(theta, [3.0, 10.0])

    def test_shared_root_row_distinct_leaf_rows(self, rng):
        h = two_layer(2)
        a = assign_layers(h, AllocationScheme((1, 1)))
        store = SegmentStore.create(a, 4, rng)
        f = rng.normal(size=4)
        t0 = project(store, f, h.node_of("leaf0"))
        t1 = project(store, f, h.node_of("leaf1"))
        assert t0[0] == t1[0]
        assert t0[1] != t1[1]

    def test_registered_item_projection(self, rng):
        h = two_layer()
        a = assign_layers(h, AllocationScheme((2, 1)))
        store = SegmentStore.create(a, 3, rng)
        features = rng.normal(size=(3, 3))
        leaves = np.array([h.node_of(f"leaf{k}") for k in range(3)])
        theta = reference.project(store.backing, (2, 1), h.parent,
                                  int(leaves[1]), features[1])
        assert len(theta) == 3
        assert store.project_all(features, leaves)[1, 2] == (
            pytest.approx(theta[2], abs=1e-15))


class TestDimensionScore:
    """A visual dimension's item scores are one column of ``project_all``."""

    def test_constructed_inner_product(self):
        h = single_layer()
        a = assign_layers(h, AllocationScheme((1,)))
        store = SegmentStore(a, 3)
        f = np.array([1.0, 2.0, 2.0])
        store.blocks[0][0] = f / np.dot(f, f)
        theta = store.project_all(f[None, :], np.array([h.node_of("root")]))
        assert theta[0, 0] == pytest.approx(1.0)

    def test_matches_projection_componentwise(self, rng):
        h = two_layer()
        a = assign_layers(h, AllocationScheme((2, 3)))
        store = SegmentStore.create(a, 6, rng)
        features = rng.normal(size=(4, 6))
        leaves = np.array([h.node_of(f"leaf{k % 3}") for k in range(4)])
        theta = store.project_all(features, leaves)
        for k in range(4):
            row = reference.project(store.backing, (2, 3), h.parent,
                                    int(leaves[k]), features[k])
            for d in range(5):
                assert theta[k, d] == pytest.approx(row[d], abs=1e-15)

    def test_naive_dot_oracle(self, rng):
        h = two_layer()
        a = assign_layers(h, AllocationScheme((3, 2)))
        store = SegmentStore.create(a, 8, rng)
        f = rng.normal(size=8)
        leaf = h.node_of("leaf2")
        stacked = store.backing[reference.visual_rows((3, 2), h.parent, leaf)]
        theta = store.project_all(f[None, :], np.array([leaf]))
        for d in range(5):
            naive = sum(stacked[d][k] * f[k] for k in range(8))
            assert abs(theta[0, d] - naive) < 1e-12

    def test_out_of_range(self, rng):
        h = single_layer()
        a = assign_layers(h, AllocationScheme((2,)))
        store = SegmentStore.create(a, 3, rng)
        leaves = np.array([h.node_of("root")])
        theta = store.project_all(np.zeros((1, 3)), leaves)
        table = ItemTable(theta, np.zeros((1, 0)), np.zeros(1), leaves,
                          np.zeros((1, 2)), np.zeros((1, 0)))
        with pytest.raises(DimensionOutOfRange):
            table.rank_by_dimension(2, top_n=1)
        with pytest.raises(DimensionOutOfRange):
            table.rank_by_dimension(-1, top_n=1)


class TestInvariants:
    def test_linearity(self, rng):
        h = two_layer()
        a = assign_layers(h, AllocationScheme((2, 1)))
        store = SegmentStore.create(a, 4, rng)
        leaf = h.node_of("leaf2")
        f = rng.normal(size=4)
        g = rng.normal(size=4)
        alpha, beta = 0.7, -2.2
        combined = project(store, alpha * f + beta * g, leaf)
        split = alpha * project(store, f, leaf) + beta * project(store, g, leaf)
        assert np.allclose(combined, split, atol=1e-12)

    def test_stacking_equivalence(self, rng):
        h = build_hierarchy(TREE3_EDGES, ["skirts", "boots"])
        a = assign_layers(h, AllocationScheme((4, 2, 1)))
        store = SegmentStore.create(a, 6, rng)
        for leaf_name in ("skirts", "boots"):
            leaf = h.node_of(leaf_name)
            f = rng.normal(size=6)
            rows = reference.visual_rows((4, 2, 1), h.parent, leaf)
            assert np.array_equal(store.stacked_matrix(leaf),
                                  store.backing[rows])
            segmented = reference.project(store.backing, (4, 2, 1), h.parent,
                                          leaf, f)
            stacked = store.stacked_matrix(leaf) @ f
            assert np.max(np.abs(segmented - stacked)) < 1e-12

    def test_project_all_matches_per_item(self, rng):
        h = two_layer(3)
        a = assign_layers(h, AllocationScheme((2, 2)))
        store = SegmentStore.create(a, 5, rng)
        features = rng.normal(size=(7, 5))
        leaves = np.array([h.node_of(f"leaf{k % 3}") for k in range(7)])
        table = store.project_all(features, leaves)
        for i in range(7):
            assert np.allclose(table[i],
                               reference.project(store.backing, (2, 2),
                                                 h.parent, int(leaves[i]),
                                                 features[i]),
                               atol=1e-12)

    def test_backing_layout_and_views(self, rng):
        h = two_layer(2)
        a = assign_layers(h, AllocationScheme((2, 3)))
        store = SegmentStore.create(a, 4, rng)
        assert store.backing.shape == (2 + 3 + 3, 4)
        store.blocks[1][0, 0] = 123.0
        assert store.backing[2, 0] == 123.0
