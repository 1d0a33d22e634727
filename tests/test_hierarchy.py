import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierbpr.errors import (
    CycleDetected,
    DanglingItemLeaf,
    MultipleParents,
    MultipleRoots,
    SchemeTooDeep,
    UnknownItem,
)
from hierbpr.hierarchy import (
    AllocationScheme,
    assign_layers,
    build_hierarchy,
)

from conftest import TREE3_EDGES


def tree3(leaves=("skirts", "boots", "bras")):
    return build_hierarchy(TREE3_EDGES, leaves)


def path_blocks(h, a, node_id):
    """Segment block ids along the node's root path, in order."""
    return [block for block, _, _ in a.blocks_for_leaf(h.node_of(node_id))]


def block_of(a, node):
    """The id of the segment block the node owns."""
    return [owner for owner, _, _ in a.blocks].index(node)


class TestBuildHierarchy:
    def test_single_root_degenerate(self):
        h = build_hierarchy([], ["root", "root"])
        assert h.height == 1
        assert h.effective_height == 1
        assert h.n_nodes == 1
        assert h.parent[h.node_of("root")] == -1

    def test_three_layer_tree_height(self):
        h = tree3()
        assert h.height == 3
        assert h.effective_height == 3
        assert h.depth[h.node_of("root")] == 1
        assert h.depth[h.node_of("clothing")] == 2
        assert h.depth[h.node_of("skirts")] == 3

    def test_imbalanced_tree_effective_height(self):
        # One branch two layers deep, another four; items on both ends.
        edges = [("a", "root"), ("b", "root"), ("b1", "b"), ("b2", "b1")]
        h = build_hierarchy(edges, ["a", "b2"])
        # Independent oracle: minimum depth over the items' nodes.
        depths = {"a": 2, "b2": 4}
        assert h.effective_height == min(depths.values())
        assert h.height == 4

    def test_effective_height_tracks_items_only(self):
        edges = [("a", "root"), ("b", "root"), ("b1", "b")]
        h = build_hierarchy(edges, ["b1"])
        assert h.effective_height == 3

    def test_cycle_detected(self):
        edges = [("a", "root"), ("b", "c"), ("c", "b")]
        with pytest.raises(CycleDetected) as err:
            build_hierarchy(edges, [])
        assert "b" in str(err.value) or "c" in str(err.value)

    def test_self_parent_rejected(self):
        with pytest.raises(CycleDetected):
            build_hierarchy([("a", "a")], [])

    def test_all_nodes_on_cycle(self):
        with pytest.raises(CycleDetected):
            build_hierarchy([("a", "b"), ("b", "a")], [])

    def test_multiple_roots(self):
        edges = [("a", "r1"), ("b", "r2")]
        with pytest.raises(MultipleRoots) as err:
            build_hierarchy(edges, [])
        assert "r1" in str(err.value) and "r2" in str(err.value)

    def test_multiple_parents(self):
        edges = [("a", "root"), ("b", "root"), ("a", "b")]
        with pytest.raises(MultipleParents) as err:
            build_hierarchy(edges, [])
        assert "'a'" in str(err.value)

    def test_dangling_item_leaf(self):
        with pytest.raises(DanglingItemLeaf) as err:
            build_hierarchy([("a", "root")], ["a", "nowhere"])
        assert "'nowhere'" in str(err.value)

    def test_item_on_internal_node_allowed(self):
        h = build_hierarchy(TREE3_EDGES, ["clothing"])
        assert h.effective_height == 2


class TestAssignLayers:
    def test_split_421_row_ranges(self):
        h = tree3()
        a = assign_layers(h, AllocationScheme((4, 2, 1)))
        assert a.layer_rows == ((0, 4), (4, 6), (6, 7))
        # One block at the root, one per layer-2 and layer-3 node.
        assert len(a.blocks) == 1 + 3 + 5
        root_block = block_of(a, h.node_of("root"))
        assert a.blocks[root_block][1:] == (0, 4)

    def test_all_root_scheme_single_block(self):
        h = tree3()
        a = assign_layers(h, AllocationScheme((7, 0, 0)))
        assert len(a.blocks) == 1
        assert a.layer_rows == ((0, 7), (7, 7), (7, 7))

    def test_trailing_zeros_fit_shallow_tree(self):
        h = build_hierarchy([], ["root"])
        a = assign_layers(h, AllocationScheme((10, 0, 0)))
        assert len(a.blocks) == 1

    def test_block_count_two_layer_scheme(self):
        # 1 root, 3 mid, 9 leaves; scheme 2:2 puts blocks on layers 1 and 2.
        edges = [(f"m{k}", "root") for k in range(3)]
        edges += [(f"l{k}", f"m{k % 3}") for k in range(9)]
        h = build_hierarchy(edges, [f"l{k}" for k in range(9)])
        a = assign_layers(h, AllocationScheme((2, 2)))
        assert len(a.blocks) == 1 + 3
        assert a.layer_rows == ((0, 2), (2, 4))

    def test_scheme_too_deep(self):
        h = build_hierarchy([("a", "root")], ["a"])
        with pytest.raises(SchemeTooDeep):
            assign_layers(h, AllocationScheme((1, 1, 1)))

    def test_middle_zero_layer(self):
        h = tree3()
        a = assign_layers(h, AllocationScheme((3, 0, 2)))
        assert a.layer_rows == ((0, 3), (3, 3), (3, 5))
        assert len(a.blocks) == 1 + 5

    def test_same_layer_distinct_blocks(self):
        h = tree3()
        a = assign_layers(h, AllocationScheme((1, 1, 1)))
        mids = [h.node_of(n) for n in ("clothing", "shoes", "intimates")]
        blocks = {block_of(a, n) for n in mids}
        assert len(blocks) == 3


class TestPathSegments:
    def test_root_to_leaf_order(self):
        h = tree3(["skirts"])
        a = assign_layers(h, AllocationScheme((4, 2, 1)))
        blocks = path_blocks(h, a, "skirts")
        assert len(blocks) == 3
        owners = [a.blocks[b][0] for b in blocks]
        assert h.depth[owners[0]] == 1
        assert h.depth[owners[1]] == 2
        assert h.depth[owners[2]] == 3
        assert owners[1] == h.node_of("clothing")
        assert owners[2] == h.node_of("skirts")

    def test_degenerate_split_same_block_for_all(self):
        leaves = ["skirts", "boots", "bras"]
        h = tree3(leaves)
        a = assign_layers(h, AllocationScheme((7, 0, 0)))
        chains = {leaf: tuple(path_blocks(h, a, leaf)) for leaf in leaves}
        assert set(chains.values()) == {(0,)}

    def test_same_leaf_same_chain(self):
        item_leaf = {"i1": "jeans", "i2": "jeans"}
        h = tree3(item_leaf.values())
        a = assign_layers(h, AllocationScheme((2, 2, 3)))
        assert (path_blocks(h, a, item_leaf["i1"])
                == path_blocks(h, a, item_leaf["i2"]))

    def test_unknown_node(self):
        h = tree3()
        a = assign_layers(h, AllocationScheme((1,)))
        with pytest.raises(UnknownItem):
            path_blocks(h, a, "ghost")

    def test_imbalanced_deep_branch_uses_shallow_ancestors_only(self):
        edges = [("a", "root"), ("b", "root"), ("b1", "b"), ("b2", "b1")]
        h = build_hierarchy(edges, ["a", "b2"])
        a = assign_layers(h, AllocationScheme((2, 1)))
        chain = path_blocks(h, a, "b2")
        owners = [a.blocks[b][0] for b in chain]
        assert owners == [h.node_of("root"), h.node_of("b")]
        depths = [int(h.depth[o]) for o in owners]
        assert max(depths) <= 2


class TestProperties:
    def test_partition_property(self, rng):
        h = tree3()
        for _ in range(50):
            counts = tuple(int(c) for c in rng.integers(0, 5, size=3))
            if sum(counts) == 0:
                continue
            a = assign_layers(h, AllocationScheme(counts))
            covered = []
            for start, stop in a.layer_rows:
                covered.extend(range(start, stop))
            assert covered == list(range(sum(counts)))

    def test_sharing_property(self):
        h = tree3(["skirts", "jeans", "boots"])
        a = assign_layers(h, AllocationScheme((2, 2, 2)))
        sk = path_blocks(h, a, "skirts")
        je = path_blocks(h, a, "jeans")
        bo = path_blocks(h, a, "boots")
        # Same parent (clothing): shared blocks on layers 1 and 2 only.
        assert sk[0] == je[0] == bo[0]
        assert sk[1] == je[1]
        assert sk[1] != bo[1]
        assert sk[2] != je[2]

    def test_parameter_count_by_enumeration(self):
        h = tree3()
        scheme = AllocationScheme((4, 2, 1))
        a = assign_layers(h, scheme)
        feature_dim = 7
        # Oracle: per layer, rows times number of nodes on that layer.
        nodes_per_layer = [1, 3, 5]
        expected = feature_dim * sum(
            rows * n for rows, n in zip(scheme.per_layer, nodes_per_layer))
        assert a.parameter_count(feature_dim) == expected

    def test_scheme_parse_and_str(self):
        s = AllocationScheme((5, 3, 2))
        assert str(s) == "5:3:2"
        assert s.total == 10
        with pytest.raises(ValueError):
            AllocationScheme((-1, 2))


@st.composite
def tree_and_scheme(draw):
    """A random tree, the nodes items sit on, and a scheme that fits it.

    Node ``n<k>`` hangs under an earlier node, so unpadded names make the
    sorted-id order differ from the drawing order.
    """
    n = draw(st.integers(1, 14))
    parents = [draw(st.integers(0, k - 1)) for k in range(1, n)]
    edges = [(f"n{k}", f"n{p}") for k, p in enumerate(parents, start=1)]
    leaves = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    h = build_hierarchy(edges, [f"n{k}" for k in leaves])
    counts = draw(st.lists(st.integers(0, 3), min_size=1,
                           max_size=h.effective_height))
    return h, AllocationScheme(counts)


class TestChainProperty:
    @settings(max_examples=200, deadline=None)
    @given(tree_and_scheme())
    def test_chain_matches_parent_walk(self, case):
        h, scheme = case
        a = assign_layers(h, scheme)
        counts = scheme.per_layer
        # Oracle block ids: layer-major over nonempty layers, node ascending.
        owners = sorted((int(h.depth[v]), v) for v in range(h.n_nodes)
                        if h.depth[v] <= len(counts) and counts[h.depth[v] - 1])
        block_of = {v: b for b, (_, v) in enumerate(owners)}
        offsets = [sum(counts[:k]) for k in range(len(counts) + 1)]
        assert a.blocks == tuple((v, offsets[layer - 1], offsets[layer])
                                 for layer, v in owners)
        for node in range(h.n_nodes):
            path = [node]
            while h.parent[path[-1]] >= 0:
                path.append(int(h.parent[path[-1]]))
            path.reverse()                    # path[layer - 1] is on layer
            nonempty = [layer for layer, c in enumerate(counts, start=1) if c]
            if nonempty and nonempty[-1] > len(path):
                with pytest.raises(ValueError):
                    a.blocks_for_leaf(node)
                continue
            expected = tuple((block_of[path[layer - 1]], offsets[layer - 1],
                              offsets[layer]) for layer in nonempty)
            assert a.blocks_for_leaf(node) == expected
