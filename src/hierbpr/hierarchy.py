"""Category tree handling: validation, layer numbering, and segment allocation.

A hierarchy is a single rooted tree of category nodes; it knows nothing of
items. Which node each item sits on (normally a leaf) is catalog data, kept
as the corpus's ``item_leaf`` array of node indices; the root-to-node path
decides which embedding segments the item inherits. Layers are numbered from
1 at the root, so a node's layer equals the length of its root path. The
*effective height* is the depth of the shallowest node any item maps to;
allocation schemes may not reach below it, which is what reduces an
imbalanced tree to a balanced one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CycleDetected,
    DanglingItemLeaf,
    MultipleParents,
    MultipleRoots,
    SchemeTooDeep,
    UnknownItem,
)


@dataclass(frozen=True)
class CategoryHierarchy:
    """Validated category tree with dense node indices.

    Node ids are opaque strings; internally nodes are 0..n-1 in sorted-id
    order. ``parent[root] == -1``. ``depth`` counts layers from 1 at the root.
    """

    node_ids: tuple[str, ...]
    parent: np.ndarray
    root: int
    depth: np.ndarray
    height: int
    effective_height: int
    node_index: dict[str, int] = field(repr=False, default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def node_of(self, node_id: str) -> int:
        try:
            return self.node_index[node_id]
        except KeyError:
            raise UnknownItem(f"unknown category node {node_id!r}") from None

    def nodes_at(self, layer: int) -> np.ndarray:
        """Dense indices of all nodes on the given layer, ascending."""
        return np.flatnonzero(self.depth == layer)


def build_hierarchy(
    edges: list[tuple[str, str]], leaf_ids
) -> CategoryHierarchy:
    """Build and validate a hierarchy from (child, parent) edges.

    ``leaf_ids`` are the ids of the nodes that items attach to (repeats are
    fine); the shallowest of them sets the effective height. With an empty
    edge list the node universe falls back to these ids, which must then
    all name the same single (root) node.

    Raises:
        MultipleParents: a child id is listed under two different parents.
        MultipleRoots: zero or more than one parentless node.
        CycleDetected: a node cannot reach the root.
        DanglingItemLeaf: a leaf id names a node outside the tree.
    """
    leaf_ids = set(leaf_ids)
    parent_of: dict[str, str] = {}
    ids: set[str] = set()
    for child, parent in edges:
        ids.add(child)
        ids.add(parent)
        if child == parent:
            raise CycleDetected(f"node {child!r} is its own parent")
        if child in parent_of and parent_of[child] != parent:
            raise MultipleParents(f"node {child!r} has parents "
                                  f"{parent_of[child]!r} and {parent!r}")
        parent_of[child] = parent
    if not edges:
        ids.update(leaf_ids)

    if not ids:
        raise MultipleRoots("hierarchy has no nodes at all")
    roots = sorted(ids - set(parent_of))
    if len(roots) > 1:
        raise MultipleRoots(f"multiple root nodes: {', '.join(map(repr, roots))}")
    if not roots:
        some = sorted(ids)[0]
        raise CycleDetected(f"no root node; {some!r} lies on a cycle")
    root_id = roots[0]

    node_ids = tuple(sorted(ids))
    index = {nid: k for k, nid in enumerate(node_ids)}
    parent = np.full(len(node_ids), -1, dtype=np.int64)
    for child, par in parent_of.items():
        parent[index[child]] = index[par]
    root = index[root_id]

    # BFS from the root assigns depths; anything unreached sits on a cycle.
    depth = np.zeros(len(node_ids), dtype=np.int64)
    children: dict[int, list[int]] = {}
    for k, p in enumerate(parent):
        if p >= 0:
            children.setdefault(int(p), []).append(k)
    depth[root] = 1
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            for ch in children.get(node, ()):
                depth[ch] = depth[node] + 1
                nxt.append(ch)
        frontier = nxt
    unreached = np.flatnonzero(depth == 0)
    if unreached.size:
        raise CycleDetected(f"node {node_ids[unreached[0]]!r} cannot reach the root")

    dangling = sorted(leaf_ids - index.keys())
    if dangling:
        raise DanglingItemLeaf(f"items map to unknown node {dangling[0]!r}")

    height = int(depth.max())
    if leaf_ids:
        effective = int(min(depth[index[n]] for n in leaf_ids))
    else:
        has_child = np.zeros(len(node_ids), dtype=bool)
        has_child[parent[parent >= 0]] = True
        effective = int(depth[~has_child].min())

    parent.flags.writeable = False
    depth.flags.writeable = False
    return CategoryHierarchy(
        node_ids=node_ids,
        parent=parent,
        root=root,
        depth=depth,
        height=height,
        effective_height=effective,
        node_index=index,
    )


@dataclass(frozen=True)
class AllocationScheme:
    """Split of the visual-dimension rows across tree layers, top-down.

    ``per_layer[0]`` rows go to the root layer, ``per_layer[1]`` to each
    second-layer node, and so on. Zero counts are allowed anywhere and
    create no segments on that layer.
    """

    per_layer: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_layer", tuple(int(c) for c in self.per_layer))
        if any(c < 0 for c in self.per_layer):
            raise ValueError(f"negative layer count in scheme {self.per_layer}")

    @property
    def total(self) -> int:
        return sum(self.per_layer)

    @property
    def depth_used(self) -> int:
        """Number of layers up to the deepest nonzero count."""
        used = 0
        for layer, count in enumerate(self.per_layer, start=1):
            if count:
                used = layer
        return used

    def __str__(self) -> str:
        return ":".join(str(c) for c in self.per_layer) if self.per_layer else "0"


@dataclass(frozen=True)
class LayerAssignment:
    """Mapping from scheme layers to row ranges and per-node segment blocks.

    Row ranges partition [0, K') in layer order. Every node on a layer with a
    nonzero count owns one block; block ids are dense, layer-major, node
    ascending. Deeper tree structure carries no blocks. ``chains[node]`` is
    the node's ``(block, row_start, row_stop)`` per nonempty layer,
    root-to-node, or None for a node above the deepest allocated layer.
    """

    scheme: AllocationScheme
    layer_rows: tuple[tuple[int, int], ...]
    block_of_node: np.ndarray
    block_owner: tuple[int, ...]
    block_layer: tuple[int, ...]
    chains: tuple[tuple[tuple[int, int, int], ...] | None, ...] = field(
        repr=False)

    @property
    def n_blocks(self) -> int:
        return len(self.block_owner)

    @property
    def n_visual(self) -> int:
        return self.scheme.total

    def block_rows(self, block: int) -> tuple[int, int]:
        """Row range (start, stop) in visual-dimension space for a block."""
        return self.layer_rows[self.block_layer[block] - 1]

    def block_width(self, block: int) -> int:
        start, stop = self.block_rows(block)
        return stop - start

    def blocks_for_leaf(self, leaf: int) -> tuple[tuple[int, int, int], ...]:
        """(block, row_start, row_stop) per nonempty layer, root-to-leaf.

        Raises:
            ValueError: the node lies above the deepest allocated layer.
        """
        chain = self.chains[leaf]
        if chain is None:
            raise ValueError(f"node {leaf} lies above layer "
                             f"{self.scheme.depth_used}, the deepest allocated")
        return chain

    def parameter_count(self, feature_dim: int) -> int:
        """Total embedding parameters across every instantiated block."""
        return feature_dim * sum(self.block_width(b) for b in range(self.n_blocks))


def assign_layers(h: CategoryHierarchy, s: AllocationScheme) -> LayerAssignment:
    """Distribute the scheme's row counts over the tree's layers.

    Trailing zero counts are stripped before depth validation, so an
    all-root scheme like 10:0:0 fits any tree.

    Raises:
        SchemeTooDeep: nonzero counts reach below the effective height.
    """
    if s.depth_used > h.effective_height:
        raise SchemeTooDeep(
            f"scheme {s} uses {s.depth_used} layers but the effective "
            f"height is {h.effective_height}")

    layer_rows = []
    offset = 0
    for count in s.per_layer:
        layer_rows.append((offset, offset + count))
        offset += count

    # Top-down, so each node extends its parent's finished chain.
    block_of_node = np.full(h.n_nodes, -1, dtype=np.int64)
    block_owner: list[int] = []
    block_layer: list[int] = []
    chains: list = [()] * h.n_nodes
    for layer in range(1, h.height + 1):
        start, stop = (layer_rows[layer - 1] if layer <= len(layer_rows)
                       else (offset, offset))
        for node in h.nodes_at(layer):
            parent = h.parent[node]
            chain = chains[parent] if parent >= 0 else ()
            if stop > start:
                chain += ((len(block_owner), start, stop),)
                block_of_node[node] = len(block_owner)
                block_owner.append(int(node))
                block_layer.append(layer)
            chains[node] = chain
    for node in np.flatnonzero(h.depth < s.depth_used):
        chains[node] = None

    block_of_node.flags.writeable = False
    return LayerAssignment(
        scheme=s,
        layer_rows=tuple(layer_rows),
        block_of_node=block_of_node,
        block_owner=tuple(block_owner),
        block_layer=tuple(block_layer),
        chains=tuple(chains),
    )
