"""How visual-dimension rows are allocated over a category tree.

Builds the running example: a root with three branches (clothing, shoes,
intimates) and five fine-grained leaves, then distributes 7 visual
dimensions with a 4:2:1 split and shows which segment blocks each item
inherits. The tree holds category nodes only; each item's node is catalog
data, looked up here in ``item_leaves``.
"""

from hierbpr import AllocationScheme, assign_layers, build_hierarchy

edges = [
    ("clothing", "root"), ("shoes", "root"), ("intimates", "root"),
    ("skirts", "clothing"), ("jeans", "clothing"),
    ("boots", "shoes"), ("flats", "shoes"), ("bras", "intimates"),
]
item_leaves = {
    "item_a": "skirts", "item_b": "jeans", "item_c": "boots",
    "item_d": "flats", "item_e": "bras",
}

hierarchy = build_hierarchy(edges, item_leaves.values())
print(f"tree: {hierarchy.n_nodes} nodes, height {hierarchy.height}, "
      f"effective height {hierarchy.effective_height}")

scheme = AllocationScheme((4, 2, 1))
assignment = assign_layers(hierarchy, scheme)
print(f"\nscheme {scheme} over {scheme.total} visual dimensions:")
for layer, (start, stop) in enumerate(assignment.layer_rows, start=1):
    nodes = hierarchy.nodes_at(layer)
    print(f"  layer {layer}: rows [{start}, {stop}) "
          f"x {len(nodes)} node(s) -> "
          f"{[hierarchy.node_ids[n] for n in nodes]}")

print(f"\ntotal segment blocks: {len(assignment.blocks)}")
print(f"embedding parameters at F=4096: "
      f"{assignment.parameter_count(4096):,}")

print("\nsegment chain per item (block owner per layer):")
for item in sorted(item_leaves):
    chain = assignment.blocks_for_leaf(hierarchy.node_of(item_leaves[item]))
    owners = [hierarchy.node_ids[assignment.blocks[b][0]] for b, _, _ in chain]
    print(f"  {item:7s} ({item_leaves[item]:9s}) -> {' / '.join(owners)}")

print("\nitems under 'clothing' share the root and clothing blocks;")
print("their leaf row is category-specific. An all-root split (7:0:0)")
print("collapses everything to one shared block:")
flat = assign_layers(hierarchy, AllocationScheme((7, 0, 0)))
print(f"  blocks under 7:0:0 -> {len(flat.blocks)}")
