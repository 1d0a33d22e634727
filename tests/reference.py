"""An independent per-pair scorer: the oracle the library is checked against.

Plain loops over ``ModelParams``, the features, ``item_leaf`` and the tree's
``parent`` array. The segment layout comes from the scheme alone: on each
layer with a nonzero row count every node of that layer owns one block,
numbered layer-major and node-ascending, stored in that order in the
backing array. Nothing here reads the chains that ``assign_layers`` builds.
"""


def visual_rows(per_layer, parent, leaf):
    """The backing row behind each visual dimension of an item on ``leaf``:
    ``backing[rows]`` is the leaf's stacked matrix."""
    def depth(node):
        return 1 if parent[node] < 0 else 1 + depth(parent[node])

    ancestor, node = {}, leaf
    while node >= 0:
        ancestor[depth(node)] = node
        node = parent[node]
    rows, first = [], 0
    for layer, count in enumerate(per_layer, start=1):
        if count:
            on_layer = [n for n in range(len(parent)) if depth(n) == layer]
            start = first + on_layer.index(ancestor[layer]) * count
            rows += range(start, start + count)
            first += count * len(on_layer)
    return rows


def project(backing, per_layer, parent, leaf, f):
    """theta of feature vector ``f`` on ``leaf``, one dot product per row."""
    return [sum(float(backing[row][k]) * float(f[k]) for k in range(len(f)))
            for row in visual_rows(per_layer, parent, leaf)]


def path_rows(model, *items):
    """The backing rows on the paths of ``items``, sorted."""
    parent = model.corpus.hierarchy.parent
    return sorted({row for i in items for row in visual_rows(
        model.config.scheme.per_layer, parent, int(model.item_leaf[i]))})


def score(model, u, i):
    """x_ui = <gamma_u, gamma_i> + <theta_u, theta_i> + <visual_bias, f_i>
    + item_bias_i (+ category_bias[leaf_i]), at the current parameters."""
    config, p, f = model.config, model.params, model.features[i]
    leaf = int(model.item_leaf[i])
    total = float(p.item_bias[i])
    for k in range(config.n_latent):
        total += float(p.user_latent[u][k]) * float(p.item_latent[i][k])
    if config.n_visual:
        theta = project(p.arrays()["segments"], config.scheme.per_layer,
                        model.corpus.hierarchy.parent, leaf, f)
        for r, value in enumerate(theta):
            total += float(p.user_visual[u][r]) * value
    if config.use_visual_bias:
        for k in range(len(f)):
            total += float(p.visual_bias[k]) * float(f[k])
    if config.use_category_bias:
        total += float(p.category_bias[leaf])
    return total


def margin(model, u, i, j):
    """x_ui - x_uj from two ``score`` calls."""
    return score(model, u, i) - score(model, u, j)
