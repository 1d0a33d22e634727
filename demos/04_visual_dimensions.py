"""Inspect what each visual dimension picked up after training.

Ranks items along individual visual dimensions (globally and within one
leaf category) and checks the top root-layer dimension against the planted
ground truth: items scoring high on a learned shared dimension should have
coherent true-space positions.
"""

import numpy as np

from hierbpr import (
    AllocationScheme,
    ModelConfig,
    PreferenceModel,
    SynthConfig,
    TrainConfig,
    make_corpus,
    split_leave_one_out,
    train,
)

config = SynthConfig(
    n_users=300, n_items=600, feature_dim=48, branching=(4,),
    n_positives=8, planted_scheme=(3, 2), center_scale=0.0,
    unit_norm_items=True, rng_seed=21,
)
corpus, ground_truth = make_corpus(config)
training_corpus, split = split_leave_one_out(corpus, 2)

model = PreferenceModel.create(
    ModelConfig(5, AllocationScheme((3, 2)), rng_seed=4),
    corpus)
train(model, training_corpus,
      TrainConfig(learning_rate=0.05, iterations=20, rng_seed=6))

# Dimensions 0-2 live on the root layer (shared by every category);
# dimensions 3-4 are instantiated per leaf.
table = model.item_table()
print("top items per visual dimension (all categories):")
layer_rows = model.params.segments.assignment.layer_rows
for layer, (start, stop) in enumerate(layer_rows, start=1):
    for dim in range(start, stop):
        top = table.rank_by_dimension(dim, top_n=5)
        ids = [corpus.item_ids[i] for i, _ in top]
        print(f"  dim {dim} (layer {layer}): {', '.join(ids)}")

leaf_name = ground_truth["leaf_names"][0]
leaf = corpus.hierarchy.node_of(leaf_name)
print(f"\ntop items on dimension 4 within category {leaf_name!r}:")
for rank, (item, score) in enumerate(
        table.rank_by_dimension(4, top_n=5, category=leaf),
        start=1):
    print(f"  {rank}. {corpus.item_ids[item]}  score {score:+.3f}")

# Sanity check against the generator's ground truth: a learned shared
# dimension should align with some direction of the true item positions.
true_items = np.array(ground_truth["true_item_vectors"])
learned = table.theta[:, 0]
correlations = [float(abs(np.corrcoef(learned, true_items[:, k])[0, 1]))
                for k in range(true_items.shape[1])]
print(f"\n|corr| of learned dim 0 with each true dimension: "
      f"{[round(c, 2) for c in correlations]}")
print(f"best alignment: {max(correlations):.2f}")
