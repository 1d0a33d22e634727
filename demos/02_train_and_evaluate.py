"""End-to-end run on synthetic data: generate, split, train, evaluate.

Generates a corpus with planted two-layer preference structure, trains the
hierarchical model with a 5:5 allocation, and reports warm- and cold-start
AUC on the held-out test items.
"""

import numpy as np

from hierbpr import (
    ColdItemSet,
    ModelConfig,
    PreferenceModel,
    SynthConfig,
    TrainConfig,
    auc,
    make_corpus,
    split_leave_one_out,
    train,
)

config = SynthConfig(
    n_users=300, n_items=900, feature_dim=64, branching=(6,),
    n_positives=8, planted_scheme=(5, 5), center_scale=0.0,
    unit_norm_items=True, rng_seed=42,
)
corpus, ground_truth = make_corpus(config)
print(f"corpus: {corpus.n_users} users, {corpus.n_items} items, "
      f"{corpus.n_interactions} interactions, F={corpus.feature_dim}")

training_corpus, split = split_leave_one_out(corpus, 1)
cold = ColdItemSet.from_training(training_corpus, threshold=5)
print(f"split: {np.count_nonzero(split.test_item >= 0)} test users, "
      f"{cold.n_cold}/{corpus.n_items} cold items")

# The same model section a manifest takes; the kind defaults to HVBPR.
model_config = ModelConfig.from_dict({"n_latent": 10, "scheme": [5, 5],
                                      "rng_seed": 2})
model = PreferenceModel.create(model_config, corpus)

result = train(
    model, training_corpus,
    TrainConfig(learning_rate=0.05, iterations=15, rng_seed=3),
    split=split,
)
print("\nepoch  val_auc  train_loss")
for s in result.history:
    print(f"{s.epoch:5d}  {s.val_auc:.4f}  {s.train_loss:.4f}")
model.params = result.best_params
print(f"\nbest epoch {result.best_epoch} "
      f"(validation AUC {result.best_val_auc:.4f})")

warm = auc(model, corpus.positives, split)
coldr = auc(model, corpus.positives, split, setting="cold",
            cold_set=cold)
print(f"test warm AUC: {warm.auc:.4f} over {warm.users_evaluated} users")
print(f"test cold AUC: {coldr.auc:.4f} over {coldr.users_evaluated} users")

true_user = np.array(ground_truth["true_user_vectors"])
print(f"\n(planted structure: {true_user.shape[1]} true dimensions, "
      f"{len(ground_truth['leaf_names'])} leaf categories)")
