"""Every baseline is a configuration: compare them on one corpus.

Trains RAND, BPR-MF, VBPR, VBPR-C, and the hierarchical model (two
allocation schemes) on a synthetic corpus with planted category-specific
structure, then prints a warm/cold AUC table. Expect the visually-aware
models to dominate in cold-start and the layered schemes to lead the
all-root allocation.
"""

from hierbpr import (
    ColdItemSet,
    KIND_RAND,
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
    n_users=400, n_items=1200, feature_dim=64, branching=(6,),
    n_positives=8, planted_scheme=(3, 7), center_scale=0.0,
    unit_norm_items=True, rng_seed=7,
)
corpus, _ = make_corpus(config)
training_corpus, split = split_leave_one_out(corpus, 11)
cold = ColdItemSet.from_training(training_corpus, threshold=5)
print(f"corpus: {corpus.n_users} users x {corpus.n_items} items, "
      f"{cold.n_cold} cold items")

# Manifest model sections: 20 rating dimensions, 10 of them visual where
# the kind has any. Left-out flags follow one rule: a visual bias with
# visual rows, a category bias for VBPR-C.
sections = [
    ("RAND", {"kind": "RAND"}),
    ("BPR-MF", {"kind": "BPR-MF", "n_latent": 20}),
    ("VBPR", {"kind": "VBPR", "n_latent": 10, "scheme": [10]}),
    ("VBPR-C", {"kind": "VBPR-C", "n_latent": 10, "scheme": [10]}),
    ("HVBPR 10:0", {"n_latent": 10, "scheme": [10]}),
    ("HVBPR 5:5", {"n_latent": 10, "scheme": [5, 5]}),
]
candidates = [(name, ModelConfig.from_dict({**section, "rng_seed": 5}))
              for name, section in sections]

print(f"\n{'model':<12s} {'warm AUC':>9s} {'cold AUC':>9s}")
for name, model_config in candidates:
    model = PreferenceModel.create(model_config, corpus)
    if model_config.kind != KIND_RAND:
        train(model, training_corpus,
              TrainConfig(learning_rate=0.05, iterations=25, rng_seed=13))
    warm = auc(model, corpus.positives, split).auc
    coldr = auc(model, corpus.positives, split, setting="cold",
                cold_set=cold).auc
    print(f"{name:<12s} {warm:9.4f} {coldr:9.4f}")
