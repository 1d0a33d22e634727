"""Every baseline is a configuration: compare them on one corpus.

Trains RAND, BPR-MF, VBPR, VBPR-C, and the hierarchical model (two
allocation schemes) on a synthetic corpus with planted category-specific
structure, then prints a warm/cold AUC table. Expect the visually-aware
models to dominate in cold-start and the layered schemes to lead the
all-root allocation.
"""

from hierbpr import (
    AllocationScheme,
    ColdItemSet,
    KIND_BPRMF,
    KIND_HVBPR,
    KIND_RAND,
    KIND_VBPR,
    KIND_VBPRC,
    PreferenceModel,
    SynthConfig,
    TrainConfig,
    auc,
    make_baseline,
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

candidates = [
    ("RAND", make_baseline(KIND_RAND, rng_seed=5)),
    ("BPR-MF", make_baseline(KIND_BPRMF, total_dims=20, rng_seed=5)),
    ("VBPR", make_baseline(KIND_VBPR, total_dims=20, visual_dims=10,
                           rng_seed=5)),
    ("VBPR-C", make_baseline(KIND_VBPRC, total_dims=20, visual_dims=10,
                             rng_seed=5)),
    ("HVBPR 10:0", make_baseline(KIND_HVBPR, total_dims=20, visual_dims=10,
                                 scheme=AllocationScheme((10,)), rng_seed=5)),
    ("HVBPR 5:5", make_baseline(KIND_HVBPR, total_dims=20, visual_dims=10,
                                scheme=AllocationScheme((5, 5)), rng_seed=5)),
]

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
