"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they are produced. Numeric tolerances are pinned here, not configurable.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hierbpr.checkpoint import load_checkpoint
from hierbpr.cli import ExperimentManifest, run_experiment
from hierbpr.evaluation import ColdItemSet, auc, split_leave_one_out
from hierbpr.hierarchy import AllocationScheme, assign_layers
from hierbpr.model import (
    KIND_BPRMF,
    KIND_HVBPR,
    KIND_RAND,
    KIND_VBPR,
    ModelConfig,
    PreferenceModel,
)
from hierbpr.synthdata import SynthConfig, generate, make_corpus
from hierbpr.training import (
    RegWeights,
    TrainConfig,
    Trainer,
    sample_triple,
    train,
)

import reference
from conftest import build_corpus, per_triple_cost_probe
from test_training import changed_rows, check_gradient, tiny_model


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def train_model(kind, corpus, tc, split=None, scheme=None, epochs=25,
                lr=0.05, init_seed=3, sample_seed=103, reg=None):
    if kind == KIND_BPRMF:
        config = ModelConfig(20, rng_seed=init_seed, kind=KIND_BPRMF)
    elif kind == KIND_VBPR:
        config = ModelConfig(10, AllocationScheme((10,)), rng_seed=init_seed,
                             kind=KIND_VBPR)
    else:
        config = ModelConfig(10, scheme, rng_seed=init_seed)
    model = PreferenceModel.create(config, corpus)
    tconfig = TrainConfig(learning_rate=lr, iterations=epochs,
                          rng_seed=sample_seed, reg=reg or RegWeights())
    train(model, tc, tconfig, split=split)
    return model


def test_criterion_01_gradient_correctness():
    with criterion(1, "analytic gradients match finite differences "
                      "(rel err < 1e-4, >= 100 triples, < 10 s)"):
        started = time.perf_counter()
        # F=4, K=2, K'=3 over a two-layer tree with three leaves (scheme 2:1).
        model = tiny_model(rng_seed=42, n_items=9, n_users=4, feature_dim=4,
                           n_latent=2, scheme=(2, 1))
        corpus = model.corpus
        rng = np.random.default_rng(7)
        triples = 0
        entries = 0
        while triples < 100:
            u = int(rng.integers(corpus.n_users))
            i, j = (int(x) for x in
                    rng.choice(corpus.n_items, 2, replace=False))
            spots = [("item_bias", (i,)), ("item_bias", (j,))]
            spots += [("user_latent", (u, k)) for k in range(2)]
            spots += [("item_latent", (i, k)) for k in range(2)]
            spots += [("item_latent", (j, k)) for k in range(2)]
            spots += [("user_visual", (u, k)) for k in range(3)]
            spots += [("visual_bias", (k,)) for k in range(4)]
            # Every entry of the segment rows on i's and j's paths.
            spots += [("segments", (r, k))
                      for r in reference.path_rows(model, i, j)
                      for k in range(4)]
            entries += check_gradient(model, (u, i, j), spots)
            triples += 1
        elapsed = time.perf_counter() - started
        assert triples >= 100
        assert entries > 1000
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_single_embedding_degeneracy():
    with criterion(2, "all-root hierarchical scheme reproduces the "
                      "single-embedding baseline (<= 1e-10, every epoch)"):
        cfg = SynthConfig(n_users=40, n_items=80, feature_dim=8,
                          branching=(4,), n_positives=5,
                          planted_scheme=(3, 2), rng_seed=19)
        corpus, _ = make_corpus(cfg)
        tc, _split = split_leave_one_out(corpus, 5)
        vbpr = PreferenceModel.create(
            ModelConfig(10, AllocationScheme((10,)), rng_seed=31,
                        kind=KIND_VBPR), corpus)
        hier = PreferenceModel.create(
            ModelConfig(10, AllocationScheme((10,)), rng_seed=31),
            corpus)
        tconfig = TrainConfig(learning_rate=0.05, iterations=1, rng_seed=0)
        trainers = [Trainer(vbpr, tconfig), Trainer(hier, tconfig)]
        streams = [np.random.default_rng(77), np.random.default_rng(77)]
        for epoch in range(5):
            for trainer, stream in zip(trainers, streams):
                triples = sample_triple(tc, stream, tc.n_interactions)
                for u, i, j in triples.tolist():
                    trainer.step(u, i, j)
            table_v = vbpr.item_table()
            table_h = hier.item_table()
            for u in range(corpus.n_users):
                diff = np.abs(vbpr.score_all(u, table_v)
                              - hier.score_all(u, table_h)).max()
                assert diff <= 1e-10, (epoch, u, diff)


def test_criterion_03_auc_oracle_equivalence(rng):
    with criterion(3, "average AUC equals exhaustive pair counting exactly "
                      "(1000 randomized models, ties included)"):
        from test_evaluation import FakeCorpus, ScoreTableModel, split_of
        from conftest import auc_pair_counting

        models_checked = 0
        # Score-table models, integer-quantized half the time to force ties.
        for trial in range(900):
            n_users = int(rng.integers(1, 11))
            n_items = int(rng.integers(3, 21))
            if trial % 2 == 0:
                scores = rng.integers(0, 5, size=(n_users, n_items)).astype(float)
            else:
                scores = rng.normal(size=(n_users, n_items))
            positives, targets = [], []
            for u in range(n_users):
                k = int(rng.integers(1, min(n_items - 1, 5)))
                pos = np.sort(rng.choice(n_items, size=k, replace=False))
                positives.append(pos)
                targets.append(int(pos[0]) if rng.random() < 0.95 else -1)
            oracle, n = auc_pair_counting(
                lambda u, j: scores[u, j], n_items, np.array(targets),
                positives)
            corpus = FakeCorpus(positives, n_items)
            if n == 0:
                continue
            result = auc(ScoreTableModel(scores), corpus.positives,
                         split_of(targets))
            assert result.auc == oracle
            assert result.users_evaluated == n
            models_checked += 1
        # Real models with integer parameters: exact across scoring paths.
        for trial in range(100):
            n_items = int(rng.integers(4, 21))
            n_users = int(rng.integers(2, 11))
            items = {f"i{k:02d}": "root" for k in range(n_items)}
            features = {item: rng.integers(-2, 3, size=3).astype(float)
                        for item in items}
            feedback = []
            for u in range(n_users):
                for item in rng.choice(sorted(items),
                                       size=int(rng.integers(1, 4)),
                                       replace=False):
                    feedback.append((f"u{u:02d}", item))
            corpus = build_corpus([], items, features, feedback)
            config = ModelConfig(2, AllocationScheme((2,)),
                                 use_visual_bias=True, rng_seed=trial)
            model = PreferenceModel.create(config, corpus)
            p = model.params
            p.user_latent[:] = rng.integers(-2, 3, p.user_latent.shape)
            p.item_latent[:] = rng.integers(-2, 3, p.item_latent.shape)
            p.user_visual[:] = rng.integers(-2, 3, p.user_visual.shape)
            p.item_bias[:] = rng.integers(-1, 2, p.item_bias.shape)
            p.visual_bias[:] = rng.integers(-1, 2, p.visual_bias.shape)
            p.segments.backing[:] = rng.integers(
                -2, 3, p.segments.backing.shape)
            targets = np.array([int(corpus.positives[u][0])
                                for u in range(corpus.n_users)])
            oracle, n = auc_pair_counting(
                lambda u, j: reference.score(model, u, j), corpus.n_items,
                targets, corpus.positives)
            result = auc(model, corpus.positives, split_of(list(targets)))
            assert result.auc == oracle
            assert result.users_evaluated == n
            models_checked += 1
        assert models_checked >= 950


def test_criterion_04_rand_calibration():
    with criterion(4, "seeded random ranking scores warm AUC 0.5 +- 0.02 "
                      "at 500 users x 1000 items"):
        cfg = SynthConfig(n_users=500, n_items=1000, feature_dim=16,
                          branching=(4,), n_positives=5,
                          planted_scheme=(2, 2), rng_seed=21)
        corpus, _ = make_corpus(cfg)
        _tc, split = split_leave_one_out(corpus, 0)
        model = PreferenceModel.create(ModelConfig(kind=KIND_RAND, rng_seed=0),
                                       corpus)
        result = auc(model, corpus.positives, split)
        assert result.users_evaluated == 500
        assert abs(result.auc - 0.5) <= 0.02, result.auc


@pytest.fixture(scope="module")
def cold_start_runs():
    """Shared corpus and trained models for criteria 5."""
    cfg = SynthConfig(n_users=600, n_items=1500, feature_dim=64,
                      branching=(6,), n_positives=6, planted_scheme=(5, 5),
                      temperature=0.35, center_scale=0.0,
                      unit_norm_items=True, rng_seed=11)
    corpus, _ = make_corpus(cfg)
    tc, split = split_leave_one_out(corpus, 7)
    cold = ColdItemSet.from_training(tc, 5)
    models = {
        "BPR-MF": train_model(KIND_BPRMF, corpus, tc, epochs=35),
        "VBPR": train_model(KIND_VBPR, corpus, tc, epochs=35),
        "HVBPR": train_model(KIND_HVBPR, corpus, tc,
                             scheme=AllocationScheme((5, 5)), epochs=35),
    }
    cold_auc = {name: auc(model, corpus.positives, split, setting="cold",
                          cold_set=cold).auc
                for name, model in models.items()}
    return corpus, tc, split, cold, cold_auc


def test_criterion_05_visual_signal_in_cold_start(cold_start_runs):
    with criterion(5, "visually-aware cold AUC beats BPR-MF by >= 0.10; "
                      "BPR-MF cold stays at 0.5 +- 0.05"):
        corpus, tc, split, cold, cold_auc = cold_start_runs
        test_items = split.test_item[split.test_item >= 0]
        cold_fraction = float(cold.cold_mask[test_items].mean())
        assert cold_fraction >= 0.30, cold_fraction
        mf = cold_auc["BPR-MF"]
        assert abs(mf - 0.5) <= 0.05, mf
        for name in ("VBPR", "HVBPR"):
            gain = cold_auc[name] - mf
            assert gain >= 0.10, (name, cold_auc[name], mf)
        print(f"        cold test fraction {cold_fraction:.2f}; "
              f"cold AUC: MF {mf:.3f}, VBPR {cold_auc['VBPR']:.3f}, "
              f"HVBPR {cold_auc['HVBPR']:.3f}")


def test_criterion_06_hierarchy_advantage():
    with criterion(6, "two-layer allocation beats all-root on cold AUC by "
                      ">= 0.03 mean over 5 seeds (< 10 min)"):
        started = time.perf_counter()
        gaps = []
        for seed in range(100, 105):
            cfg = SynthConfig(n_users=400, n_items=1200, feature_dim=64,
                              branching=(6,), n_positives=8,
                              planted_scheme=(3, 7), center_scale=0.0,
                              unit_norm_items=True, rng_seed=seed)
            assert cfg.temperature == SynthConfig().temperature
            corpus, _ = make_corpus(cfg)
            tc, split = split_leave_one_out(corpus, seed + 1)
            cold = ColdItemSet.from_training(tc, 5)
            layered = train_model(KIND_HVBPR, corpus, tc,
                                  scheme=AllocationScheme((5, 5)),
                                  epochs=30, init_seed=seed + 2,
                                  sample_seed=seed + 3)
            allroot = train_model(KIND_HVBPR, corpus, tc,
                                  scheme=AllocationScheme((10,)),
                                  epochs=30, init_seed=seed + 2,
                                  sample_seed=seed + 3)
            a = auc(layered, corpus.positives, split, setting="cold",
                    cold_set=cold).auc
            b = auc(allroot, corpus.positives, split, setting="cold",
                    cold_set=cold).auc
            gaps.append(a - b)
        mean_gap = float(np.mean(gaps))
        elapsed = time.perf_counter() - started
        assert mean_gap >= 0.03, gaps
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        print(f"        per-seed gaps {[round(g, 3) for g in gaps]}, "
              f"mean {mean_gap:.3f}, {elapsed:.0f}s")


def test_criterion_07_complexity_contract():
    with criterion(7, "per-triple cost scales linearly in K'xF "
                      "(F doubling ratio in [1.6, 2.6]; K sweep < 30%)"):
        def median_ratio(config_a, config_b, reps=9, steps=300):
            # Interleave the two configs so machine-load drift cancels out
            # of the per-repetition ratio; the median over an odd number of
            # repetitions shrugs off transient interference spikes.
            ratios = []
            for rep in range(reps):
                rows = per_triple_cost_probe([config_a, config_b],
                                             n_steps=steps, seed=rep)
                ratios.append(rows[1]["seconds_per_step"]
                              / rows[0]["seconds_per_step"])
            return float(np.median(ratios))

        ratio = median_ratio({"n_latent": 10, "n_visual": 20,
                              "feature_dim": 2048},
                             {"n_latent": 10, "n_visual": 20,
                              "feature_dim": 4096})
        assert 1.6 <= ratio <= 2.6, ratio

        k_ratio = median_ratio({"n_latent": 2, "n_visual": 10,
                                "feature_dim": 512},
                               {"n_latent": 20, "n_visual": 10,
                                "feature_dim": 512})
        k_change = abs(k_ratio - 1.0)
        assert k_change < 0.30, k_ratio
        print(f"        F-doubling ratio {ratio:.2f}; "
              f"K 2->20 change {k_change * 100:.0f}%")


def test_criterion_08_experiment_determinism(tmp_path):
    with criterion(8, "identical manifests produce byte-identical "
                      "checkpoints and reports"):
        cfg = SynthConfig(n_users=40, n_items=90, feature_dim=8,
                          branching=(3,), n_positives=5,
                          planted_scheme=(2, 1), rng_seed=13)
        paths = generate(cfg, tmp_path / "data")
        outputs = []
        for run in ("r1", "r2"):
            manifest = ExperimentManifest(
                feedback=paths["feedback"],
                features=paths["features"],
                hierarchy=paths["hierarchy"],
                item_leaves=paths["item_leaves"],
                out_dir=str(tmp_path / run),
                model={"kind": "HVBPR", "n_latent": 4, "n_visual": 4,
                       "scheme": [3, 1]},
                train={"learning_rate": 0.05, "iterations": 4},
                seeds={"split": 1, "init": 2, "sample": 3},
            )
            outputs.append(run_experiment(manifest))
        ckpt1 = Path(outputs[0]["checkpoint"]).read_bytes()
        ckpt2 = Path(outputs[1]["checkpoint"]).read_bytes()
        assert ckpt1 == ckpt2
        rep1 = Path(outputs[0]["report"]).read_bytes()
        rep2 = Path(outputs[1]["report"]).read_bytes()
        assert rep1 == rep2
        bundle = load_checkpoint(outputs[0]["checkpoint"])
        assert bundle.seeds == {"split": 1, "init": 2, "sample": 3}


def test_criterion_09_sparse_touch():
    with criterion(9, "one SGD step leaves everything outside the triple "
                      "(and its path blocks) bit-identical"):
        model = tiny_model(rng_seed=23, n_items=9, n_users=5, feature_dim=4,
                           n_latent=2, scheme=(2, 1), use_category_bias=True)
        before = {name: arr.copy()
                  for name, arr in model.params.arrays().items()}
        u, i, j = 2, 1, 8
        Trainer(model, TrainConfig(learning_rate=0.1)).step(u, i, j)
        changed = changed_rows(before, model)
        assert changed["user_latent"] <= {u}
        assert changed["item_latent"] <= {i, j}
        assert changed["category_bias"] <= {int(model.item_leaf[i]),
                                            int(model.item_leaf[j])}
        # The touched coordinates really moved: every row of every block on
        # i's or j's path, and nothing else.
        assert changed["user_visual"] == {u}
        assert i in changed["item_bias"]
        assert changed["item_bias"] <= {i, j}
        assert changed["segments"] == set(reference.path_rows(model, i, j))


def test_criterion_10_imbalanced_tree_reduction():
    with criterion(10, "leaf depths {2, 4} with a 2-layer scheme train and "
                       "evaluate; deep items use depth<=2 segments only"):
        edges = [("shallow", "root"), ("deep1", "root"),
                 ("deep2", "deep1"), ("deep3", "deep2")]
        rng = np.random.default_rng(3)
        items = {}
        features = {}
        for k in range(30):
            leaf = "shallow" if k % 2 == 0 else "deep3"
            items[f"i{k:02d}"] = leaf
            features[f"i{k:02d}"] = rng.normal(size=6)
        feedback = []
        for u in range(12):
            for item in rng.choice(sorted(items), size=5, replace=False):
                feedback.append((f"u{u:02d}", item))
        corpus = build_corpus(edges, items, features, feedback)
        assert corpus.hierarchy.height == 4
        assert corpus.hierarchy.effective_height == 2

        scheme = AllocationScheme((5, 5))
        assignment = assign_layers(corpus.hierarchy, scheme)
        deep = int(corpus.item_leaf[corpus.item_ids.index("i01")])
        chain = assignment.blocks_for_leaf(deep)
        owners = [assignment.blocks[b][0] for b, _, _ in chain]
        owner_depths = [int(corpus.hierarchy.depth[o]) for o in owners]
        assert owner_depths == [1, 2]
        deep_names = {corpus.hierarchy.node_ids[o] for o in owners}
        assert deep_names == {"root", "deep1"}

        config = ModelConfig(2, scheme, rng_seed=5)
        model = PreferenceModel.create(config, corpus)
        tc, split = split_leave_one_out(corpus, 2)
        train(model, tc, TrainConfig(learning_rate=0.05, iterations=3,
                                     rng_seed=6), split=split)
        cold = ColdItemSet.from_training(tc, 5)
        warm = auc(model, corpus.positives, split)
        coldr = auc(model, corpus.positives, split, setting="cold",
                    cold_set=cold)
        assert 0.0 <= warm.auc <= 1.0
        assert 0.0 <= coldr.auc <= 1.0
