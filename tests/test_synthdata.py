import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from hierbpr.errors import InvalidShape
from hierbpr.evaluation import split_leave_one_out, auc
from hierbpr.ingestion import load_corpus
from hierbpr.hierarchy import AllocationScheme
from hierbpr.model import KIND_VBPR, ModelConfig, PreferenceModel
from hierbpr.synthdata import SynthConfig, generate, make_corpus
from hierbpr.training import TrainConfig, train


SMALL = dict(n_users=25, n_items=50, feature_dim=6, branching=(3,),
             n_positives=4, planted_scheme=(2, 1), rng_seed=7)


class TestConfigValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidShape):
            SynthConfig(n_users=0)
        with pytest.raises(InvalidShape):
            SynthConfig(n_positives=0)
        with pytest.raises(InvalidShape):
            SynthConfig(n_items=5, n_positives=9)
        with pytest.raises(InvalidShape):
            SynthConfig(branching=(3, 0))
        with pytest.raises(InvalidShape):
            SynthConfig(branching=(3,), planted_scheme=(1, 1, 1))
        with pytest.raises(InvalidShape):
            SynthConfig(temperature=0.0)
        with pytest.raises(InvalidShape):
            SynthConfig(planted_scheme=(0, 0))
        with pytest.raises(InvalidShape, match="rng_seed"):
            SynthConfig(rng_seed=-1)

    @pytest.mark.parametrize("field", ["temperature", "feature_noise",
                                       "center_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(InvalidShape, match="finite"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("feature_noise", 1e39), ("center_scale", -1e39),
        ("center_scale", 1e308)])
    def test_features_past_float32_raise_before_writing(self, tmp_path,
                                                        field, value):
        cfg = SynthConfig(**{**SMALL, field: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidShape, match="float32"):
                make_corpus(cfg)
            with pytest.raises(InvalidShape, match="float32"):
                generate(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestGenerate:
    def test_byte_identical_regeneration(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        dir1 = tmp_path / "a"
        dir2 = tmp_path / "b"
        paths1 = generate(cfg, dir1)
        paths2 = generate(cfg, dir2)
        for name in paths1:
            b1 = Path(paths1[name]).read_bytes()
            b2 = Path(paths2[name]).read_bytes()
            assert b1 == b2, name
        sidecar1 = Path(paths1["features"] + ".ids").read_bytes()
        sidecar2 = Path(paths2["features"] + ".ids").read_bytes()
        assert sidecar1 == sidecar2

    def test_different_seed_differs(self, tmp_path):
        base = generate(SynthConfig(**SMALL), tmp_path / "a")
        other = generate(SynthConfig(**{**SMALL, "rng_seed": 8}), tmp_path / "b")
        assert (Path(base["feedback"]).read_bytes()
                != Path(other["feedback"]).read_bytes())

    def test_positive_counts_exact_no_duplicates(self):
        cfg = SynthConfig(**SMALL)
        corpus, _ = make_corpus(cfg)
        assert corpus.n_users == cfg.n_users
        for u in range(corpus.n_users):
            pos = corpus.positives[u]
            assert len(pos) == cfg.n_positives
            assert len(set(pos.tolist())) == cfg.n_positives

    def test_round_trip_loads_clean(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        paths = generate(cfg, tmp_path)
        corpus, report = load_corpus(paths["feedback"], paths["features"],
                                     paths["hierarchy"], paths["item_leaves"],
                                     policy="strict")
        assert report["pruned"]["feedback_pairs_dropped"] == 0
        assert not report["pruned"]["items_missing_features"]
        assert not report["pruned"]["items_missing_category"]
        mem_corpus, _ = make_corpus(cfg)
        assert corpus.item_ids == mem_corpus.item_ids
        assert corpus.user_ids == mem_corpus.user_ids
        assert np.array_equal(corpus.features, mem_corpus.features)
        for u in range(corpus.n_users):
            assert np.array_equal(corpus.positives[u], mem_corpus.positives[u])

    def test_ground_truth_record(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        paths = generate(cfg, tmp_path)
        with open(paths["ground_truth"]) as fh:
            gt = json.load(fh)
        assert gt["config"]["n_users"] == cfg.n_users
        assert len(gt["true_user_vectors"]) == cfg.n_users
        assert len(gt["true_item_vectors"]) == cfg.n_items
        assert len(gt["true_item_vectors"][0]) == sum(cfg.planted_scheme)
        assert len(gt["item_leaf"]) == cfg.n_items

    def test_unit_norm_flattens_magnitudes(self):
        cfg = SynthConfig(**{**SMALL, "unit_norm_items": True,
                             "center_scale": 0.0})
        _, gt = make_corpus(cfg)
        norms = np.linalg.norm(np.array(gt["true_item_vectors"]), axis=1)
        assert np.allclose(norms, norms[0])


class TestSignalStrength:
    def test_infinite_noise_defeats_training(self):
        cfg = SynthConfig(n_users=60, n_items=150, feature_dim=8,
                          branching=(3,), n_positives=5, planted_scheme=(3,),
                          temperature=1e9, rng_seed=3)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 1)
        model = PreferenceModel.create(
            ModelConfig(3, AllocationScheme((3,)), rng_seed=2, kind=KIND_VBPR),
            corpus)
        train(model, tc, TrainConfig(learning_rate=0.05, iterations=10,
                                     rng_seed=4))
        result = auc(model, corpus.positives, split)
        assert abs(result.auc - 0.5) < 0.08

    def test_clean_root_structure_highly_learnable(self):
        cfg = SynthConfig(n_users=80, n_items=160, feature_dim=16,
                          branching=(4,), n_positives=6, planted_scheme=(4,),
                          temperature=0.05, center_scale=0.0,
                          unit_norm_items=True, rng_seed=9)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 2)
        model = PreferenceModel.create(
            ModelConfig(4, AllocationScheme((4,)), rng_seed=5, kind=KIND_VBPR),
            corpus)
        train(model, tc, TrainConfig(learning_rate=0.05, iterations=30,
                                     rng_seed=6))
        result = auc(model, corpus.positives, split)
        assert result.auc > 0.9
