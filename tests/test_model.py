import numpy as np
import pytest

from hierbpr.errors import (
    DimensionOutOfRange,
    InvalidSchemeForBaseline,
    UnknownItem,
    UnknownUser,
)
from hierbpr.evaluation import auc, split_leave_one_out
from hierbpr.hierarchy import AllocationScheme
from hierbpr.model import (
    KIND_BPRMF,
    KIND_HVBPR,
    KIND_RAND,
    KIND_VBPR,
    KIND_VBPRC,
    KINDS,
    ModelConfig,
    PreferenceModel,
    make_baseline,
    rand_scores,
)
from hierbpr.synthdata import SynthConfig, make_corpus
from hierbpr.training import TrainConfig, Trainer, sample_triple

from conftest import build_corpus


def flat_corpus(n_items=4, feature_dim=2, rng_seed=0):
    """Single-layer tree, deterministic small features, two users."""
    rng = np.random.default_rng(rng_seed)
    items = {f"i{k}": "root" for k in range(n_items)}
    features = {item: rng.normal(size=feature_dim) for item in items}
    feedback = [("u0", "i0"), ("u0", "i1"), ("u1", "i2"), ("u1", "i3")]
    return build_corpus([], items, features, feedback)


class TestScore:
    def test_all_zero_parameters_score_zero(self):
        corpus = flat_corpus()
        config = ModelConfig(2, 2, AllocationScheme((2,)), rng_seed=0)
        model = PreferenceModel.create(config, corpus)
        for arr in model.params.arrays().values():
            arr[:] = 0.0
        assert model.score(0, 1) == 0.0

    def test_bias_only_scoring(self):
        # The config contract requires at least one rating dimension, so the
        # bias-only behaviour is exercised with a zeroed latent factor.
        corpus = flat_corpus()
        config = ModelConfig(1, 0, AllocationScheme(()), use_visual_bias=False)
        model = PreferenceModel.create(config, corpus)
        model.params.user_latent[:] = 0.0
        model.params.item_latent[:] = 0.0
        model.params.item_bias[:] = 0.25
        for u in range(2):
            for i in range(4):
                assert model.score(u, i) == 0.25

    def test_hand_computed_full_predictor(self):
        # One latent and one visual dimension at feature length 1:
        # 2*3 (latent) + 1*1 (visual) + 0.5 (visual bias) + 0.1 (item bias).
        corpus = build_corpus([], {"i0": "root"}, {"i0": [1.0]},
                              [("u0", "i0")])
        config = ModelConfig(1, 1, AllocationScheme((1,)),
                             use_visual_bias=True, rng_seed=0)
        model = PreferenceModel.create(config, corpus)
        p = model.params
        p.user_latent[0, 0] = 2.0
        p.item_latent[0, 0] = 3.0
        p.user_visual[0, 0] = 1.0
        p.segments.blocks[0][0, 0] = 1.0
        p.visual_bias[0] = 0.5
        p.item_bias[0] = 0.1
        assert model.score(0, 0) == pytest.approx(7.6, abs=1e-12)

    def test_category_bias_added(self):
        corpus = flat_corpus()
        config = ModelConfig(1, 0, AllocationScheme(()),
                             use_visual_bias=False, use_category_bias=True)
        model = PreferenceModel.create(config, corpus)
        model.params.user_latent[:] = 0.0
        model.params.category_bias[corpus.item_leaf[2]] = 0.75
        assert model.score(0, 2) == pytest.approx(0.75)

    def test_bounds_checks(self):
        corpus = flat_corpus()
        config = ModelConfig(1, 0, AllocationScheme(()))
        model = PreferenceModel.create(config, corpus)
        with pytest.raises(UnknownUser):
            model.score(5, 0)
        with pytest.raises(UnknownItem):
            model.score(0, 9)


class TestScoreMargin:
    def test_identical_items_margin_zero(self, rng):
        items = {"a": "root", "b": "root"}
        f = rng.normal(size=3)
        corpus = build_corpus([], items, {"a": f, "b": f},
                              [("u0", "a"), ("u0", "b")])
        config = ModelConfig(2, 2, AllocationScheme((2,)), rng_seed=1)
        model = PreferenceModel.create(config, corpus)
        p = model.params
        p.item_latent[1] = p.item_latent[0]
        trainer = Trainer(model, TrainConfig())
        assert trainer.margin(0, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetry(self, rng):
        corpus = flat_corpus(rng_seed=3)
        config = ModelConfig(2, 2, AllocationScheme((2,)), rng_seed=4)
        model = PreferenceModel.create(config, corpus)
        trainer = Trainer(model, TrainConfig())
        m = trainer.margin(1, 0, 3)
        assert trainer.margin(1, 3, 0) == pytest.approx(-m, abs=1e-12)

    def test_two_call_oracle(self, rng):
        corpus = flat_corpus(n_items=6, feature_dim=4, rng_seed=5)
        config = ModelConfig(3, 3, AllocationScheme((3,)),
                             use_visual_bias=True, rng_seed=6)
        model = PreferenceModel.create(config, corpus)
        model.params.item_bias[:] = rng.normal(size=6)
        model.params.visual_bias[:] = rng.normal(size=4)
        trainer = Trainer(model, TrainConfig())
        for _ in range(20):
            i, j = rng.choice(6, size=2, replace=False)
            u = int(rng.integers(2))
            direct = trainer.margin(u, int(i), int(j))
            oracle = model.score(u, int(i)) - model.score(u, int(j))
            assert direct == pytest.approx(oracle, abs=1e-12)


class TestModelParams:
    def test_check_finite_sees_segment_nan(self):
        corpus = flat_corpus()
        config = ModelConfig(1, 2, AllocationScheme((2,)), rng_seed=3)
        params = PreferenceModel.create(config, corpus).params
        params.check_finite()
        params.segments.blocks[0][1, 0] = np.nan
        with pytest.raises(ValueError, match="segments"):
            params.check_finite()


class TestMakeBaseline:
    def test_vbpr_gets_all_root_scheme(self):
        config = make_baseline(KIND_VBPR, total_dims=20, visual_dims=10)
        assert config.scheme.per_layer == (10,)
        assert config.n_latent == 10
        assert config.use_visual_bias
        assert not config.use_category_bias

    def test_vbprc_adds_category_bias(self):
        config = make_baseline(KIND_VBPRC, total_dims=20, visual_dims=10)
        assert config.use_category_bias

    def test_bprmf_disables_visual_terms(self):
        config = make_baseline(KIND_BPRMF, total_dims=20)
        assert config.n_visual == 0
        assert config.n_latent == 20
        assert not config.use_visual_bias

    def test_rand_is_empty(self):
        config = make_baseline(KIND_RAND)
        assert config.n_latent == 0 and config.n_visual == 0

    def test_hierarchical_schemes_pass_through(self):
        for per_layer in ((5, 3, 2), (6, 2, 1, 1), (3, 4, 3)):
            config = make_baseline(KIND_HVBPR, total_dims=20, visual_dims=10,
                                   scheme=AllocationScheme(per_layer))
            assert config.scheme.per_layer == per_layer
            assert config.n_visual == 10

    def test_multi_layer_scheme_rejected_for_vbpr(self):
        with pytest.raises(InvalidSchemeForBaseline):
            make_baseline(KIND_VBPR, scheme=AllocationScheme((5, 5)))

    def test_missing_scheme_rejected_for_hierarchical(self):
        with pytest.raises(InvalidSchemeForBaseline):
            make_baseline(KIND_HVBPR)
        with pytest.raises(InvalidSchemeForBaseline):
            make_baseline(KIND_HVBPR, visual_dims=10,
                          scheme=AllocationScheme((4, 4)))

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            ModelConfig(0, 0, AllocationScheme(()))  # needs a dimension
        with pytest.raises(ValueError):
            ModelConfig(2, 3, AllocationScheme((2,)))  # scheme total mismatch
        # The kind must match the configuration it names.
        for n_latent, scheme, kind, category_bias in (
                (2, (), KIND_RAND, False),
                (0, (1,), KIND_RAND, False),
                (2, (3,), KIND_BPRMF, False),
                (2, (2, 1), KIND_VBPR, False),
                (2, (2, 1), KIND_VBPRC, True),
                (2, (3,), KIND_VBPRC, False)):
            with pytest.raises(ValueError, match=kind):
                ModelConfig(n_latent, sum(scheme), AllocationScheme(scheme),
                            use_category_bias=category_bias, kind=kind)
        # A trailing empty layer is still an all-root scheme.
        ModelConfig(2, 3, AllocationScheme((3, 0)), kind=KIND_VBPR)
        for kind in KINDS:  # every named baseline passes
            layered = AllocationScheme((5, 5)) if kind == KIND_HVBPR else None
            make_baseline(kind, scheme=layered)


class TestRankByDimension:
    def test_tie_break_by_item_id(self):
        features = {f"i{k}": [1.0, 1.0] for k in range(5)}
        items = {f"i{k}": "root" for k in range(5)}
        corpus = build_corpus([], items, features, [("u0", "i0")])
        config = ModelConfig(0, 2, AllocationScheme((2,)), rng_seed=0)
        model = PreferenceModel.create(config, corpus)
        ranked = model.item_table().rank_by_dimension(0, top_n=5)
        assert [corpus.item_ids[i] for i, _ in ranked] == [
            "i0", "i1", "i2", "i3", "i4"]

    def test_known_scores_top2(self):
        # Scores 3, 1, 4, 1, 5 on dimension 0 -> items with 5 and 4 lead.
        features = {f"i{k}": [v] for k, v in enumerate([3.0, 1.0, 4.0, 1.0, 5.0])}
        items = {f"i{k}": "root" for k in range(5)}
        corpus = build_corpus([], items, features, [("u0", "i0")])
        config = ModelConfig(0, 1, AllocationScheme((1,)), rng_seed=0)
        model = PreferenceModel.create(config, corpus)
        model.params.segments.blocks[0][0, 0] = 1.0
        ranked = model.item_table().rank_by_dimension(0, top_n=2)
        assert [corpus.item_ids[i] for i, _ in ranked] == ["i4", "i2"]
        assert [s for _, s in ranked] == [5.0, 4.0]

    def test_full_sort_oracle_on_random_items(self, rng):
        n = 1000
        features = {f"i{k:04d}": rng.normal(size=3) for k in range(n)}
        items = {item: "root" for item in features}
        corpus = build_corpus([], items, features, [("u0", "i0000")])
        config = ModelConfig(0, 2, AllocationScheme((2,)), rng_seed=7)
        model = PreferenceModel.create(config, corpus)
        ranked = model.item_table().rank_by_dimension(1, top_n=50)
        scores = [model.project(i)[1] for i in range(n)]
        oracle = sorted(range(n), key=lambda i: (-scores[i], corpus.item_ids[i]))
        assert [i for i, _ in ranked] == oracle[:50]

    def test_category_restriction(self, rng):
        edges = [("a", "root"), ("b", "root")]
        items = {f"i{k}": ("a" if k % 2 == 0 else "b") for k in range(10)}
        features = {item: rng.normal(size=2) for item in items}
        corpus = build_corpus(edges, items, features, [("u0", "i0")])
        config = ModelConfig(0, 2, AllocationScheme((1, 1)), rng_seed=3)
        model = PreferenceModel.create(config, corpus)
        cat = corpus.hierarchy.node_of("a")
        ranked = model.item_table().rank_by_dimension(0, top_n=10,
                                                      category=cat)
        assert all(corpus.item_leaf[i] == cat for i, _ in ranked)
        assert len(ranked) == 5

    def test_dimension_out_of_range(self):
        corpus = flat_corpus()
        config = ModelConfig(0, 2, AllocationScheme((2,)))
        model = PreferenceModel.create(config, corpus)
        table = model.item_table()
        for d in (2, -1):
            with pytest.raises(DimensionOutOfRange):
                table.rank_by_dimension(d, top_n=1)

    def test_learned_root_dimension_tracks_planted_root_structure(self):
        # After training, a root-layer dimension should align with the
        # planted shared rows much better than with any leaf-specific row.
        cfg = SynthConfig(n_users=250, n_items=500, feature_dim=48,
                          branching=(4,), n_positives=8,
                          planted_scheme=(2, 2), center_scale=0.0,
                          unit_norm_items=True, rng_seed=21)
        corpus, gt = make_corpus(cfg)
        tc, _split = split_leave_one_out(corpus, 2)
        model = PreferenceModel.create(
            make_baseline(KIND_HVBPR, total_dims=8, visual_dims=4,
                          scheme=AllocationScheme((2, 2)), rng_seed=4),
            corpus)
        from hierbpr.training import TrainConfig, train
        train(model, tc, TrainConfig(learning_rate=0.05, iterations=20,
                                     rng_seed=6))
        true_items = np.array(gt["true_item_vectors"])
        learned = model.item_table().theta[:, 0]
        corr = [abs(np.corrcoef(learned, true_items[:, k])[0, 1])
                for k in range(4)]
        root_best = max(corr[:2])     # planted root rows
        leaf_best = max(corr[2:])     # planted per-leaf rows
        assert root_best > leaf_best
        assert root_best > 0.5


class TestRandBaseline:
    def test_rand_scores_deterministic_and_uniformish(self):
        a = rand_scores(7, 11, 1000)
        b = rand_scores(7, 11, 1000)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))
        assert abs(a.mean() - 0.5) < 0.05
        assert not np.array_equal(a, rand_scores(8, 11, 1000))
        assert not np.array_equal(a, rand_scores(7, 12, 1000))

    def test_rand_auc_near_half_desk_scale(self):
        cfg = SynthConfig(n_users=220, n_items=520, feature_dim=8,
                          branching=(4,), n_positives=4,
                          planted_scheme=(2, 2), rng_seed=5)
        corpus, _ = make_corpus(cfg)
        _tc, split = split_leave_one_out(corpus, 3)
        model = PreferenceModel.create(make_baseline(KIND_RAND, rng_seed=0),
                                       corpus)
        result = auc(model, corpus.positives, split)
        assert abs(result.auc - 0.5) < 0.02


class TestConfigurationEquivalence:
    def test_all_root_hierarchical_equals_vbpr(self):
        cfg = SynthConfig(n_users=30, n_items=60, feature_dim=6,
                          branching=(3,), n_positives=4,
                          planted_scheme=(2, 2), rng_seed=2)
        corpus, _ = make_corpus(cfg)
        tc, _split = split_leave_one_out(corpus, 1)
        vbpr = PreferenceModel.create(
            make_baseline(KIND_VBPR, total_dims=8, visual_dims=4, rng_seed=9),
            corpus)
        hier = PreferenceModel.create(
            make_baseline(KIND_HVBPR, total_dims=8, visual_dims=4,
                          scheme=AllocationScheme((4,)), rng_seed=9),
            corpus)
        tconfig = TrainConfig(learning_rate=0.05, iterations=1, rng_seed=13)
        for model in (vbpr, hier):
            trainer = Trainer(model, tconfig)
            stream = np.random.default_rng(99)
            for _ in range(200):
                trainer.step(*sample_triple(tc, stream))
        for u in range(corpus.n_users):
            assert np.allclose(vbpr.score_all(u), hier.score_all(u),
                               atol=1e-10)
