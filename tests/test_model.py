from dataclasses import fields

import numpy as np
import pytest

from hierbpr.checkpoint import save_checkpoint
from hierbpr.errors import DimensionOutOfRange, UnknownItem
from hierbpr.evaluation import auc, split_leave_one_out
from hierbpr.hierarchy import AllocationScheme
from hierbpr.model import (
    KIND_BPRMF,
    KIND_HVBPR,
    KIND_RAND,
    KIND_VBPR,
    KIND_VBPRC,
    KINDS,
    ItemTable,
    ModelConfig,
    PreferenceModel,
    rand_scores,
)
from hierbpr.synthdata import SynthConfig, make_corpus
from hierbpr.training import TrainConfig, Trainer, sample_triple

import reference
from conftest import build_corpus


def flat_corpus(n_items=4, feature_dim=2, rng_seed=0):
    """Single-layer tree, deterministic small features, two users."""
    rng = np.random.default_rng(rng_seed)
    items = {f"i{k}": "root" for k in range(n_items)}
    features = {item: rng.normal(size=feature_dim) for item in items}
    feedback = [("u0", "i0"), ("u0", "i1"), ("u1", "i2"), ("u1", "i3")]
    return build_corpus([], items, features, feedback)


def score(model, u, i):
    """One pair's score on the path every AUC and ranking takes."""
    return model.item_table().score_all(u)[i]


class TestScore:
    def test_all_zero_parameters_score_zero(self):
        corpus = flat_corpus()
        config = ModelConfig(2, AllocationScheme((2,)), rng_seed=0)
        model = PreferenceModel.create(config, corpus)
        for arr in model.params.arrays().values():
            arr[:] = 0.0
        assert score(model, 0, 1) == 0.0

    def test_bias_only_scoring(self):
        # The config contract requires at least one rating dimension, so the
        # bias-only behaviour is exercised with a zeroed latent factor.
        corpus = flat_corpus()
        config = ModelConfig(1, use_visual_bias=False)
        model = PreferenceModel.create(config, corpus)
        model.params.user_latent[:] = 0.0
        model.params.item_latent[:] = 0.0
        model.params.item_bias[:] = 0.25
        for u in range(2):
            for i in range(4):
                assert score(model, u, i) == 0.25

    def test_hand_computed_full_predictor(self):
        # One latent and one visual dimension at feature length 1:
        # 2*3 (latent) + 1*1 (visual) + 0.5 (visual bias) + 0.1 (item bias).
        corpus = build_corpus([], {"i0": "root"}, {"i0": [1.0]},
                              [("u0", "i0")])
        config = ModelConfig(1, AllocationScheme((1,)),
                             use_visual_bias=True, rng_seed=0)
        model = PreferenceModel.create(config, corpus)
        p = model.params
        p.user_latent[0, 0] = 2.0
        p.item_latent[0, 0] = 3.0
        p.user_visual[0, 0] = 1.0
        p.segments.blocks[0][0, 0] = 1.0
        p.visual_bias[0] = 0.5
        p.item_bias[0] = 0.1
        assert score(model, 0, 0) == pytest.approx(7.6, abs=1e-12)

    def test_category_bias_added(self):
        corpus = flat_corpus()
        config = ModelConfig(1, use_visual_bias=False, use_category_bias=True)
        model = PreferenceModel.create(config, corpus)
        model.params.user_latent[:] = 0.0
        model.params.category_bias[corpus.item_leaf[2]] = 0.75
        assert score(model, 0, 2) == pytest.approx(0.75)


class TestScoreMargin:
    def test_identical_items_margin_zero(self, rng):
        items = {"a": "root", "b": "root"}
        f = rng.normal(size=3)
        corpus = build_corpus([], items, {"a": f, "b": f},
                              [("u0", "a"), ("u0", "b")])
        config = ModelConfig(2, AllocationScheme((2,)), rng_seed=1)
        model = PreferenceModel.create(config, corpus)
        p = model.params
        p.item_latent[1] = p.item_latent[0]
        trainer = Trainer(model, TrainConfig())
        assert trainer.margin(0, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetry(self, rng):
        corpus = flat_corpus(rng_seed=3)
        config = ModelConfig(2, AllocationScheme((2,)), rng_seed=4)
        model = PreferenceModel.create(config, corpus)
        trainer = Trainer(model, TrainConfig())
        m = trainer.margin(1, 0, 3)
        assert trainer.margin(1, 3, 0) == pytest.approx(-m, abs=1e-12)

    def test_two_call_oracle(self, rng):
        corpus = flat_corpus(n_items=6, feature_dim=4, rng_seed=5)
        config = ModelConfig(3, AllocationScheme((3,)),
                             use_visual_bias=True, rng_seed=6)
        model = PreferenceModel.create(config, corpus)
        model.params.item_bias[:] = rng.normal(size=6)
        model.params.visual_bias[:] = rng.normal(size=4)
        trainer = Trainer(model, TrainConfig())
        for _ in range(20):
            i, j = rng.choice(6, size=2, replace=False)
            u = int(rng.integers(2))
            direct = trainer.margin(u, int(i), int(j))
            oracle = reference.margin(model, u, int(i), int(j))
            assert direct == pytest.approx(oracle, abs=1e-12)


class TestModelParams:
    def test_check_finite_sees_segment_nan(self):
        corpus = flat_corpus()
        config = ModelConfig(1, AllocationScheme((2,)), rng_seed=3)
        params = PreferenceModel.create(config, corpus).params
        params.check_finite()
        params.segments.blocks[0][1, 0] = np.nan
        with pytest.raises(ValueError, match="segments"):
            params.check_finite()


# A manifest-style model section per kind, and the config the
# per-kind baseline helper of earlier releases built for it
# (20 rating dimensions, 10 of them visual, seed 5).
BASELINE_SECTIONS = {
    KIND_RAND: ({"kind": "RAND"},
                {"kind": "RAND", "n_latent": 0, "n_visual": 0, "scheme": [],
                 "use_visual_bias": False, "use_category_bias": False,
                 "rng_seed": 5}),
    KIND_BPRMF: ({"kind": "BPR-MF", "n_latent": 20},
                 {"kind": "BPR-MF", "n_latent": 20, "n_visual": 0,
                  "scheme": [], "use_visual_bias": False,
                  "use_category_bias": False, "rng_seed": 5}),
    KIND_VBPR: ({"kind": "VBPR", "n_latent": 10, "scheme": [10]},
                {"kind": "VBPR", "n_latent": 10, "n_visual": 10,
                 "scheme": [10], "use_visual_bias": True,
                 "use_category_bias": False, "rng_seed": 5}),
    KIND_VBPRC: ({"kind": "VBPR-C", "n_latent": 10, "n_visual": 10,
                  "scheme": [10]},
                 {"kind": "VBPR-C", "n_latent": 10, "n_visual": 10,
                  "scheme": [10], "use_visual_bias": True,
                  "use_category_bias": True, "rng_seed": 5}),
    KIND_HVBPR: ({"n_latent": 10, "scheme": [5, 5]},
                 {"kind": "HVBPR", "n_latent": 10, "n_visual": 10,
                  "scheme": [5, 5], "use_visual_bias": True,
                  "use_category_bias": False, "rng_seed": 5}),
}


class TestMakeBaseline:
    """Every baseline is made by ``ModelConfig.from_dict`` from a section."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_section_gives_the_baseline(self, kind):
        section, expected = BASELINE_SECTIONS[kind]
        config = ModelConfig.from_dict({**section, "rng_seed": 5})
        assert config.to_dict() == expected
        assert ModelConfig.from_dict(config.to_dict()) == config

    def test_vbpr_gets_all_root_scheme(self):
        config = ModelConfig.from_dict({"kind": KIND_VBPR, "n_latent": 10,
                                        "scheme": [10]})
        assert config.scheme.per_layer == (10,)
        assert config.n_latent == 10 and config.n_visual == 10
        assert config.use_visual_bias
        assert not config.use_category_bias

    def test_vbprc_adds_category_bias(self):
        section = {"kind": KIND_VBPRC, "n_latent": 10, "scheme": [10]}
        assert ModelConfig.from_dict(section).use_category_bias
        assert ModelConfig(10, AllocationScheme((10,)),
                           kind=KIND_VBPRC).use_category_bias
        with pytest.raises(ValueError, match="use_category_bias"):
            ModelConfig.from_dict({**section, "use_category_bias": False})

    def test_bprmf_disables_visual_terms(self):
        # The dataclass and from_dict share one default rule.
        for config in (ModelConfig.from_dict({"kind": KIND_BPRMF,
                                              "n_latent": 20}),
                       ModelConfig(20, kind=KIND_BPRMF)):
            assert config.n_visual == 0
            assert config.n_latent == 20
            assert not config.use_visual_bias
            assert not config.use_category_bias
        assert (ModelConfig.from_dict({"kind": KIND_BPRMF, "n_latent": 20})
                == ModelConfig(20, kind=KIND_BPRMF))

    def test_rand_is_empty(self):
        config = ModelConfig.from_dict({"kind": KIND_RAND})
        assert config.n_latent == 0 and config.n_visual == 0
        assert config == ModelConfig(kind=KIND_RAND)

    def test_hierarchical_schemes_pass_through(self):
        for per_layer in ((5, 3, 2), (6, 2, 1, 1), (3, 4, 3)):
            config = ModelConfig.from_dict({"n_latent": 10,
                                            "scheme": list(per_layer)})
            assert config.kind == KIND_HVBPR
            assert config.scheme.per_layer == per_layer
            assert config.n_visual == 10
            assert config.use_visual_bias

    def test_multi_layer_scheme_rejected_for_vbpr(self):
        for kind in (KIND_VBPR, KIND_VBPRC):
            with pytest.raises(ValueError, match="root"):
                ModelConfig.from_dict({"kind": kind, "scheme": [5, 5]})

    def test_missing_scheme_rejected_for_hierarchical(self):
        with pytest.raises(ValueError, match="rating dimension"):
            ModelConfig.from_dict({"kind": KIND_HVBPR})
        with pytest.raises(ValueError, match="n_visual is 10"):
            ModelConfig.from_dict({"n_visual": 10, "scheme": [4, 4]})
        config = ModelConfig.from_dict({"n_visual": 8, "scheme": [4, 4]})
        assert config.n_visual == 8

    def test_unknown_key_rejected(self):
        # A misspelt key must not leave its field at the default.
        with pytest.raises(ValueError, match="n_latnet"):
            ModelConfig.from_dict({"n_latnet": 10, "scheme": [5]})

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            ModelConfig(0)  # needs a dimension
        with pytest.raises(ValueError):
            ModelConfig(kind="VBPR-D")  # unknown kind
        # The kind must match the configuration it names.
        for n_latent, scheme, kind, category_bias in (
                (2, (), KIND_RAND, False),
                (0, (1,), KIND_RAND, False),
                (2, (3,), KIND_BPRMF, False),
                (2, (2, 1), KIND_VBPR, False),
                (2, (2, 1), KIND_VBPRC, True),
                (2, (3,), KIND_VBPRC, False)):
            with pytest.raises(ValueError, match=kind):
                ModelConfig(n_latent, AllocationScheme(scheme),
                            use_category_bias=category_bias, kind=kind)
        # A trailing empty layer is still an all-root scheme.
        ModelConfig(2, AllocationScheme((3, 0)), kind=KIND_VBPR)
        # Explicit flags win over the default rule.
        config = ModelConfig(2, AllocationScheme((2,)), use_visual_bias=False,
                             use_category_bias=True)
        assert not config.use_visual_bias and config.use_category_bias
        assert [f.name for f in fields(ModelConfig)] == [
            "n_latent", "scheme", "use_visual_bias", "use_category_bias",
            "rng_seed", "kind"]


class TestRankByDimension:
    def test_tie_break_by_item_id(self):
        features = {f"i{k}": [1.0, 1.0] for k in range(5)}
        items = {f"i{k}": "root" for k in range(5)}
        corpus = build_corpus([], items, features, [("u0", "i0")])
        config = ModelConfig(0, AllocationScheme((2,)), rng_seed=0)
        model = PreferenceModel.create(config, corpus)
        ranked = model.item_table().rank_by_dimension(0, top_n=5)
        assert [corpus.item_ids[i] for i, _ in ranked] == [
            "i0", "i1", "i2", "i3", "i4"]

    def test_known_scores_top2(self):
        # Scores 3, 1, 4, 1, 5 on dimension 0 -> items with 5 and 4 lead.
        features = {f"i{k}": [v] for k, v in enumerate([3.0, 1.0, 4.0, 1.0, 5.0])}
        items = {f"i{k}": "root" for k in range(5)}
        corpus = build_corpus([], items, features, [("u0", "i0")])
        config = ModelConfig(0, AllocationScheme((1,)), rng_seed=0)
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
        config = ModelConfig(0, AllocationScheme((2,)), rng_seed=7)
        model = PreferenceModel.create(config, corpus)
        ranked = model.item_table().rank_by_dimension(1, top_n=50)
        backing = model.params.segments.backing
        parent = corpus.hierarchy.parent
        scores = [reference.project(backing, (2,), parent,
                                    int(corpus.item_leaf[i]),
                                    corpus.features[i])[1] for i in range(n)]
        oracle = sorted(range(n), key=lambda i: (-scores[i], corpus.item_ids[i]))
        assert [i for i, _ in ranked] == oracle[:50]

    @pytest.mark.parametrize("top_n", [1, 2, 7, 31, 59, 60, 200])
    def test_ties_match_whole_column_argsort(self, rng, top_n):
        # Scores on a coarse grid (signed zeros included) tie heavily, and
        # one column holds NaNs: every list is the head of the stable
        # argsort of the whole (restricted) column.
        n = 60
        theta = rng.integers(-3, 4, size=(n, 3)) / 2.0
        theta[::7, 0] = -0.0
        theta[[3, 17, 40], 2] = np.nan
        leaf = rng.integers(0, 3, size=n)
        table = ItemTable(theta, np.zeros((n, 0)), np.zeros(n), leaf,
                          np.zeros((1, 3)), np.zeros((1, 0)))
        for d in range(3):
            for category in (None, 0, 2):
                items = (np.arange(n) if category is None
                         else np.flatnonzero(leaf == category))
                col = theta[items, d]
                expected = items[np.argsort(-col, kind="stable")[:top_n]]
                ranked = table.rank_by_dimension(d, top_n, category=category)
                assert [i for i, _ in ranked] == expected.tolist()
                assert np.array_equal([s for _, s in ranked],
                                      theta[expected, d], equal_nan=True)

    def test_category_restriction(self, rng):
        edges = [("a", "root"), ("b", "root")]
        items = {f"i{k}": ("a" if k % 2 == 0 else "b") for k in range(10)}
        features = {item: rng.normal(size=2) for item in items}
        corpus = build_corpus(edges, items, features, [("u0", "i0")])
        config = ModelConfig(0, AllocationScheme((1, 1)), rng_seed=3)
        model = PreferenceModel.create(config, corpus)
        cat = corpus.hierarchy.node_of("a")
        ranked = model.item_table().rank_by_dimension(0, top_n=10,
                                                      category=cat)
        assert all(corpus.item_leaf[i] == cat for i, _ in ranked)
        assert len(ranked) == 5

    def test_category_without_items(self, rng):
        edges = [("a", "root"), ("b", "root")]
        items = {"i0": "a", "i1": "a"}
        features = {item: rng.normal(size=2) for item in items}
        corpus = build_corpus(edges, items, features, [("u0", "i0")])
        table = PreferenceModel.create(
            ModelConfig(0, AllocationScheme((1, 1))), corpus).item_table()
        # The root holds no item directly, and leaf b holds none at all.
        for name in ("root", "b"):
            node = corpus.hierarchy.node_of(name)
            with pytest.raises(UnknownItem,
                               match=f"index {node} holds no items"):
                table.rank_by_dimension(0, top_n=10, category=node)

    def test_dimension_out_of_range(self):
        corpus = flat_corpus()
        config = ModelConfig(0, AllocationScheme((2,)))
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
            ModelConfig(4, AllocationScheme((2, 2)), rng_seed=4),
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
        model = PreferenceModel.create(ModelConfig(kind=KIND_RAND, rng_seed=0),
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
            ModelConfig(4, AllocationScheme((4,)), rng_seed=9, kind=KIND_VBPR),
            corpus)
        hier = PreferenceModel.create(
            ModelConfig(4, AllocationScheme((4,)), rng_seed=9),
            corpus)
        tconfig = TrainConfig(learning_rate=0.05, iterations=1, rng_seed=13)
        for model in (vbpr, hier):
            trainer = Trainer(model, tconfig)
            stream = np.random.default_rng(99)
            for u, i, j in sample_triple(tc, stream, 200).tolist():
                trainer.step(u, i, j)
        for u in range(corpus.n_users):
            assert np.allclose(vbpr.score_all(u), hier.score_all(u),
                               atol=1e-10)


class TestOneProductScorer:
    """``ItemTable.score_all``'s single product against the plain-loop
    scorer, for every shape of the ``[theta_u | gamma_u | 1]`` rows."""

    CONFIGS = {
        "bprmf": ModelConfig(3, kind=KIND_BPRMF),
        "vbpr_no_latent": ModelConfig(0, AllocationScheme((3,)),
                                      kind=KIND_VBPR),
        "vbprc": ModelConfig(2, AllocationScheme((3,)), kind=KIND_VBPRC),
        "hvbpr_three_layers": ModelConfig(2, AllocationScheme((2, 1, 1))),
    }

    @pytest.fixture(params=sorted(CONFIGS))
    def model(self, request):
        cfg = SynthConfig(n_users=12, n_items=30, feature_dim=5,
                          branching=(2, 2), n_positives=3,
                          planted_scheme=(2, 1), rng_seed=8)
        corpus, _ = make_corpus(cfg)
        config = self.CONFIGS[request.param]
        model = PreferenceModel.create(
            ModelConfig.from_dict({**config.to_dict(), "rng_seed": 4}), corpus)
        # Nonzero offsets, so the ones column of the user rows is exercised.
        rng = np.random.default_rng(5)
        p = model.params
        p.item_bias[:] = rng.normal(size=p.item_bias.shape)
        p.visual_bias[:] = rng.normal(size=p.visual_bias.shape)
        if p.category_bias is not None:
            p.category_bias[:] = rng.normal(size=p.category_bias.shape)
        return model

    def test_blocks_match_reference(self, model):
        table = model.item_table()
        expected = np.array([[reference.score(model, u, i)
                              for i in range(model.n_items)]
                             for u in range(model.n_users)])
        # Grow the buffer to 3 rows, score a single user and a partial block
        # inside it, then a block larger than it, which reallocates.
        for users in (np.array([4, 0, 9]), 7, np.array([11]),
                      np.array([2, 5]), np.arange(1, 9)):
            scores = table.score_all(users)
            assert scores.shape == expected[users].shape
            np.testing.assert_allclose(scores, expected[users], rtol=0,
                                       atol=1e-12)

    def test_table_values_survive_the_first_product(self, model):
        # The first product rebinds theta, latent and base to views of the
        # item matrix; ranking and checkpoints read them afterwards.
        table = model.item_table()
        names = ("theta", "latent", "base")
        before = {name: getattr(table, name).copy() for name in names}
        table.score_all(np.arange(3))
        for name in names:
            assert np.array_equal(getattr(table, name), before[name])

    def test_checkpoint_bytes_do_not_depend_on_scoring(self, model, tmp_path,
                                                       monkeypatch):
        training, split = split_leave_one_out(model.corpus, 0)
        members = (split, {"split": 0}, training.item_counts())
        save_checkpoint(tmp_path / "fresh.ckpt", model, *members)
        table = model.item_table()
        table.score_all(np.arange(model.n_users))
        monkeypatch.setattr(model, "item_table", lambda: table)
        save_checkpoint(tmp_path / "scored.ckpt", model, *members)
        assert ((tmp_path / "fresh.ckpt").read_bytes()
                == (tmp_path / "scored.ckpt").read_bytes())
