import numpy as np
import pytest

from hierbpr.errors import (
    EmptyCorpus,
    ExhaustedRejection,
    NonFiniteUpdate,
)
from hierbpr.evaluation import EvalSplit, auc, split_leave_one_out
from hierbpr.hierarchy import AllocationScheme
from hierbpr.ingestion import TrainingCorpus
from hierbpr.model import (
    KIND_VBPR,
    ModelConfig,
    PreferenceModel,
)
from hierbpr.synthdata import SynthConfig, make_corpus
from hierbpr.training import (
    RegWeights,
    TrainConfig,
    Trainer,
    _STEP_BUFSIZE,
    _sigmoid,
    sample_triple,
    train,
)

import reference
from conftest import (
    TREE3_EDGES,
    TREE3_LEAVES,
    build_corpus,
    log_sigmoid,
    numeric_gradient,
    per_triple_cost_probe,
    relative_error,
    training_corpus,
)


def tiny_model(rng_seed=0, n_items=6, n_users=3, feature_dim=4,
               use_visual_bias=True, use_category_bias=False,
               n_latent=2, scheme=(2, 1)):
    """Two-layer tree, three leaves, randomized features and positives."""
    rng = np.random.default_rng(rng_seed)
    edges = [(f"leaf{k}", "root") for k in range(3)]
    items = {f"i{k}": f"leaf{k % 3}" for k in range(n_items)}
    features = {}
    for item in items:
        vec = rng.uniform(0.5, 1.5, size=feature_dim)
        vec *= rng.choice([-1.0, 1.0], size=feature_dim)
        features[item] = vec
    feedback = []
    for u in range(n_users):
        for k, item in enumerate(sorted(items)):
            if (u + k) % 2 == 0:
                feedback.append((f"u{u}", item))
    corpus = build_corpus(edges, items, features, feedback)
    scheme = AllocationScheme(scheme)
    config = ModelConfig(n_latent, scheme,
                         use_visual_bias=use_visual_bias,
                         use_category_bias=use_category_bias,
                         rng_seed=rng_seed + 1)
    model = PreferenceModel.create(config, corpus)
    # Spread the zero-initialized groups so gradients are generic.
    model.params.item_bias[:] = rng.normal(scale=0.1, size=n_items)
    model.params.visual_bias[:] = rng.normal(scale=0.1, size=feature_dim)
    if use_category_bias:
        model.params.category_bias[:] = rng.normal(
            scale=0.1, size=corpus.hierarchy.n_nodes)
    return model


def training_corpus_of(model):
    positives = model.corpus.positives
    return TrainingCorpus(train_pos=positives, full_pos=positives)


def check_gradient(model, triple, spots):
    """Check one step against finite differences at ``(name, index)`` spots.

    With the rate at 1 and no shrinkage a step's change to each parameter is
    the gradient of ln sigmoid(margin) at the pre-step values; the numeric
    gradient differences the reference margin. Spots where both are below
    1e-9 are skipped. Leaves the parameters as they were before the step and
    returns how many spots were compared.
    """
    u, i, j = triple
    saved = model.params.copy()
    config = TrainConfig(learning_rate=1.0, reg=RegWeights(0, 0, 0, 0, 0, 0))
    Trainer(model, config).step(u, i, j)
    stepped = model.params.arrays()
    model.params = saved
    arrays = saved.arrays()
    checked = 0
    for name, idx in spots:
        analytic = stepped[name][idx] - arrays[name][idx]
        numeric = numeric_gradient(
            lambda: log_sigmoid(reference.margin(model, u, i, j)),
            arrays[name], idx)
        if abs(numeric) < 1e-9 and abs(analytic) < 1e-9:
            continue
        assert relative_error(analytic, numeric) < 1e-4, (
            name, idx, analytic, numeric)
        checked += 1
    return checked


def changed_rows(before, model):
    """Per parameter array, the rows whose bits differ from ``before``."""
    return {name: set(np.flatnonzero(np.any(
                arr != before[name], axis=tuple(range(1, arr.ndim)))).tolist())
            for name, arr in model.params.arrays().items()}


def chi_square(counts, expected):
    counts = np.asarray(counts, dtype=float)
    return float(((counts - expected) ** 2 / expected).sum())


class TestSampleTriple:
    def test_forced_negative(self):
        corpus = training_corpus([[0]], [[0]], n_items=2)
        triples = sample_triple(corpus, np.random.default_rng(0), 50)
        assert triples.shape == (50, 3)
        assert triples.dtype == np.int64
        assert (triples == [0, 0, 1]).all()

    def test_negative_never_positive(self):
        model = tiny_model()
        tc = training_corpus_of(model)
        triples = sample_triple(tc, np.random.default_rng(7), 10 ** 6)
        u, i, j = triples.T
        n_items = tc.n_items
        assert np.isin(u * n_items + i, tc.train_pos.keys()).all()
        sampled = np.isin(u * n_items + j, tc.full_pos.keys())
        if sampled.any():
            k = int(np.argmax(sampled))
            raise AssertionError(f"sampled positive {j[k]} for user {u[k]}")

    def test_user_distribution_uniform(self):
        n_users = 10
        rows = [[u % 3] for u in range(n_users)]
        corpus = training_corpus(rows, rows, n_items=50)
        draws = 10 ** 5
        u = sample_triple(corpus, np.random.default_rng(11), draws)[:, 0]
        counts = np.bincount(u, minlength=n_users)
        # chi-square critical value, 9 degrees of freedom, p = 0.01
        assert chi_square(counts, draws / n_users) < 21.666

    def test_exhausted_rejection(self):
        corpus = training_corpus([[0, 1]], [[0, 1]], n_items=2)
        with pytest.raises(ExhaustedRejection):
            sample_triple(corpus, np.random.default_rng(0), 1)

    def test_no_training_positive_anywhere(self):
        corpus = training_corpus([[], []], [[0], [1]], n_items=3)
        with pytest.raises(ExhaustedRejection):
            sample_triple(corpus, np.random.default_rng(0), 1)

    def test_empty_training_row_never_drawn(self):
        # User 1's training row is empty (its one positive is held out), so
        # it has no i to offer; users 0 and 2 share the draws.
        corpus = training_corpus([[0, 2], [], [1]], [[0, 2], [3], [1, 4]],
                                 n_items=5)
        u = sample_triple(corpus, np.random.default_rng(3), 4000)[:, 0]
        counts = np.bincount(u, minlength=3)
        assert counts[1] == 0
        # chi-square critical value, 1 degree of freedom, p = 0.01
        assert chi_square(counts[[0, 2]], 2000) < 6.635

    def test_user_with_one_negative_drawn_uniformly(self):
        # User 0 has one non-positive among 2,000 items, user 1 has 1,999.
        n_items = 2000
        scarce = list(range(n_items - 1))
        corpus = training_corpus([scarce, [0]], [scarce, [0]], n_items)
        triples = sample_triple(corpus, np.random.default_rng(5), 4000)
        counts = np.bincount(triples[:, 0], minlength=2)
        # chi-square critical value, 1 degree of freedom, p = 0.01
        assert chi_square(counts, 2000) < 6.635
        assert (triples[triples[:, 0] == 0, 2] == n_items - 1).all()

    def test_positive_distribution_uniform(self):
        train = [[1, 4, 6, 9], [0, 3], [2]]
        full = [[1, 4, 5, 6, 9], [0, 3, 7], [2, 8]]
        corpus = training_corpus(train, full, n_items=12)
        triples = sample_triple(corpus, np.random.default_rng(17), 60000)
        for u, row in enumerate(train):
            i = triples[triples[:, 0] == u, 1]
            counts = [np.count_nonzero(i == p) for p in row]
            assert sum(counts) == len(i)
            # p = 0.01 critical values for 3, 1 and 0 degrees of freedom
            bound = {4: 11.345, 2: 6.635, 1: 0.0}[len(row)]
            assert chi_square(counts, len(i) / len(row)) <= bound

    def test_negative_distribution_uniform(self):
        # Positives at both ends, in runs and alone, held-out items
        # included, so every branch of the rank-to-item map is used.
        n_items = 16
        full = [[0, 1, 5, 6, 7, 10, 15], [3], [], [0, 2, 4, 6, 8, 10, 12, 14]]
        train = [[0, 5, 10], [3], [], [0, 2, 4, 6]]
        corpus = training_corpus(train, full, n_items)
        triples = sample_triple(corpus, np.random.default_rng(23), 90000)
        assert not (triples[:, 0] == 2).any()
        # p = 0.01 critical values for 8, 14 and 7 degrees of freedom
        bounds = {0: 20.090, 1: 29.141, 3: 18.475}
        for u, bound in bounds.items():
            j = triples[triples[:, 0] == u, 2]
            free = sorted(set(range(n_items)) - set(full[u]))
            counts = [np.count_nonzero(j == k) for k in free]
            assert sum(counts) == len(j)
            assert chi_square(counts, len(j) / len(free)) < bound

    def test_one_array_per_epoch(self, monkeypatch):
        calls = []

        def recording(corpus, rng, n):
            triples = sample_triple(corpus, rng, n)
            calls.append(triples)
            return triples

        monkeypatch.setattr("hierbpr.training.sample_triple", recording)
        model = tiny_model()
        tc = training_corpus_of(model)
        train(model, tc, TrainConfig(iterations=3))
        assert [len(t) for t in calls] == [tc.n_interactions] * 3


class TestSgdStep:
    def test_zero_rate_keeps_parameters(self):
        model = tiny_model()
        before = {k: v.copy() for k, v in model.params.arrays().items()}
        Trainer(model, TrainConfig(learning_rate=0.0)).step(0, 0, 1)
        for name, arr in model.params.arrays().items():
            assert np.array_equal(arr, before[name]), name

    def test_zero_user_visual_leaves_segments(self):
        # The segment update is outer(rate * c * theta_u, f): zero upstream.
        model = tiny_model(rng_seed=4)
        model.params.user_visual[0] = 0.0
        seg0 = model.params.segments.backing.copy()
        Trainer(model, TrainConfig(learning_rate=0.5)).step(0, 0, 1)
        assert np.array_equal(model.params.segments.backing, seg0)
        assert np.any(model.params.user_visual[0] != 0.0)

    def test_saturated_sigmoid_pure_shrinkage(self):
        model = tiny_model(use_visual_bias=False)
        # Giant bias gap saturates the sigmoid: c underflows to exactly 0.
        model.params.item_bias[0] = 2000.0
        model.params.item_bias[1] = -2000.0
        reg = RegWeights(bias=0.1, latent=0.2, user_visual=0.2,
                         visual_bias=0.0, segments=0.3, category_bias=0.0)
        config = TrainConfig(learning_rate=0.5, reg=reg)
        p = model.params
        gu0 = p.user_latent[0].copy()
        bias0 = p.item_bias[0]
        seg0 = p.segments.backing.copy()
        trainer = Trainer(model, config)
        trainer.step(0, 0, 1)
        assert p.item_bias[0] == pytest.approx(bias0 * (1 - 0.5 * 0.1))
        assert np.allclose(p.user_latent[0], gu0 * (1 - 0.5 * 0.2))
        # Every block on either path shrinks; the others keep their bits.
        rows = reference.path_rows(model, 0, 1)
        seg = p.segments.backing
        assert np.allclose(seg[rows], seg0[rows] * (1 - 0.5 * 0.3))
        assert np.array_equal(np.delete(seg, rows, 0), np.delete(seg0, rows, 0))

    def test_finite_difference_all_groups(self):
        model = tiny_model(rng_seed=3)
        corpus = model.corpus
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(8):
            u = int(rng.integers(corpus.n_users))
            i, j = (int(x) for x in rng.choice(corpus.n_items, 2, replace=False))
            spots = (
                [("item_bias", (i,)), ("item_bias", (j,))]
                + [("user_latent", (u, k)) for k in range(2)]
                + [("item_latent", (i, 0)), ("item_latent", (j, 1))]
                + [("user_visual", (u, k)) for k in range(3)]
                + [("visual_bias", (k,)) for k in range(4)]
                + [("segments", (r, int(rng.integers(4))))
                   for r in range(len(model.params.segments.backing))])
            checked += check_gradient(model, (u, i, j), spots)
        assert checked > 100

    def test_category_bias_gradient(self):
        model = tiny_model(rng_seed=6, use_category_bias=True)
        # Items 0 and 4 sit on distinct leaves (0 % 3 != 4 % 3).
        spots = [("category_bias", (int(model.item_leaf[k]),)) for k in (0, 4)]
        assert check_gradient(model, (0, 0, 4), spots) == 2

    def test_shared_leaf_category_bias_cancels(self):
        model = tiny_model(rng_seed=8, use_category_bias=True)
        cb0 = model.params.category_bias.copy()
        # Items 0 and 3 share leaf0.
        config = TrainConfig(learning_rate=0.5,
                             reg=RegWeights(category_bias=0.2))
        Trainer(model, config).step(0, 0, 3)
        leaf = int(model.item_leaf[0])
        assert model.params.category_bias[leaf] == pytest.approx(
            cb0[leaf] * (1 - 0.5 * 0.2))

    def test_monotone_local_improvement(self):
        model = tiny_model(rng_seed=9)
        rng = np.random.default_rng(2)
        config = TrainConfig(learning_rate=1e-6,
                             reg=RegWeights(0, 0, 0, 0, 0, 0))
        for _ in range(20):
            u = int(rng.integers(model.corpus.n_users))
            i, j = (int(x) for x in
                    rng.choice(model.corpus.n_items, 2, replace=False))
            before = log_sigmoid(reference.margin(model, u, i, j))
            Trainer(model, config).step(u, i, j)
            after = log_sigmoid(reference.margin(model, u, i, j))
            assert after > before

    def test_untouched_parameters_bit_identical(self):
        model = tiny_model(rng_seed=12)
        before = {name: arr.copy() for name, arr in model.params.arrays().items()}
        u, i, j = 1, 0, 5
        Trainer(model, TrainConfig(learning_rate=0.1)).step(u, i, j)
        changed = changed_rows(before, model)
        assert changed["item_bias"] <= {i, j}
        assert changed["item_latent"] <= {i, j}
        assert changed["user_latent"] <= {u}
        assert changed["user_visual"] <= {u}
        assert changed["segments"] <= set(reference.path_rows(model, i, j))

    def test_non_finite_margin_aborts(self):
        model = tiny_model()
        model.params.item_bias[0] = np.inf
        with pytest.raises(NonFiniteUpdate):
            Trainer(model, TrainConfig(learning_rate=0.1)).step(0, 0, 1)

    def test_regularization_only_fixpoint(self):
        model = tiny_model(use_visual_bias=False, n_latent=2)
        model.params.item_bias[0] = 3000.0
        model.params.item_bias[1] = -3000.0
        reg = RegWeights(bias=0.0, latent=0.5, user_visual=0.5,
                         visual_bias=0.0, segments=0.5, category_bias=0.0)
        config = TrainConfig(learning_rate=0.2, reg=reg)
        trainer = Trainer(model, config)
        norms = []
        for _ in range(25):
            trainer.step(0, 0, 1)
            norms.append(float(np.linalg.norm(model.params.user_latent[0])))
        ratios = [norms[k + 1] / norms[k] for k in range(len(norms) - 1)]
        assert all(abs(r - 0.9) < 1e-9 for r in ratios)  # 1 - 0.2 * 0.5


def tree3_model(use_category_bias=True, scheme=(2, 2, 1)):
    """Three-layer tree, two items per leaf, by default visual rows on
    every layer."""
    rng = np.random.default_rng(21)
    items = {f"{leaf}_{k}": leaf for leaf in TREE3_LEAVES for k in range(2)}
    features = {item: rng.normal(size=4) for item in items}
    feedback = [(f"u{k % 3}", item) for k, item in enumerate(sorted(items))]
    corpus = build_corpus(TREE3_EDGES, items, features, feedback)
    scheme = AllocationScheme(scheme)
    config = ModelConfig(2, scheme, use_visual_bias=True,
                         use_category_bias=use_category_bias, rng_seed=5)
    model = PreferenceModel.create(config, corpus)
    model.params.item_bias[:] = rng.normal(scale=0.1, size=corpus.n_items)
    model.params.visual_bias[:] = rng.normal(scale=0.1, size=4)
    if use_category_bias:
        model.params.category_bias[:] = rng.normal(
            scale=0.1, size=corpus.hierarchy.n_nodes)
    return model


def pair_of(model, first, second):
    """Dense indices of two items, and how many blocks their paths share."""
    ids = model.corpus.item_ids
    i, j = ids.index(first), ids.index(second)
    path_for = model.params.segments.assignment.blocks_for_leaf
    paths = [path_for(int(model.item_leaf[k])) for k in (i, j)]
    return i, j, sum(a == b for a, b in zip(*paths))


def two_loop_step(model, config, u, i, j):
    """Reference step: the segment update as loops over the blocks.

    Every block on either path is shrunk once, in block order; then each
    block on both paths takes su (x) (f_i - f_j), each block on i's path
    only +su (x) f_i, and each block on j's path only (-su) (x) f_j. The
    other groups go through ``Trainer.step`` with the segments put back,
    since only the segment kernel is under test.
    """
    p = model.params
    seg0 = p.segments.backing.copy()
    tu_old = p.user_visual[u].copy()
    trainer = Trainer(model, config)
    ac = config.learning_rate * _sigmoid(-trainer.margin(u, i, j))
    trainer.step(u, i, j)
    p.segments.backing[:] = seg0
    blocks = p.segments.blocks
    path_i = p.segments.assignment.blocks_for_leaf(int(model.item_leaf[i]))
    path_j = p.segments.assignment.blocks_for_leaf(int(model.item_leaf[j]))
    if config.reg.segments:
        shrink = 1.0 - config.learning_rate * config.reg.segments
        for blk in sorted({b for b, _, _ in path_i + path_j}):
            blocks[blk] *= shrink
    features = model.features
    shared = set(path_i) & set(path_j)
    for blk, start, stop in shared:
        blocks[blk] += ((tu_old * ac)[start:stop, None]
                        * (features[i] - features[j])[None, :])
    for su, item, path in ((tu_old * ac, i, path_i),
                           (tu_old * -ac, j, path_j)):
        for blk, start, stop in path:
            if (blk, start, stop) not in shared:
                blocks[blk] += su[start:stop, None] * features[item][None, :]


SHARING_CASES = pytest.mark.parametrize("pair, n_shared", [
    (("skirts_0", "skirts_1"), 3),   # one leaf: every block shared
    (("skirts_0", "boots_1"), 1),    # only the root
    (("skirts_1", "jeans_0"), 2),    # the root and a layer-2 node
], ids=["same_leaf", "root_only", "layer2_shared"])


class TestSegmentKernel:
    @pytest.mark.parametrize("seg_reg", [0.0, 0.3])
    @SHARING_CASES
    def test_bits_match_two_loop_reference(self, seg_reg, pair, n_shared):
        config = TrainConfig(learning_rate=0.7,
                             reg=RegWeights(segments=seg_reg))
        live, ref = tree3_model(), tree3_model()
        i, j, shared = pair_of(live, *pair)
        assert shared == n_shared
        for u in range(live.corpus.n_users):
            Trainer(live, config).step(u, i, j)
            two_loop_step(ref, config, u, i, j)
        for name, arr in live.params.arrays().items():
            assert np.array_equal(arr, ref.params.arrays()[name]), name


REGS = pytest.mark.parametrize("reg", [
    RegWeights(),
    RegWeights(segments=0.3, visual_bias=0.1),
], ids=["default_reg", "segment_and_visual_bias_reg"])


class TestTwoProductReference:
    """The step against ``reference.TwoProductTrainer``, the step that
    took two products for every block on both paths."""

    @REGS
    @pytest.mark.parametrize("pair", [
        ("skirts_0", "boots_1"), ("jeans_1", "bras_0"), ("flats_0", "skirts_1"),
    ])
    def test_bit_identical_when_no_block_is_shared(self, reg, pair):
        # With no rows on the root, items under different layer-2 nodes
        # share no block, so the step must not change a bit.
        config = TrainConfig(learning_rate=0.7, reg=reg)
        live = tree3_model(scheme=(0, 2, 1))
        ref = tree3_model(scheme=(0, 2, 1))
        i, j, shared = pair_of(live, *pair)
        assert shared == 0
        for u in range(live.corpus.n_users):
            stepped, two_product = (Trainer(live, config),
                                    reference.TwoProductTrainer(ref, config))
            assert stepped.margin(u, i, j) == two_product.margin(u, i, j)
            assert stepped.step(u, i, j) == two_product.step(u, i, j)
        for name, arr in live.params.arrays().items():
            assert np.array_equal(arr, ref.params.arrays()[name]), name

    @REGS
    @SHARING_CASES
    def test_shared_blocks_agree_to_rounding(self, reg, pair, n_shared):
        config = TrainConfig(learning_rate=0.7, reg=reg)
        for u in range(3):
            live, ref = tree3_model(), tree3_model()
            i, j, shared = pair_of(live, *pair)
            assert shared == n_shared
            stepped, two_product = (Trainer(live, config),
                                    reference.TwoProductTrainer(ref, config))
            expected = two_product.margin(u, i, j)
            assert relative_error(stepped.margin(u, i, j), expected) <= 1e-12
            stepped.step(u, i, j)
            two_product.step(u, i, j)
            for name, arr in live.params.arrays().items():
                want = ref.params.arrays()[name]
                assert (np.max(np.abs(arr - want))
                        <= 1e-12 * np.max(np.abs(want))), name


class TestTrain:
    def test_empty_corpus(self):
        model = tiny_model()
        empty = training_corpus([[]], [[]], n_items=model.corpus.n_items)
        with pytest.raises(EmptyCorpus):
            train(model, empty, TrainConfig(iterations=1))

    def test_seed_determinism_bitwise(self):
        cfg = SynthConfig(n_users=25, n_items=50, feature_dim=6,
                          branching=(3,), n_positives=4,
                          planted_scheme=(2, 1), rng_seed=4)
        snapshots = []
        for _ in range(2):
            corpus, _ = make_corpus(cfg)
            tc, split = split_leave_one_out(corpus, 2)
            model = PreferenceModel.create(
                ModelConfig(3, AllocationScheme((2, 1)), rng_seed=8),
                corpus)
            train(model, tc, TrainConfig(iterations=3, rng_seed=21))
            snapshots.append({k: v.copy()
                              for k, v in model.params.arrays().items()})
        for name in snapshots[0]:
            assert np.array_equal(snapshots[0][name], snapshots[1][name]), name

    def test_history_records_every_epoch(self):
        cfg = SynthConfig(n_users=20, n_items=40, feature_dim=5,
                          branching=(2,), n_positives=4,
                          planted_scheme=(2,), rng_seed=3)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 1)
        model = PreferenceModel.create(
            ModelConfig(2, AllocationScheme((2,)), rng_seed=0, kind=KIND_VBPR),
            corpus)
        result = train(model, tc, TrainConfig(iterations=3, rng_seed=5),
                       split=split)
        assert [s.epoch for s in result.history] == [1, 2, 3]
        assert all(s.val_auc is not None for s in result.history)
        assert result.best_epoch is not None
        assert result.best_params is not None

    def test_early_stopping_patience(self):
        cfg = SynthConfig(n_users=20, n_items=40, feature_dim=5,
                          branching=(2,), n_positives=4,
                          planted_scheme=(2,), rng_seed=3)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 1)
        model = PreferenceModel.create(
            ModelConfig(2, AllocationScheme((2,)), rng_seed=0, kind=KIND_VBPR),
            corpus)
        result = train(model, tc,
                       TrainConfig(iterations=50, rng_seed=5, patience=2),
                       split=split)
        assert len(result.history) < 50
        last = result.history[-1].epoch
        assert last - result.best_epoch >= 2

    def test_separable_corpus_reaches_high_training_auc(self):
        cfg = SynthConfig(n_users=60, n_items=120, feature_dim=16,
                          branching=(4,), n_positives=6,
                          planted_scheme=(4,), temperature=0.05,
                          center_scale=0.0, unit_norm_items=True, rng_seed=9)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 3)
        model = PreferenceModel.create(
            ModelConfig(4, AllocationScheme((4,)), rng_seed=1, kind=KIND_VBPR),
            corpus)
        train(model, tc, TrainConfig(learning_rate=0.05, iterations=30,
                                     rng_seed=17))
        # Training AUC: held-out target replaced by a seeded train positive.
        rng = np.random.default_rng(0)
        targets = np.array([int(rng.choice(tc.train_pos[u]))
                            for u in range(corpus.n_users)])
        fake_split = EvalSplit(val_item=np.full(corpus.n_users, -1),
                               test_item=targets)
        result = auc(model, corpus.positives, fake_split)
        assert result.auc > 0.9


class TestCostProbe:
    def test_probe_reports_positive_timings(self):
        rows = per_triple_cost_probe(
            [{"n_latent": 2, "n_visual": 2, "feature_dim": 16}],
            n_steps=40)
        assert rows[0]["seconds_per_step"] > 0
        assert rows[0]["feature_dim"] == 16

    def test_mf_much_cheaper_than_visual(self):
        rows = per_triple_cost_probe(
            [{"n_latent": 10, "n_visual": 0, "feature_dim": 4096},
             {"n_latent": 10, "n_visual": 10, "feature_dim": 4096}],
            n_steps=100)
        assert rows[0]["seconds_per_step"] < 0.5 * rows[1]["seconds_per_step"]


class TestStepBuffer:
    """The step loops run under a small ufunc buffer and then restore
    whatever size the caller had set."""

    CALLER_BUFSIZE = 4096

    @pytest.fixture(autouse=True)
    def caller_bufsize(self):
        old = np.setbufsize(self.CALLER_BUFSIZE)
        yield
        np.setbufsize(old)

    @pytest.fixture
    def seen_in_step(self, monkeypatch):
        seen = []
        step = Trainer.step

        def recording_step(trainer, u, i, j):
            seen.append(np.getbufsize())
            return step(trainer, u, i, j)

        monkeypatch.setattr(Trainer, "step", recording_step)
        return seen

    def test_train_restores_bufsize(self, seen_in_step, monkeypatch):
        model = tiny_model()
        tc = training_corpus_of(model)
        split = EvalSplit(val_item=np.zeros(model.corpus.n_users, dtype=int),
                          test_item=np.ones(model.corpus.n_users, dtype=int))
        seen_in_validation = []

        def recording_validation(*args):
            seen_in_validation.append(np.getbufsize())
            return 0.5

        monkeypatch.setattr("hierbpr.evaluation.validation_auc",
                            recording_validation)
        train(model, tc, TrainConfig(iterations=2), split=split)
        assert np.getbufsize() == self.CALLER_BUFSIZE
        assert set(seen_in_step) == {_STEP_BUFSIZE}
        assert seen_in_validation == [self.CALLER_BUFSIZE] * 2

    def test_train_restores_bufsize_on_non_finite_step(self, seen_in_step):
        model = tiny_model()
        model.params.item_bias[:] = np.nan
        with pytest.raises(NonFiniteUpdate):
            train(model, training_corpus_of(model), TrainConfig(iterations=1))
        assert seen_in_step == [_STEP_BUFSIZE]
        assert np.getbufsize() == self.CALLER_BUFSIZE

    def test_probe_restores_bufsize(self, seen_in_step):
        per_triple_cost_probe(
            [{"n_latent": 2, "n_visual": 2, "feature_dim": 16}], n_steps=20)
        assert len(seen_in_step) == 40       # 20 warm-up + 20 timed
        assert set(seen_in_step) == {_STEP_BUFSIZE}
        assert np.getbufsize() == self.CALLER_BUFSIZE
