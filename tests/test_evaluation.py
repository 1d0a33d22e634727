import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hierbpr.checkpoint import load_checkpoint, save_checkpoint
from hierbpr.errors import NoEvaluableUsers, UnknownUser
from hierbpr.evaluation import (
    SCORE_BLOCK_ELEMENTS,
    ColdItemSet,
    EvalSplit,
    auc,
    evaluate_report,
    split_leave_one_out,
    validation_auc,
)
from hierbpr.hierarchy import AllocationScheme
from hierbpr.model import (
    KIND_RAND,
    ItemTable,
    ModelConfig,
    PreferenceModel,
    rand_scores,
)
from hierbpr.synthdata import SynthConfig, make_corpus

from conftest import auc_pair_counting, positives_of, training_corpus

REPO_ROOT = Path(__file__).resolve().parents[1]


def per_user_auc(model, targets, pos_lists, n_items, cold_mask):
    """The per-user mask loop: the reference for the blocked pass."""
    table = model.item_table()
    total = 0.0
    count = 0
    for u in range(len(targets)):
        t = int(targets[u])
        if t < 0:
            continue
        if cold_mask is not None and not cold_mask[t]:
            continue
        mask = np.ones(n_items, dtype=bool)
        mask[pos_lists[u]] = False
        if cold_mask is not None:
            mask &= cold_mask
        n_cand = int(mask.sum())
        if n_cand == 0:
            continue
        scores = model.score_all(u, table)
        total += int((scores[mask] < scores[t]).sum()) / n_cand
        count += 1
    return total / count, count


class ScoreTableModel:
    """Evaluation-facing stand-in whose scores are a fixed matrix."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def item_table(self):
        return self

    def score_all(self, u):
        return self.matrix[u].copy()


class FakeCorpus:
    def __init__(self, positives, n_items):
        self.positives = positives_of(positives, n_items)
        self.n_items = n_items
        self.n_users = len(positives)


def split_of(test_items, val_items=None):
    test = np.asarray(test_items, dtype=np.int64)
    val = (np.full(len(test), -1, dtype=np.int64) if val_items is None
           else np.asarray(val_items, dtype=np.int64))
    return EvalSplit(val_item=val, test_item=test)


class TestSplitLeaveOneOut:
    def test_three_positives_all_assignments_reachable(self):
        corpus = FakeCorpus([[0, 1, 2]], n_items=3)
        corpus.user_ids = ("u0",)
        seen = set()
        for seed in range(300):
            tc, split = split_leave_one_out(corpus, seed)
            v, t = int(split.val_item[0]), int(split.test_item[0])
            assert v != t
            assert set(tc.train_pos[0].tolist()) == {0, 1, 2} - {v, t}
            seen.add((v, t))
        assert seen == {(a, b) for a in range(3) for b in range(3) if a != b}

    def test_three_positives_assignments_uniform(self):
        n_users = 6000
        corpus = FakeCorpus([[2, 5, 7]] * n_users, n_items=9)
        tc, split = split_leave_one_out(corpus, 4)
        pairs = [(v, t) for v in (2, 5, 7) for t in (2, 5, 7) if v != t]
        counts = np.array([np.count_nonzero((split.val_item == v)
                                            & (split.test_item == t))
                           for v, t in pairs])
        assert counts.sum() == n_users
        expected = n_users / len(pairs)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square critical value, 5 degrees of freedom, p = 0.01
        assert chi2 < 15.086
        assert tc.n_interactions == n_users

    def test_two_positives_test_only(self):
        corpus = FakeCorpus([[3, 7]], n_items=10)
        tc, split = split_leave_one_out(corpus, 5)
        assert split.val_item[0] == -1
        assert split.test_item[0] in (3, 7)
        assert len(tc.train_pos[0]) == 1

    def test_single_positive_train_only(self):
        corpus = FakeCorpus([[4]], n_items=10)
        tc, split = split_leave_one_out(corpus, 0)
        assert split.test_item[0] == -1
        assert split.val_item[0] == -1
        assert list(tc.train_pos[0]) == [4]

    def test_disjointness_exhaustiveize(self):
        cfg = SynthConfig(n_users=1000, n_items=400, feature_dim=4,
                          branching=(2,), n_positives=5,
                          planted_scheme=(1,), rng_seed=14)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 9)
        for u in range(corpus.n_users):
            train = set(tc.train_pos[u].tolist())
            v, t = int(split.val_item[u]), int(split.test_item[u])
            assert v != t
            assert v not in train and t not in train
            assert train | {v, t} == set(corpus.positives[u].tolist())
            assert len(train) == 3

    def test_determinism(self):
        corpus = FakeCorpus([[0, 1, 2, 3], [2, 3, 4]], n_items=6)
        a = split_leave_one_out(corpus, 42)[1]
        b = split_leave_one_out(corpus, 42)[1]
        assert np.array_equal(a.val_item, b.val_item)
        assert np.array_equal(a.test_item, b.test_item)


class TestColdItemSet:
    def test_strict_threshold(self):
        tc = training_corpus([[0, 1], [0, 2], [0]], [[0, 1], [0, 2], [0, 3]],
                             n_items=4)
        # counts: item0 appears 3x, item1 1x, item2 1x, item3 0x
        cold = ColdItemSet.from_training(tc, threshold=2)
        assert list(cold.cold_mask) == [False, True, True, True]
        cold5 = ColdItemSet.from_training(tc, threshold=5)
        assert cold5.n_cold == 4


class TestAuc:
    def test_perfect_ranker(self):
        scores = np.array([[9.0, 1.0, 2.0, 3.0],
                           [1.0, 9.0, 2.0, 3.0]])
        model = ScoreTableModel(scores)
        corpus = FakeCorpus([[0], [1]], n_items=4)
        split = split_of([0, 1])
        result = auc(model, corpus.positives, split)
        assert result.auc == 1.0
        assert result.users_evaluated == 2

    def test_all_equal_scores_strict_ties_zero(self):
        model = ScoreTableModel(np.ones((2, 5)))
        corpus = FakeCorpus([[0], [1]], n_items=5)
        result = auc(model, corpus.positives, split_of([0, 1]))
        assert result.auc == 0.0

    def test_hand_built_three_users(self):
        # Candidate sets exclude each user's full positives.
        scores = np.array([
            [5.0, 1.0, 4.0, 2.0, 3.0, 0.0],
            [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        ])
        positives = [[0, 1], [1], [5, 0]]
        targets = [0, 1, 5]
        model = ScoreTableModel(scores)
        corpus = FakeCorpus(positives, n_items=6)
        result = auc(model, corpus.positives, split_of(targets))
        oracle, n = auc_pair_counting(
            lambda u, j: scores[u, j], 6, np.array(targets),
            [np.array(p) for p in positives])
        assert result.auc == oracle
        assert result.users_evaluated == n == 3
        # Manual check: u0 beats all 4 candidates; u1 ties everywhere (0);
        # u2 beats its 4 candidates.
        assert result.auc == pytest.approx((1.0 + 0.0 + 1.0) / 3)

    def test_randomized_exact_oracle_equivalence(self, rng):
        for trial in range(60):
            n_users = int(rng.integers(1, 10))
            n_items = int(rng.integers(3, 20))
            # Quantized scores force ties through the strict comparison.
            scores = rng.integers(0, 4, size=(n_users, n_items)).astype(float)
            positives, targets = [], []
            for u in range(n_users):
                k = int(rng.integers(1, min(n_items - 1, 4)))
                pos = rng.choice(n_items, size=k, replace=False)
                positives.append(np.sort(pos))
                targets.append(int(pos[0]) if rng.random() < 0.9 else -1)
            model = ScoreTableModel(scores)
            corpus = FakeCorpus(positives, n_items)
            oracle, n = auc_pair_counting(
                lambda u, j: scores[u, j], n_items, np.array(targets),
                positives)
            if n == 0:
                with pytest.raises(NoEvaluableUsers):
                    auc(model, corpus.positives, split_of(targets))
                continue
            result = auc(model, corpus.positives, split_of(targets))
            assert result.auc == oracle
            assert result.users_evaluated == n

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=(4, 12))
        positives = [[0, 1], [2], [3, 4, 5], [6]]
        targets = [0, 2, 3, 6]
        corpus = FakeCorpus(positives, 12)
        base = auc(ScoreTableModel(scores), corpus.positives,
                   split_of(targets))
        shifted = auc(ScoreTableModel(2.0 * scores + 1.0), corpus.positives,
                      split_of(targets))
        assert base.auc == shifted.auc

    def test_cold_equals_warm_when_everything_cold(self, rng):
        scores = rng.normal(size=(3, 8))
        positives = [[0], [1], [2]]
        targets = [0, 1, 2]
        corpus = FakeCorpus(positives, 8)
        model = ScoreTableModel(scores)
        split = split_of(targets)
        cold = ColdItemSet(threshold=5, cold_mask=np.ones(8, dtype=bool))
        warm = auc(model, corpus.positives, split)
        coldr = auc(model, corpus.positives, split, setting="cold",
                    cold_set=cold)
        assert warm.auc == coldr.auc

    def test_cold_filters_users_and_candidates(self):
        scores = np.array([[1.0, 0.5, 2.0, 0.1],
                           [1.0, 0.5, 2.0, 0.1]])
        positives = [[0], [2]]
        targets = [0, 2]  # item 0 cold, item 2 warm
        cold = ColdItemSet(threshold=5,
                           cold_mask=np.array([True, True, False, True]))
        corpus = FakeCorpus(positives, 4)
        result = auc(ScoreTableModel(scores), corpus.positives,
                     split_of(targets), setting="cold", cold_set=cold)
        # Only user 0 evaluable; candidates {1, 3}; both below score 1.0.
        assert result.users_evaluated == 1
        assert result.auc == 1.0

    def test_no_evaluable_users_raises(self):
        scores = np.ones((1, 4))
        cold = ColdItemSet(threshold=5,
                           cold_mask=np.array([False, True, True, True]))
        corpus = FakeCorpus([[0]], 4)
        with pytest.raises(NoEvaluableUsers):
            auc(ScoreTableModel(scores), corpus.positives, split_of([0]),
                setting="cold", cold_set=cold)

    def test_validation_item_never_a_candidate(self):
        # Validation item scores above the test item; the test user still
        # achieves a perfect warm AUC because it is excluded as positive.
        scores = np.array([[1.0, 9.0, 0.5, 0.2]])
        positives = [[0, 1]]
        corpus = FakeCorpus(positives, 4)
        result = auc(ScoreTableModel(scores), corpus.positives,
                     split_of([0], val_items=[1]))
        assert result.auc == 1.0

    def test_random_scorer_near_half(self):
        rng = np.random.default_rng(0)
        n_users, n_items = 200, 520
        scores = rng.normal(size=(n_users, n_items))
        positives = [rng.choice(n_items, size=3, replace=False)
                     for _ in range(n_users)]
        targets = [int(p[0]) for p in positives]
        corpus = FakeCorpus(positives, n_items)
        result = auc(ScoreTableModel(scores), corpus.positives,
                     split_of(targets))
        assert abs(result.auc - 0.5) < 0.02


class TestValidationAuc:
    def test_targets_are_validation_items(self):
        scores = np.array([[5.0, 4.0, 1.0, 2.0]])
        tc = training_corpus([[0]], [[0, 1, 3]], n_items=4)
        split = split_of([3], val_items=[1])
        model = ScoreTableModel(scores)
        # Candidates exclude all full positives {0,1,3}: only item 2 remains,
        # scored below the validation item 1.
        assert validation_auc(model, tc, split) == 1.0


class TestEvaluateReport:
    def test_report_fields(self, monkeypatch):
        cfg = SynthConfig(n_users=25, n_items=60, feature_dim=5,
                          branching=(3,), n_positives=4,
                          planted_scheme=(2,), rng_seed=6)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 2)
        cold = ColdItemSet.from_training(tc, 5)
        model = PreferenceModel.create(ModelConfig(kind=KIND_RAND, rng_seed=1),
                                       corpus)
        expected = {setting: auc(model, corpus.positives, split, setting,
                                 cold).auc for setting in ("warm", "cold")}
        builds = []
        frozen = PreferenceModel.item_table
        monkeypatch.setattr(PreferenceModel, "item_table",
                            lambda self: builds.append(1) or frozen(self))
        report = evaluate_report(model, corpus, split, cold)
        assert len(builds) == 1     # one frozen table serves both settings
        assert set(report) == {"config", "warm", "cold", "cold_items",
                               "cold_threshold"}
        assert report["warm"]["auc"] == expected["warm"]
        assert report["cold"]["auc"] == expected["cold"]
        assert 0.0 <= report["warm"]["auc"] <= 1.0
        assert report["config"]["kind"] == "RAND"


@pytest.fixture(scope="module")
def block_setup():
    """100 users x 2,800 items: 23-row blocks, the last one partial."""
    cfg = SynthConfig(n_users=100, n_items=2800, feature_dim=8,
                      branching=(3,), n_positives=5, planted_scheme=(2, 2),
                      rng_seed=21)
    corpus, _ = make_corpus(cfg)
    tc, split = split_leave_one_out(corpus, 4)
    model = PreferenceModel.create(
        ModelConfig(4, AllocationScheme((2, 2)), rng_seed=5), corpus)
    model.params.item_bias[:] = np.random.default_rng(6).normal(
        scale=0.01, size=corpus.n_items)
    cold = ColdItemSet.from_training(tc, 5)
    return corpus, tc, split, model, cold


def spy_blocks(monkeypatch):
    """Record the number of users in every ``ItemTable.score_all`` call."""
    sizes = []
    score_all = ItemTable.score_all

    def spy(table, users):
        sizes.append(len(users))
        return score_all(table, users)

    monkeypatch.setattr(ItemTable, "score_all", spy)
    return sizes


class TestBlockedPass:
    def check_blocks(self, sizes, n_items):
        rows = max(1, SCORE_BLOCK_ELEMENTS // n_items)
        assert len(sizes) >= 3
        assert sizes[:-1] == [rows] * (len(sizes) - 1)
        assert 0 < sizes[-1] < rows

    @pytest.mark.parametrize("setting", ["warm", "cold"])
    def test_equals_reference_and_oracle(self, block_setup, monkeypatch,
                                         setting):
        corpus, _tc, split, model, cold = block_setup
        cold_mask = cold.cold_mask if setting == "cold" else None
        expected = per_user_auc(model, split.test_item, corpus.positives,
                                corpus.n_items, cold_mask)
        rows = np.stack([model.score_all(u) for u in range(corpus.n_users)])
        oracle = auc_pair_counting(lambda u, j: rows[u, j], corpus.n_items,
                                   split.test_item, corpus.positives,
                                   cold_mask)
        sizes = spy_blocks(monkeypatch)
        result = auc(model, corpus.positives, split, setting=setting,
                     cold_set=cold)
        self.check_blocks(sizes, corpus.n_items)
        assert (result.auc, result.users_evaluated) == expected == oracle
        # Reports print repr(auc): a numpy scalar would change their bytes.
        assert type(result.auc) is float

    def test_validation_equals_reference(self, block_setup, monkeypatch):
        corpus, tc, split, model, _cold = block_setup
        expected, _ = per_user_auc(model, split.val_item, tc.full_pos,
                                   tc.n_items, None)
        sizes = spy_blocks(monkeypatch)
        assert validation_auc(model, tc, split) == expected
        self.check_blocks(sizes, tc.n_items)

    def test_user_without_cold_candidates_skipped(self, block_setup):
        corpus, _tc, split, model, cold = block_setup
        # User 0 holds every cold item, its test item among them.
        positives = [corpus.positives[u] for u in range(corpus.n_users)]
        positives[0] = np.flatnonzero(cold.cold_mask)
        test = split.test_item.copy()
        test[0] = positives[0][0]
        fake = FakeCorpus(positives, corpus.n_items)
        expected = per_user_auc(model, test, fake.positives, corpus.n_items,
                                cold.cold_mask)
        result = auc(model, fake.positives, split_of(test), setting="cold",
                     cold_set=cold)
        assert (result.auc, result.users_evaluated) == expected
        full = auc(model, corpus.positives, split, setting="cold",
                   cold_set=cold)
        assert result.users_evaluated == full.users_evaluated - (
            1 if cold.cold_mask[split.test_item[0]] else 0)

    def test_rand_block_stacks_rows(self, block_setup):
        corpus = block_setup[0]
        model = PreferenceModel.create(ModelConfig(kind=KIND_RAND, rng_seed=3),
                                       corpus)
        users = np.array([0, 7, 3, 99])
        expected = np.stack([rand_scores(3, int(u), corpus.n_items)
                             for u in users])
        assert np.array_equal(model.score_all(users), expected)

    def test_int_user_is_a_block_of_one(self, block_setup, tmp_path):
        corpus, tc, split, model, _cold = block_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split, {"split": 4}, tc.item_counts())
        frozen = load_checkpoint(path).frozen_model()
        users = np.array([0, 42, corpus.n_users - 1])
        for table in (model.item_table(), frozen):
            block = table.score_all(users).copy()
            for r, u in enumerate(users):
                # Copied: each call reuses the table's buffer.
                row = table.score_all(int(u)).copy()
                assert row.shape == (corpus.n_items,)
                assert np.array_equal(row, table.score_all(np.array([u]))[0])
                assert np.allclose(row, block[r], rtol=1e-12, atol=1e-15)
        with pytest.raises(UnknownUser):
            model.score_all(np.array([0, corpus.n_users]))


class TestMemoryBudget:
    # One boolean per score for the block's ``below`` mask, plus 64 KiB for
    # one numpy ufunc buffer (8,192 doubles) and the per-block index arrays.
    SLACK = SCORE_BLOCK_ELEMENTS + 64 * 1024

    @pytest.mark.parametrize("setting", ["warm", "cold"])
    def test_auc_pass_holds_one_block(self, block_setup, setting):
        # numpy reports its buffers to tracemalloc, so the traced peak is
        # what the pass itself adds: the item matrix, built on the first
        # block, and one block of float64 scores, never two.
        corpus, _tc, split, model, cold = block_setup
        table = model.item_table()
        width = table.theta.shape[1] + table.latent.shape[1] + 1
        item_matrix = width * corpus.n_items * 8
        tracemalloc.start()
        try:
            auc(table, corpus.positives, split, setting=setting,
                cold_set=cold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= item_matrix + SCORE_BLOCK_ELEMENTS * 8 + self.SLACK


class TestBenchOracle:
    def test_selftest_passes(self):
        # The benchmark's AUC oracle does not import hierbpr; its self-test
        # checks it against evaluation.auc on a freshly trained model.
        proc = subprocess.run([sys.executable, "bench/selftest.py"],
                              cwd=REPO_ROOT, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_tracer_installs(self):
        # bench/tracer.py wraps hierbpr functions by name; a renamed or
        # moved name makes install raise.
        code = ("import sys; sys.path[:0] = ['bench', 'src']\n"
                "from tracer import Tracer, install\n"
                "install(Tracer(), full=True)\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
