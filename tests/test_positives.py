"""Property tests for ``Positives``, the one CSR form of users' positive items.

Each checks the CSR rows against a per-user ``sorted(set(...))`` reference
built from the raw pairs.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierbpr.checkpoint import load_checkpoint, save_checkpoint
from hierbpr.evaluation import split_leave_one_out
from hierbpr.errors import EmptyCorpus
from hierbpr.ingestion import Feedback, Positives, assemble_corpus
from hierbpr.model import KIND_BPRMF, ModelConfig, PreferenceModel
from hierbpr.synthdata import SynthConfig, make_corpus

import reference


@st.composite
def dense_pairs(draw):
    """(n_users, n_items, pairs) with repeats and users left without items."""
    n_users = draw(st.integers(1, 8))
    n_items = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_users - 1),
                                    st.integers(0, n_items - 1)),
                          max_size=60))
    return n_users, n_items, pairs


def reference_rows(pairs, n_users):
    rows = [set() for _ in range(n_users)]
    for u, i in pairs:
        rows[u].add(i)
    return [sorted(row) for row in rows]


def from_pairs(pairs, n_users, n_items):
    users = [u for u, _ in pairs]
    items = [i for _, i in pairs]
    return Positives.from_pairs(users, items, n_users, n_items)


@settings(deadline=None)
@given(dense_pairs(), st.randoms())
def test_rows_are_sorted_unique_sets(case, random):
    n_users, n_items, pairs = case
    positives = from_pairs(pairs, n_users, n_items)
    assert len(positives) == n_users
    assert positives.n_items == n_items
    assert positives.indptr[0] == 0
    assert positives.indptr[-1] == len(positives.indices)
    expected = reference_rows(pairs, n_users)
    assert [positives[u].tolist() for u in range(n_users)] == expected
    keys = positives.keys()
    assert keys.dtype == np.int64
    assert keys.tolist() == sorted({u * n_items + i for u, i in pairs})
    # Input order does not matter.
    random.shuffle(pairs)
    shuffled = from_pairs(pairs, n_users, n_items)
    assert np.array_equal(shuffled.indptr, positives.indptr)
    assert np.array_equal(shuffled.indices, positives.indices)


@settings(deadline=None)
@given(dense_pairs(), st.integers(0, 2**32 - 1))
# Users 1 and 3 have no positives; user 3's row ends the index arrays.
@example((4, 5, [(0, 1), (0, 3), (0, 4), (2, 0), (2, 2)]), 0)
def test_split_item_counts_equal_counter(case, seed):
    n_users, n_items, pairs = case
    positives = from_pairs(pairs, n_users, n_items)
    tc, split = split_leave_one_out(SimpleNamespace(positives=positives),
                                    seed)
    assert tc.full_pos is positives
    held = {(u, int(split.val_item[u])) for u in range(n_users)}
    held |= {(u, int(split.test_item[u])) for u in range(n_users)}
    kept = sorted(set(pairs) - held)
    assert [tc.train_pos[u].tolist() for u in range(n_users)] == (
        reference_rows(kept, n_users))
    counts = Counter(i for _, i in kept)
    assert tc.item_counts().tolist() == [counts[j] for j in range(n_items)]
    assert tc.n_interactions == len(kept)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    cfg = SynthConfig(n_users=6, n_items=9, feature_dim=3, branching=(3,),
                      n_positives=2, planted_scheme=(1,), rng_seed=2)
    corpus, _ = make_corpus(cfg)
    model = PreferenceModel.create(
        ModelConfig(2, rng_seed=1, kind=KIND_BPRMF), corpus)
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    training, split = split_leave_one_out(corpus, 0)
    save_checkpoint(path, model, split, {"split": 0}, training.item_counts())
    return load_checkpoint(path)


@settings(deadline=None)
@given(st.data())
def test_positives_from_pairs_drops_unknown_ids(bundle, data):
    users = list(bundle.user_ids) + ["ghost-user", "", "u\x00"]
    items = list(bundle.item_ids) + ["ghost-item"]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(users),
                                         st.sampled_from(items)),
                               max_size=40))
    positives, dropped = bundle.positives_from_pairs(
        Feedback.from_pairs(pairs))
    user_index = {u: k for k, u in enumerate(bundle.user_ids)}
    item_index = {i: k for k, i in enumerate(bundle.item_ids)}
    # Duplicates collapse first, so an unknown pair counts once.
    distinct = list(dict.fromkeys(pairs))
    known = [(user_index[u], item_index[i]) for u, i in distinct
             if u in user_index and i in item_index]
    assert dropped == len(distinct) - len(known)
    assert len(positives) == bundle.n_users
    assert positives.n_items == bundle.n_items
    assert [positives[u].tolist() for u in range(bundle.n_users)] == (
        reference_rows(known, bundle.n_users))
    # The densifier it replaced, fed the pairs the old reader gave.
    old, old_dropped = reference.positives_from_pairs(bundle, distinct)
    assert dropped == old_dropped
    assert np.array_equal(positives.indptr, old.indptr)
    assert np.array_equal(positives.indices, old.indices)


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2", ""]),
                          st.sampled_from(["a", "b", "c", "d"])),
                max_size=30))
# u1's pairs all name dropped items, so u1 is not a corpus user.
@example([("u0", "a"), ("u1", "c"), ("u1", "d"), ("u2", "b"), ("u0", "a")])
def test_prune_drops_pairs_like_reference(pairs):
    # "c" has no category and "d" no feature vector: prune drops both.
    ids, matrix = ["a", "b", "c"], np.array([[1.0], [2.0], [3.0]])
    leaves = {"a": "root", "b": "root", "d": "root"}
    distinct = list(dict.fromkeys(pairs))
    users = sorted({u for u, i in distinct if i in ("a", "b")})
    feedback = Feedback.from_pairs(pairs)
    if not users:
        with pytest.raises(EmptyCorpus):
            assemble_corpus(feedback, ids, matrix, [], leaves, policy="prune")
        return
    corpus, report = assemble_corpus(feedback, ids, matrix, [], leaves,
                                     policy="prune")
    assert corpus.user_ids == tuple(users)
    assert corpus.item_ids == ("a", "b")
    # The checkpoint's densifier before feedback became arrays, given the
    # corpus's users and catalog.
    old, old_dropped = reference.positives_from_pairs(
        SimpleNamespace(user_ids=users, item_ids=["a", "b"],
                        n_users=len(users), n_items=2), distinct)
    assert report["pruned"]["feedback_pairs_dropped"] == old_dropped
    assert report["interactions"] == len(old.indices)
    assert np.array_equal(corpus.positives.indptr, old.indptr)
    assert np.array_equal(corpus.positives.indices, old.indices)
    assert corpus.positives.n_items == 2
