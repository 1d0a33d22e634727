"""Leave-one-out splitting and average-AUC evaluation.

Per user, one held-out validation item and one held-out test item are carved
from the positive set (users with two positives get a test item only; users
with one stay train-only). The metric is the mean, over evaluable users, of
the fraction of non-positive items ranked strictly below the held-out test
item. Ties count as failures: equal scores contribute zero. The cold-start
setting keeps only users whose test item occurred fewer than ``threshold``
times in training and ranks against cold non-positives alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoEvaluableUsers
from .ingestion import InteractionCorpus, Positives, TrainingCorpus


@dataclass
class EvalSplit:
    """Held-out validation/test item per user; -1 where none was assigned."""

    val_item: np.ndarray
    test_item: np.ndarray


@dataclass
class ColdItemSet:
    """Items whose training occurrence count falls below the threshold."""

    threshold: int
    cold_mask: np.ndarray

    @classmethod
    def from_training(cls, corpus: TrainingCorpus, threshold: int
                      ) -> "ColdItemSet":
        counts = corpus.item_counts()
        return cls(threshold=threshold, cold_mask=counts < threshold)

    @property
    def n_cold(self) -> int:
        return int(self.cold_mask.sum())


def split_leave_one_out(
    corpus: InteractionCorpus, rng
) -> tuple[TrainingCorpus, EvalSplit]:
    """Carve one validation and one test positive per user, seeded.

    ``rng`` may be an integer seed or a numpy Generator. Two array draws
    give every user a first and a distinct second row position: with three
    or more positives they are its validation and test items, with two the
    first is its test item, with fewer nothing is held out. So the split
    depends only on the seed and the corpus content, not on file order.
    """
    rng = np.random.default_rng(rng)
    full = corpus.positives
    n_users = len(full)
    n = np.diff(full.indptr)
    first = rng.integers(np.maximum(n, 1))
    second = rng.integers(np.maximum(n - 1, 1))
    second += second >= first
    has_val, has_test = n >= 3, n >= 2
    val_at = (full.indptr[:-1] + first)[has_val]
    test_at = (full.indptr[:-1] + np.where(has_val, second, first))[has_test]
    val = np.full(n_users, -1, dtype=np.int64)
    test = np.full(n_users, -1, dtype=np.int64)
    val[has_val] = full.indices[val_at]
    test[has_test] = full.indices[test_at]
    keep = np.ones(len(full.indices), dtype=bool)
    keep[val_at] = keep[test_at] = False

    train_pos = Positives.from_pairs(full.rows()[keep], full.indices[keep],
                                     n_users, full.n_items)
    training = TrainingCorpus(train_pos=train_pos, full_pos=full)
    return training, EvalSplit(val_item=val, test_item=test)


@dataclass
class AucResult:
    auc: float
    users_evaluated: int


# Scores held per ``score_all`` block: rows are ``max(1, budget // n_items)``.
# Peak RSS sets it (see ``_mean_user_auc``); ``tests/test_evaluation.py``
# holds an AUC pass to the item matrix plus one block of float64 scores.
SCORE_BLOCK_ELEMENTS = 2**16


def _mean_user_auc(
    model,
    targets: np.ndarray,
    positives: Positives,
    cold_mask: np.ndarray | None,
) -> tuple[float, int]:
    """Mean, over evaluable users in user order, of each user's AUC.

    ``model`` is any scorer with an ``item_table()``: the live
    ``PreferenceModel`` or a checkpoint's ``ItemTable``. Users are scored in
    blocks of ``max(1, SCORE_BLOCK_ELEMENTS // n_items)`` rows, one
    ``score_all(users)`` call (one matrix product) on that table per block.
    The budget is a constant, not an option, because peak RSS sets it: the
    table holds one block of scores, 512 KB at 2**16. On the 10,000-item
    ``catalog`` benchmark, 2**16 (6 rows) read a ``peak_rss_mb`` of 59.4
    against 58.5 for the two-buffer scorer before it, the difference
    mostly the item matrix's copy of the latent factors; 2**17 cut
    ``eval_s`` from 0.30-0.35 s to 0.26-0.28 s but read 60.1 MB. A user's
    wins are the row's scores below the target's, less those among its
    positives, which must hold no duplicates. Fractions are added one user
    at a time, in user order.
    """
    table = model.item_table()
    n_items = positives.n_items
    users = np.flatnonzero(targets >= 0)
    n_pool = n_items
    if cold_mask is not None:
        users = users[cold_mask[targets[users]]]
        n_pool = int(np.count_nonzero(cold_mask))
    rows = max(1, SCORE_BLOCK_ELEMENTS // n_items)
    total = 0.0
    count = 0
    for start in range(0, len(users), rows):
        block = users[start:start + rows]
        scores = table.score_all(block)
        target = scores[np.arange(len(block)), targets[block]]
        wins, n_cand = _block_wins(scores, target,
                                   [positives[u] for u in block],
                                   cold_mask, n_pool)
        for w, n in zip(wins, n_cand):
            if n:
                total += w / n
                count += 1
    if count == 0:
        raise NoEvaluableUsers("no user has an evaluable held-out item")
    return total / count, count


def _block_wins(scores, target, positives, cold_mask, n_pool):
    """Per row: candidates scored below the target, and the candidate count."""
    below = scores < target[:, None]
    if cold_mask is not None:
        below &= cold_mask
    lengths = [len(p) for p in positives]
    row = np.repeat(np.arange(len(positives)), lengths)
    flat = np.concatenate(positives)
    beaten = np.bincount(row[below[row, flat]], minlength=len(positives))
    in_pool = row if cold_mask is None else row[cold_mask[flat]]
    n_cand = n_pool - np.bincount(in_pool, minlength=len(positives))
    wins = np.array([np.count_nonzero(r) for r in below]) - beaten
    return wins.tolist(), n_cand.tolist()


def auc(
    model,
    positives: Positives,
    split: EvalSplit,
    setting: str = "warm",
    cold_set: ColdItemSet | None = None,
) -> AucResult:
    """Average test AUC under the warm or cold protocol.

    Candidates are all items outside the user's full positive set; the
    held-out validation item is therefore never a candidate. An
    ``InteractionCorpus`` stands for its own ``positives``
    (``bench/selftest.py`` passes one).
    """
    if isinstance(positives, InteractionCorpus):
        positives = positives.positives
    if setting not in ("warm", "cold"):
        raise ValueError(f"unknown setting {setting!r}")
    if setting == "cold" and cold_set is None:
        raise ValueError("cold setting needs a ColdItemSet")
    value, count = _mean_user_auc(
        model,
        targets=split.test_item,
        positives=positives,
        cold_mask=cold_set.cold_mask if setting == "cold" else None,
    )
    return AucResult(auc=value, users_evaluated=count)


def validation_auc(model, corpus: TrainingCorpus, split: EvalSplit) -> float:
    """Warm AUC against the held-out validation items (used per epoch)."""
    value, _ = _mean_user_auc(
        model,
        targets=split.val_item,
        positives=corpus.full_pos,
        cold_mask=None,
    )
    return value


def evaluate_report(
    model,
    corpus: InteractionCorpus,
    split: EvalSplit,
    cold_set: ColdItemSet,
) -> dict:
    """Warm and cold AUC plus the config echo, from one frozen item table."""
    table = model.item_table()
    warm = auc(table, corpus.positives, split, setting="warm")
    cold = auc(table, corpus.positives, split, setting="cold",
               cold_set=cold_set)
    return {
        "config": model.config.to_dict(),
        "warm": {"auc": warm.auc, "users_evaluated": warm.users_evaluated},
        "cold": {"auc": cold.auc, "users_evaluated": cold.users_evaluated},
        "cold_items": cold_set.n_cold,
        "cold_threshold": cold_set.threshold,
    }
