"""In-memory spans around calls into hierbpr's modules.

Wrappers are installed from here, at the name each caller looks up
(``hierbpr.cli``'s imports, class attributes, module globals), so no file
under ``src/`` changes. A span records its name, its parent span and its
start and end in nanoseconds; self time is a span's duration minus that of
its children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Per-layer metrics computed from spans: name -> (span name, statistic).
# "total" sums durations in seconds, "calls" counts spans, "pNN_us" /
# "pNN_ms" / "pNN_s" is a percentile of durations, "self_pNN_us" the same
# over self times, and "self_total" sums self times in seconds.
SPAN_METRICS = {
    "ingestion.load_corpus_s": ("ingestion.load_corpus", "total"),
    "ingestion.read_feedback_s": ("ingestion.read_feedback", "total"),
    "evaluation.split_s": ("evaluation.split", "total"),
    "evaluation.validation_s": ("evaluation.validation", "total"),
    "evaluation.validation_calls": ("evaluation.validation", "calls"),
    "evaluation.test_auc_s": ("evaluation.test_auc", "total"),
    "evaluation.eval_auc_s": ("evaluation.eval_auc", "total"),
    "evaluation.users_scored": ("model.score_all", "calls"),
    "model.create_s": ("model.create", "total"),
    "model.item_table_s": ("model.item_table", "total"),
    "model.item_table_calls": ("model.item_table", "calls"),
    "model.score_all_us.p50": ("model.score_all", "p50_us"),
    "model.score_all_us.p99": ("model.score_all", "p99_us"),
    "embedding.project_all_s": ("embedding.project_all", "total"),
    "training.train_s": ("training.train", "total"),
    "training.step_calls": ("training.step", "calls"),
    "training.step_us.p50": ("training.step", "p50_us"),
    "training.step_us.p99": ("training.step", "p99_us"),
    "training.margin_us.p50": ("training.margin", "p50_us"),
    "training.update_us.p50": ("training.step", "self_p50_us"),
    "training.sample_calls": ("training.sample", "calls"),
    "training.sample_us.p50": ("training.sample", "p50_us"),
    "training.sample_us.p99": ("training.sample", "p99_us"),
    "checkpoint.save_s": ("checkpoint.save", "total"),
    "checkpoint.load_s.p50": ("checkpoint.load", "p50_s"),
    "checkpoint.positives_from_pairs_s": ("checkpoint.positives_from_pairs",
                                          "total"),
    "checkpoint.rank_by_dimension_ms.p50": ("checkpoint.rank_by_dimension",
                                            "p50_ms"),
    # Most queries are per-leaf; the whole-catalog ones dominate the total.
    "checkpoint.rank_by_dimension_s": ("checkpoint.rank_by_dimension",
                                       "total"),
    "cli.self_s": ("cli.", "self_total"),
}

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


class Tracer:
    """Span recorder. Spans are kept in flat arrays until the round ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.kept: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep: bool = False):
        """``fn`` recording one span per call (and its result if ``keep``)."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        kept = self.kept.setdefault(name, []) if keep else None
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if kept is not None:
                kept.append(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, keep: bool = False) -> None:
        """Replace ``owner.attr`` (module global or method) with its wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, keep)))
        else:
            setattr(owner, attr, self.wrap(name, raw, keep))

    # ---------------------------------------------------------- statistics

    def _arrays(self):
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (np.asarray(self.end, dtype=np.int64)
               - np.asarray(self.start, dtype=np.int64)).astype(np.float64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return name, dur, dur - child

    def total_s(self, span: str) -> float:
        name, dur, _ = self._arrays()
        nid = self._ids.get(span)
        return 0.0 if nid is None else float(dur[name == nid].sum()) * 1e-9

    def bounds_ns(self, span: str) -> list[tuple[int, int]]:
        """(start, end) of every span of that name, in call order."""
        nid = self._ids.get(span)
        return [(t0, t1) for n, t0, t1 in zip(self.name, self.start, self.end)
                if n == nid]

    def span_metrics(self) -> dict[str, float]:
        """Every SPAN_METRICS entry; raises if a listed span never ran."""
        name, dur, self_time = self._arrays()
        out: dict[str, float] = {}
        for metric, (span, stat) in SPAN_METRICS.items():
            if span.endswith("."):
                ids = [i for n, i in self._ids.items() if n.startswith(span)]
            else:
                ids = [self._ids[span]] if span in self._ids else []
            sel = np.isin(name, ids)
            if not sel.any():
                raise RuntimeError(
                    f"layer span {span!r} recorded nothing; {metric} "
                    "cannot be measured (was the wrapped function renamed "
                    "or bypassed?)")
            if stat == "calls":
                out[metric] = int(sel.sum())
            elif stat == "total":
                out[metric] = float(dur[sel].sum()) * 1e-9
            elif stat == "self_total":
                out[metric] = float(self_time[sel].sum()) * 1e-9
            else:
                values = self_time if stat.startswith("self_") else dur
                q, unit = stat.removeprefix("self_").split("_")
                out[metric] = (float(np.percentile(values[sel], int(q[1:])))
                               * _SCALE[unit])
        return out


def install(tracer: Tracer, full: bool) -> None:
    """Wrap hierbpr's public functions at the names their callers use.

    Without ``full`` only the training call and per-epoch validation are
    wrapped: a few spans per run, so training throughput can exclude
    validation time. With ``full`` every layer boundary is wrapped.
    """
    from hierbpr import checkpoint, cli, embedding, evaluation, model, training

    tracer.patch(cli, "train", "training.train")
    tracer.patch(evaluation, "validation_auc", "evaluation.validation")
    if not full:
        return
    tracer.patch(cli, "load_corpus", "ingestion.load_corpus")
    tracer.patch(cli, "read_feedback", "ingestion.read_feedback")
    tracer.patch(cli, "split_leave_one_out", "evaluation.split")
    tracer.patch(cli, "evaluate_report", "evaluation.test_auc")
    tracer.patch(cli, "auc", "evaluation.eval_auc")
    tracer.patch(cli, "save_checkpoint", "checkpoint.save")
    tracer.patch(cli, "load_checkpoint", "checkpoint.load")
    tracer.patch(model.PreferenceModel, "create", "model.create")
    tracer.patch(model.PreferenceModel, "item_table", "model.item_table")
    tracer.patch(model.PreferenceModel, "score_all", "model.score_all")
    tracer.patch(embedding.SegmentStore, "project_all", "embedding.project_all")
    tracer.patch(training, "sample_triple", "training.sample", keep=True)
    tracer.patch(training.Trainer, "step", "training.step")
    tracer.patch(training.Trainer, "margin", "training.margin")
    tracer.patch(checkpoint.FrozenModel, "score_all", "model.score_all")
    tracer.patch(checkpoint.FrozenModel, "item_table",
                 "checkpoint.frozen_item_table")
    tracer.patch(checkpoint.FrozenModel, "rank_by_dimension",
                 "checkpoint.rank_by_dimension")
    tracer.patch(checkpoint.CheckpointBundle, "positives_from_pairs",
                 "checkpoint.positives_from_pairs")
    tracer.patch(checkpoint.CheckpointBundle, "frozen_model",
                 "checkpoint.frozen_model")
