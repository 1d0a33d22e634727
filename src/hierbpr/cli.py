"""Command-line entry point wiring the library into reproducible runs.

Subcommands: ``synth`` (generate a corpus), ``validate`` (ingestion report),
``train`` (fit a manifest's model; write ``model.ckpt`` and ``metrics.tsv``),
``run`` (``train``, then warm and cold evaluation and ``report.json``),
``eval`` (exact warm/cold AUC from a checkpoint) and ``rank-dim`` (top
items per visual dimension). ``train`` and ``run`` take the same arguments:
a manifest and an optional ``--out-dir``. Per-step timing is the
benchmark's (``bench/run.py --trace 1``).

All randomness flows from three named seeds (split, init, sample) echoed in
every report. Reports and checkpoints are byte-deterministic; timing lives
only in the metrics TSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import HierBprError, ParseError
from .evaluation import (
    ColdItemSet,
    EvalSplit,
    auc,
    evaluate_report,
    split_leave_one_out,
)
from .hierarchy import AllocationScheme
from .ingestion import (
    FEATURE_NORMS,
    POLICIES,
    InteractionCorpus,
    TrainingCorpus,
    load_corpus,
    read_feedback,
)
from .model import KIND_RAND, ModelConfig, PreferenceModel
from .synthdata import SynthConfig, generate
from .training import RegWeights, TrainConfig, train


@dataclass
class Seeds:
    split: int = 0
    init: int = 0
    sample: int = 0

    def to_dict(self) -> dict:
        return {"split": self.split, "init": self.init, "sample": self.sample}


_INPUT_KEYS = ("feedback", "features", "hierarchy", "item_leaves")
# Every key a manifest may hold: a dict is a section, anything else the
# value's type (float: any number; list: a list of integers).
_MANIFEST_KEYS = {
    "inputs": dict.fromkeys(_INPUT_KEYS, str),
    "model": {"kind": str, "n_latent": int, "n_visual": int, "scheme": list,
              "use_visual_bias": bool, "use_category_bias": bool},
    "train": {"learning_rate": float, "iterations": int,
              "patience": (int, type(None)),
              "reg": {f.name: float for f in fields(RegWeights)}},
    "seeds": {f.name: int for f in fields(Seeds)},
    "cold_threshold": int, "policy": str, "feature_norm": str, "out_dir": str,
}
_REQUIRED_KEYS = {"": ("inputs", "model", "out_dir"), "inputs.": _INPUT_KEYS}


def _has_type(value, expected) -> bool:
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    if expected is list:
        return isinstance(value, list) and all(
            _has_type(v, int) for v in value)
    return isinstance(value, expected)


def _check_manifest(raw, keys=_MANIFEST_KEYS, where="") -> None:
    """Raise ParseError naming the first missing, unknown or mistyped key."""
    if not isinstance(raw, dict):
        what = f"key {where[:-1]!r}" if where else "top level"
        raise ParseError(f"manifest {what} must be a JSON object")
    for key in _REQUIRED_KEYS.get(where, ()):
        if key not in raw:
            raise ParseError(
                f"manifest is missing required key {where + key!r}")
    for key, value in raw.items():
        name = where + key
        if key not in keys:
            raise ParseError(f"unknown manifest key {name!r}")
        if isinstance(keys[key], dict):
            _check_manifest(value, keys[key], name + ".")
        elif not _has_type(value, keys[key]):
            raise ParseError(f"manifest key {name!r} has the wrong type "
                             f"({type(value).__name__})")


@dataclass
class ExperimentManifest:
    """Serializable description of one end-to-end run."""

    feedback: str
    features: str
    hierarchy: str
    item_leaves: str
    out_dir: str
    model: dict
    train: dict = field(default_factory=dict)
    seeds: Seeds = field(default_factory=Seeds)
    cold_threshold: int = 5
    policy: str = "strict"
    feature_norm: str = "none"

    @classmethod
    def from_json(cls, path) -> "ExperimentManifest":
        """Read and check a manifest; any malformed key raises ParseError."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"manifest is not valid JSON: {exc}") from None
        _check_manifest(raw)
        seeds = Seeds(**raw.pop("seeds", {}))
        return cls(**raw.pop("inputs"), **raw, seeds=seeds)

    def configs(self) -> tuple[ModelConfig, TrainConfig]:
        """Model and training configs; an out-of-range value is a ParseError.

        Cheap and reads no input, so callers check a manifest with it before
        loading the corpus or creating ``out_dir``. It also checks the
        manifest's own ``cold_threshold``, ``policy``, ``feature_norm`` and
        seeds (numpy takes no negative seed).
        """
        checks = [("cold_threshold", self.cold_threshold,
                   self.cold_threshold >= 1),
                  ("policy", self.policy, self.policy in POLICIES),
                  ("feature_norm", self.feature_norm,
                   self.feature_norm in FEATURE_NORMS)]
        checks += [(f"seeds.{name}", value, value >= 0)
                   for name, value in self.seeds.to_dict().items()]
        for key, value, ok in checks:
            if not ok:
                raise ParseError(f"manifest value out of range: {key!r} is "
                                 f"{value!r}")
        try:
            return self.model_config(), self.train_config()
        except ValueError as exc:
            raise ParseError(f"manifest value out of range: {exc}") from None

    def model_config(self) -> ModelConfig:
        m = self.model
        kind = m.get("kind", "HVBPR")
        scheme = AllocationScheme(tuple(m.get("scheme", [])))
        n_visual = int(m.get("n_visual", scheme.total))
        default_vb = n_visual > 0
        return ModelConfig(
            n_latent=int(m.get("n_latent", 0)),
            n_visual=n_visual,
            scheme=scheme,
            use_visual_bias=bool(m.get("use_visual_bias", default_vb)),
            use_category_bias=bool(m.get("use_category_bias", False)),
            rng_seed=self.seeds.init,
            kind=kind,
        )

    def train_config(self) -> TrainConfig:
        """``TrainConfig``'s own defaults fill every key left out."""
        t = dict(self.train)
        reg = RegWeights(**t.pop("reg", {}))
        return TrainConfig(**t, reg=reg, rng_seed=self.seeds.sample)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_metrics(path, history) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\tval_auc\ttrain_loss_estimate\tseconds\n")
        for stats in history:
            val = "" if stats.val_auc is None else repr(stats.val_auc)
            fh.write(f"{stats.epoch}\t{val}\t{stats.train_loss!r}"
                     f"\t{stats.seconds:.6f}\n")


@dataclass
class Fitted:
    """What ``train_experiment`` fitted: the best-on-validation model and
    the corpus, split and history it came from."""

    manifest: ExperimentManifest
    corpus: InteractionCorpus
    ingest_report: dict
    training_corpus: TrainingCorpus
    split: EvalSplit
    model: PreferenceModel
    history: list = field(default_factory=list)
    best_epoch: int | None = None
    best_val_auc: float | None = None

    def summary(self) -> dict:
        """What ``train`` prints: the files written and the epoch kept."""
        out_dir = Path(self.manifest.out_dir)
        return {"checkpoint": str(out_dir / "model.ckpt"),
                "metrics": str(out_dir / "metrics.tsv"),
                "epochs_run": len(self.history),
                "best_epoch": self.best_epoch,
                "best_val_auc": self.best_val_auc}


def train_experiment(manifest: ExperimentManifest) -> Fitted:
    """load -> split -> train -> restore the epoch best on validation ->
    write ``model.ckpt`` and ``metrics.tsv`` into ``out_dir``.

    ``run`` is this step followed by evaluation, so a manifest writes the
    same checkpoint through ``train`` and ``run``.
    """
    # Out-of-range values fail before out_dir exists or any input is read.
    model_config, train_config = manifest.configs()
    Path(manifest.out_dir).mkdir(parents=True, exist_ok=True)
    corpus, ingest_report = load_corpus(
        manifest.feedback, manifest.features, manifest.hierarchy,
        manifest.item_leaves, policy=manifest.policy,
        feature_norm=manifest.feature_norm)
    training_corpus, split = split_leave_one_out(corpus, manifest.seeds.split)
    model = PreferenceModel.create(model_config, corpus)
    fitted = Fitted(manifest, corpus, ingest_report, training_corpus, split,
                    model)
    if model.config.kind != KIND_RAND:
        result = train(model, training_corpus, train_config, split=split)
        if result.best_params is not None:
            model.params = result.best_params
        fitted.history = result.history
        fitted.best_epoch = result.best_epoch
        fitted.best_val_auc = result.best_val_auc
    paths = fitted.summary()
    save_checkpoint(paths["checkpoint"], model, split=split,
                    seeds=manifest.seeds.to_dict(),
                    item_train_count=training_corpus.item_counts())
    _write_metrics(paths["metrics"], fitted.history)
    return fitted


def run_experiment(manifest: ExperimentManifest) -> dict:
    """train_experiment -> evaluate warm and cold -> write ``report.json``."""
    fitted = train_experiment(manifest)
    cold = ColdItemSet.from_training(fitted.training_corpus,
                                     threshold=manifest.cold_threshold)
    report = evaluate_report(fitted.model, fitted.corpus, fitted.split, cold)
    persisted = {
        "config": report["config"],
        "seeds": manifest.seeds.to_dict(),
        "data": {
            "users": fitted.corpus.n_users,
            "items": fitted.corpus.n_items,
            "interactions": fitted.ingest_report["interactions"],
        },
        "warm": report["warm"],
        "cold": report["cold"],
        "cold_items": report["cold_items"],
        "cold_threshold": report["cold_threshold"],
        "best_epoch": fitted.best_epoch,
        "best_val_auc": fitted.best_val_auc,
    }
    report_path = Path(manifest.out_dir) / "report.json"
    _write_json(report_path, persisted)
    paths = fitted.summary()
    return {
        "report": str(report_path),
        "checkpoint": paths["checkpoint"],
        "metrics": paths["metrics"],
        "warm_auc": report["warm"]["auc"],
        "cold_auc": report["cold"]["auc"],
    }


# ------------------------------------------------------------- subcommands

def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(",", ":").split(":"))


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_users=args.users,
        n_items=args.items,
        feature_dim=args.feature_dim,
        branching=_parse_ints(args.branching),
        n_positives=args.positives,
        planted_scheme=_parse_ints(args.planted_scheme),
        temperature=args.temperature,
        feature_noise=args.feature_noise,
        rng_seed=args.seed,
    )
    paths = generate(cfg, args.out_dir, features_format=args.features_format)
    print(json.dumps(paths, sort_keys=True, indent=2))
    return 0


def _cmd_validate(args) -> int:
    _corpus, report = load_corpus(
        args.feedback, args.features, args.hierarchy, args.item_leaves,
        policy=args.policy, feature_norm=args.feature_norm)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _check_at_least_one(args, name: str) -> None:
    """ParseError for an integer flag below 1, before any file is read."""
    value = getattr(args, name)
    if value < 1:
        raise ParseError(f"--{name.replace('_', '-')} must be at least 1, "
                         f"got {value}")


def _cmd_eval(args) -> int:
    _check_at_least_one(args, "cold_threshold")
    bundle = load_checkpoint(args.model)
    if bundle.split is None:
        raise HierBprError("checkpoint carries no evaluation split")
    pairs = read_feedback(args.feedback)
    positives, dropped = bundle.positives_from_pairs(pairs)
    table = bundle.frozen_model()

    cold_set = None
    if args.setting == "cold":
        if bundle.item_train_count is None:
            raise HierBprError("checkpoint carries no item training counts")
        cold_set = ColdItemSet(
            threshold=args.cold_threshold,
            cold_mask=bundle.item_train_count < args.cold_threshold)
    result = auc(table, positives, bundle.split, setting=args.setting,
                 cold_set=cold_set)
    report = {
        "setting": args.setting,
        "auc": result.auc,
        "users_evaluated": result.users_evaluated,
        "items_total": bundle.n_items,
        "cold_items": cold_set.n_cold if cold_set is not None else None,
        "cold_threshold": args.cold_threshold if cold_set is not None else None,
        "seed": bundle.seeds,
        "config": bundle.config.to_dict(),
        "feedback_pairs_ignored": dropped,
    }
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _cmd_rank_dim(args) -> int:
    _check_at_least_one(args, "top")
    bundle = load_checkpoint(args.model)
    table = bundle.frozen_model()
    category = None
    if args.category is not None:
        category = bundle.hierarchy.node_of(args.category)
    ranked = table.rank_by_dimension(args.dim, args.top, category=category)
    lines = ["rank\titem_id\tscore"]
    for rank, (item, score) in enumerate(ranked, start=1):
        lines.append(f"{rank}\t{bundle.item_ids[item]}\t{score!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _cmd_experiment(args) -> int:
    manifest = ExperimentManifest.from_json(args.manifest)
    if args.out_dir:
        manifest.out_dir = args.out_dir
    if args.command == "train":
        summary = train_experiment(manifest).summary()
    else:
        summary = run_experiment(manifest)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierbpr",
        description="Hierarchical visual embeddings for one-class "
                    "collaborative filtering")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--users", type=int, default=300)
    p.add_argument("--items", type=int, default=900)
    p.add_argument("--feature-dim", type=int, default=64)
    p.add_argument("--branching", default="6")
    p.add_argument("--positives", type=int, default=8)
    p.add_argument("--planted-scheme", default="5:5")
    p.add_argument("--temperature", type=float, default=0.35)
    p.add_argument("--feature-noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--features-format", choices=["binary", "csv"],
                   default="binary")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="run ingestion and print the report")
    p.add_argument("--feedback", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--item-leaves", required=True)
    p.add_argument("--policy", choices=POLICIES, default="strict")
    p.add_argument("--feature-norm", choices=FEATURE_NORMS, default="none")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eval", help="warm/cold AUC from a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--feedback", required=True)
    p.add_argument("--setting", choices=["warm", "cold"], default="warm")
    p.add_argument("--cold-threshold", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rank-dim", help="top items along one visual dimension")
    p.add_argument("--model", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--category", help="restrict to one leaf category id")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rank_dim)

    for name, help_text in (
            ("train", "fit a manifest's model; write model.ckpt, metrics.tsv"),
            ("run", "train, then evaluate warm and cold; write report.json")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out-dir", help="overrides the manifest's out_dir")
        p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HierBprError, OSError, ValueError, KeyError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
