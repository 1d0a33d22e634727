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
import functools
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import HierBprError, ParseError
from .evaluation import ColdItemSet, auc, evaluate_report, split_leave_one_out
from .ingestion import FEATURE_NORMS, POLICIES, load_corpus, read_feedback
from .model import KIND_RAND, ModelConfig, PreferenceModel
from .synthdata import SynthConfig, generate
from .training import RegWeights, TrainConfig, TrainResult, train


# The three named seeds a manifest may set; each left out is zero.
_SEED_NAMES = ("split", "init", "sample")
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
    "seeds": dict.fromkeys(_SEED_NAMES, int),
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
    seeds: dict = field(default_factory=dict)
    cold_threshold: int = 5
    policy: str = "strict"
    feature_norm: str = "none"

    def __post_init__(self):
        self.seeds = {**dict.fromkeys(_SEED_NAMES, 0), **self.seeds}

    @classmethod
    def from_json(cls, path) -> "ExperimentManifest":
        """Read and check a manifest; any malformed key raises ParseError."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise ParseError(
                    f"{path}: manifest is not UTF-8 JSON: {exc}") from None
        _check_manifest(raw)
        return cls(**raw.pop("inputs"), **raw)

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
                   for name, value in self.seeds.items()]
        for key, value, ok in checks:
            if not ok:
                raise ParseError(f"manifest value out of range: {key!r} is "
                                 f"{value!r}")
        # ``TrainConfig``'s own defaults fill every train key left out.
        train = dict(self.train)
        try:
            reg = RegWeights(**train.pop("reg", {}))
            return (ModelConfig.from_dict({**self.model,
                                           "rng_seed": self.seeds["init"]}),
                    TrainConfig(**train, reg=reg,
                                rng_seed=self.seeds["sample"]))
        except ValueError as exc:
            raise ParseError(f"manifest value out of range: {exc}") from None


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


def run_experiment(manifest: ExperimentManifest, evaluate: bool = True
                   ) -> dict:
    """load -> split -> train -> restore the epoch best on validation ->
    write ``model.ckpt`` and ``metrics.tsv``; with ``evaluate``, also
    evaluate warm and cold and write ``report.json``.

    ``train`` is this without ``evaluate`` and ``run`` is it with, so a
    manifest writes the same checkpoint through both. Returns what the
    subcommand prints.
    """
    # Out-of-range values fail before any input is read, and bad inputs
    # before out_dir exists.
    model_config, train_config = manifest.configs()
    corpus, _ = load_corpus(
        manifest.feedback, manifest.features, manifest.hierarchy,
        manifest.item_leaves, policy=manifest.policy,
        feature_norm=manifest.feature_norm)
    training_corpus, split = split_leave_one_out(corpus,
                                                 manifest.seeds["split"])
    model = PreferenceModel.create(model_config, corpus)
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if model.config.kind == KIND_RAND:
        result = TrainResult(None, None, None, [])
    else:
        result = train(model, training_corpus, train_config, split=split)
    if result.best_params is not None:
        model.params = result.best_params
    paths = {"checkpoint": str(out_dir / "model.ckpt"),
             "metrics": str(out_dir / "metrics.tsv")}
    save_checkpoint(paths["checkpoint"], model, split=split,
                    seeds=manifest.seeds,
                    item_train_count=training_corpus.item_counts())
    _write_metrics(paths["metrics"], result.history)
    best = {"best_epoch": result.best_epoch,
            "best_val_auc": result.best_val_auc}
    if not evaluate:
        return {**paths, **best, "epochs_run": len(result.history)}

    cold = ColdItemSet.from_training(training_corpus,
                                     threshold=manifest.cold_threshold)
    report = evaluate_report(model, corpus, split, cold)
    paths["report"] = str(out_dir / "report.json")
    _write_json(paths["report"], {
        **report, **best, "seeds": manifest.seeds,
        "data": {"users": corpus.n_users, "items": corpus.n_items,
                 "interactions": corpus.n_interactions}})
    return {**paths, "warm_auc": report["warm"]["auc"],
            "cold_auc": report["cold"]["auc"]}


# ------------------------------------------------------------- subcommands

def _parse_ints(text: str) -> tuple[int, ...]:
    """A ``--branching`` or ``--planted-scheme`` value; argparse prints a
    malformed one as a usage error under the flag's name."""
    try:
        return tuple(int(part) for part in text.replace(",", ":").split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers separated by ',' or ':', got {text!r}"
        ) from None


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_users=args.users,
        n_items=args.items,
        feature_dim=args.feature_dim,
        branching=args.branching,
        n_positives=args.positives,
        planted_scheme=args.planted_scheme,
        temperature=args.temperature,
        feature_noise=args.feature_noise,
        rng_seed=args.seed,
    )
    paths = generate(cfg, args.out_dir)
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
    pairs = read_feedback(args.feedback)
    positives, dropped = bundle.positives_from_pairs(pairs)
    bundle.check_held_out(positives)
    table = bundle.frozen_model()

    cold = args.setting == "cold"
    cold_set = ColdItemSet(args.cold_threshold,
                           bundle.item_train_count < args.cold_threshold)
    result = auc(table, positives, bundle.split, setting=args.setting,
                 cold_set=cold_set)
    report = {
        "setting": args.setting,
        "auc": result.auc,
        "users_evaluated": result.users_evaluated,
        "items_total": bundle.n_items,
        "cold_items": cold_set.n_cold if cold else None,
        "cold_threshold": args.cold_threshold if cold else None,
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
    summary = run_experiment(manifest, evaluate=args.command == "run")
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing fills a
    fresh namespace each call and leaves the parser as it was."""
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
    p.add_argument("--branching", type=_parse_ints, default="6")
    p.add_argument("--positives", type=int, default=8)
    p.add_argument("--planted-scheme", type=_parse_ints, default="5:5")
    p.add_argument("--temperature", type=float, default=0.35)
    p.add_argument("--feature-noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HierBprError, OSError, ValueError, KeyError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; name the public one.
        name = ("MemoryError" if isinstance(exc, MemoryError)
                else type(exc).__name__)
        error = {"error": name, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
