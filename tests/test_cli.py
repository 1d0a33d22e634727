import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from hierbpr import cli
from hierbpr.checkpoint import save_checkpoint
from hierbpr.cli import (
    ExperimentManifest,
    build_parser,
    main,
    run_experiment,
)
from hierbpr.evaluation import (ColdItemSet, evaluate_report,
                                split_leave_one_out)
from hierbpr.hierarchy import AllocationScheme
from hierbpr.ingestion import load_corpus, write_features_binary
from hierbpr.model import ModelConfig, PreferenceModel
from hierbpr.training import TrainConfig, train

from conftest import one_error


def synth_args(out_dir, **overrides):
    base = {
        "--users": "30", "--items": "60", "--feature-dim": "6",
        "--branching": "3", "--positives": "4", "--planted-scheme": "2:1",
        "--seed": "1",
    }
    base.update(overrides)
    argv = ["synth", "--out-dir", str(out_dir)]
    for key, value in base.items():
        argv += [key, value]
    return argv


def data_paths(out_dir):
    out = Path(out_dir)
    return {
        "feedback": str(out / "feedback.tsv"),
        "features": str(out / "features.bin"),
        "hierarchy": str(out / "hierarchy.tsv"),
        "item_leaves": str(out / "item_categories.tsv"),
    }


def write_manifest(path, dataset, out_dir, **sections):
    """An HVBPR 2:1 manifest over ``dataset``; ``sections`` replace its own."""
    raw = {
        "inputs": dataset,
        "model": {"kind": "HVBPR", "n_latent": 3, "n_visual": 3,
                  "scheme": [2, 1]},
        "out_dir": str(out_dir),
        **sections,
    }
    Path(path).write_text(json.dumps(raw))
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(synth_args(out)) == 0
    return data_paths(out)


class TestSynthValidate:
    def test_synth_writes_all_artifacts(self, tmp_path, capsys):
        assert main(synth_args(tmp_path)) == 0
        paths = json.loads(capsys.readouterr().out)
        for path in paths.values():
            assert Path(path).exists()

    def test_validate_reports(self, dataset, capsys):
        argv = ["validate"]
        for key, path in dataset.items():
            argv += [f"--{key.replace('_', '-')}", path]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["users"] == 30
        assert report["items"] == 60

    def test_one_parser_parses_each_call_afresh(self, dataset, tmp_path,
                                                capsys):
        # main reuses one parser; no option of one call reaches the next.
        assert build_parser() is build_parser()

        def run(argv):
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)

        def validate(paths, *extra):
            argv = ["validate", *extra]
            for key, path in paths.items():
                argv += [f"--{key.replace('_', '-')}", path]
            return run(argv)

        pruned = validate(dataset, "--policy", "prune", "--feature-norm", "l2")
        assert (pruned["policy"], pruned["feature_norm"]) == ("prune", "l2")
        run(synth_args(tmp_path / "noisy", **{
            "--items": "40", "--feature-noise": "3.0"}))
        with pytest.raises(SystemExit):
            main(synth_args(tmp_path / "bad", **{"--branching": "x"}))
        capsys.readouterr()
        binary = run(synth_args(tmp_path / "bin"))
        # The default noise again: the files of the module's dataset.
        assert (Path(binary["features"]).read_bytes()
                == Path(dataset["features"]).read_bytes())
        report = validate(data_paths(tmp_path / "bin"))
        assert (report["policy"], report["feature_norm"]) == ("strict", "none")
        assert report["items"] == 60

    def test_error_json_on_missing_file(self, capsys):
        argv = ["validate", "--feedback", "/nonexistent/x.tsv",
                "--features", "/nonexistent/y.bin",
                "--hierarchy", "/nonexistent/h.tsv",
                "--item-leaves", "/nonexistent/l.tsv"]
        assert main(argv) == 1
        assert set(one_error(capsys)) == {"error", "message"}

    @pytest.mark.parametrize("flag, value", [
        ("--temperature", "nan"), ("--temperature", "inf"),
        ("--feature-noise", "nan"), ("--feature-noise", "inf"),
        ("--feature-noise", "1e39")])   # finite, but features pass float32
    def test_synth_non_finite(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(synth_args(out, **{flag: value})) == 1
        assert one_error(capsys)["error"] == "InvalidShape"
        assert not out.exists()

    def test_synth_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(synth_args(out, **{"--seed": "-1"})) == 1
        error = one_error(capsys)
        assert error["error"] == "InvalidShape"
        assert "rng_seed" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--branching", "2,x"), ("--planted-scheme", "5:x"),
        ("--branching", "")])
    def test_synth_malformed_list_is_usage_error(self, tmp_path, capsys,
                                                 flag, value):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            main(synth_args(out, **{flag: value}))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: hierbpr" in err
        assert (f"argument {flag}: expected integers separated by ',' or "
                f"':', got {value!r}") in err
        assert "_parse_ints" not in err
        assert not out.exists()


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    manifest = write_manifest(out / "exp.json", dataset, out,
                              train={"iterations": 3},
                              seeds={"split": 9, "init": 9, "sample": 9})
    assert main(["train", "--manifest", manifest]) == 0
    return out / "model.ckpt", out / "metrics.tsv"


class TestTrainEvalRank:
    def test_metrics_tsv_schema(self, checkpoint):
        _ckpt, metrics = checkpoint
        lines = Path(metrics).read_text().strip().splitlines()
        assert lines[0] == "epoch\tval_auc\ttrain_loss_estimate\tseconds"
        assert len(lines) == 4
        first = lines[1].split("\t")
        assert first[0] == "1"
        assert 0.0 <= float(first[1]) <= 1.0
        assert float(first[3]) >= 0.0

    def test_eval_warm_and_cold(self, checkpoint, dataset, capsys, tmp_path):
        ckpt, _ = checkpoint
        for setting in ("warm", "cold"):
            out_json = tmp_path / f"{setting}.json"
            argv = ["eval", "--model", str(ckpt),
                    "--feedback", dataset["feedback"],
                    "--setting", setting, "--out", str(out_json)]
            assert main(argv) == 0
            capsys.readouterr()
            report = json.loads(out_json.read_text())
            assert report["setting"] == setting
            assert 0.0 <= report["auc"] <= 1.0
            assert report["users_evaluated"] > 0
            assert report["items_total"] == 60
            assert report["config"]["n_visual"] == 3
            assert report["seed"] == {"split": 9, "init": 9, "sample": 9}
            if setting == "cold":
                assert report["cold_items"] > 0
                assert report["cold_threshold"] == 5

    def test_rank_dim_output(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        assert main(["rank-dim", "--model", str(ckpt), "--dim", "0",
                     "--top", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank\titem_id\tscore"
        assert len(lines) == 6
        ranks = [int(line.split("\t")[0]) for line in lines[1:]]
        assert ranks == [1, 2, 3, 4, 5]
        scores = [float(line.split("\t")[2]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_rank_dim_category_filter(self, checkpoint, dataset, capsys):
        ckpt, _ = checkpoint
        leaves = Path(dataset["item_leaves"]).read_text().splitlines()
        category = leaves[0].split("\t")[1]
        members = {line.split("\t")[0] for line in leaves
                   if line.split("\t")[1] == category}
        assert main(["rank-dim", "--model", str(ckpt), "--dim", "1",
                     "--top", "50", "--category", category]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        listed = {line.split("\t")[1] for line in lines}
        assert listed <= members

    def test_rank_dim_category_without_items(self, checkpoint, capsys):
        # Only leaves hold items: an inner node is an error, not an empty
        # list.
        ckpt, _ = checkpoint
        assert main(["rank-dim", "--model", str(ckpt), "--dim", "0",
                     "--category", "root"]) == 1
        error = one_error(capsys)
        assert error["error"] == "UnknownItem"
        assert "holds no items" in error["message"]

    def test_rank_dim_bad_dimension(self, checkpoint, capsys):
        ckpt, _ = checkpoint
        assert main(["rank-dim", "--model", str(ckpt), "--dim", "99"]) == 1
        assert one_error(capsys)["error"] == "DimensionOutOfRange"


class TestRunExperiment:
    def manifest(self, dataset, out_dir, kind="HVBPR"):
        model = {"kind": kind, "n_latent": 3, "n_visual": 3,
                 "scheme": [2, 1]}
        if kind in ("BPR-MF", "RAND"):
            model = {"kind": kind, "n_latent": 6 if kind == "BPR-MF" else 0,
                     "n_visual": 0, "scheme": []}
        return ExperimentManifest(
            feedback=dataset["feedback"],
            features=dataset["features"],
            hierarchy=dataset["hierarchy"],
            item_leaves=dataset["item_leaves"],
            out_dir=str(out_dir),
            model=model,
            train={"learning_rate": 0.05, "iterations": 3},
            seeds={"split": 1, "init": 2, "sample": 3},
        )

    def test_outputs_written(self, dataset, tmp_path):
        summary = run_experiment(self.manifest(dataset, tmp_path / "run"))
        for key in ("report", "checkpoint", "metrics"):
            assert Path(summary[key]).exists()
        report = json.loads(Path(summary["report"]).read_text())
        assert report["seeds"] == {"split": 1, "init": 2, "sample": 3}
        assert report["best_epoch"] is not None
        assert 0.0 <= report["warm"]["auc"] <= 1.0
        assert 0.0 <= report["cold"]["auc"] <= 1.0

    def test_eval_reproduces_report(self, dataset, tmp_path, capsys):
        # The checkpoint carries the split and the training counts, and the
        # training feedback holds every held-out item, so ``eval`` gives the
        # report's AUCs.
        summary = run_experiment(self.manifest(dataset, tmp_path / "run"))
        report = json.loads(Path(summary["report"]).read_text())
        for setting in ("warm", "cold"):
            assert main(["eval", "--model", summary["checkpoint"],
                         "--feedback", dataset["feedback"],
                         "--setting", setting]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["auc"] == report[setting]["auc"]
            assert (printed["users_evaluated"]
                    == report[setting]["users_evaluated"])

    def test_train_matches_run(self, dataset, tmp_path, capsys):
        # One manifest into two out_dirs: run is train plus evaluation.
        manifest = write_manifest(
            tmp_path / "exp.json", dataset, tmp_path / "unused",
            train={"learning_rate": 0.05, "iterations": 4},
            seeds={"split": 1, "init": 2, "sample": 3})
        printed = {}
        for command in ("train", "run"):
            assert main([command, "--manifest", manifest,
                         "--out-dir", str(tmp_path / command)]) == 0
            printed[command] = json.loads(capsys.readouterr().out)
        trained, ran = tmp_path / "train", tmp_path / "run"
        report = json.loads((ran / "report.json").read_text())
        assert printed["train"] == {
            "checkpoint": str(trained / "model.ckpt"),
            "metrics": str(trained / "metrics.tsv"),
            "epochs_run": 4,
            "best_epoch": report["best_epoch"],
            "best_val_auc": report["best_val_auc"],
        }
        # The last epoch is not the best one, so the rule is exercised.
        assert report["best_epoch"] < 4
        assert not (trained / "report.json").exists()
        assert not (tmp_path / "unused").exists()
        assert ((trained / "model.ckpt").read_bytes()
                == (ran / "model.ckpt").read_bytes())

        def columns(out_dir):  # all but the wall-clock seconds
            lines = (out_dir / "metrics.tsv").read_text().splitlines()
            return [line.split("\t")[:3] for line in lines]
        assert columns(trained) == columns(ran)

    @pytest.mark.parametrize("iterations", [3, 4])
    def test_one_table_matches_refreezing_best_params(self, dataset, tmp_path,
                                                      iterations):
        # Epoch 3 is the best of both runs. At 3 epochs the last
        # validation's table writes the checkpoint and the report; at 4 one
        # table is frozen from the best epoch's copy for both. Either way
        # they must hold what freezing that copy afresh, twice, gives.
        manifest = self.manifest(dataset, tmp_path / "run")
        manifest.train["iterations"] = iterations
        summary = run_experiment(manifest)
        report = json.loads(Path(summary["report"]).read_text())
        assert report["best_epoch"] == 3

        model_config, train_config = manifest.configs()
        corpus, _ = load_corpus(dataset["feedback"], dataset["features"],
                                dataset["hierarchy"], dataset["item_leaves"])
        tc, split = split_leave_one_out(corpus, manifest.seeds["split"])
        model = PreferenceModel.create(model_config, corpus)
        result = train(model, tc, train_config, split=split)
        if iterations == 3:
            # Bound to the copy's user rows, not the trainer's live ones.
            table, params = result.best_table, result.best_params
            assert table.user_visual is params.user_visual
            assert table.user_latent is params.user_latent
        else:
            assert result.best_table is None
        model.params = result.best_params
        # Neither call is handed a table, so each freezes best_params anew.
        save_checkpoint(tmp_path / "refrozen.ckpt", model, split,
                        manifest.seeds, tc.item_counts())
        assert ((tmp_path / "refrozen.ckpt").read_bytes()
                == Path(summary["checkpoint"]).read_bytes())
        cold = ColdItemSet.from_training(tc, manifest.cold_threshold)
        expected = evaluate_report(model, corpus, split, cold)
        assert {key: report[key] for key in expected} == expected

    def test_train_and_run_take_the_same_options(self):
        for command in ("train", "run"):
            args = build_parser().parse_args([command, "--manifest", "m"])
            assert sorted(vars(args)) == ["command", "func", "manifest",
                                          "out_dir"]

    def test_rand_baseline_runs(self, dataset, tmp_path):
        summary = run_experiment(self.manifest(dataset, tmp_path / "rand",
                                               kind="RAND"))
        report = json.loads(Path(summary["report"]).read_text())
        assert report["best_epoch"] is None
        metrics = Path(summary["metrics"]).read_text().strip().splitlines()
        assert len(metrics) == 1  # header only

    def test_manifest_json_round_trip(self, dataset, tmp_path, capsys):
        manifest_path = write_manifest(
            tmp_path / "exp.json", dataset, tmp_path / "out",
            model={"kind": "VBPR", "n_latent": 3, "n_visual": 3,
                   "scheme": [3]},
            train={"learning_rate": 0.05, "iterations": 2},
            seeds={"split": 4, "init": 5, "sample": 6})
        assert main(["run", "--manifest", manifest_path]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert Path(summary["checkpoint"]).exists()

    def test_reruns_byte_identical(self, dataset, tmp_path):
        m1 = self.manifest(dataset, tmp_path / "r1")
        m2 = self.manifest(dataset, tmp_path / "r2")
        s1 = run_experiment(m1)
        s2 = run_experiment(m2)
        assert (Path(s1["checkpoint"]).read_bytes()
                == Path(s2["checkpoint"]).read_bytes())
        assert (Path(s1["report"]).read_bytes()
                == Path(s2["report"]).read_bytes())

    def test_baseline_grid_shares_split(self, dataset, tmp_path):
        # One manifest per grid cell, same split seed: every cell reports
        # the same evaluated-user counts and data summary.
        reports = []
        for kind in ("BPR-MF", "VBPR", "HVBPR"):
            manifest = self.manifest(dataset, tmp_path / kind, kind=kind)
            if kind == "VBPR":
                manifest.model = {"kind": kind, "n_latent": 3, "n_visual": 3,
                                  "scheme": [3]}
            summary = run_experiment(manifest)
            reports.append(json.loads(Path(summary["report"]).read_text()))
        warm_counts = {r["warm"]["users_evaluated"] for r in reports}
        cold_counts = {r["cold"]["users_evaluated"] for r in reports}
        assert len(warm_counts) == 1
        assert len(cold_counts) == 1
        assert {json.dumps(r["data"], sort_keys=True) for r in reports}
        kinds = [r["config"]["kind"] for r in reports]
        assert kinds == ["BPR-MF", "VBPR", "HVBPR"]

    def test_report_and_printed_keys(self, dataset, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path / "exp.json", dataset, tmp_path / "out",
            train={"learning_rate": 0.05, "iterations": 2},
            seeds={"split": 1, "init": 2, "sample": 3})
        assert main(["run", "--manifest", manifest]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == {"checkpoint", "cold_auc", "metrics", "report",
                                "warm_auc"}
        report = json.loads(Path(printed["report"]).read_text())
        assert set(report) == {"best_epoch", "best_val_auc", "cold",
                               "cold_items", "cold_threshold", "config",
                               "data", "seeds", "warm"}
        corpus, _ = load_corpus(dataset["feedback"], dataset["features"],
                                dataset["hierarchy"], dataset["item_leaves"])
        assert report["data"] == {"users": corpus.n_users,
                                  "items": corpus.n_items,
                                  "interactions": corpus.n_interactions}

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize("section, key, value, expected", [
        ("inputs", "features", "absent.bin", "FileNotFoundError"),
        ("model", "scheme", [1, 1, 1], "SchemeTooDeep"),
    ], ids=["missing_features", "scheme_too_deep"])
    def test_failed_run_leaves_no_out_dir(self, dataset, tmp_path, capsys,
                                          command, section, key, value,
                                          expected):
        # The dataset's tree has two layers, so a three-layer scheme fails
        # once the model is created, after every input has been read.
        path = Path(write_manifest(tmp_path / "exp.json", dataset,
                                   tmp_path / "out"))
        raw = json.loads(path.read_text())
        raw[section][key] = value
        path.write_text(json.dumps(raw))
        assert main([command, "--manifest", str(path)]) == 1
        assert one_error(capsys)["error"] == expected
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_no_validation_item_fails_before_training(self, tmp_path, capsys,
                                                      command):
        # Two positives per user: the split holds out a test item each and
        # no validation item, so no epoch could be selected.
        data = tmp_path / "data"
        assert main(synth_args(data, **{
            "--users": "40", "--items": "60", "--feature-dim": "8",
            "--positives": "2", "--planted-scheme": "2", "--seed": "3"})) == 0
        capsys.readouterr()
        path = write_manifest(tmp_path / "exp.json", data_paths(data),
                              tmp_path / "out",
                              model={"kind": "VBPR", "n_latent": 2,
                                     "scheme": [2]})
        assert main([command, "--manifest", path]) == 1
        error = one_error(capsys)
        assert error["error"] == "NoEvaluableUsers"
        assert "three positives" in error["message"]
        assert not (tmp_path / "out").exists()

    def test_overflow_is_one_line(self, tmp_path, capsys):
        # At this learning rate the first epoch overflows. numpy raises
        # there, once, so nothing but the JSON line reaches stderr; before,
        # each overflowing operation printed its own RuntimeWarning.
        data = tmp_path / "data"
        assert main(synth_args(data, **{
            "--users": "40", "--items": "90", "--feature-dim": "8",
            "--branching": "2", "--planted-scheme": "2:2"})) == 0
        capsys.readouterr()
        path = write_manifest(
            tmp_path / "exp.json", data_paths(data), tmp_path / "out",
            model={"kind": "HVBPR", "n_latent": 2, "n_visual": 4,
                   "scheme": [2, 2]},
            train={"learning_rate": 1e200, "iterations": 2})
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--manifest", path]) == 1
        error = one_error(capsys)
        assert error["error"] == "NonFiniteUpdate"
        assert re.fullmatch(r"epoch 1, triple \(\d+, \d+, \d+\): overflow "
                            r"encountered in \w+", error["message"])
        assert np.geterr() == before

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize("model, array", [
        ({"scheme": [10**20, 1]}, "'user_visual' of shape (30, "
                                  "100000000000000000001)"),
        ({"scheme": [2**62, 1]}, "'user_visual'"),
        ({"n_latent": 2**63}, "'user_latent' of shape (30, "
                              "9223372036854775808)"),
    ], ids=["scheme_past_intp", "scheme_past_bytes", "latent_past_intp"])
    def test_unaddressable_array_is_typed(self, dataset, tmp_path, capsys,
                                          command, model, array):
        # numpy would fail these with its own ValueError; sizes are checked
        # in Python ints first, and before out_dir exists.
        path = write_manifest(tmp_path / "exp.json", dataset,
                              tmp_path / "out", model={
                                  "kind": "HVBPR", "n_latent": 3,
                                  "scheme": [2, 1], **model})
        assert main([command, "--manifest", path]) == 1
        error = one_error(capsys)
        assert error["error"] == "ArrayTooLarge"
        assert f"parameter array {array}" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exc_type", [
        MemoryError, type("_ArrayMemoryError", (MemoryError,), {})],
        ids=["builtin", "numpy_subclass"])
    def test_allocation_failure_is_one_json_line(self, dataset, tmp_path,
                                                 capsys, monkeypatch,
                                                 exc_type):
        def fail(*args, **kwargs):
            raise exc_type("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "load_corpus", fail)
        path = write_manifest(tmp_path / "exp.json", dataset, tmp_path / "out")
        assert main(["run", "--manifest", str(path)]) == 1
        assert one_error(capsys) == {"error": "MemoryError",
                                     "message": "Unable to allocate 745. GiB"}
        assert not (tmp_path / "out").exists()

    def test_input_files_never_mutated(self, dataset, tmp_path):
        import hashlib

        def digest(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        before = {k: digest(p) for k, p in dataset.items()}
        before["ids"] = digest(dataset["features"] + ".ids")
        run_experiment(self.manifest(dataset, tmp_path / "immut"))
        after = {k: digest(p) for k, p in dataset.items()}
        after["ids"] = digest(dataset["features"] + ".ids")
        assert before == after


class TestZeroWidthFeatures:
    """A binary feature file whose header gives F = 0 is a parse error."""

    @pytest.fixture
    def inputs(self, dataset, tmp_path):
        ids = Path(dataset["features"] + ".ids").read_text().split()
        inputs = dict(dataset, features=str(tmp_path / "features.bin"))
        write_features_binary(inputs["features"], ids,
                              np.zeros((len(ids), 0)))
        return inputs

    def test_validate(self, inputs, capsys):
        argv = ["validate"]
        for key, path in inputs.items():
            argv += [f"--{key.replace('_', '-')}", path]
        assert_one_parse_error(capsys, argv, inputs["features"])

    def test_run(self, inputs, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "exp.json", inputs,
                                  tmp_path / "out")
        assert_one_parse_error(capsys, ["run", "--manifest", manifest],
                               inputs["features"])


class TestNonUtf8Input:
    """Bytes that are not UTF-8 in any text input are a ParseError that
    names the file, not a UnicodeDecodeError."""

    @pytest.mark.parametrize("target", [
        "feedback", "hierarchy", "item_leaves", "ids", "manifest"])
    def test_one_line_parse_error(self, dataset, tmp_path, capsys, target):
        inputs = {}
        for key, path in dataset.items():
            inputs[key] = str(tmp_path / Path(path).name)
            Path(inputs[key]).write_bytes(Path(path).read_bytes())
        Path(inputs["features"] + ".ids").write_bytes(
            Path(dataset["features"] + ".ids").read_bytes())
        manifest = Path(write_manifest(tmp_path / "exp.json", inputs,
                                       tmp_path / "out"))
        bad = {"ids": inputs["features"] + ".ids",
               "manifest": str(manifest)}.get(target, inputs.get(target))
        blob = Path(bad).read_bytes()
        if target == "manifest":  # inside a string, so only the byte is bad
            blob = blob.replace(b'"out_dir": "', b'"out_dir": "\xff', 1)
        else:
            blob += b"u1\t\xff\xfe\n"
        Path(bad).write_bytes(blob)
        if target == "manifest":
            argv = ["run", "--manifest", bad]
        else:
            argv = ["validate"]
            for key, path in inputs.items():
                argv += [f"--{key.replace('_', '-')}", path]
        assert_one_parse_error(capsys, argv, bad)
        assert not (tmp_path / "out").exists()


def _manifest_with(tmp_path, change):
    """A valid manifest over missing input files, edited by ``change``."""
    missing = tmp_path / "absent"
    raw = {
        "inputs": {k: str(missing / k) for k in
                   ("feedback", "features", "hierarchy", "item_leaves")},
        "model": {"kind": "HVBPR", "n_latent": 2, "n_visual": 2,
                  "scheme": [1, 1]},
        "train": {"learning_rate": 0.05, "iterations": 1, "patience": None,
                  "reg": {"bias": 0.01, "segments": 0}},
        "seeds": {"split": 1, "init": 2, "sample": 3},
        "cold_threshold": 5,
        "policy": "strict",
        "feature_norm": "none",
        "out_dir": str(tmp_path / "out"),
    }
    return change(raw)


def _drop(section, key):
    def change(raw):
        del (raw[section] if section else raw)[key]
        return raw
    return change


def _put(section, key, value):
    def change(raw):
        target = raw
        for part in section.split(".") if section else ():
            target = target[part]
        target[key] = value
        return raw
    return change


def assert_one_parse_error(capsys, argv, named):
    """``main(argv)`` exits 1 with one JSON ParseError line naming ``named``."""
    assert main(argv) == 1
    error = one_error(capsys)
    assert error["error"] == "ParseError"
    assert named in error["message"]


class TestManifestErrors:
    @pytest.mark.parametrize("change, named", [
        (_put("train.reg", "bogus", 1), "'train.reg.bogus'"),
        (lambda raw: [raw], "JSON object"),
        (_drop("", "out_dir"), "'out_dir'"),
        (lambda raw: {**raw, "trian": raw.pop("train")}, "'trian'"),
        (_drop("inputs", "features"), "'inputs.features'"),
        (_drop("", "model"), "'model'"),
        (_put("inputs", "images", "x"), "'inputs.images'"),
        (_put("model", "depth", 3), "'model.depth'"),
        (_put("seeds", "shuffle", 4), "'seeds.shuffle'"),
        (_put("train", "iterations", "3"), "'train.iterations'"),
        (_put("train", "iterations", True), "'train.iterations'"),
        (_put("train", "reg", 0.1), "'train.reg'"),
        (_put("model", "scheme", [1, 1.5]), "'model.scheme'"),
        (_put("", "cold_threshold", None), "'cold_threshold'"),
        (lambda raw: {**raw.pop("inputs"), **raw}, "'inputs'"),
        # Well-typed but out of range.
        (_put("train", "learning_rate", -1), "learning rate"),
        (_put("model", "kind", "HBPR"), "'HBPR'"),
        (_put("train", "iterations", 0), "iteration"),
        (_put("train.reg", "latent", -0.5), "latent"),
        (_put("", "cold_threshold", -3), "'cold_threshold'"),
        (_put("", "policy", "bogus"), "'policy'"),
        (_put("", "feature_norm", "l3"), "'feature_norm'"),
        (_put("seeds", "split", -1), "'seeds.split'"),
        (_put("seeds", "init", -2), "'seeds.init'"),
        (_put("seeds", "sample", -3), "'seeds.sample'"),
        # A kind that does not match the rest of the model section.
        (_put("model", "kind", "RAND"), "RAND has no"),
        (_put("model", "kind", "BPR-MF"), "BPR-MF has no visual"),
        (_put("model", "kind", "VBPR"), "VBPR allocates"),
        (lambda raw: _put("model", "kind", "VBPR-C")(
            _put("model", "scheme", [2])(
                _put("model", "use_category_bias", False)(raw))),
         "use_category_bias"),
        (_put("model", "n_visual", 3), "n_visual is 3"),
        # json reads NaN and Infinity; a non-finite number is out of range.
        (_put("train", "learning_rate", float("nan")), "learning rate"),
        (_put("train", "learning_rate", float("inf")), "learning rate"),
        (_put("train.reg", "bias", float("nan")), "bias"),
        (_put("train.reg", "segments", float("inf")), "segments"),
    ], ids=["bogus_reg_key", "json_list", "missing_out_dir",
            "misspelled_train", "missing_input", "missing_model",
            "unknown_input", "unknown_model_key", "unknown_seed",
            "string_for_int", "bool_for_int", "number_for_section",
            "float_in_scheme", "null_threshold", "flat_inputs",
            "negative_learning_rate", "unknown_kind", "zero_iterations",
            "negative_reg", "negative_cold_threshold", "unknown_policy",
            "unknown_feature_norm", "negative_split_seed",
            "negative_init_seed", "negative_sample_seed",
            "rand_with_dimensions",
            "bprmf_with_visual", "vbpr_layered_scheme",
            "vbprc_without_category_bias", "n_visual_not_scheme_total",
            "nan_learning_rate", "inf_learning_rate", "nan_reg", "inf_reg"])
    def test_one_line_parse_error(self, tmp_path, capsys, change, named):
        # The inputs do not exist, so reading any of them would end in an
        # OSError: a ParseError shows the manifest was checked first, and
        # before out_dir was created.
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(_manifest_with(tmp_path, change)))
        assert_one_parse_error(capsys, ["run", "--manifest", str(path)],
                               named)
        assert not (tmp_path / "out").exists()

    def test_overflowing_number(self, tmp_path, capsys):
        # json parses 1e400 as inf.
        path = tmp_path / "exp.json"
        text = json.dumps(_manifest_with(
            tmp_path, _put("train", "learning_rate", 0.125)))
        path.write_text(text.replace("0.125", "1e400"))
        assert_one_parse_error(capsys, ["run", "--manifest", str(path)],
                               "learning rate")
        assert not (tmp_path / "out").exists()

    def test_train_checks_manifest_first(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(_manifest_with(
            tmp_path, _put("train", "learning_rate", -1))))
        assert_one_parse_error(capsys, ["train", "--manifest", str(path)],
                               "learning rate")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, named", [
        (["eval", "--setting", "cold", "--cold-threshold", "-2"],
         "--cold-threshold"),
        (["rank-dim", "--dim", "0", "--top", "-1"], "--top"),
        (["rank-dim", "--dim", "0", "--top", "0"], "--top"),
    ], ids=["negative_cold_threshold", "negative_top", "zero_top"])
    def test_flag_below_one(self, tmp_path, capsys, argv, named):
        # The checkpoint does not exist, so reading it would be an OSError.
        argv = argv + ["--model", str(tmp_path / "absent.ckpt")]
        if argv[0] == "eval":
            argv += ["--feedback", str(tmp_path / "absent.tsv")]
        assert_one_parse_error(capsys, argv, named)

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text('{"inputs": ')
        assert main(["run", "--manifest", str(path)]) == 1
        assert one_error(capsys)["error"] == "ParseError"

    def test_null_patience_and_defaults_accepted(self, tmp_path):
        path = tmp_path / "exp.json"
        raw = _manifest_with(tmp_path, _drop("", "seeds"))
        path.write_text(json.dumps(raw))
        manifest = ExperimentManifest.from_json(path)
        assert manifest.configs()[1].patience is None
        assert manifest.configs()[1].reg.bias == 0.01
        assert manifest.seeds == {"split": 0, "init": 0, "sample": 0}
        assert manifest.features == raw["inputs"]["features"]
        # An empty train section leaves every default to TrainConfig.
        path.write_text(json.dumps(_manifest_with(
            tmp_path, lambda raw: {**raw, "train": {}, "seeds": {}})))
        manifest = ExperimentManifest.from_json(path)
        assert manifest.configs()[1] == TrainConfig()

    def test_model_section_defaults(self, tmp_path):
        # Keys left out of the model section follow ModelConfig's rule;
        # the init seed becomes the config's rng_seed.
        path = tmp_path / "exp.json"
        for model, expected in (
                ({"scheme": [1, 1]},
                 ModelConfig(0, AllocationScheme((1, 1)), rng_seed=2)),
                ({"kind": "VBPR-C", "scheme": [2]},
                 ModelConfig(0, AllocationScheme((2,)), use_visual_bias=True,
                             use_category_bias=True, rng_seed=2,
                             kind="VBPR-C")),
                ({"kind": "BPR-MF", "n_latent": 4},
                 ModelConfig(4, use_visual_bias=False, rng_seed=2,
                             kind="BPR-MF"))):
            path.write_text(json.dumps(_manifest_with(
                tmp_path, _put("", "model", model))))
            config, _ = ExperimentManifest.from_json(path).configs()
            assert config == expected

    @pytest.mark.parametrize("argv", [
        ["eval", "--sample-candidates", "5"],
        ["eval", "--sample-seed", "1"],
        ["bench-step"],
    ], ids=["eval_sample_candidates", "eval_sample_seed", "bench_step"])
    def test_removed_options_rejected(self, tmp_path, capsys, argv):
        # AUC is always exact, and per-step timing is bench/run.py's.
        if argv[0] == "eval":
            argv = argv + ["--model", str(tmp_path / "absent.ckpt"),
                           "--feedback", str(tmp_path / "absent.tsv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: hierbpr" in capsys.readouterr().err
