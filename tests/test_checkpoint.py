import json
import zlib

import numpy as np
import pytest

from hierbpr.checkpoint import VERSION, load_checkpoint, save_checkpoint
from hierbpr.cli import main
from hierbpr.errors import ParseError
from hierbpr.evaluation import ColdItemSet, auc, split_leave_one_out
from hierbpr.hierarchy import AllocationScheme
from hierbpr.ingestion import write_feedback
from hierbpr.model import (
    KIND_HVBPR,
    KIND_RAND,
    PreferenceModel,
    make_baseline,
)
from hierbpr.synthdata import SynthConfig, make_corpus
from hierbpr.training import TrainConfig, train


@pytest.fixture(scope="module")
def trained_setup():
    cfg = SynthConfig(n_users=30, n_items=60, feature_dim=6, branching=(3,),
                      n_positives=4, planted_scheme=(2, 1), rng_seed=5)
    corpus, _ = make_corpus(cfg)
    tc, split = split_leave_one_out(corpus, 3)
    model = PreferenceModel.create(
        make_baseline(KIND_HVBPR, total_dims=6, visual_dims=3,
                      scheme=AllocationScheme((2, 1)), rng_seed=11),
        corpus)
    train(model, tc, TrainConfig(iterations=3, rng_seed=7))
    return corpus, tc, split, model


class TestRoundTrip:
    def test_parameters_survive(self, trained_setup, tmp_path):
        corpus, tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split,
                        seeds={"split": 3, "init": 11, "sample": 7},
                        item_train_count=tc.item_counts())
        bundle = load_checkpoint(path)
        assert bundle.config == model.config
        assert bundle.user_ids == corpus.user_ids
        assert bundle.item_ids == corpus.item_ids
        for name, arr in model.params.arrays().items():
            assert np.array_equal(arr, bundle.params.arrays()[name]), name
        assert np.array_equal(bundle.split.test_item, split.test_item)
        assert np.array_equal(bundle.split.val_item, split.val_item)
        assert bundle.seeds == {"split": 3, "init": 11, "sample": 7}
        assert bundle.feature_dim == corpus.feature_dim

    def test_hierarchy_reconstructed(self, trained_setup, tmp_path):
        corpus, _tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split)
        bundle = load_checkpoint(path)
        h0, h1 = corpus.hierarchy, bundle.hierarchy
        assert h0.node_ids == h1.node_ids
        assert np.array_equal(h0.parent, h1.parent)
        assert np.array_equal(bundle.item_leaf, corpus.item_leaf)

    def test_frozen_model_reproduces_scores(self, trained_setup, tmp_path):
        corpus, _tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split)
        frozen = load_checkpoint(path).frozen_model()
        table = model.item_table()
        for u in range(corpus.n_users):
            assert np.allclose(model.score_all(u, table), frozen.score_all(u),
                               atol=1e-12)

    def test_frozen_auc_matches_live(self, trained_setup, tmp_path):
        corpus, tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split,
                        item_train_count=tc.item_counts())
        bundle = load_checkpoint(path)
        frozen = bundle.frozen_model()
        live = auc(model, corpus.positives, split)
        from_ckpt = auc(frozen, corpus.positives, bundle.split)
        assert live.auc == pytest.approx(from_ckpt.auc, abs=1e-12)
        cold = ColdItemSet.from_training(tc, 5)
        live_cold = auc(model, corpus.positives, split, setting="cold",
                        cold_set=cold)
        ckpt_cold = auc(frozen, corpus.positives, bundle.split, setting="cold",
                        cold_set=ColdItemSet(
                            5, bundle.item_train_count < 5))
        assert live_cold.auc == pytest.approx(ckpt_cold.auc, abs=1e-12)

    def test_rank_dim_from_checkpoint(self, trained_setup, tmp_path):
        corpus, _tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split)
        frozen = load_checkpoint(path).frozen_model()
        live = model.item_table().rank_by_dimension(1, top_n=10)
        ckpt = frozen.rank_by_dimension(1, top_n=10)
        assert [i for i, _ in live] == [i for i, _ in ckpt]


def _rewrite_header(blob: bytes, edit) -> bytes:
    size = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + size])
    edit(header)
    raw = json.dumps(header).encode()
    return blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + size:]


def _as_v1(header):
    header["version"] = 1
    del header["payload_crc32"]


def _swap_first(key):
    def edit(header):
        ids = header[key]
        ids[0], ids[1] = ids[1], ids[0]
    return edit


def _repeat_first_user_id(header):
    ids = header["user_ids"]
    ids[1] = ids[0]


def _shift_item_leaf(header):
    entry = next(e for e in header["arrays"] if e["name"] == "item_leaf")
    entry["offset"] += 8


def _edit_array(name, edit):
    """Damage that rewrites one array through ``edit``.

    Later offsets and the digest are recomputed, so only the array's own
    content or shape is wrong.
    """
    def damage(blob: bytes) -> bytes:
        size = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + size])
        payload, offset = [], 0
        for entry in header["arrays"]:
            start = 16 + size + entry["offset"]
            part = blob[start:start + entry["nbytes"]]
            if entry["name"] == name:
                dtype = "<f8" if entry["dtype"] == "float64" else "<i8"
                arr = edit(np.frombuffer(part, dtype).reshape(entry["shape"]))
                part = np.ascontiguousarray(arr, dtype).tobytes()
                entry["shape"] = list(arr.shape)
            entry["offset"], entry["nbytes"] = offset, len(part)
            payload.append(part)
            offset += len(part)
        payload = b"".join(payload)
        header["payload_crc32"] = zlib.crc32(payload)
        raw = json.dumps(header).encode()
        return blob[:8] + len(raw).to_bytes(8, "little") + raw + payload
    return damage


def _shorten_header_length(blob: bytes) -> bytes:
    size = int.from_bytes(blob[8:16], "little")
    return blob[:8] + (size - 5).to_bytes(8, "little") + blob[16:]


DAMAGE = {
    "truncated": lambda blob: blob[:-9],
    "flipped_payload_byte": lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
    "cut_header": lambda blob: blob[:40],
    "header_cut_mid_json": _shorten_header_length,
    "version_1": lambda blob: _rewrite_header(blob, _as_v1),
    "unsorted_item_ids": lambda blob: _rewrite_header(blob,
                                                      _swap_first("item_ids")),
    "unsorted_user_ids": lambda blob: _rewrite_header(blob,
                                                      _swap_first("user_ids")),
    "repeated_user_id": lambda blob: _rewrite_header(blob,
                                                     _repeat_first_user_id),
    "shifted_array_offset": lambda blob: _rewrite_header(blob,
                                                         _shift_item_leaf),
    "negative_item_leaf": _edit_array("item_leaf",
                                      lambda leaf: np.r_[-1, leaf[1:]]),
    # One row or column short, with a digest that matches.
    **{f"short_{name}": _edit_array(name, lambda arr: arr[:-1])
       for name in ("parent", "item_leaf", "item_theta", "item_base",
                    "item_bias", "user_visual", "split_test", "visual_bias")},
    **{f"narrow_{name}": _edit_array(name, lambda arr: arr[:, :-1])
       for name in ("item_theta", "item_latent", "user_latent")},
}


class TestDamagedFiles:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_one_line_parse_error(self, trained_setup, tmp_path, capsys,
                                  damage):
        _corpus, _tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split)
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
        with pytest.raises(ParseError):
            load_checkpoint(path)
        assert main(["rank-dim", "--model", str(path), "--dim", "0"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ParseError"

    def test_eval_rejects_repeated_user_id(self, trained_setup, tmp_path,
                                           capsys):
        # Feedback names users by id, so a repeated id would silently drop
        # one user's pairs and evaluate another against them.
        corpus, _tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split)
        path.write_bytes(DAMAGE["repeated_user_id"](path.read_bytes()))
        feedback = tmp_path / "feedback.tsv"
        pos = corpus.positives
        write_feedback(feedback, [(corpus.user_ids[u], corpus.item_ids[i])
                                  for u, i in zip(pos.rows(), pos.indices)])
        argv = ["eval", "--model", str(path), "--feedback", str(feedback)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ParseError"
        assert "user ids are not strictly increasing" in error["message"]

    def test_version_1_message(self, trained_setup, tmp_path):
        _corpus, _tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split)
        path.write_bytes(DAMAGE["version_1"](path.read_bytes()))
        with pytest.raises(ParseError, match="version 1"):
            load_checkpoint(path)


class TestFormat:
    def test_byte_identical_writes(self, trained_setup, tmp_path):
        _corpus, tc, split, model = trained_setup
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, model, split=split,
                        item_train_count=tc.item_counts())
        save_checkpoint(p2, model, split=split,
                        item_train_count=tc.item_counts())
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_version_check(self, trained_setup, tmp_path):
        _corpus, _tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, split=split)
        blob = bytearray(path.read_bytes())
        # Corrupt the version field inside the JSON header.
        field = f'"version":{VERSION}'.encode()
        idx = blob.find(field)
        assert idx > 0
        blob[idx:idx + len(field)] = b'"version":9'
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_rand_model_checkpoints(self, tmp_path):
        cfg = SynthConfig(n_users=10, n_items=20, feature_dim=4,
                          branching=(2,), n_positives=3,
                          planted_scheme=(1,), rng_seed=1)
        corpus, _ = make_corpus(cfg)
        _tc, split = split_leave_one_out(corpus, 1)
        model = PreferenceModel.create(make_baseline(KIND_RAND, rng_seed=9),
                                       corpus)
        path = tmp_path / "rand.ckpt"
        save_checkpoint(path, model, split=split)
        frozen = load_checkpoint(path).frozen_model()
        assert np.allclose(frozen.score_all(0), model.score_all(0))
