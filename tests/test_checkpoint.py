import json
import re
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from hierbpr.checkpoint import VERSION, load_checkpoint, save_checkpoint
from hierbpr.cli import main
from hierbpr.errors import ParseError
from hierbpr.evaluation import ColdItemSet, auc, split_leave_one_out
from hierbpr.hierarchy import AllocationScheme
from hierbpr.ingestion import write_pairs
from hierbpr.model import (
    KIND_BPRMF,
    KIND_HVBPR,
    KIND_RAND,
    KIND_VBPR,
    KIND_VBPRC,
    ModelConfig,
    PreferenceModel,
)
from hierbpr.synthdata import SynthConfig, make_corpus
from hierbpr.training import TrainConfig, train

from conftest import one_error
from test_ingestion import BYTE_DAMAGE, damaged


def write_corpus_feedback(path, corpus):
    """``corpus``'s positives as a feedback file ``eval`` can read."""
    pos = corpus.positives
    write_pairs(path, [(corpus.user_ids[u], corpus.item_ids[i])
                       for u, i in zip(pos.rows(), pos.indices)])


@pytest.fixture(scope="module")
def trained_setup():
    cfg = SynthConfig(n_users=30, n_items=60, feature_dim=6, branching=(3,),
                      n_positives=4, planted_scheme=(2, 1), rng_seed=5)
    corpus, _ = make_corpus(cfg)
    tc, split = split_leave_one_out(corpus, 3)
    model = PreferenceModel.create(
        ModelConfig(3, AllocationScheme((2, 1)), rng_seed=11),
        corpus)
    train(model, tc, TrainConfig(iterations=3, rng_seed=7))
    return corpus, tc, split, model


SEEDS = {"split": 3, "init": 11, "sample": 7}


def save_trained(path, setup):
    """``trained_setup``'s model with its split, seeds and training counts."""
    _corpus, tc, split, model = setup
    save_checkpoint(path, model, split, SEEDS, tc.item_counts())


class TestRoundTrip:
    def test_parameters_survive(self, trained_setup, tmp_path):
        corpus, tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        bundle = load_checkpoint(path)
        assert bundle.config == model.config
        assert bundle.user_ids == corpus.user_ids
        assert bundle.item_ids == corpus.item_ids
        for name, arr in model.params.arrays().items():
            assert np.array_equal(arr, bundle.params.arrays()[name]), name
        assert np.array_equal(bundle.split.test_item, split.test_item)
        assert np.array_equal(bundle.split.val_item, split.val_item)
        assert bundle.seeds == SEEDS
        assert np.array_equal(bundle.item_train_count, tc.item_counts())
        assert bundle.feature_dim == corpus.feature_dim

    def test_hierarchy_reconstructed(self, trained_setup, tmp_path):
        corpus = trained_setup[0]
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        bundle = load_checkpoint(path)
        h0, h1 = corpus.hierarchy, bundle.hierarchy
        assert h0.node_ids == h1.node_ids
        assert np.array_equal(h0.parent, h1.parent)
        assert np.array_equal(bundle.table.item_leaf, corpus.item_leaf)

    def test_frozen_model_reproduces_scores(self, trained_setup, tmp_path):
        corpus, _tc, _split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        frozen = load_checkpoint(path).frozen_model()
        table = model.item_table()
        for u in range(corpus.n_users):
            assert np.allclose(model.score_all(u, table), frozen.score_all(u),
                               atol=1e-12)

    def test_frozen_auc_matches_live(self, trained_setup, tmp_path):
        corpus, tc, split, model = trained_setup
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
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
        model = trained_setup[3]
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        frozen = load_checkpoint(path).frozen_model()
        live = model.item_table().rank_by_dimension(1, top_n=10)
        ckpt = frozen.rank_by_dimension(1, top_n=10)
        assert [i for i, _ in live] == [i for i, _ in ckpt]


def _signed(header: dict, payload: bytes) -> bytes:
    """A checkpoint file whose digest matches ``header`` and ``payload``.

    The digest closes the header as its last member, ``"crc32"``: the
    CRC-32 of the header bytes before that member, then of the payload.
    """
    header.pop("crc32", None)
    head = json.dumps(header).encode()[:-1]
    crc = zlib.crc32(payload, zlib.crc32(head))
    raw = head + b',"crc32":' + str(crc).encode() + b"}"
    return b"HBPRCKP1" + len(raw).to_bytes(8, "little") + raw + payload


def _rewrite_header(blob: bytes, edit) -> bytes:
    """Damage that edits the header and signs it again: only the edit is
    wrong."""
    size = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + size])
    edit(header)
    return _signed(header, blob[16 + size:])


def _as_old_version(version):
    def damage(blob: bytes) -> bytes:
        size = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + size])
        payload = blob[16 + size:]
        del header["crc32"]
        header["version"] = version
        if version == 2:
            header["payload_crc32"] = zlib.crc32(payload)
        raw = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode()
        return blob[:8] + len(raw).to_bytes(8, "little") + raw + payload
    return damage


def _flip_header_bit(blob: bytes, offset: int, bit: int) -> bytes:
    """One bit of the JSON header flipped; ``offset`` counts from its start."""
    damaged = bytearray(blob)
    damaged[16 + offset] ^= 1 << bit
    return bytes(damaged)


def _sorted_id_flip(blob: bytes) -> bytes:
    """``"i00010"`` becomes ``"i0001 "`` (0x30 to 0x20), which still sorts
    between its neighbours, so only the digest can tell."""
    return _flip_header_bit(blob, blob.index(b'"i00010"') + 6 - 16, 4)


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


# The little-endian dtype of each directory ``dtype``.
_LITTLE = {"int64": "<i8", "float64": "<f8"}


def _rewrite_arrays(edit):
    """Damage that rewrites the file's arrays through ``edit``, which maps
    a name-to-array dict to a new one.

    The directory, offsets and digest are recomputed, so only what ``edit``
    changed is wrong.
    """
    def damage(blob: bytes) -> bytes:
        size = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + size])
        arrays = {}
        for entry in header["arrays"]:
            start = 16 + size + entry["offset"]
            arrays[entry["name"]] = np.frombuffer(
                blob[start:start + entry["nbytes"]],
                _LITTLE[entry["dtype"]]).reshape(entry["shape"])
        header["arrays"], payload, offset = [], [], 0
        for name, arr in edit(arrays).items():
            kind = "int64" if arr.dtype.kind == "i" else "float64"
            part = np.ascontiguousarray(arr, _LITTLE[kind]).tobytes()
            header["arrays"].append({"name": name, "dtype": kind,
                                     "shape": list(arr.shape),
                                     "offset": offset, "nbytes": len(part)})
            payload.append(part)
            offset += len(part)
        return _signed(header, b"".join(payload))
    return damage


def _edit_array(name, edit):
    """Damage that rewrites one array through ``edit``: only the array's
    own content or shape is wrong."""
    return _rewrite_arrays(lambda arrays: {**arrays, name: edit(arrays[name])})


def _without(name):
    """Damage that drops one array, its directory entry included."""
    return _rewrite_arrays(
        lambda arrays: {k: v for k, v in arrays.items() if k != name})


def _with(name, arr):
    """Damage that adds one well-formed array the file should not hold."""
    return _rewrite_arrays(lambda arrays: {**arrays, name: arr})


def _repeat_last_array(blob: bytes) -> bytes:
    """A second directory entry under the last array's name, over bytes
    appended to the payload: each entry alone is well formed."""
    size = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + size])
    payload = blob[16 + size:]
    repeat = {**header["arrays"][-1], "offset": len(payload)}
    header["arrays"].append(repeat)
    return _signed(header, payload + bytes(repeat["nbytes"]))


def _root_under_child(parent):
    """The root's parent set to one of its children: a cycle."""
    parent = parent.copy()
    root = np.flatnonzero(parent < 0)[0]
    parent[root] = np.flatnonzero(parent == root)[0]
    return parent


def _first_node_parentless(parent):
    """The first node with a parent loses it; in ``trained_setup``'s tree
    that is a leaf holding items."""
    parent = parent.copy()
    parent[np.flatnonzero(parent >= 0)[0]] = -1
    return parent


def _deeper_scheme(header):
    """A three-layer scheme with the same visual rows, for a two-layer
    tree."""
    header["config"]["scheme"] = [1, 1, 1]


# A checkpoint whose tree or scheme cannot be rebuilt, with a digest that
# matches; each message is the error the rebuild raises.
TREE_DAMAGE = {
    "cyclic_parent": (_edit_array("parent", _root_under_child),
                      "CycleDetected"),
    "parentless_item_leaf": (_edit_array("parent", _first_node_parentless),
                             "DanglingItemLeaf"),
    "scheme_deeper_than_tree": (lambda blob: _rewrite_header(
        blob, _deeper_scheme), "SchemeTooDeep"),
}


def _shorten_header_length(blob: bytes) -> bytes:
    size = int.from_bytes(blob[8:16], "little")
    return blob[:8] + (size - 5).to_bytes(8, "little") + blob[16:]


DAMAGE = {
    "truncated": lambda blob: blob[:-9],
    "flipped_payload_byte": lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
    "cut_header": lambda blob: blob[:40],
    "header_cut_mid_json": _shorten_header_length,
    "version_1": _as_old_version(1),
    "version_2": _as_old_version(2),
    "sorted_item_id_flip": _sorted_id_flip,
    "unsorted_item_ids": lambda blob: _rewrite_header(blob,
                                                      _swap_first("item_ids")),
    "unsorted_user_ids": lambda blob: _rewrite_header(blob,
                                                      _swap_first("user_ids")),
    "repeated_user_id": lambda blob: _rewrite_header(blob,
                                                     _repeat_first_user_id),
    "shifted_array_offset": lambda blob: _rewrite_header(blob,
                                                         _shift_item_leaf),
    "repeated_array_name": _repeat_last_array,
    # The config must hold every key ModelConfig.to_dict writes.
    **{f"config_without_{key}": lambda blob, key=key: _rewrite_header(
        blob, lambda header: header["config"].pop(key))
       for key in ("kind", "n_latent", "n_visual", "scheme",
                   "use_visual_bias", "use_category_bias", "rng_seed")},
    "negative_item_leaf": _edit_array("item_leaf",
                                      lambda leaf: np.r_[-1, leaf[1:]]),
    # One row or column short, with a digest that matches.
    **{f"short_{name}": _edit_array(name, lambda arr: arr[:-1])
       for name in ("parent", "item_leaf", "item_theta", "item_base",
                    "item_bias", "user_visual", "split_test", "visual_bias")},
    **{f"narrow_{name}": _edit_array(name, lambda arr: arr[:, :-1])
       for name in ("item_theta", "item_latent", "user_latent")},
    # Index arrays stored as float64, and a float array as int64.
    **{f"float_{name}": _edit_array(name, lambda arr: arr + 0.5)
       for name in ("parent", "split_val", "split_test")},
    "int_item_bias": _edit_array("item_bias",
                                 lambda arr: arr.astype(np.int64)),
    **{name: damage for name, (damage, _) in TREE_DAMAGE.items()},
}


class TestDamagedFiles:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_one_line_parse_error(self, trained_setup, tmp_path, capsys,
                                  damage):
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
        with pytest.raises(ParseError):
            load_checkpoint(path)
        assert main(["rank-dim", "--model", str(path), "--dim", "0"]) == 1
        assert one_error(capsys)["error"] == "ParseError"

    def test_eval_rejects_repeated_user_id(self, trained_setup, tmp_path,
                                           capsys):
        # Feedback names users by id, so a repeated id would silently drop
        # one user's pairs and evaluate another against them.
        corpus = trained_setup[0]
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        path.write_bytes(DAMAGE["repeated_user_id"](path.read_bytes()))
        feedback = tmp_path / "feedback.tsv"
        write_corpus_feedback(feedback, corpus)
        argv = ["eval", "--model", str(path), "--feedback", str(feedback)]
        assert main(argv) == 1
        error = one_error(capsys)
        assert error["error"] == "ParseError"
        assert "user ids are not strictly increasing" in error["message"]

    @pytest.mark.parametrize("damage", sorted(TREE_DAMAGE))
    def test_eval_rejects_unbuildable_tree(self, trained_setup, tmp_path,
                                           capsys, damage):
        corpus = trained_setup[0]
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        edit, cause = TREE_DAMAGE[damage]
        path.write_bytes(edit(path.read_bytes()))
        feedback = tmp_path / "feedback.tsv"
        write_corpus_feedback(feedback, corpus)
        argv = ["eval", "--model", str(path), "--feedback", str(feedback)]
        assert main(argv) == 1
        error = one_error(capsys)
        assert error["error"] == "ParseError"
        assert error["message"].startswith(
            f"{path}: malformed checkpoint: {cause}(")

    def test_version_1_message(self, trained_setup, tmp_path):
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        path.write_bytes(DAMAGE["version_1"](path.read_bytes()))
        with pytest.raises(ParseError, match="version 1"):
            load_checkpoint(path)

    def test_version_2_needs_rewriting(self, trained_setup, tmp_path):
        # Version 2's digest covered only the payload.
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        path.write_bytes(DAMAGE["version_2"](path.read_bytes()))
        with pytest.raises(ParseError, match="version 2 .* write it again"):
            load_checkpoint(path)

    def test_header_bit_flips(self, trained_setup, tmp_path):
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        blob = path.read_bytes()
        size = int.from_bytes(blob[8:16], "little")
        rng = np.random.default_rng(2024)
        flips = [(int(rng.integers(size)), int(rng.integers(8)))
                 for _ in range(400)]
        for offset, bit in flips:
            path.write_bytes(_flip_header_bit(blob, offset, bit))
            with pytest.raises(ParseError):
                load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A trained VBPR-C checkpoint of a few KB and its feedback file."""
    cfg = SynthConfig(n_users=12, n_items=24, feature_dim=4, branching=(2,),
                      n_positives=3, planted_scheme=(2,), rng_seed=8)
    corpus, _ = make_corpus(cfg)
    tc, split = split_leave_one_out(corpus, 1)
    model = PreferenceModel.create(
        ModelConfig(2, AllocationScheme((2,)), kind=KIND_VBPRC, rng_seed=2),
        corpus)
    train(model, tc, TrainConfig(iterations=1, rng_seed=3))
    out = tmp_path_factory.mktemp("small_ckpt")
    save_checkpoint(out / "m.ckpt", model, split,
                    {"split": 1, "init": 2, "sample": 3}, tc.item_counts())
    write_corpus_feedback(out / "feedback.tsv", corpus)
    return out, (out / "m.ckpt").read_bytes()


class TestDamageProperty:
    """Any one flipped bit, or any cut, fails to load with a ParseError, and
    ``eval`` turns it into one JSON error line."""

    # capsys is read and emptied on every example.
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(how=BYTE_DAMAGE)
    def test_flip_or_cut(self, small_checkpoint, capsys, how):
        out, blob = small_checkpoint
        path = out / "damaged.ckpt"
        path.write_bytes(damaged(blob, how))
        with pytest.raises(ParseError):
            load_checkpoint(path)
        assert main(["eval", "--model", str(path),
                     "--feedback", str(out / "feedback.tsv")]) == 1
        assert one_error(capsys)["error"] == "ParseError"


class TestFormat:
    def test_byte_identical_writes(self, trained_setup, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_trained(p1, trained_setup)
        save_trained(p2, trained_setup)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_version_check(self, trained_setup, tmp_path):
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
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
        tc, split = split_leave_one_out(corpus, 1)
        model = PreferenceModel.create(ModelConfig(kind=KIND_RAND, rng_seed=9),
                                       corpus)
        path = tmp_path / "rand.ckpt"
        save_checkpoint(path, model, split, {"split": 1, "init": 9},
                        tc.item_counts())
        frozen = load_checkpoint(path).frozen_model()
        assert np.allclose(frozen.score_all(0), model.score_all(0))


# One config per kind; each creates a different set of parameter arrays.
KIND_CONFIGS = {
    KIND_RAND: ModelConfig(kind=KIND_RAND, rng_seed=9),
    KIND_BPRMF: ModelConfig(3, kind=KIND_BPRMF, rng_seed=4),
    KIND_VBPR: ModelConfig(2, AllocationScheme((2,)), kind=KIND_VBPR,
                           rng_seed=4),
    KIND_VBPRC: ModelConfig(2, AllocationScheme((2,)), kind=KIND_VBPRC,
                            rng_seed=4),
    KIND_HVBPR: ModelConfig(2, AllocationScheme((2, 1)), rng_seed=4),
}


@pytest.fixture(scope="module")
def kind_checkpoints(tmp_path_factory):
    """A briefly trained checkpoint of every kind, beside its live model,
    and a feedback file over the same corpus."""
    cfg = SynthConfig(n_users=12, n_items=24, feature_dim=4, branching=(2,),
                      n_positives=3, planted_scheme=(2, 1), rng_seed=6)
    corpus, _ = make_corpus(cfg)
    tc, split = split_leave_one_out(corpus, 1)
    out = tmp_path_factory.mktemp("kinds")
    models = {}
    for kind, config in KIND_CONFIGS.items():
        model = PreferenceModel.create(config, corpus)
        if kind != KIND_RAND:
            train(model, tc, TrainConfig(iterations=1, rng_seed=3))
        save_checkpoint(out / f"{kind}.ckpt", model, split,
                        {"split": 1, "init": config.rng_seed, "sample": 3},
                        tc.item_counts())
        models[kind] = model
    write_corpus_feedback(out / "feedback.tsv", corpus)
    return out, models


class TestEveryKind:
    @pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
    def test_round_trip(self, kind_checkpoints, kind):
        out, models = kind_checkpoints
        model = models[kind]
        bundle = load_checkpoint(out / f"{kind}.ckpt")
        live, restored = model.params.arrays(), bundle.params.arrays()
        assert sorted(restored) == sorted(live)
        for name, arr in live.items():
            assert restored[name].shape == arr.shape, name
            assert restored[name].tobytes() == arr.tobytes(), name
        users = np.arange(model.n_users)
        expected = model.item_table().score_all(users)
        assert np.array_equal(bundle.frozen_model().score_all(users),
                              expected)

    # Each file is well formed and signed; only its array set or its seeds
    # member is wrong. The split, the seeds and the training counts are in
    # every checkpoint, whatever the kind.
    MISMATCHED = {
        "hvbpr_without_segments": (KIND_HVBPR, _without("segments"),
                                   "missing ['segments']"),
        "bprmf_with_segments": (KIND_BPRMF, _with("segments", np.zeros((2, 4))),
                                "unexpected ['segments']"),
        "vbprc_without_category_bias": (KIND_VBPRC, _without("category_bias"),
                                        "missing ['category_bias']"),
        "unknown_array": (KIND_VBPR, _with("zzz_bogus", np.zeros(3)),
                          "unexpected ['zzz_bogus']"),
        "without_split_val": (KIND_VBPR, _without("split_val"),
                              "missing ['split_val']"),
        "without_split_test": (KIND_BPRMF, _without("split_test"),
                               "missing ['split_test']"),
        "without_item_train_count": (KIND_RAND, _without("item_train_count"),
                                     "missing ['item_train_count']"),
        "without_seeds": (KIND_HVBPR, lambda blob: _rewrite_header(
            blob, lambda header: header.pop("seeds")), "KeyError('seeds')"),
        "seeds_not_an_object": (KIND_VBPRC, lambda blob: _rewrite_header(
            blob, lambda header: header.update(seeds=[1, 11, 7])),
            "seeds [1, 11, 7] are not an object"),
    }

    @pytest.mark.parametrize("case", sorted(MISMATCHED))
    def test_array_set_must_match_config(self, kind_checkpoints, tmp_path,
                                         capsys, case):
        out, _models = kind_checkpoints
        kind, damage, message = self.MISMATCHED[case]
        path = tmp_path / "m.ckpt"
        path.write_bytes(damage((out / f"{kind}.ckpt").read_bytes()))
        with pytest.raises(ParseError, match=re.escape(message)):
            load_checkpoint(path)
        for argv in (["eval", "--feedback", str(out / "feedback.tsv")],
                     ["rank-dim", "--dim", "0"]):
            assert main(argv + ["--model", str(path)]) == 1
            error = one_error(capsys)
            assert error["error"] == "ParseError"
            assert message in error["message"]

    @pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
    def test_rewritten_file_loads(self, kind_checkpoints, tmp_path, kind):
        # The control for the case above: rewriting the arrays unchanged
        # gives a file that loads.
        out, _models = kind_checkpoints
        path = tmp_path / "m.ckpt"
        blob = (out / f"{kind}.ckpt").read_bytes()
        path.write_bytes(_rewrite_arrays(lambda arrays: arrays)(blob))
        assert load_checkpoint(path).config == KIND_CONFIGS[kind]


def _drop_user(pairs, corpus, split):
    """Every pair but the first user's: the message names that user."""
    return ([(u, i) for u, i in pairs if u != corpus.user_ids[0]],
            f"held-out test item of user {corpus.user_ids[0]!r}")


def _drop_validation_item(pairs, corpus, split):
    """Every pair but the held-out validation item of a user past the
    first, whose test item stays."""
    u = int(np.flatnonzero(split.val_item >= 0)[3])
    held = (corpus.user_ids[u], corpus.item_ids[split.val_item[u]])
    return ([pair for pair in pairs if pair != held],
            f"held-out validation item of user {corpus.user_ids[u]!r}")


class TestEvalFeedback:
    """``eval`` needs feedback that holds the checkpoint's held-out items,
    such as the file the split was carved from; anything else is one
    ``HeldOutMissing`` line, never an AUC."""

    LACKING = {
        "empty": lambda pairs, corpus, split: (
            [], f"held-out test item of user {corpus.user_ids[0]!r}"),
        "first_user_removed": _drop_user,
        "validation_item_removed": _drop_validation_item,
    }

    @pytest.fixture
    def files(self, trained_setup, tmp_path):
        """A checkpoint and the (user id, item id) pairs its split was
        carved from."""
        corpus = trained_setup[0]
        path = tmp_path / "m.ckpt"
        save_trained(path, trained_setup)
        pos = corpus.positives
        pairs = [(corpus.user_ids[u], corpus.item_ids[i])
                 for u, i in zip(pos.rows(), pos.indices)]
        return path, pairs

    @pytest.mark.parametrize("case", sorted(LACKING))
    @pytest.mark.parametrize("setting", ["warm", "cold"])
    def test_lacking_feedback_is_one_error(self, trained_setup, files,
                                           tmp_path, capsys, case, setting):
        corpus, _tc, split, _model = trained_setup
        path, pairs = files
        kept, message = self.LACKING[case](pairs, corpus, split)
        feedback = tmp_path / "feedback.tsv"
        write_pairs(feedback, kept)
        assert main(["eval", "--model", str(path), "--feedback",
                     str(feedback), "--setting", setting]) == 1
        assert one_error(capsys) == {
            "error": "HeldOutMissing",
            "message": f"feedback lacks the {message}"}

    def test_superset_evaluates(self, files, tmp_path, capsys):
        # Pairs naming ids the checkpoint does not know are ignored.
        path, pairs = files
        reports = []
        for name, extra in (("same", []),
                            ("superset", [("ghost-user", pairs[0][1]),
                                          (pairs[0][0], "ghost-item")])):
            feedback = tmp_path / f"{name}.tsv"
            write_pairs(feedback, pairs + extra)
            assert main(["eval", "--model", str(path),
                         "--feedback", str(feedback)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1].pop("feedback_pairs_ignored") == 2
        assert reports[0].pop("feedback_pairs_ignored") == 0
        assert reports[0] == reports[1]
