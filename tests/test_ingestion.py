import io
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hierbpr import ingestion
from hierbpr.cli import main
from hierbpr.errors import (
    DanglingItemLeaf,
    EmptyCorpus,
    HierBprError,
    OrphanItem,
    ParseError,
)
from hierbpr.evaluation import split_leave_one_out, auc
from hierbpr.ingestion import (
    FEATURE_BLOCK_ROWS,
    FEATURE_READ_BYTES,
    Feedback,
    assemble_corpus,
    load_corpus,
    read_features,
    read_feedback,
    write_features_binary,
    write_pairs,
)
from hierbpr.hierarchy import AllocationScheme
from hierbpr.model import KIND_VBPR, ModelConfig, PreferenceModel
from hierbpr.synthdata import SynthConfig, generate

import reference
from conftest import feedback_pairs, one_error


EDGES = [("a", "root"), ("b", "root")]
LEAVES = {"i0": "a", "i1": "a", "i2": "b"}
FEATS = {"i0": [1.0, 0.0], "i1": [0.0, 1.0], "i2": [1.0, 1.0]}
PAIRS = [("u0", "i0"), ("u0", "i2"), ("u1", "i1")]
FEEDBACK = Feedback.from_pairs(PAIRS)


def with_index(blob, record, value):
    """A binary feature file's bytes with record ``record``'s id_index set
    to ``value``."""
    feat = int.from_bytes(blob[16:24], "little")
    at = 24 + record * (8 + 4 * feat)
    return blob[:at] + value.to_bytes(8, "little") + blob[at + 8:]


def write_inputs(tmp_path, pairs=PAIRS, feats=FEATS, leaves=LEAVES,
                 edges=EDGES):
    paths = {
        "feedback": tmp_path / "fb.tsv",
        "features": tmp_path / "f.bin",
        "hierarchy": tmp_path / "h.tsv",
        "item_leaves": tmp_path / "il.tsv",
    }
    write_pairs(paths["feedback"], pairs)
    ids = sorted(feats)
    matrix = np.array([feats[i] for i in ids], dtype=np.float32)
    write_features_binary(paths["features"], ids, matrix)
    write_pairs(paths["hierarchy"], edges)
    write_pairs(paths["item_leaves"], leaves.items())
    return paths


class TestFeedbackParsing:
    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "fb.tsv"
        write_pairs(path, [("u", "i"), ("u", "i"), ("v", "i")])
        assert feedback_pairs(read_feedback(path)) == [("u", "i"), ("v", "i")]

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "fb.tsv"
        path.write_text("u1\ti1\t5.0\t1234567\nu2\ti2\n", encoding="utf-8")
        assert feedback_pairs(read_feedback(path)) == [("u1", "i1"),
                                                       ("u2", "i2")]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "fb.tsv"
        path.write_text("u1\ti1\njunk-line\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_feedback(path)
        assert ":2:" in str(err.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "fb.tsv"
        path.write_text("u1\ti1\n\n\nu2\ti2\n", encoding="utf-8")
        assert len(read_feedback(path)) == 2

    def test_all_blank_file_is_empty(self, tmp_path):
        path = tmp_path / "fb.tsv"
        path.write_bytes(b"\n \t\n\r\n\xe3\x80\x80")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feedback = read_feedback(path)
        assert len(feedback) == 0
        assert feedback.user_ids == feedback.item_ids == ()
        assert feedback.pairs.indptr.tolist() == [0]
        assert feedback.pairs.n_items == 0

    def test_arrays_index_sorted_distinct_ids(self, tmp_path):
        path = tmp_path / "fb.tsv"
        path.write_bytes(b"v\tj\r\nu\tj\ru\ti\nu\x00\ti\nv\tj")
        feedback = read_feedback(path)
        assert feedback.user_ids == ("u", "u\x00", "v")
        assert feedback.item_ids == ("i", "j")
        assert feedback.pairs.indptr.tolist() == [0, 2, 3, 4]
        assert feedback.pairs.indices.tolist() == [0, 1, 0, 1]
        assert feedback.pairs.n_items == 2
        same = Feedback.from_pairs(feedback_pairs(feedback)[::-1] * 2)
        assert same.user_ids == feedback.user_ids
        assert same.item_ids == feedback.item_ids
        assert np.array_equal(same.pairs.indptr, feedback.pairs.indptr)
        assert np.array_equal(same.pairs.indices, feedback.pairs.indices)

    def test_no_whitespace_past_u3000(self):
        # The reader finds multi-byte whitespace among those up to U+3000.
        assert max(c for c in range(0x110000) if chr(c).isspace()) == 0x3000

    def test_memory_is_file_size_not_longest_id(self, tmp_path):
        # A fixed-width id array would hold 10,001 ids of 64 KB: 655 MB.
        # The reader peaks near 22 times this 160 KB file, mostly int64
        # index arrays of its short lines.
        path = tmp_path / "fb.tsv"
        lines = [f"u{k % 97}\ti{k}\n" for k in range(10_000)]
        lines.insert(5_000, "u" + "x" * 65_536 + "\ti0\n")
        path.write_text("".join(lines), encoding="utf-8")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            feedback = read_feedback(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(feedback) == 10_001
        assert peak < 32 * size


# Pieces of feedback lines: ids (a NUL, non-ASCII, astral), ASCII and
# Unicode whitespace (U+0085, U+00A0, U+2028 and U+3000 included) and
# tabs; and bytes that are not UTF-8 (a stray continuation byte, a
# truncated sequence, a surrogate, an overlong form).
LINE_PIECES = ["u", "i", "ab", "\x00", "é", "日本", "\U0001f600", " ", "\x0b",
               "\x1c", "\x85", "\xa0", "\u2028", "\u3000", "\t", "\t",
               "\t"]
NOT_UTF8 = [b"\xff", b"\x80", b"\xe6\x97", b"\xed\xa0\x80", b"\xc0\xaf"]


@st.composite
def feedback_bytes(draw):
    """A feedback file's bytes: lines of pieces, each ended by \\n, \\r\\n or
    \\r (the last one maybe not), sometimes with bytes that are not UTF-8."""
    lines = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(LINE_PIECES), max_size=8).map("".join),
        st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
    data = "".join(line + end for line, end in lines).encode("utf-8")
    if lines and draw(st.booleans()):
        data = data[:-len(lines[-1][1])]
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


def _outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return exc


def not_utf8(path, data):
    """README's error for a text file whose bytes are not UTF-8, or None
    when they are."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text ({exc.reason})"
    return None


class TestFeedbackProperty:
    """The array reader against the line-by-line reader it replaced
    (``reference.read_feedback``): same pairs, or the same ParseError.

    A file that is not UTF-8 fails on that before any line is checked, as
    README says. The old reader could report a malformed line first: its
    incremental decoder holds back a sequence cut off at the end of the
    file until every complete line has been checked."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=feedback_bytes())
    @example(data=b"u\ti\r\nu\ti\ru\x00\ti\n \t \n"
                  b"\xc2\xa0\t\xe3\x80\x80\nv\tj\tk")
    @example(data=b"u\ti\n\t\nv\t\tj\n")
    @example(data=b"u\ti\n\xe6\x97\xa5\n")
    @example(data=b"u\ti\n\xff\n")
    @example(data=b"uab\r\n\xe6\x97")
    def test_matches_line_reader(self, tmp_path, data):
        path = tmp_path / "fb.tsv"
        path.write_bytes(data)
        got = _outcome(read_feedback, path)
        error = not_utf8(path, data)
        if error:
            assert isinstance(got, ParseError)
            assert str(got) == error
            return
        expected = _outcome(reference.read_feedback, path)
        if isinstance(expected, ParseError):
            assert isinstance(got, ParseError)
            assert str(got) == str(expected)
            return
        assert feedback_pairs(got) == sorted(expected)
        assert got.user_ids == tuple(sorted({u for u, _ in expected}))
        assert got.item_ids == tuple(sorted({i for _, i in expected}))
        assert len(got.pairs) == len(got.user_ids)
        assert got.pairs.n_items == len(got.item_ids)
        # The pairs constructor gives the same arrays.
        built = Feedback.from_pairs(expected)
        assert np.array_equal(built.pairs.indptr, got.pairs.indptr)
        assert np.array_equal(built.pairs.indices, got.pairs.indices)


class TestSidecarProperty:
    """A feature file's ``.ids`` sidecar through the byte scanner: its ids
    are the line-by-line reader's nonblank lines (``reference._lines``),
    and the first line that repeats an id is a ParseError naming it."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=feedback_bytes())
    @example(data=b"a\r\nb\rc \n\t\n\xc2\xa0\n\x00\n\xe3\x80\x80a\nb")
    # Line 4 repeats "c" before line 5 repeats "b", which sorts first.
    @example(data=b"b\nd\nc\nc\nb\n")
    @example(data=b"a\nb\n\xe6\x97")
    def test_ids_are_line_text(self, tmp_path, data):
        path = tmp_path / "f.bin"
        sidecar = tmp_path / "f.bin.ids"
        sidecar.write_bytes(data)
        expected = not_utf8(sidecar, data)
        ids = []
        if expected is None:
            ids = [line for _, line in reference._lines(sidecar)]
            repeated = [item for k, item in enumerate(ids) if item in ids[:k]]
            if repeated:
                expected = (f"{sidecar}: item {repeated[0]!r} has more than "
                            "one feature row")
        write_features_binary(path, ids, np.zeros((len(ids), 1)))
        sidecar.write_bytes(data)
        got = _outcome(read_features, path)
        if expected is None:
            assert got[0] == ids
        else:
            assert isinstance(got, ParseError)
            assert str(got) == expected


class TestWriters:
    """The writers refuse, before writing, an id their readers would not
    read back; every other id round-trips exactly."""

    @pytest.mark.parametrize("bad", ["", " ", "\u3000\t", "a\nb", "a\rb",
                                     "b\r\n"])
    def test_sidecar_rejects_unreadable_id(self, tmp_path, bad):
        path = tmp_path / "f.bin"
        with pytest.raises(ValueError, match=re.escape(f"item id {bad!r}")):
            write_features_binary(path, ["a", bad, "c", ""],
                                  np.ones((4, 2), dtype=np.float32))
        assert not path.exists()
        assert not Path(f"{path}.ids").exists()

    @pytest.mark.parametrize("pair", [
        ("", "i"), ("u", ""), ("u\tv", "i"), ("u", "i\tj"), ("\t", "i"),
        ("u\n", "i"), ("u", "i\r"), (" ", "\u3000"), ("\xa0", "\t ")])
    def test_pairs_reject_unreadable(self, tmp_path, pair):
        path = tmp_path / "p.tsv"
        with pytest.raises(ValueError, match=re.escape(f"pair {pair!r}")):
            write_pairs(path, [("u0", "i0"), pair, ("", "")])
        assert not path.exists()

    def test_lone_surrogate_rejected_before_writing(self, tmp_path):
        # Not UTF-8, so no reader could read it back.
        with pytest.raises(UnicodeEncodeError):
            write_pairs(tmp_path / "p.tsv", [("u", "i"), ("u", "\ud800")])
        with pytest.raises(UnicodeEncodeError):
            write_features_binary(tmp_path / "f.bin", ["a", "\ud800"],
                                  np.ones((2, 2), dtype=np.float32))
        assert not list(tmp_path.iterdir())

    def test_odd_ids_round_trip(self, tmp_path):
        ids = [" a", "a\x00", "b\u3000c", "c ", "\x0bd", "\u3000e"]
        path = tmp_path / "f.bin"
        write_features_binary(path, ids, np.ones((6, 2), dtype=np.float32))
        assert read_features(path)[0] == ids
        pairs = [(" ", ids[0])] + [(u, i) for u in ids for i in ids[::2]]
        path = tmp_path / "p.tsv"
        write_pairs(path, pairs)
        assert feedback_pairs(read_feedback(path)) == sorted(pairs)


class TestFeatureFiles:
    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "f.bin"
        ids = ["x", "y", "z"]
        matrix = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_features_binary(path, ids, matrix)
        got_ids, rows = read_features(path)
        assert got_ids == ids
        assert rows.shape == matrix.shape
        [(index, vectors)] = rows.blocks()
        assert index.tolist() == [0, 1, 2]
        assert np.array_equal(vectors, matrix)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features_binary(path, ["a"], np.ones((1, 2), dtype=np.float32))
        (tmp_path / "f.bin.ids").unlink()
        with pytest.raises(ParseError):
            read_features(path)

    def test_csv_is_bad_magic(self, tmp_path, capsys):
        # Features are binary only: a CSV file is named, not parsed.
        paths = write_inputs(tmp_path)
        paths["features"] = tmp_path / "f.csv"
        paths["features"].write_text("i0,1.0,0.0\ni1,0.0,1.0\ni2,1.0,1.0\n",
                                     encoding="utf-8")
        assert validate(paths) == 1
        assert one_error(capsys) == {
            "error": "ParseError",
            "message": f"{paths['features']}: bad magic b'i0,1.0,0'"}

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features_binary(path, ["a", "b"], np.ones((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(ParseError):
            read_features(path)

    @pytest.mark.parametrize("n, feat, damage, message, policy", [
        (2, 3, lambda blob: blob[:24] + (9).to_bytes(8, "little") + blob[32:],
         "id_index 9 out of range", "strict"),
        (2, 3, lambda blob: blob[:24] + (1).to_bytes(8, "little") + blob[32:],
         "missing vector for id_index 0", "strict"),
        (2, 3, lambda blob: blob[:-6], "truncated vector at record 1",
         "strict"),
        (2, 3, lambda blob: blob[:-16], "truncated at record 1", "strict"),
        # Past the first block of rows and, at F=4096, the first read.
        (FEATURE_BLOCK_ROWS + 2, 4096,
         lambda blob: with_index(blob, FEATURE_BLOCK_ROWS + 1, 999),
         "id_index 999 out of range", "strict"),
        # The last item has no category, so prune drops it; its record is
        # still checked.
        (3, 3, lambda blob: with_index(blob, 2, 9), "id_index 9 out of range",
         "prune"),
    ], ids=["index_out_of_range", "index_repeated", "cut_vector",
            "cut_index", "index_past_first_block", "index_of_pruned_item"])
    def test_damaged_binary_named(self, tmp_path, capsys, n, feat, damage,
                                  message, policy):
        # Sizes are checked as the file is opened, id_index values as its
        # records are read; either way validate prints one JSON error line.
        ids = [f"i{k}" for k in range(n)]
        kept = ids[:-1] if policy == "prune" else ids
        paths = write_inputs(tmp_path, pairs=[("u0", "i0")],
                             feats=dict.fromkeys(ids, [1.0] * feat),
                             leaves=dict.fromkeys(kept, "a"))
        path = paths["features"]
        path.write_bytes(damage(path.read_bytes()))
        assert validate(paths, "--policy", policy) == 1
        assert one_error(capsys) == {"error": "ParseError",
                                     "message": f"{path}: {message}"}

    def test_header_cut(self, tmp_path, capsys):
        # Past the magic but short of the two u64 counts.
        paths = write_inputs(tmp_path)
        blob = paths["features"].read_bytes()
        for size in range(8, 24):
            paths["features"].write_bytes(blob[:size])
            with pytest.raises(ParseError, match=f"f.bin: header cut at "
                                                 f"{size} of 24 bytes"):
                read_features(paths["features"])
            assert validate(paths) == 1
            assert one_error(capsys)["error"] == "ParseError"

    def test_extra_binary_record(self, tmp_path):
        path = tmp_path / "f.bin"
        write_features_binary(path, ["a", "b"], np.ones((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob + blob[-(8 + 3 * 4):])  # the last record again
        with pytest.raises(ParseError, match="bytes follow the 2 records"):
            read_features(path)


# One damage, drawn as (kind, at, field): a cut, a flipped bit, an inserted
# tab or newline, a dropped line, or one field replaced by a token that
# reads as a non-finite or out-of-range number. Positions are taken modulo
# the file's bytes, bits, lines and fields, so one draw fits any file.
BYTE_DAMAGE = st.tuples(st.sampled_from(["cut", "flip"]),
                        st.integers(0, 2**32), st.just(0))
TEXT_DAMAGE = st.one_of(
    BYTE_DAMAGE,
    st.tuples(st.sampled_from(["\t", "\n", "drop", "nan", "inf", "1e999",
                               "1e39"]),
              st.integers(0, 2**32), st.integers(0, 2**32)))


def damaged(blob, how):
    """``blob`` damaged as ``how`` names; a text file's fields split on
    tabs."""
    kind, at, field = how
    if kind == "cut":
        return blob[:at % len(blob)]
    if kind == "flip":
        at %= 8 * len(blob)
        byte = bytes([blob[at // 8] ^ 1 << at % 8])
        return blob[:at // 8] + byte + blob[at // 8 + 1:]
    if kind in ("\t", "\n"):
        at %= len(blob) + 1
        return blob[:at] + kind.encode() + blob[at:]
    lines = blob.splitlines(keepends=True)
    at %= len(lines)
    if kind == "drop":
        del lines[at]
    else:
        fields = lines[at].rstrip(b"\n").split(b"\t")
        fields[field % len(fields)] = kind.encode()
        lines[at] = b"\t".join(fields) + b"\n"
    return b"".join(lines)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """A generated corpus's paths and its feature file and sidecar bytes."""
    cfg = SynthConfig(n_users=6, n_items=12, feature_dim=3, branching=(2,),
                      n_positives=2, planted_scheme=(1,), rng_seed=4)
    paths = generate(cfg, tmp_path_factory.mktemp("small_dataset"))
    del paths["ground_truth"]
    features = paths["features"]
    with open(features, "rb") as fh, open(features + ".ids", "rb") as ids:
        return paths, {features: fh.read(), features + ".ids": ids.read()}


class TestDamageProperty:
    @settings(max_examples=250, deadline=None)
    @given(sidecar=st.booleans(), how=BYTE_DAMAGE)
    def test_flip_or_cut_loads_or_is_typed(self, small_dataset, sidecar, how):
        # A damaged feature file or sidecar either still loads or raises
        # one of the package's own errors, never a bare Python one.
        paths, originals = small_dataset
        target = sorted(originals)[sidecar]
        for path, original in originals.items():
            with open(path, "wb") as fh:
                fh.write(damaged(original, how) if path == target
                         else original)
        try:
            load_corpus(paths["feedback"], paths["features"],
                        paths["hierarchy"], paths["item_leaves"])
        except HierBprError:
            pass


@pytest.fixture(scope="module")
def text_dataset(tmp_path_factory):
    """A generated corpus's paths, and each text file's path and bytes by
    name (``ids`` is the feature file's sidecar)."""
    cfg = SynthConfig(n_users=6, n_items=12, feature_dim=3, branching=(2,),
                      n_positives=2, planted_scheme=(1,), rng_seed=4)
    paths = generate(cfg, tmp_path_factory.mktemp("text_dataset"))
    del paths["ground_truth"]
    texts = {key: paths[key] for key in ("feedback", "hierarchy",
                                         "item_leaves")}
    texts["ids"] = paths["features"] + ".ids"
    return paths, {key: (path, Path(path).read_bytes())
                   for key, path in texts.items()}


class TestTextDamageProperty:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(["feedback", "ids", "hierarchy",
                                   "item_leaves"]),
           how=TEXT_DAMAGE)
    def test_loads_or_is_one_json_error(self, text_dataset, capsys, target,
                                        how):
        # Damaged text either still loads or raises one of the package's
        # own errors, which validate prints as its one stderr line, with no
        # numpy warning first.
        paths, originals = text_dataset
        for key, (path, original) in originals.items():
            Path(path).write_bytes(
                damaged(original, how) if key == target else original)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                load_corpus(paths["feedback"], paths["features"],
                            paths["hierarchy"], paths["item_leaves"])
            except HierBprError as exc:
                assert validate(paths) == 1
                assert one_error(capsys) == {"error": type(exc).__name__,
                                             "message": str(exc)}


class TestLoadCorpus:
    def test_empty_feedback(self, tmp_path):
        paths = write_inputs(tmp_path)
        paths["feedback"].write_text("", encoding="utf-8")
        with pytest.raises(EmptyCorpus):
            load_corpus(paths["feedback"], paths["features"],
                        paths["hierarchy"], paths["item_leaves"])

    def test_strict_orphan_raises(self, tmp_path):
        pairs = PAIRS + [("u2", "ghost")]
        paths = write_inputs(tmp_path, pairs=pairs)
        with pytest.raises(OrphanItem) as err:
            load_corpus(paths["feedback"], paths["features"],
                        paths["hierarchy"], paths["item_leaves"])
        assert "ghost" in str(err.value)

    def test_prune_drops_and_reports(self, tmp_path):
        pairs = PAIRS + [("u2", "ghost")]
        leaves = dict(LEAVES)
        leaves["lonely"] = "a"  # category without features
        paths = write_inputs(tmp_path, pairs=pairs, leaves=leaves)
        corpus, report = load_corpus(paths["feedback"], paths["features"],
                                     paths["hierarchy"], paths["item_leaves"],
                                     policy="prune")
        assert corpus.n_items == 3
        assert report["pruned"]["feedback_pairs_dropped"] == 1
        assert "ghost" in report["pruned"]["items_missing_features"]
        assert "lonely" in report["pruned"]["items_missing_features"]

    def test_catalog_includes_unreferenced_items(self, tmp_path):
        # i1 has features and a leaf but no feedback: still ranked.
        paths = write_inputs(tmp_path, pairs=[("u0", "i0"), ("u1", "i2")])
        corpus, _ = load_corpus(paths["feedback"], paths["features"],
                                paths["hierarchy"], paths["item_leaves"])
        assert corpus.n_items == 3
        assert "i1" in corpus.item_ids

    def test_ids_densified_sorted(self, tmp_path):
        paths = write_inputs(tmp_path)
        corpus, _ = load_corpus(paths["feedback"], paths["features"],
                                paths["hierarchy"], paths["item_leaves"])
        assert list(corpus.item_ids) == sorted(corpus.item_ids)
        assert list(corpus.user_ids) == sorted(corpus.user_ids)
        # Bijection: features row k belongs to item_ids[k].
        for k, item in enumerate(corpus.item_ids):
            assert np.allclose(corpus.features[k], FEATS[item])

    def test_order_independence(self, tmp_path):
        paths = write_inputs(tmp_path)
        corpus_a, _ = load_corpus(paths["feedback"], paths["features"],
                                  paths["hierarchy"], paths["item_leaves"])
        # Same content, permuted lines everywhere.
        write_pairs(paths["feedback"], list(reversed(PAIRS)))
        write_pairs(paths["hierarchy"], list(reversed(EDGES)))
        write_pairs(paths["item_leaves"], reversed(list(LEAVES.items())))
        corpus_b, _ = load_corpus(paths["feedback"], paths["features"],
                                  paths["hierarchy"], paths["item_leaves"])
        assert corpus_a.item_ids == corpus_b.item_ids
        assert corpus_a.user_ids == corpus_b.user_ids
        for u in range(corpus_a.n_users):
            assert np.array_equal(corpus_a.positives[u], corpus_b.positives[u])
        assert np.array_equal(corpus_a.item_leaf, corpus_b.item_leaf)
        # Downstream evaluation sees identical results.
        for corpus in (corpus_a, corpus_b):
            tc, split = split_leave_one_out(corpus, 3)
            model = PreferenceModel.create(
                ModelConfig(2, AllocationScheme((2,)), rng_seed=1,
                            kind=KIND_VBPR), corpus)
            result = auc(model, corpus.positives, split)
        tc_a, split_a = split_leave_one_out(corpus_a, 3)
        tc_b, split_b = split_leave_one_out(corpus_b, 3)
        assert np.array_equal(split_a.test_item, split_b.test_item)

    def test_feature_norm_l2(self, tmp_path):
        paths = write_inputs(tmp_path)
        corpus, report = load_corpus(paths["feedback"], paths["features"],
                                     paths["hierarchy"], paths["item_leaves"],
                                     feature_norm="l2")
        norms = np.linalg.norm(corpus.features, axis=1)
        assert np.allclose(norms, 1.0)
        assert report["feature_norm"] == "l2"

    def test_assemble_requires_known_policy(self):
        with pytest.raises(ValueError):
            assemble_corpus(FEEDBACK, ["i0"], np.ones((1, 2)), EDGES,
                            {"i0": "a"}, policy="whatever")


def validate(paths, *extra):
    argv = ["validate"]
    for key, path in paths.items():
        argv += [f"--{key.replace('_', '-')}", str(path)]
    return main(argv + list(extra))


class TestItemCategories:
    def test_conflicting_duplicate_rejected(self, tmp_path, capsys):
        paths = write_inputs(tmp_path)
        with open(paths["item_leaves"], "a", encoding="utf-8") as fh:
            fh.write("i0\tb\n")
        assert validate(paths) == 1
        error = one_error(capsys)
        assert error["error"] == "ParseError"
        for name in ("'i0'", "'a'", "'b'"):
            assert name in error["message"]

    def test_identical_duplicate_accepted(self, tmp_path, capsys):
        paths = write_inputs(tmp_path)
        with open(paths["item_leaves"], "a", encoding="utf-8") as fh:
            fh.write("i0\ta\n")
        assert validate(paths) == 0
        assert json.loads(capsys.readouterr().out)["items"] == 3

    def test_strict_dangling_leaf(self, tmp_path, capsys):
        paths = write_inputs(tmp_path, leaves={**LEAVES, "i2": "nowhere"})
        with pytest.raises(DanglingItemLeaf) as err:
            load_corpus(paths["feedback"], paths["features"],
                        paths["hierarchy"], paths["item_leaves"])
        assert str(err.value) == "item 'i2' maps to unknown node 'nowhere'"
        assert validate(paths) == 1
        error = one_error(capsys)
        assert error == {"error": "DanglingItemLeaf",
                         "message": str(err.value)}

    def test_prune_drops_dangling_leaf(self, tmp_path, capsys):
        paths = write_inputs(tmp_path, leaves={**LEAVES, "i2": "nowhere"})
        assert validate(paths, "--policy", "prune") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["items"] == 2
        assert report["pruned"]["items_dangling_category"] == ["i2"]
        assert report["pruned"]["feedback_pairs_dropped"] == 1


class TestFeatureMatrix:
    def test_repeated_item_id_rejected(self, tmp_path, capsys):
        paths = write_inputs(tmp_path)
        write_features_binary(paths["features"], ["i0", "i1", "i2", "i0"],
                              np.arange(8, dtype=np.float32).reshape(4, 2))
        assert validate(paths) == 1
        assert one_error(capsys) == {
            "error": "ParseError",
            "message": f"{paths['features']}.ids: item 'i0' has more than "
                       "one feature row"}

    def test_binary_nan_names_item(self, tmp_path, capsys):
        paths = write_inputs(tmp_path, feats={**FEATS, "i1": [0.5, np.nan]})
        assert validate(paths) == 1
        error = one_error(capsys)
        assert error["error"] == "ParseError"
        assert "'i1'" in error["message"]

    def test_binary_signalling_nan_is_quiet(self, tmp_path, capsys):
        # No RuntimeWarning ahead of the one JSON error line.
        paths = write_inputs(tmp_path)
        blob = bytearray(paths["features"].read_bytes())
        blob[32:36] = (0x7F800001).to_bytes(4, "little")  # i0's first value
        paths["features"].write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(paths) == 1
        error = one_error(capsys)
        assert error["error"] == "ParseError"
        assert "'i0'" in error["message"]

    def test_read_only_float64(self, tmp_path):
        paths = write_inputs(tmp_path)  # the file holds float32
        corpus, _ = load_corpus(paths["feedback"], paths["features"],
                                paths["hierarchy"], paths["item_leaves"])
        features = corpus.features
        assert isinstance(features, np.ndarray)
        assert features.dtype == np.float64
        assert features.flags.c_contiguous
        assert not features.flags.writeable
        assert corpus.feature_dim == features.shape[1] == 2

    def test_l2_bits_match_whole_matrix_norm(self):
        n = 2 * FEATURE_BLOCK_ROWS + 3
        ids = [f"i{k:04d}" for k in range(n)]
        matrix = np.random.default_rng(3).normal(size=(n, 5)).astype(np.float32)
        zero = FEATURE_BLOCK_ROWS + 1
        matrix[zero] = 0.0
        # Reversed rows: the gather must put them back in catalog order.
        corpus, _ = assemble_corpus(Feedback.from_pairs([("u0", ids[0])]),
                                    ids[::-1], matrix[::-1], [],
                                    dict.fromkeys(ids, "root"),
                                    feature_norm="l2")
        reference = matrix.astype(np.float64)
        norms = np.linalg.norm(reference, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        assert np.array_equal(corpus.features, reference / norms)
        assert np.all(corpus.features[zero] == 0.0)
        assert np.allclose(np.linalg.norm(np.delete(corpus.features, zero, 0),
                                          axis=1), 1.0)


def binary_corpus(tmp_path, n=2 * FEATURE_BLOCK_ROWS + 37, feat=7,
                  shuffle=True):
    """Input paths of a binary corpus written in shuffled (or sorted) id
    order, every seventh item without a leaf, plus the file's ids and
    float32 rows in record order."""
    rng = np.random.default_rng(11)
    ids = [f"i{k:04d}" for k in range(n)]
    matrix = rng.normal(size=(n, feat)).astype(np.float32)
    matrix[FEATURE_BLOCK_ROWS + 1] = 0.0
    order = rng.permutation(n) if shuffle else np.arange(n)
    file_ids = [ids[k] for k in order]
    paths = {"feedback": tmp_path / "fb.tsv",
             "features": tmp_path / "f.bin",
             "hierarchy": tmp_path / "h.tsv",
             "item_leaves": tmp_path / "il.tsv"}
    write_features_binary(paths["features"], file_ids, matrix[order])
    write_pairs(paths["feedback"], [(f"u{k % 5}", ids[k])
                                    for k in range(0, n, 3)])
    write_pairs(paths["hierarchy"], [("a", "root"), ("b", "root")])
    write_pairs(paths["item_leaves"], [(item, "ab"[k % 2])
                                       for k, item in enumerate(ids)
                                       if k % 7])
    return paths, file_ids, matrix[order]


def load(paths, **options):
    return load_corpus(paths["feedback"], paths["features"],
                       paths["hierarchy"], paths["item_leaves"], **options)


class TestStreamedFeatures:
    """A binary file's vectors go from disk into the catalog matrix a block
    at a time, with the bits the whole float32 matrix would give."""

    # Sorted or shuffled, the file is read front to back; three-record
    # reads put windows and blocks on different boundaries.
    @pytest.mark.parametrize("shuffle", [True, False],
                             ids=["shuffled", "sorted"])
    @pytest.mark.parametrize("read_bytes",
                             [FEATURE_READ_BYTES, 3 * (8 + 4 * 7) + 5],
                             ids=["default_reads", "three_record_reads"])
    @pytest.mark.parametrize("norm", ["none", "l2"])
    def test_bits_match_in_memory_matrix(self, tmp_path, monkeypatch,
                                         read_bytes, norm, shuffle):
        monkeypatch.setattr(ingestion, "FEATURE_READ_BYTES", read_bytes)
        paths, file_ids, rows = binary_corpus(tmp_path, shuffle=shuffle)
        corpus, report = load(paths, policy="prune", feature_norm=norm)
        reference, reference_report = assemble_corpus(
            read_feedback(paths["feedback"]), file_ids, rows,
            [("a", "root"), ("b", "root")],
            ingestion.read_item_leaves(paths["item_leaves"]),
            policy="prune", feature_norm=norm)
        assert report["pruned"]["items_missing_category"]
        assert report == reference_report
        assert corpus.item_ids == reference.item_ids
        assert corpus.features.tobytes() == reference.features.tobytes()
        # Both loads share the scatter; each kept item's row, looked up by
        # id, checks it.
        row = dict(zip(file_ids, rows.astype(np.float64)))
        expected = np.array([row[item] for item in corpus.item_ids])
        if norm == "l2":
            norms = np.linalg.norm(expected, axis=1, keepdims=True)
            expected /= np.where(norms == 0.0, 1.0, norms)
        assert corpus.features.tobytes() == expected.tobytes()

    def test_file_read_once(self, tmp_path, monkeypatch):
        # One pass, front to back in whole windows, whatever the file's
        # record order.
        monkeypatch.setattr(ingestion, "FEATURE_READ_BYTES", 3 * (8 + 4 * 7))
        paths, file_ids, _ = binary_corpus(tmp_path)
        reads = []

        class CountingReader(io.BufferedReader):
            def readinto(self, buffer):
                reads.append((self.tell(), super().readinto(buffer)))
                return reads[-1][1]

        def counting_open(path, mode="r", **kwargs):
            if mode == "rb":
                return CountingReader(io.FileIO(path))
            return open(path, mode, **kwargs)

        monkeypatch.setattr(ingestion, "open", counting_open, raising=False)
        load(paths, policy="prune")
        body = len(file_ids) * (8 + 4 * 7)
        offsets = list(range(24, 24 + body, 3 * (8 + 4 * 7)))
        assert [at for at, _ in reads] == offsets
        assert sum(got for _, got in reads) == body

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: blob[:-4], "truncated at record 2 while being read"),
    ], ids=["cut"])
    def test_file_changed_after_first_pass(self, tmp_path, damage, message):
        paths = write_inputs(tmp_path)
        feat_ids, rows = read_features(paths["features"])
        paths["features"].write_bytes(damage(paths["features"].read_bytes()))
        with pytest.raises(ParseError, match=re.escape(
                f"{paths['features']}: {message}")):
            assemble_corpus(FEEDBACK, feat_ids, rows, EDGES, LEAVES)

    def test_records_swapped_after_read_features(self, tmp_path):
        # Each record carries its id_index, so each item still gets its
        # own vector.
        paths = write_inputs(tmp_path)
        feat_ids, rows = read_features(paths["features"])
        expected, _ = assemble_corpus(FEEDBACK, feat_ids, rows, EDGES, LEAVES)
        blob = paths["features"].read_bytes()
        size = 8 + 4 * 2
        first, second = blob[24:24 + size], blob[24 + size:24 + 2 * size]
        paths["features"].write_bytes(blob[:24] + second + first
                                      + blob[24 + 2 * size:])
        corpus, _ = assemble_corpus(FEEDBACK, feat_ids, rows, EDGES, LEAVES)
        assert corpus.features.tobytes() == expected.features.tobytes()

    def test_change_between_passes_is_one_json_error(self, tmp_path, capsys,
                                                     monkeypatch):
        paths = write_inputs(tmp_path)
        first_pass = ingestion.read_features

        def read_then_cut(path):
            result = first_pass(path)
            Path(path).write_bytes(Path(path).read_bytes()[:-4])
            return result

        monkeypatch.setattr(ingestion, "read_features", read_then_cut)
        assert validate(paths) == 1
        assert one_error(capsys) == {
            "error": "ParseError",
            "message": f"{paths['features']}: truncated at record 2 while "
                       "being read"}


class TestMemoryBudget:
    # Per item: its ids, id-to-row dict entries, feedback pairs and the sets
    # that cross-check them. About 500 bytes an item were live at the peak.
    SLACK_PER_ITEM = 1024

    @pytest.mark.parametrize("norm", ["none", "l2"])
    def test_load_holds_matrix_and_one_read(self, tmp_path, norm):
        # numpy reports its buffers to tracemalloc. Besides the float64
        # matrix, loading holds one read window and one block: the float32
        # rows it scatters or, for l2, their float64 squares. The file is
        # three read windows, so a whole-file copy cannot pass.
        feat = 2048
        record = 8 + 4 * feat
        n = 3 * (FEATURE_READ_BYTES // record)
        assert n > 2 * FEATURE_BLOCK_ROWS
        paths, _, _ = binary_corpus(tmp_path, n=n, feat=feat)
        tracemalloc.start()
        try:
            corpus, _ = load(paths, policy="prune", feature_norm=norm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = corpus.features.nbytes
        window = FEATURE_READ_BYTES // record * record
        block = FEATURE_BLOCK_ROWS * feat * 8
        assert peak <= matrix + window + block + self.SLACK_PER_ITEM * n
