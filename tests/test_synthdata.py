import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierbpr import synthdata
from hierbpr.errors import InvalidShape
from hierbpr.evaluation import split_leave_one_out, auc
from hierbpr.ingestion import load_corpus
from hierbpr.hierarchy import AllocationScheme
from hierbpr.model import KIND_VBPR, ModelConfig, PreferenceModel
from hierbpr.synthdata import (
    SYNTH_BLOCK_ROWS,
    SynthConfig,
    generate,
    make_corpus,
)
from hierbpr.training import TrainConfig, train

import reference


SMALL = dict(n_users=25, n_items=50, feature_dim=6, branching=(3,),
             n_positives=4, planted_scheme=(2, 1), rng_seed=7)


class TestConfigValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidShape):
            SynthConfig(n_users=0)
        with pytest.raises(InvalidShape):
            SynthConfig(n_positives=0)
        with pytest.raises(InvalidShape):
            SynthConfig(n_items=5, n_positives=9)
        with pytest.raises(InvalidShape):
            SynthConfig(branching=(3, 0))
        with pytest.raises(InvalidShape):
            SynthConfig(branching=(3,), planted_scheme=(1, 1, 1))
        with pytest.raises(InvalidShape):
            SynthConfig(temperature=0.0)
        with pytest.raises(InvalidShape):
            SynthConfig(planted_scheme=(0, 0))
        with pytest.raises(InvalidShape, match="rng_seed"):
            SynthConfig(rng_seed=-1)

    @pytest.mark.parametrize("field", ["temperature", "feature_noise",
                                       "center_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(InvalidShape, match="finite"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("feature_noise", 1e39), ("center_scale", -1e39),
        ("center_scale", 1e308)])
    def test_features_past_float32_raise_before_writing(self, tmp_path,
                                                        field, value):
        cfg = SynthConfig(**{**SMALL, field: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidShape, match="float32"):
                make_corpus(cfg)
            with pytest.raises(InvalidShape, match="float32"):
                generate(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestGenerate:
    def test_byte_identical_regeneration(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        dir1 = tmp_path / "a"
        dir2 = tmp_path / "b"
        paths1 = generate(cfg, dir1)
        paths2 = generate(cfg, dir2)
        for name in paths1:
            b1 = Path(paths1[name]).read_bytes()
            b2 = Path(paths2[name]).read_bytes()
            assert b1 == b2, name
        sidecar1 = Path(paths1["features"] + ".ids").read_bytes()
        sidecar2 = Path(paths2["features"] + ".ids").read_bytes()
        assert sidecar1 == sidecar2

    def test_different_seed_differs(self, tmp_path):
        base = generate(SynthConfig(**SMALL), tmp_path / "a")
        other = generate(SynthConfig(**{**SMALL, "rng_seed": 8}), tmp_path / "b")
        assert (Path(base["feedback"]).read_bytes()
                != Path(other["feedback"]).read_bytes())

    def test_positive_counts_exact_no_duplicates(self):
        cfg = SynthConfig(**SMALL)
        corpus, _ = make_corpus(cfg)
        assert corpus.n_users == cfg.n_users
        for u in range(corpus.n_users):
            pos = corpus.positives[u]
            assert len(pos) == cfg.n_positives
            assert len(set(pos.tolist())) == cfg.n_positives

    def test_round_trip_loads_clean(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        paths = generate(cfg, tmp_path)
        corpus, report = load_corpus(paths["feedback"], paths["features"],
                                     paths["hierarchy"], paths["item_leaves"],
                                     policy="strict")
        assert report["pruned"]["feedback_pairs_dropped"] == 0
        assert not report["pruned"]["items_missing_features"]
        assert not report["pruned"]["items_missing_category"]
        mem_corpus, _ = make_corpus(cfg)
        assert corpus.item_ids == mem_corpus.item_ids
        assert corpus.user_ids == mem_corpus.user_ids
        assert np.array_equal(corpus.features, mem_corpus.features)
        for u in range(corpus.n_users):
            assert np.array_equal(corpus.positives[u], mem_corpus.positives[u])

    def test_ground_truth_record(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        paths = generate(cfg, tmp_path)
        with open(paths["ground_truth"]) as fh:
            gt = json.load(fh)
        assert gt["config"]["n_users"] == cfg.n_users
        assert len(gt["true_user_vectors"]) == cfg.n_users
        assert len(gt["true_item_vectors"]) == cfg.n_items
        assert len(gt["true_item_vectors"][0]) == sum(cfg.planted_scheme)
        assert len(gt["item_leaf"]) == cfg.n_items

    def test_unit_norm_flattens_magnitudes(self):
        cfg = SynthConfig(**{**SMALL, "unit_norm_items": True,
                             "center_scale": 0.0})
        _, gt = make_corpus(cfg)
        norms = np.linalg.norm(np.array(gt["true_item_vectors"]), axis=1)
        assert np.allclose(norms, norms[0])


class TestSignalStrength:
    def test_infinite_noise_defeats_training(self):
        cfg = SynthConfig(n_users=60, n_items=150, feature_dim=8,
                          branching=(3,), n_positives=5, planted_scheme=(3,),
                          temperature=1e9, rng_seed=3)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 1)
        model = PreferenceModel.create(
            ModelConfig(3, AllocationScheme((3,)), rng_seed=2, kind=KIND_VBPR),
            corpus)
        train(model, tc, TrainConfig(learning_rate=0.05, iterations=10,
                                     rng_seed=4))
        result = auc(model, corpus.positives, split)
        assert abs(result.auc - 0.5) < 0.08

    def test_clean_root_structure_highly_learnable(self):
        cfg = SynthConfig(n_users=80, n_items=160, feature_dim=16,
                          branching=(4,), n_positives=6, planted_scheme=(4,),
                          temperature=0.05, center_scale=0.0,
                          unit_norm_items=True, rng_seed=9)
        corpus, _ = make_corpus(cfg)
        tc, split = split_leave_one_out(corpus, 2)
        model = PreferenceModel.create(
            ModelConfig(4, AllocationScheme((4,)), rng_seed=5, kind=KIND_VBPR),
            corpus)
        train(model, tc, TrainConfig(learning_rate=0.05, iterations=30,
                                     rng_seed=6))
        result = auc(model, corpus.positives, split)
        assert result.auc > 0.9


ROWS = SYNTH_BLOCK_ROWS
OUTPUTS = ("feedback.tsv", "features.bin", "features.bin.ids",
           "hierarchy.tsv", "item_categories.tsv", "ground_truth.json")


def output_bytes(out_dir):
    return {name: (Path(out_dir) / name).read_bytes() for name in OUTPUTS}


def reference_generate(cfg, out_dir):
    """``generate`` with the dense per-user draw and ``json.dump``."""
    with mock.patch.object(synthdata, "_draw_positives",
                           reference.draw_positives), \
            mock.patch.object(synthdata, "_write_ground_truth",
                              reference.write_ground_truth):
        return generate(cfg, out_dir)


@st.composite
def small_configs(draw):
    n_items = draw(st.integers(1, 40))
    branching = draw(st.sampled_from([(1,), (3,), (2, 2)]))
    return SynthConfig(
        n_users=draw(st.sampled_from([1, 2, ROWS + 1, 2 * ROWS + 1])
                     | st.integers(1, 2 * ROWS + 2)),
        n_items=n_items,
        feature_dim=draw(st.integers(1, 6)),
        branching=branching,
        n_positives=draw(st.sampled_from([1, n_items])
                         | st.integers(1, n_items)),
        planted_scheme=draw(st.sampled_from([(1,), (2, 1), (0, 3)])),
        # 2**-1000 scales scores exactly and drowns the Gumbel noise, so
        # the scores' own ties and last bits pick the positives.
        temperature=draw(st.sampled_from([1e-3, 0.35, 1e9, 2.0 ** -1000])),
        feature_noise=draw(st.sampled_from([1.0, 0.0])),
        unit_norm_items=draw(st.booleans()),
        rng_seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestBlockedDraw:
    """Blocked synthesis writes the bytes of the dense per-user loop."""

    def test_block_bounds_never_leave_one_row(self):
        bounds = synthdata._block_bounds
        assert bounds(1) == [0, 1]
        assert bounds(ROWS) == [0, ROWS]
        assert bounds(ROWS + 1) == [0, ROWS + 1]
        assert bounds(ROWS + 2) == [0, ROWS, ROWS + 2]
        assert bounds(2 * ROWS + 1) == [0, ROWS, 2 * ROWS + 1]

    @settings(max_examples=40, deadline=None)
    @given(small_configs())
    @example(SynthConfig(**{**SMALL, "n_users": ROWS + 1}))
    @example(SynthConfig(**{**SMALL, "n_users": 2 * ROWS + 1,
                            "n_positives": 1, "temperature": 1e-3}))
    @example(SynthConfig(**{**SMALL, "n_users": 1,
                            "n_positives": SMALL["n_items"],
                            "temperature": 1e9}))
    @example(SynthConfig(**{**SMALL, "unit_norm_items": True,
                            "center_scale": 0.0}))
    def test_generate_matches_dense_loop(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            generate(cfg, Path(tmp) / "blocked")
            reference_generate(cfg, Path(tmp) / "dense")
            blocked = output_bytes(Path(tmp) / "blocked")
            dense = output_bytes(Path(tmp) / "dense")
        for name in OUTPUTS:
            assert blocked[name] == dense[name], name


class TapeGenerator:
    """A stand-in for ``np.random.Generator`` that replays fixed
    ``next_double`` values, cycling: ``random`` hands them out in order,
    ``gumbel`` spends them as numpy's does (``0.0 - 1.0 * log(-log(1 -
    d))``, drawn again where d is 0.0), and ``bit_generator.state`` is the
    read position.
    """

    def __init__(self, tape):
        self.tape = list(tape)
        self.state = 0
        self.gumbel_calls = 0

    @property
    def bit_generator(self):
        return self

    def _next(self):
        self.state += 1
        return self.tape[(self.state - 1) % len(self.tape)]

    def random(self, size):
        return np.array([self._next() for _ in range(math.prod(size))]
                        ).reshape(size)

    def gumbel(self, loc, scale, size):
        self.gumbel_calls += 1
        out = []
        while len(out) < size:
            u = 1.0 - self._next()
            if u < 1.0:
                out.append(loc - scale * math.log(-math.log(u)))
        return np.array(out)


def draw_both(user, item, k, temperature, tape=None, seed=None):
    """``_draw_positives`` and the dense loop on one stream: a tape, or a
    real generator's seed. Returns both results and both generators."""
    cfg = SynthConfig(n_users=len(user), n_items=len(item), feature_dim=1,
                      branching=(1,), planted_scheme=(1,), n_positives=k,
                      temperature=temperature)
    rngs = [np.random.default_rng(seed) if tape is None
            else TapeGenerator(tape) for _ in range(2)]
    user, item = np.array(user, float), np.array(item, float)
    return (synthdata._draw_positives(rngs[0], user, item, cfg),
            reference.draw_positives(rngs[1], user, item, cfg), rngs)


# A 0.0 makes numpy's Gumbel draw again, which shifts every later item.
ZERO_CASE = dict(user=[[1.0], [-0.5], [2.0]],
                 item=[[0.1 * j] for j in range(20)], k=4, temperature=0.35,
                 tape=[*np.random.default_rng(3).random(7), 0.0,
                       *np.random.default_rng(4).random(80)])
# Two copies of one item under one uniform: an exact tie for first place,
# which the dense loop breaks by argpartition.
TIE_CASE = dict(user=[[1.0], [1.0]],
                item=[[0.0], [0.5], [0.5], [0.0], [0.0]], k=1,
                temperature=0.35, tape=[0.9, 0.2, 0.2, 0.7, 0.95])
# With libm's log both utilities are 1.9930329240664828, a tie the dense
# loop breaks towards item 0. np.log puts item 0 one ulp lower, so taking
# np.log's values as exact would pick item 1.
LOG_CASE = dict(user=[[1.0]],
                item=[[0.0], [1.6265200034848184], [-100.0], [-100.0]],
                k=1, temperature=1.0,
                tape=[0.12740300904890633, 0.5, 0.5, 0.5])
# At temperature 2**-1000 the utilities are the scores exactly. Items 2 and
# 3 differ in the last bit of one coordinate: the users x items product
# gives user 0 a tie, which argpartition breaks, while a 1-row
# matrix-vector product rounds the two scores apart.
_A = [-0.9847229413579084, 1.1878533083569829, 1.363080412725391,
      -1.3013535202249853]
_B = [-0.9847229413579083, *_A[1:]]
ONE_ROW_CASE = dict(
    user=[[1.3238478058527734, 0.3002730904204611, -1.7268406314397753,
           -1.9738130282047839],
          [-0.31609551266496017, 1.2942116284105942, 0.12703003524338138,
           0.06712070250380273],
          [-0.23590383366766396, 0.737900169928009, 0.3773267966948902,
           0.2803458736422704]],
    item=[_A, _B, [-x for x in _A], [-x for x in _B]],
    k=1, temperature=2.0 ** -1000, seed=5)


@st.composite
def draw_cases(draw):
    """Small score matrices with repeated items and uniforms (ties) and
    0.0 uniforms (Gumbel redraws), on a tape or a seeded generator."""
    n_users = draw(st.sampled_from([1, 3, ROWS + 1]) | st.integers(1, 8))
    n_items = draw(st.integers(1, 10))
    width = draw(st.integers(1, 4))
    value = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-3.0, 3.0)
    row = st.lists(value, min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    uniform = (st.sampled_from([0.0, 0.25, 0.5])
               | st.integers(1, 2 ** 53 - 1).map(lambda m: m * 2.0 ** -53))
    case = dict(user=draw(st.lists(row, min_size=n_users, max_size=n_users)),
                item=[draw(st.sampled_from(pool)) for _ in range(n_items)],
                k=draw(st.integers(1, n_items)),
                temperature=draw(st.sampled_from([1.0, 1e-3, 1e9,
                                                  2.0 ** -1000])))
    if draw(st.booleans()):
        case["seed"] = draw(st.integers(0, 2 ** 32 - 1))
    else:
        case["tape"] = [*draw(st.lists(uniform, min_size=1, max_size=30)),
                        0.5]
    return case


class TestBlockedDrawStream:
    """``_draw_positives`` against the dense loop on one stream."""

    @settings(max_examples=80, deadline=None)
    @given(draw_cases())
    @example(ZERO_CASE)
    @example(TIE_CASE)
    @example(LOG_CASE)
    @example(ONE_ROW_CASE)
    def test_draw_matches_dense_loop(self, case):
        blocked, dense, rngs = draw_both(**case)
        assert blocked.tolist() == dense.tolist()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("case, redraws", [
        (ZERO_CASE, 3), (TIE_CASE, 2),
        ({**ZERO_CASE, "tape": ZERO_CASE["tape"][8:]}, 0)])
    def test_only_undecided_blocks_are_redrawn(self, case, redraws):
        _, _, rngs = draw_both(**case)
        assert rngs[0].gumbel_calls == redraws


# SHA-256 of generate()'s six files for criterion 6's first corpus, as the
# dense per-user loop wrote them (one and two BLAS threads alike). They
# hold for the numpy and OpenBLAS build the tests run on: a BLAS kernel
# that rounds the planted projection differently moves them.
GOLDEN_CONFIG = dict(n_users=400, n_items=1200, feature_dim=64,
                     branching=(6,), n_positives=8, planted_scheme=(3, 7),
                     center_scale=0.0, unit_norm_items=True, rng_seed=100)
GOLDEN_SHA256 = {
    "feedback.tsv":
        "dd2e7e63ff4c2628dc1f18855c66bf48ed87530b026e0ea8d27e6cd8ab055474",
    "features.bin":
        "1265ccfb05cc69c9916425e91006f626cdfd84121f770da785844cc032093d47",
    "features.bin.ids":
        "89d4536731315dd66ef2eda0169630f917f8342c22c11643e651eadf1958dbce",
    "hierarchy.tsv":
        "aedaa16820ccbace875b25c7a85fdeca489337f66b9c42473839bd2d770b33b6",
    "item_categories.tsv":
        "df9cf96410f83d60eb1953ea297c0ffa171228d10c545ae854dd1710735a8b1a",
    "ground_truth.json":
        "9d6e55d2265ef47c3934fd33123a220b202997f87fb9f172ed0ea0f3c424c594",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_digests(tmp_path, threads):
    # A fresh process, as BLAS reads its thread count once at start-up.
    code = ("import sys; from hierbpr.synthdata import SynthConfig, generate;"
            f" generate(SynthConfig(**{GOLDEN_CONFIG!r}), sys.argv[1])")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in output_bytes(tmp_path).items()}
    assert digests == GOLDEN_SHA256


class TestGroundTruthWriter:
    @pytest.mark.parametrize("fields", [
        {}, {"branching": (2, 3), "planted_scheme": (1, 1, 2)},
        {"unit_norm_items": True, "center_scale": 0.0}])
    def test_bytes_match_json_dump(self, tmp_path, fields):
        cfg = SynthConfig(**{**SMALL, **fields})
        _, record = make_corpus(cfg)
        synthdata._write_ground_truth(tmp_path / "direct.json", record)
        reference.write_ground_truth(tmp_path / "dump.json", record)
        assert ((tmp_path / "direct.json").read_bytes()
                == (tmp_path / "dump.json").read_bytes())

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20)

    @settings(max_examples=60, deadline=None)
    @given(json_values)
    @example([[1.5, -0.0], [2, 3e300]])
    @example([[1.0], []])
    @example({"a": [], "b": {}, "c": [[]]})
    def test_text_matches_json_dumps(self, value):
        assert (synthdata._indented_json(value)
                == json.dumps(value, sort_keys=True, indent=1))


def test_make_corpus_memory_stays_far_below_the_score_matrix():
    # The dense float64 score matrix of this shape would take 160 MB.
    cfg = SynthConfig(n_users=2000, n_items=10000, feature_dim=8,
                      branching=(4,), n_positives=2, planted_scheme=(2,),
                      rng_seed=1)
    dense_bytes = cfg.n_users * cfg.n_items * 8
    tracemalloc.start()
    try:
        make_corpus(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4, peak

