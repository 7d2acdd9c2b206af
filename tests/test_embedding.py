import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from driftguard import cli, embedding, pipeline
from driftguard.errors import DimensionError, InsufficientCorpus

from conftest import EQ3_PROBLEM

TEXTS = st.text(alphabet=st.characters(codec="ascii"), min_size=0,
                max_size=200)


class TestEmbed:
    def test_deterministic(self):
        a = embedding.embed("sobol variance decomposition")
        embedding.embed.cache_clear()
        b = embedding.embed("sobol variance decomposition")
        assert a is not b and np.array_equal(a.array, b.array)

    def test_unit_norm(self):
        vec = embedding.embed("morris screening trajectories")
        assert abs(float(vec.array @ vec.array) - 1.0) < 1e-12

    def test_empty_text_is_zero_vector(self):
        vec = embedding.embed("   !!! ")
        assert vec.norm == 0.0 and not vec.array.any()

    def test_dimension_enforced(self):
        with pytest.raises(DimensionError):
            embedding.EmbeddingVector((0.0,) * 10)


class TestSimilarity:
    def test_identical_text_is_one(self):
        assert embedding.similarity("pick freeze saltelli",
                                    "pick freeze saltelli") == pytest.approx(1.0)

    def test_symmetric(self):
        a, b = "rank correlation xi", "elementary effects mu star"
        assert embedding.similarity(a, b) == pytest.approx(
            embedding.similarity(b, a))

    def test_zero_vector_gives_zero(self):
        assert embedding.similarity("", "anything at all") == 0.0

    @hyp_settings(max_examples=60, deadline=None)
    @given(a=TEXTS, b=TEXTS)
    def test_bounded(self, a, b):
        s = embedding.similarity(a, b)
        assert -1.0 <= s <= 1.0

    @hyp_settings(max_examples=40, deadline=None)
    @given(a=TEXTS)
    def test_self_similarity(self, a):
        s = embedding.similarity(a, a)
        # 1 for text that has tokens, 0 for the all-zero embedding.
        assert s == pytest.approx(1.0) or s == 0.0

    def test_token_order_invariant(self):
        # Bag-of-tokens: permutations of the same tokens embed identically.
        assert embedding.similarity("alpha beta gamma",
                                    "gamma alpha beta") == pytest.approx(1.0)


class TestNullCalibration:
    def test_sorted_and_reproducible(self):
        corpus = embedding.shipped_corpus()
        a = embedding.calibrate_null(corpus, n_pairs=100, seed=7)
        b = embedding.calibrate_null(corpus, n_pairs=100, seed=7)
        assert a.samples == b.samples
        assert list(a.samples) == sorted(a.samples)

    def test_quantile_monotone(self, null_dist):
        assert null_dist.quantile(0.5) <= null_dist.quantile(0.95)

    def test_unrelated_pairs_score_low(self, null_dist):
        # The 95th percentile of unrelated-pair similarity sits well below
        # the similarity of genuinely related texts.
        assert null_dist.quantile(0.95) < 0.6

    def test_small_corpus_rejected(self):
        with pytest.raises(InsufficientCorpus):
            embedding.calibrate_null(["only one line"], n_pairs=10, seed=0)

    def test_zero_pairs_rejected(self):
        with pytest.raises(InsufficientCorpus):
            embedding.calibrate_null(["a line", "b line"], n_pairs=0, seed=0)

    def test_shipped_corpus_nonempty(self):
        corpus = embedding.shipped_corpus()
        assert len(corpus) >= 20


# The tuple-based implementation the memoized one replaced, kept as the
# reference: every similarity must keep its exact bits, because the null
# quantile sets the gate floors that the traces print.

def _oracle_embed(text: str) -> tuple[float, ...]:
    counts = np.zeros(embedding.DIM, dtype=np.int64)
    for token in embedding._TOKEN_RE.findall(text.lower()):
        counts[embedding._bucket(token)] += 1
    norm = float(np.sqrt(np.dot(counts, counts)))
    if norm == 0.0:
        return tuple([0.0] * embedding.DIM)
    return tuple((counts / norm).tolist())


def _oracle_cosine(u: tuple, v: tuple) -> float:
    a, b = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def _oracle_calibrate_null(corpus, n_pairs: int, seed: int) -> tuple:
    rng = random.Random(seed)
    vectors = [_oracle_embed(t) for t in corpus]
    sims = []
    for _ in range(n_pairs):
        i, j = rng.sample(range(len(corpus)), 2)
        sims.append(_oracle_cosine(vectors[i], vectors[j]))
    return tuple(sorted(sims))


def _bits(x: float) -> str:
    return float(x).hex()


class TestAgainstOracle:
    @hyp_settings(max_examples=200, deadline=None)
    @given(a=TEXTS, b=TEXTS)
    def test_similarity_bits(self, a, b):
        expected = _oracle_cosine(_oracle_embed(a), _oracle_embed(b))
        assert _bits(embedding.similarity(a, b)) == _bits(expected)

    def test_embed_bits(self):
        for text in embedding.shipped_corpus()[:20] + ("", "x y x"):
            assert tuple(embedding.embed(text).array.tolist()) == \
                _oracle_embed(text)

    def test_all_corpus_pairs_bits(self):
        corpus = embedding.shipped_corpus()
        old = [_oracle_embed(t) for t in corpus]
        new = [embedding.embed(t) for t in corpus]
        for i, j in itertools.combinations(range(len(corpus)), 2):
            assert _bits(embedding.cosine(new[i], new[j])) == \
                _bits(_oracle_cosine(old[i], old[j])), (i, j)

    @pytest.mark.parametrize("seed", [*range(45), 123, 99999, -1, -2**40,
                                      2**64 + 1])
    def test_null_samples_shipped_corpus(self, seed):
        corpus = embedding.shipped_corpus()
        assert embedding.calibrate_null(corpus, 500, seed).samples == \
            _oracle_calibrate_null(corpus, 500, seed)

    def test_batched_cosines_all_corpus_pairs_bits(self):
        corpus = embedding.shipped_corpus()
        matrix, norms = embedding._corpus_matrix(corpus)
        first, second = (np.array(k) for k in zip(
            *itertools.combinations(range(len(corpus)), 2)))
        assert len(first) == 19_900
        got = embedding._pair_cosines(matrix, norms, first, second)
        vectors = [embedding.embed(t) for t in corpus]
        expected = [embedding.cosine(vectors[i], vectors[j])
                    for i, j in zip(first.tolist(), second.tolist())]
        assert [_bits(x) for x in got.tolist()] == \
            [_bits(x) for x in expected]

    # n <= 21 takes sample's pool branch, n > 21 its set branch; seeds cover
    # zero, negative and wider-than-64-bit values.
    @pytest.mark.parametrize("n", [2, 5, 21, 22, 200, 1000])
    @pytest.mark.parametrize("seed", [0, -3, 2**64 + 9])
    @pytest.mark.parametrize("n_pairs", [1, 500, 5000])
    def test_pair_draw_is_sample_stream(self, n, seed, n_pairs):
        reference = random.Random(seed)
        expected = [reference.sample(range(n), 2) for _ in range(n_pairs)]
        first, second = embedding._draw_pairs(random.Random(seed), n,
                                              n_pairs)
        assert [list(p) for p in zip(first.tolist(), second.tolist())] == \
            expected

    def test_null_samples_custom_corpus(self):
        corpus = ["sobol indices from pick freeze", "morris screening",
                  "rank correlation xi", "", "sobol sobol variance"]
        for seed in (0, 3):
            assert embedding.calibrate_null(corpus, 40, seed).samples == \
                _oracle_calibrate_null(corpus, 40, seed)


class TestMemo:
    def test_cached_array_is_read_only(self):
        vec = embedding.embed("polynomial chaos surrogate")
        assert vec is embedding.embed("polynomial chaos surrogate")
        with pytest.raises(ValueError):
            vec.array[0] = 1.0
        with pytest.raises(AttributeError):
            vec.norm = 2.0
        assert tuple(vec.array.tolist()) == \
            _oracle_embed("polynomial chaos surrogate")

    def test_memo_is_bounded(self):
        embedding.embed.cache_clear()
        for k in range(embedding.MEMO_SIZE + 50):
            embedding.embed(f"memo bound probe {k}")
        info = embedding.embed.cache_info()
        assert info.maxsize == embedding.MEMO_SIZE
        assert info.currsize == embedding.MEMO_SIZE

    def test_calibration_keeps_corpus_out_of_memo(self):
        # The corpus matrix holds the corpus vectors; the memo holds none.
        embedding.embed.cache_clear()
        embedding._corpus_matrix.cache_clear()
        embedding.calibrate_null(embedding.shipped_corpus(), 500, 0)
        assert embedding.embed.cache_info().currsize == 0

    def test_custom_null_corpus_gets_its_own_distribution(self, monkeypatch):
        # A shipped-corpus session first, so everything it embeds is cached;
        # a calibration on another corpus must still use that corpus.
        captured = []
        real = pipeline.CheckpointManager

        def capture(null_dist, *args, **kwargs):
            captured.append(null_dist)
            return real(null_dist, *args, **kwargs)

        monkeypatch.setattr(pipeline, "CheckpointManager", capture)
        cfg = pipeline.SessionConfig(problem=EQ3_PROBLEM, n_max=1, seed=4)
        pipeline.run_session(cfg)
        (shipped,) = captured
        assert shipped.samples == _oracle_calibrate_null(
            embedding.shipped_corpus(), 500, 4)
        custom = ("alpha beta", "gamma delta", "alpha gamma", "beta delta",
                  "epsilon zeta")
        own = embedding.calibrate_null(list(custom), 500, 4)
        assert own.samples == _oracle_calibrate_null(custom, 500, 4)


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")


def test_shipped_sessions_tokenize_each_text_once(tmp_path, monkeypatch):
    """Three sessions share the null corpus and many gate texts; with the
    memo each distinct text is tokenized exactly once per process."""
    embedding.embed.cache_clear()
    embedding._corpus_matrix.cache_clear()
    calls = Counter()
    real = embedding._tokenize

    def counting(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(embedding, "_tokenize", counting)
    with open(os.path.join(CONFIGS, "gfunction_sessions.json"),
              encoding="utf-8") as fh:
        assert len(json.load(fh)["sessions"]) > 1
    assert cli.main(["sessions", "--config",
                     os.path.join(CONFIGS, "gfunction_sessions.json"),
                     "--out", str(tmp_path), "--quiet"]) == cli.EXIT_OK
    assert set(embedding.shipped_corpus()) <= set(calls)
    repeated = {text: n for text, n in calls.items() if n > 1}
    assert not repeated


def test_import_embeds_nothing():
    """Importing the CLI leaves the memo and the corpus matrix cache empty,
    so no embedding work moves into start-up."""
    code = ("import driftguard.cli\n"
            "from driftguard import embedding\n"
            "print(embedding.embed.cache_info().currsize,"
            " embedding._corpus_matrix.cache_info().currsize)")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["0", "0"]
