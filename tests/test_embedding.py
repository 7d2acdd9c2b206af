import functools
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

from driftguard import checkpoints, cli, embedding, pipeline
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
        # Each unordered pair counts once, so sorting the lines keeps the
        # floor; a cache_clear recomputes the same bits.
        corpus = embedding.shipped_corpus()
        first = embedding.calibrate_null(corpus)
        embedding.calibrate_null.cache_clear()
        assert _bits(embedding.calibrate_null(corpus)) == _bits(first)
        assert _bits(embedding.calibrate_null(tuple(sorted(corpus)))) == \
            _bits(first)

    def test_quantile_monotone(self, null_floor):
        # The 95th percentile lies between the median and the top pair, and
        # at least 95 % of the pairs score no higher.
        cosines = embedding._all_pair_cosines(embedding.shipped_corpus())
        assert np.median(cosines) <= null_floor <= cosines.max()
        assert np.mean(cosines <= null_floor) >= 0.95

    def test_unrelated_pairs_score_low(self, null_floor):
        # The 95th percentile of unrelated-pair similarity sits well below
        # the similarity of genuinely related texts.
        assert null_floor < 0.6

    def test_small_corpus_rejected(self):
        with pytest.raises(InsufficientCorpus):
            embedding.calibrate_null(("only one line",))

    def test_zero_pairs_rejected(self):
        with pytest.raises(InsufficientCorpus):
            embedding.calibrate_null(())

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


def _per_pair_cosines(corpus) -> np.ndarray:
    """``cosine`` over every unordered pair, one pair at a time."""
    vectors = [embedding.embed(t) for t in corpus]
    return np.array([embedding.cosine(vectors[i], vectors[j]) for i, j in
                     itertools.combinations(range(len(corpus)), 2)])


def _oracle_null_floor(corpus) -> float:
    return float(np.quantile(_per_pair_cosines(corpus), 0.95,
                             method="linear"))


def _bits(x: float) -> str:
    return float(x).hex()


def _within_two_ulp(got, expected) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - expected)
                       <= 2 * np.spacing(np.abs(expected))))


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

    def test_shipped_floor_bits(self):
        # Some Gram-matrix cosines differ from the per-pair ones in the
        # last bit, but not at the 95th percentile, inside a tie at 0.5.
        corpus = embedding.shipped_corpus()
        assert len(corpus) == 200
        floor = embedding.calibrate_null(corpus)
        assert _bits(floor) == _bits(_oracle_null_floor(corpus))
        assert floor == 0.5000000000000001

    @pytest.mark.parametrize("seed", [*range(45), 123, 99999, -1, -2**40,
                                      2**64 + 1])
    def test_null_samples_shipped_corpus(self, seed, monkeypatch):
        """A session at any seed gates against the shipped corpus's exact
        null floor; a negative seed is a bad config, rejected before any
        session runs."""
        floors = []
        real = pipeline.CheckpointManager

        def capture(null_floor, *args, **kwargs):
            floors.append(null_floor)
            return real(null_floor, *args, **kwargs)

        monkeypatch.setattr(pipeline, "CheckpointManager", capture)
        if seed < 0:
            with pytest.raises(ValueError, match="seed must be >= 0"):
                pipeline.SessionConfig(problem=EQ3_PROBLEM, n_max=1,
                                       seed=seed)
            return
        pipeline.run_session(pipeline.SessionConfig(problem=EQ3_PROBLEM,
                                                    n_max=1, seed=seed))
        assert [_bits(f) for f in floors] == \
            [_bits(_oracle_null_floor(embedding.shipped_corpus()))]

    def test_batched_cosines_all_corpus_pairs_bits(self):
        # The Gram blocks round some pairs an ulp off the per-pair cosine,
        # but not the two order statistics the 95th percentile reads.
        corpus = embedding.shipped_corpus()
        got = embedding._all_pair_cosines(corpus)
        expected = _per_pair_cosines(corpus)
        assert len(got) == 19_900
        assert _within_two_ulp(got, expected)
        lo = int(0.95 * (len(got) - 1))
        assert [_bits(x) for x in np.sort(got)[lo:lo + 2]] == \
            [_bits(x) for x in np.sort(expected)[lo:lo + 2]]

    # The floor reads every pair; a seeded random.Random.sample stream of
    # n_pairs pairs checks where each one lands.  n runs below, at and across
    # the 32-row Gram block; seeds cover zero, negative and wider-than-64-bit
    # values.  Line 0 is empty (a zero vector).
    @pytest.mark.parametrize("n", [2, 5, 21, 22, 200, 1000])
    @pytest.mark.parametrize("seed", [0, -3, 2**64 + 9])
    @pytest.mark.parametrize("n_pairs", [1, 500, 5000])
    def test_pair_draw_is_sample_stream(self, n, seed, n_pairs):
        lines = embedding.shipped_corpus()
        corpus = ("",) + tuple(f"{lines[k % 200]} {lines[k * 7 % 200]}"
                               for k in range(n - 1))
        cosines = embedding._all_pair_cosines(corpus)
        assert len(cosines) == n * (n - 1) // 2
        vectors = [embedding.embed(t) for t in corpus]
        rng = random.Random(seed)
        for _ in range(n_pairs):
            i, j = sorted(rng.sample(range(n), 2))
            # Rows 0..i-1 of the upper triangle hold i * (2n - i - 1) / 2.
            k = i * (2 * n - i - 1) // 2 + j - i - 1
            assert _within_two_ulp(cosines[k], embedding.cosine(vectors[i],
                                                                vectors[j])), \
                (i, j)

    def test_null_samples_custom_corpus(self):
        # A zero-vector line ("") scores 0 against every other line.
        corpus = ("sobol indices from pick freeze", "morris screening",
                  "rank correlation xi", "", "sobol sobol variance")
        assert embedding.calibrate_null(corpus) == pytest.approx(
            _oracle_null_floor(corpus), abs=1e-15)


def test_session_thresholds_do_not_depend_on_seed():
    """Two eq3 sessions at seeds whose sampled null quantiles differed
    (0.5 at seed 0, 0.549 at 14875) report the same threshold, the exact
    floor, on every post-warmup gate event."""
    post_warmup = {}
    for seed in (0, 14875):
        cfg = pipeline.SessionConfig(problem=EQ3_PROBLEM, n_max=5, seed=seed)
        events = [e for rec in pipeline.run_session(cfg).records
                  for e in rec.checkpoint_events
                  if e.threshold != checkpoints.CHECKPOINT_TABLE[e.cp_id][0]]
        post_warmup[seed] = {(e.cp_id, e.threshold) for e in events}
    floor = embedding.calibrate_null(embedding.shipped_corpus())
    assert post_warmup[0] and post_warmup[0] == post_warmup[14875]
    assert all(threshold == floor for _, threshold in post_warmup[0])


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

    def test_calibration_keeps_corpus_out_of_memo(self, monkeypatch):
        embedding.embed.cache_clear()
        embedding.calibrate_null.cache_clear()
        embedding.calibrate_null(embedding.shipped_corpus())
        assert embedding.embed.cache_info().currsize == 0
        # A wrapper over the memo, as a profiler installs it, leaves the
        # corpus out too: its ``__wrapped__`` is the memo itself.
        memo = embedding.embed

        @functools.wraps(memo)
        def wrapper(text):
            return memo(text)

        monkeypatch.setattr(embedding, "embed", wrapper)
        embedding.calibrate_null.cache_clear()
        embedding.calibrate_null(embedding.shipped_corpus())
        assert memo.cache_info().currsize == 0

    def test_custom_null_corpus_gets_its_own_distribution(self):
        # The shipped corpus's floor is cached first; another corpus must
        # still get a floor of its own, cached beside it.
        embedding.calibrate_null.cache_clear()
        shipped = embedding.calibrate_null(embedding.shipped_corpus())
        custom = ("alpha beta", "gamma delta", "alpha gamma", "beta delta",
                  "epsilon zeta")
        own = embedding.calibrate_null(custom)
        assert own != shipped
        assert own == pytest.approx(_oracle_null_floor(custom), abs=1e-15)
        assert embedding.calibrate_null(custom) == own
        info = embedding.calibrate_null.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 1)


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")


def test_shipped_sessions_tokenize_each_text_once(tmp_path, monkeypatch):
    """Three sessions share the null corpus and many gate texts; with the
    memo each distinct text is tokenized exactly once per process."""
    embedding.embed.cache_clear()
    embedding.calibrate_null.cache_clear()
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
    """Importing the CLI leaves the memo and the null floor cache empty, so
    no embedding work moves into start-up."""
    code = ("import driftguard.cli\n"
            "from driftguard import embedding\n"
            "print(embedding.embed.cache_info().currsize,"
            " embedding.calibrate_null.cache_info().currsize)")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["0", "0"]
