"""Deterministic text embedding provider, cosine similarity, null calibration.

The reference provider is a hashed bag-of-tokens: lowercase, split on
non-alphanumerics, hash each token into one of 384 buckets with a fixed
keyed hash, accumulate term frequency, L2-normalize.  Bucket counts are
integers before normalization, so the result is platform-independent.
External providers can plug in behind the same ``embed`` contract.

``embed`` is memoized per process in an LRU of ``MEMO_SIZE`` texts (at most
about 7 MB), so each distinct text is tokenized, hashed and normalized once.
Every caller of a text shares its vector, so the vector's array is read-only;
it carries its norm, and a cosine is one dot product.  The shipped corpus is
read once per process, and ``calibrate_null`` stacks its vectors into one
matrix on first use, outside the memo.  A session's null calibration is then
a handful of numpy calls: the seeded pair stream of ``random.Random.sample``
rebuilt from bulk ``getrandbits`` words, and the pairs' dot products as
stacked BLAS dots, bit-identical to ``cosine`` pair by pair.  Nothing is
embedded at import.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DimensionError, InsufficientCorpus

DIM = 384
# Distinct texts per benchmark pass are at most ~430 (gate_sweep); the
# corpus stays out of the memo. Each memo entry holds a 3 kB array.
MEMO_SIZE = 2048
_HASH_SEED = b"driftguard-v1"
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _bucket(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), key=_HASH_SEED,
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % DIM


@dataclass(frozen=True, eq=False, slots=True)
class EmbeddingVector:
    """Fixed-length real vector; unit norm unless the all-zero vector.

    ``array`` is a read-only float64 copy of the components given and
    ``norm`` its Euclidean norm (``np.linalg.norm``), computed once; the memo
    shares one instance among all callers of a text.
    """

    array: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        array = np.array(self.array, dtype=np.float64)
        if array.shape != (DIM,):
            raise DimensionError(f"expected {DIM} components, got {array.size}")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "norm", float(np.linalg.norm(array)))


@functools.lru_cache(maxsize=MEMO_SIZE)
def embed(text: str) -> EmbeddingVector:
    """Embed UTF-8 text; identical text gives the identical, shared vector."""
    counts = np.zeros(DIM, dtype=np.int64)
    for token in _tokenize(text):
        counts[_bucket(token)] += 1
    norm = float(np.sqrt(np.dot(counts, counts)))
    if norm == 0.0:
        return EmbeddingVector(counts)
    return EmbeddingVector(counts / norm)


def cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """u.v / (|u||v|) clamped to [-1, 1]; 0 when either norm is 0."""
    if u.norm == 0.0 or v.norm == 0.0:
        return 0.0
    # Per-pair np.dot keeps the bits of every shipped threshold; a BLAS Gram
    # matrix over many vectors rounds differently for some pairs.
    s = float(np.dot(u.array, v.array)) / (u.norm * v.norm)
    return min(1.0, max(-1.0, s))


def similarity(text_a: str, text_b: str) -> float:
    return cosine(embed(text_a), embed(text_b))


@dataclass(frozen=True)
class NullDistribution:
    """Sorted similarity scores from unrelated text pairs."""

    samples: tuple[float, ...]

    def __post_init__(self):
        if not self.samples:
            raise InsufficientCorpus("null distribution needs samples")
        if list(self.samples) != sorted(self.samples):
            raise InsufficientCorpus("samples must be sorted ascending")

    def quantile(self, q: float) -> float:
        return float(np.quantile(np.asarray(self.samples), q,
                                 method="linear"))


# Pairs per stacked matmul: each gathered 32 x 384 operand (98 kB) stays under
# glibc's 128 kB mmap threshold, so a chunk reuses heap pages instead of
# faulting in fresh ones on every call.
_CHUNK = 32


@functools.lru_cache(maxsize=8)
def _corpus_matrix(corpus: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The corpus's vectors stacked as rows, and their norms; built on first
    use, once per corpus, and kept out of the ``embed`` memo."""
    vectors = [embed.__wrapped__(t) for t in corpus]
    matrix = np.stack([v.array for v in vectors])
    norms = np.array([v.norm for v in vectors])
    matrix.flags.writeable = norms.flags.writeable = False
    return matrix, norms


def _draw_pairs(rng: random.Random, n: int,
                n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second indices of ``n_pairs`` successive
    ``rng.sample(range(n), 2)`` calls, drawn from bulk ``getrandbits`` words.

    For 21 < n < 2**32, ``sample`` draws each index as the top
    ``n.bit_length()`` bits of one 32-bit Mersenne Twister word, redrawn
    while >= n, and redraws the second index while it equals the first.
    ``getrandbits(32 * w)`` yields the same words, least significant first.
    For n <= 21 ``sample`` takes another branch, so it is called as is.
    """
    if n <= 21:
        first, second = zip(*(rng.sample(range(n), 2) for _ in range(n_pairs)))
        return np.array(first), np.array(second)
    shift = 32 - n.bit_length()
    accept = n / (1 << n.bit_length())
    firsts, seconds, got = [], [], 0
    pending = np.empty(0, dtype=np.intp)  # accepted values not yet paired
    while got < n_pairs:
        w = int((2 * (n_pairs - got) + 16) / accept * 1.05)
        words = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"),
                              dtype="<u4")
        values = (words >> shift).astype(np.intp)
        pending = np.concatenate((pending, values[values < n]))
        while got < n_pairs and len(pending) >= 2:
            m = len(pending) // 2
            first, second = pending[0:2 * m:2], pending[1:2 * m:2]
            repeats = np.flatnonzero(first == second)
            q = int(repeats[0]) if repeats.size else m
            take = min(q, n_pairs - got)
            firsts.append(first[:take])
            seconds.append(second[:take])
            got += take
            if q < m:  # pair q redraws its second index: drop the repeat
                pending = np.concatenate((pending[2 * q:2 * q + 1],
                                          pending[2 * q + 2:]))
            else:
                pending = pending[2 * m:]
    return np.concatenate(firsts), np.concatenate(seconds)


def _pair_cosines(matrix: np.ndarray, norms: np.ndarray, first: np.ndarray,
                  second: np.ndarray) -> np.ndarray:
    """``cosine`` of rows ``first[k]`` and ``second[k]`` for every k, to the
    bit: a stacked 1 x 384 @ 384 x 1 matmul runs the same BLAS dot as
    ``np.dot``, where a Gram matrix or ``einsum`` rounds some pairs
    differently."""
    dots = np.empty(len(first))
    for k in range(0, len(first), _CHUNK):
        i, j = first[k:k + _CHUNK], second[k:k + _CHUNK]
        np.matmul(matrix[i][:, None, :], matrix[j][:, :, None],
                  out=dots[k:k + _CHUNK, None, None])
    nu, nv = norms[first], norms[second]
    sims = np.zeros(len(first))
    np.divide(dots, nu * nv, out=sims, where=(nu != 0.0) & (nv != 0.0))
    return np.clip(sims, -1.0, 1.0, out=sims)


def calibrate_null(corpus: Sequence[str], n_pairs: int,
                   seed: int) -> NullDistribution:
    """Similarity distribution over random unordered pairs from the corpus:
    the cosines of ``random.Random(seed).sample(range(len(corpus)), 2)``
    pairs, bit for bit."""
    if len(corpus) < 2:
        raise InsufficientCorpus(f"corpus has {len(corpus)} entries, need >= 2")
    if n_pairs < 1:
        raise InsufficientCorpus("n_pairs must be >= 1")
    matrix, norms = _corpus_matrix(tuple(corpus))
    first, second = _draw_pairs(random.Random(seed), len(corpus), n_pairs)
    sims = _pair_cosines(matrix, norms, first, second)
    sims.sort()
    return NullDistribution(tuple(sims.tolist()))


@functools.cache
def shipped_corpus() -> tuple[str, ...]:
    """The bundled SA/UQ phrase corpus, one phrase per line; read once per
    process."""
    text = resources.files("driftguard.data").joinpath(
        "null_corpus.txt").read_text(encoding="utf-8")
    return tuple(line for line in text.splitlines() if line.strip())
