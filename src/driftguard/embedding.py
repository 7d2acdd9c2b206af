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
read once per process and ``calibrate_null`` takes its vectors from the memo,
so a session's null calibration is only the seeded pair draw and one dot
product per pair.  Nothing is embedded at import.
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
# Distinct texts per benchmark pass are at most ~620 (gate_sweep), corpus
# included; each memo entry holds a 3 kB array.
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


def calibrate_null(corpus: Sequence[str], n_pairs: int,
                   seed: int) -> NullDistribution:
    """Similarity distribution over random unordered pairs from the corpus."""
    if len(corpus) < 2:
        raise InsufficientCorpus(f"corpus has {len(corpus)} entries, need >= 2")
    if n_pairs < 1:
        raise InsufficientCorpus("n_pairs must be >= 1")
    rng = random.Random(seed)
    vectors = [embed(t) for t in corpus]
    indices = range(len(vectors))
    sims = []
    for _ in range(n_pairs):
        i, j = rng.sample(indices, 2)
        sims.append(cosine(vectors[i], vectors[j]))
    return NullDistribution(tuple(sorted(sims)))


@functools.cache
def shipped_corpus() -> tuple[str, ...]:
    """The bundled SA/UQ phrase corpus, one phrase per line; read once per
    process."""
    text = resources.files("driftguard.data").joinpath(
        "null_corpus.txt").read_text(encoding="utf-8")
    return tuple(line for line in text.splitlines() if line.strip())
