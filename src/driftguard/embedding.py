"""Deterministic text embedding, cosine similarity and the null floor.

The embedding is a hashed bag-of-tokens: lowercase, split on
non-alphanumerics, hash each token into one of 384 buckets with a fixed
keyed hash, accumulate term frequency, L2-normalize.  Bucket counts are
integers before normalization, so the result is platform-independent.

``embed`` is memoized per process in an LRU of ``MEMO_SIZE`` texts (at most
about 7 MB), so each distinct text is tokenized, hashed and normalized once.
Every caller of a text shares its vector, so the vector's array is read-only;
it carries its norm, and a cosine is one dot product.

The null floor of a corpus is the 95th percentile of the cosines of all its
unordered line pairs: what unrelated texts score.  ``calibrate_null``
computes it once per corpus and process, so every session on the shipped
corpus gets the same floor, whatever its seed.  Nothing is embedded at
import.
"""

from __future__ import annotations

import functools
import hashlib
import re
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


def _embed(text: str) -> EmbeddingVector:
    """Embed UTF-8 text; identical text gives the identical, shared vector."""
    counts = np.zeros(DIM, dtype=np.int64)
    for token in _tokenize(text):
        counts[_bucket(token)] += 1
    norm = float(np.sqrt(np.dot(counts, counts)))
    if norm == 0.0:
        return EmbeddingVector(counts)
    return EmbeddingVector(counts / norm)


# A wrapper over ``embed`` reaches the memo; the null floor calls _embed.
embed = functools.lru_cache(maxsize=MEMO_SIZE)(_embed)


def cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """u.v / (|u||v|) clamped to [-1, 1]; 0 when either norm is 0."""
    if u.norm == 0.0 or v.norm == 0.0:
        return 0.0
    # Per-pair np.dot keeps the bits of every shipped similarity; a BLAS Gram
    # matrix over many vectors rounds some pairs differently.
    s = float(np.dot(u.array, v.array)) / (u.norm * v.norm)
    return min(1.0, max(-1.0, s))


def similarity(text_a: str, text_b: str) -> float:
    return cosine(embed(text_a), embed(text_b))


_NULL_QUANTILE = 0.95
# Rows per Gram block: a 32 x 384 block (98 kB) and its band of the shipped
# Gram (32 x 200, 51 kB) stay under glibc's 128 kB mmap threshold; freeing a
# bigger array raises it process-wide (+0.8 MB RSS).
_BLOCK = 32


def _all_pair_cosines(corpus: tuple[str, ...]) -> np.ndarray:
    """Cosines of all unordered line pairs in ``itertools.combinations``
    order, from the Gram matrix of the corpus vectors, one row block at a
    time; the vectors stay out of the ``embed`` memo."""
    blocks = []
    for k in range(0, len(corpus), _BLOCK):
        vectors = [_embed(text) for text in corpus[k:k + _BLOCK]]
        # A zero vector's dots are exact zeros; norm 1 keeps them so.
        blocks.append((np.stack([v.array for v in vectors]),
                       np.array([v.norm or 1.0 for v in vectors])))
    sims = []
    for i, (a, a_norms) in enumerate(blocks):
        dots = np.clip(np.hstack([a @ b.T / np.outer(a_norms, b_norms)
                                  for b, b_norms in blocks[i:]]), -1.0, 1.0)
        sims.extend(row[r + 1:] for r, row in enumerate(dots))
    return np.concatenate(sims)


@functools.lru_cache(maxsize=8)
def calibrate_null(corpus: tuple[str, ...]) -> float:
    """The null floor of ``corpus``, computed once per corpus: the
    ``_NULL_QUANTILE`` quantile (linear) of all its pair cosines."""
    if len(corpus) < 2:
        raise InsufficientCorpus(f"corpus has {len(corpus)} entries, "
                                 "need >= 2")
    return float(np.quantile(_all_pair_cosines(corpus), _NULL_QUANTILE,
                             method="linear", overwrite_input=True))


@functools.cache
def shipped_corpus() -> tuple[str, ...]:
    """The bundled SA/UQ phrase corpus, one phrase per line; read once per
    process."""
    text = resources.files("driftguard.data").joinpath(
        "null_corpus.txt").read_text(encoding="utf-8")
    return tuple(line for line in text.splitlines() if line.strip())
