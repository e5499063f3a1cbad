"""Hashed-embedding text encoder.

Token and bigram embeddings live in one shared table of hash buckets; a
sequence is encoded as the mean of its embedding rows (boundary tokens
included) followed by a per-role linear projection.  The hash is a fixed
FNV-1a so encodings are identical across platforms and runs.  Any module
that can map a token sequence to a fixed-dimension vector can stand in
behind the same interface.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import Tensor, embedding_lookup, matmul

BEGIN = "<b>"
SEP = "<s>"
END = "<e>"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# token and bigram hashes are reused across steps, epochs and panes; the
# bound keeps a long run over a large vocabulary from growing without limit
_HASH_CACHE_SIZE = 1 << 16


def fnv1a(data: str | bytes) -> int:
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@functools.lru_cache(maxsize=_HASH_CACHE_SIZE)
def hash_token(token: str, buckets: int) -> int:
    return fnv1a(token) % buckets


@functools.lru_cache(maxsize=_HASH_CACHE_SIZE)
def hash_bigram(left: str, right: str, buckets: int) -> int:
    return fnv1a(left + "\x1f" + right) % buckets


def boundary_sequence(parts: list[list[str]]) -> list[str]:
    """Join token lists as <b> part <s> part ... <e>."""
    tokens = [BEGIN]
    for i, part in enumerate(parts):
        if i > 0:
            tokens.append(SEP)
        tokens.extend(part)
    tokens.append(END)
    return tokens


def sequence_ids(parts: list[list[str]], buckets: int) -> np.ndarray:
    """Hash bucket ids for every token and adjacent-token bigram of the
    boundary-joined sequence."""
    tokens = boundary_sequence(parts)
    ids = [hash_token(t, buckets) for t in tokens]
    ids.extend(hash_bigram(a, b, buckets) for a, b in zip(tokens, tokens[1:]))
    return np.asarray(ids, dtype=np.int64)


def text_encode(items: list[list[list[str]] | None], table: Tensor, projection: Tensor) -> Tensor:
    """Encode each item, a list of token-list parts, to one row of an
    (len(items), model_dim) matrix.  A None item (a padded slot) is a zero
    row.  All items share one embedding lookup; a constant pooling matrix
    takes each item's mean over its own ids."""
    encoded = [(row, sequence_ids(parts, table.shape[0])) for row, parts in enumerate(items) if parts is not None]
    ids = np.concatenate([np.zeros(0, dtype=np.int64)] + [seq for _, seq in encoded])
    pooling = np.zeros((len(items), len(ids)))
    offset = 0
    for row, seq in encoded:
        pooling[row, offset : offset + len(seq)] = 1.0 / len(seq)
        offset += len(seq)
    return matmul(matmul(Tensor(pooling), embedding_lookup(table, ids)), projection)
