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
# token and bigram hashes, and the ids of each part, are reused across steps,
# epochs and panes; the bound keeps a long run over a large vocabulary from
# growing without limit
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


def sequence_ids(parts: list[list[str]], buckets: int) -> np.ndarray:
    """Hash bucket ids for every token and adjacent-token bigram of the
    sequence <b> part <s> part ... <e>, as a multiset in no fixed order.

    Every bigram lies in the window of one part and the boundary tokens on
    either side of it, so the ids are the boundary tokens' plus, per part,
    its tokens' and its window's bigrams, each part's from a cache.  (No
    parts join to <b> <e>, as one empty part does.)"""
    parts = parts or [[]]
    last = len(parts) - 1
    return np.concatenate([_boundary_ids(len(parts), buckets)] + [
        _part_ids(BEGIN if i == 0 else SEP, tuple(part), END if i == last else SEP, buckets)
        for i, part in enumerate(parts)
    ])


@functools.lru_cache(maxsize=None)
def _boundary_ids(n_parts: int, buckets: int) -> np.ndarray:
    """The ids of <b>, <e> and the n_parts - 1 separators."""
    return np.array([hash_token(t, buckets) for t in [BEGIN, END] + [SEP] * (n_parts - 1)], dtype=np.int64)


@functools.lru_cache(maxsize=_HASH_CACHE_SIZE)
def _part_ids(left: str, part: tuple[str, ...], right: str, buckets: int) -> np.ndarray:
    """The ids of a part's tokens and of the bigrams of left part right."""
    window = (left, *part, right)
    ids = [hash_token(t, buckets) for t in part]
    ids.extend(hash_bigram(a, b, buckets) for a, b in zip(window, window[1:]))
    return np.array(ids, dtype=np.int64)


def text_encode(batch: list[list[list[list[str]] | None]], table: Tensor, projection: Tensor) -> Tensor:
    """Encode B equal-length lists of items, each item a list of token-list
    parts, to a (B, items, model_dim) tensor: each item's row is the mean of
    its embedding rows, projected.  A None item (a padded slot) is a zero
    row.  The whole batch is one embedding lookup of its distinct ids and
    one constant (B, items, ids) pooling matrix that holds each item's mean
    weights over them."""
    real = [(b, row, sequence_ids(parts, table.shape[0])) for b, items in enumerate(batch) for row, parts in enumerate(items) if parts is not None]
    slots = np.array([(b, row) for b, row, _ in real], dtype=np.int64).reshape(-1, 2)
    lengths = np.array([len(seq) for _, _, seq in real], dtype=np.int64)
    ids, column = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)] + [seq for _, _, seq in real]), return_inverse=True)
    pooling = np.zeros((len(batch), len(batch[0]), len(ids)))
    # every id occurrence adds 1 / (its item's length) to the item's row
    slot_of_id = np.repeat(slots, lengths, axis=0)
    np.add.at(pooling, (slot_of_id[:, 0], slot_of_id[:, 1], column), np.repeat(1.0 / lengths, lengths))
    return matmul(matmul(Tensor(pooling), embedding_lookup(table, ids)), projection)
