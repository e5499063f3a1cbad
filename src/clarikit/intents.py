"""Weighted intent sets per query, mined from two sources: reformulations
where the follow-up query contains the original, and titles of clicked URLs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .core import tokenize
from .dataio import _dumps, _load_records, _string, read_tsv_rows, write_jsonl

SOURCES = ("reformulation", "click_title")


@dataclass(frozen=True)
class IntentSet:
    query_id: str
    source: str
    items: tuple[tuple[str, float], ...]  # (intent_text, weight), weight descending

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown intent source {self.source!r}")
        items = tuple((text, float(w)) for text, w in self.items)
        if any(w <= 0 or not math.isfinite(w) for _, w in items):
            raise ValueError("intent weights must be positive and finite")
        texts = [t for t, _ in items]
        if len(set(texts)) != len(texts):
            raise ValueError("intent texts must be unique within a set")
        object.__setattr__(self, "items", tuple(sorted(items, key=lambda it: (-it[1], it[0]))))


def normalize_phrase(text: str) -> str:
    return " ".join(tokenize(text))


def contains_query(query_tokens: list[str], candidate_tokens: list[str]) -> bool:
    """Token-level contiguous subsequence test (so 'art' never matches inside
    'cartoon')."""
    n, m = len(candidate_tokens), len(query_tokens)
    if m == 0 or m > n:
        return False
    return any(candidate_tokens[i : i + m] == query_tokens for i in range(n - m + 1))


def strip_site_suffix(title: str) -> str:
    """Drop a trailing ' - Site Name' or ' | Site Name' boilerplate segment."""
    for sep in (" - ", " | "):
        idx = title.rfind(sep)
        if idx > 0:
            title = title[:idx]
    return title


def intents_from_reformulations(
    triples: Iterable[tuple[str, str, int]],
    min_freq: int = 2,
    query_ids: Mapping[str, str] | None = None,
) -> dict[str, IntentSet]:
    """Build one reformulation-sourced intent set per query.

    Keeps triples whose follow-up query strictly contains the query as a
    contiguous token subsequence; weights are summed frequencies, and items
    below min_freq are dropped after aggregation.  Keys are normalized query
    texts unless a query_ids mapping (normalized text -> id) is given.
    """

    def intent(query_tokens: list[str], follow_up: str) -> str:
        tokens = tokenize(follow_up)
        return " ".join(tokens) if len(tokens) > len(query_tokens) and contains_query(query_tokens, tokens) else ""

    return _mine(triples, 1, "reformulation", intent, min_freq, query_ids)


def intents_from_click_titles(
    records: Iterable[tuple[str, str, str, int]],
    min_freq: int = 2,
    query_ids: Mapping[str, str] | None = None,
) -> dict[str, IntentSet]:
    """Build one click-title-sourced intent set per query from (query, URL,
    title, frequency) records; the URL is not read.  Titles are normalized
    (site-name suffix stripped, lowercased, punctuation removed) and weights
    are summed click frequencies."""
    titles: dict[str, str] = {}

    def intent(_query_tokens: list[str], title: str) -> str:
        if title not in titles:
            titles[title] = normalize_phrase(strip_site_suffix(title))
        return titles[title]

    return _mine(records, 2, "click_title", intent, min_freq, query_ids)


def _mine(
    rows: Iterable[tuple],
    column: int,
    source: str,
    intent: Callable[[list[str], str], str],
    min_freq: int,
    query_ids: Mapping[str, str] | None,
) -> dict[str, IntentSet]:
    """One source's intent sets from rows of (query text, ..., frequency):
    intent(query tokens, text) is the normalized intent of a row whose
    column `column` holds text, "" for none.  Frequencies are summed per
    distinct query and text first, so each query is tokenized once and each
    (query, text) intent found once: a log repeats few pairs over many rows.
    Weights are summed as integers and made floats once each."""
    counts: dict[str, dict[str, int]] = {}  # query -> text -> frequency
    for row in rows:
        count = row[-1]
        if count < 1:
            raise ValueError(f"{source} frequency must be >= 1, got {count}")
        texts = counts.get(row[0])
        if texts is None:
            texts = counts[row[0]] = {}
        text = row[column]
        texts[text] = texts.get(text, 0) + count
    weights: dict[str, dict[str, int]] = {}
    for query, texts in counts.items():
        q_tokens = tokenize(query)
        if not q_tokens:
            continue
        bucket = weights.setdefault(" ".join(q_tokens), {})
        for text, count in texts.items():
            mined = intent(q_tokens, text)
            if mined:
                bucket[mined] = bucket.get(mined, 0) + count
    out = {}
    for q_norm, bucket in weights.items():
        items = tuple((text, float(w)) for text, w in bucket.items() if w >= min_freq)
        if not items:
            continue
        if query_ids is None:
            key = query_id = q_norm
        elif q_norm in query_ids:
            key = query_id = query_ids[q_norm]
        else:
            continue
        out[key] = IntentSet(query_id=query_id, source=source, items=items)
    return out


def truncate_intents(intent_set: IntentSet, n_max: int) -> IntentSet:
    """Keep the n_max heaviest intents, breaking weight ties by text order.
    Weights are left as-is; consumers renormalize."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if len(intent_set.items) <= n_max:
        return intent_set
    return IntentSet(
        query_id=intent_set.query_id, source=intent_set.source, items=intent_set.items[:n_max]
    )


def _frequency(value: str) -> int:
    """A frequency column: an integer of at least 1."""
    frequency = int(value)
    if frequency < 1:
        raise ValueError(f"frequency must be >= 1, got {frequency}")
    return frequency


def read_reformulations_tsv(path: str) -> list[tuple[str, str, int]]:
    """(query, follow-up, frequency) rows, one per line."""
    return list(read_tsv_rows(path, (str, str, _frequency)))


def read_click_titles_tsv(path: str) -> list[tuple[str, str, str, int]]:
    """(query, URL, title, frequency) rows, one per line."""
    return list(read_tsv_rows(path, (str, str, str, _frequency)))


def save_intent_sets(path: str, sets: Iterable[IntentSet]) -> None:
    write_jsonl(
        path,
        (
            {"query_id": s.query_id, "source": s.source, "items": [[t, w] for t, w in s.items]}
            for s in sorted(sets, key=lambda s: (s.query_id, s.source))
        ),
    )


def intent_set_from_dict(d: dict) -> IntentSet:
    items = d["items"]
    if type(items) is not list:
        raise ValueError(f"items must be a list, got {_dumps(items)}")
    return IntentSet(
        query_id=_string(d["query_id"], "query_id"), source=d["source"], items=tuple(map(_intent_item, items))
    )


def _intent_item(item) -> tuple[str, float]:
    """An intent set's [text, weight] item: a string and a number, not a bool."""
    if type(item) is not list or len(item) != 2:
        raise ValueError(f"intent item must be a [text, weight] pair, got {_dumps(item)}")
    text, weight = item
    if type(weight) not in (int, float):
        raise ValueError(f"intent weight must be a number, got {_dumps(weight)}")
    return _string(text, "intent text"), float(weight)


def load_intent_sets(path: str) -> dict[str, dict[str, IntentSet]]:
    """Load as query_id -> source -> IntentSet; a malformed record fails as
    a ValueError naming its path:line."""
    out: dict[str, dict[str, IntentSet]] = {}
    for s in _load_records(path, "intent set", intent_set_from_dict):
        out.setdefault(s.query_id, {})[s.source] = s
    return out
