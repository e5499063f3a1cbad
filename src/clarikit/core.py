"""Domain types shared across the toolkit, plus elementary engagement statistics.

A clarification pane is a clarifying question with 2..5 clickable candidate
answers rendered horizontally below the search bar.  An impression is one
rendering of a pane to a user; engagement means the user clicked at least one
candidate answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

AMBIGUITY_CLASSES = ("ambiguous", "faceted", "unknown")
TRAFFIC_CLASSES = ("head", "torso", "tail", "unknown")
TEMPLATE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "other")

MIN_ANSWERS = 2
MAX_ANSWERS = 5

_TOKEN_RE = re.compile(r"[a-z0-9']+")


class DomainError(ValueError):
    """An operation was called outside its domain (e.g. zero impressions)."""


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace/punctuation tokenization used everywhere."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    is_question: bool = False
    ambiguity_class: str = "unknown"
    traffic_class: str = "unknown"

    def __post_init__(self):
        if not tokenize(self.text):
            raise ValueError(f"query {self.id!r} has no tokens")
        if self.ambiguity_class not in AMBIGUITY_CLASSES:
            raise ValueError(f"unknown ambiguity class {self.ambiguity_class!r}")
        if self.traffic_class not in TRAFFIC_CLASSES:
            raise ValueError(f"unknown traffic class {self.traffic_class!r}")

    @property
    def length(self) -> int:
        return len(tokenize(self.text))


@dataclass(frozen=True)
class CandidateAnswer:
    """One clickable answer.  render_size defaults to the character count of
    the text, the only display-width proxy that is deterministic here."""

    text: str
    position: int
    render_size: float = 0.0
    entity_type: str | None = None

    def __post_init__(self):
        if self.render_size <= 0:
            object.__setattr__(self, "render_size", float(max(len(self.text), 1)))


@dataclass(frozen=True)
class ClarificationPane:
    id: str
    query_id: str
    question_text: str
    answers: tuple[CandidateAnswer, ...]
    template_id: str = "other"

    def __post_init__(self):
        object.__setattr__(self, "answers", tuple(self.answers))

    @property
    def answer_count(self) -> int:
        return len(self.answers)

    def answer_texts(self) -> tuple[str, ...]:
        return tuple(a.text for a in self.answers)


def validate_pane(pane: ClarificationPane) -> list[str]:
    """Enumerate every violated pane invariant.  An empty list means ok;
    violations are data, not faults, so nothing raises here."""
    violations = []
    k = len(pane.answers)
    if not (MIN_ANSWERS <= k <= MAX_ANSWERS):
        violations.append(f"answer count: {k} not in [{MIN_ANSWERS}, {MAX_ANSWERS}]")
    positions = sorted(a.position for a in pane.answers)
    if positions != list(range(1, k + 1)):
        violations.append(f"contiguity: positions {positions} are not 1..{k}")
    if not pane.question_text.strip():
        violations.append("empty text: question")
    for a in pane.answers:
        if not a.text.strip():
            violations.append(f"empty text: answer at position {a.position}")
        if a.render_size <= 0:
            violations.append(f"render size: answer at position {a.position} has size {a.render_size}")
    if pane.template_id not in TEMPLATE_IDS:
        violations.append(f"template: unknown id {pane.template_id!r}")
    return violations


@dataclass(frozen=True)
class ImpressionRecord:
    """One rendering of a pane: which answers were clicked, result clicks with
    dwell seconds, and an optional (new_query_text, delta_seconds) reformulation."""

    pane_id: str
    timestamp: int
    answer_clicks: frozenset[int] = frozenset()
    result_clicks: tuple[tuple[str, float], ...] = ()
    reformulation: tuple[str, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "answer_clicks", frozenset(int(p) for p in self.answer_clicks))
        object.__setattr__(
            self, "result_clicks", tuple((url, float(dwell)) for url, dwell in self.result_clicks)
        )
        if any(p < 1 for p in self.answer_clicks):
            raise ValueError("answer click positions are 1-based")
        if any(dwell < 0 for _, dwell in self.result_clicks):
            raise ValueError("dwell seconds must be >= 0")
        if self.reformulation is not None:
            text, delta = self.reformulation
            delta = float(delta)
            if delta < 0:
                raise ValueError("reformulation delta seconds must be >= 0")
            object.__setattr__(self, "reformulation", (text, delta))


def _int_column(values) -> np.ndarray:
    """Python ints as an int64 column, or as an object column when one does
    not fit in 64 bits, so every value a record holds survives."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def offsets_from_counts(counts) -> np.ndarray:
    """Offsets of a variable-length column from its per-row value counts."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=out[1:])
    return out


class ImpressionLog:
    """An impression log held as columns, one row per impression.

    Variable-length fields are offsets plus values (the Apache Arrow layout):
    row i's answer clicks are click_positions[click_offsets[i]:click_offsets[i + 1]],
    ascending and distinct; its result clicks are result_urls and
    result_dwells over result_offsets the same way; and its reformulation, if
    any, is the one entry of reformulation_texts and reformulation_deltas
    over reformulation_offsets.  pane_ids lists the distinct pane ids in
    order of first appearance, and pane_index gives each row's entry.
    Integer columns are int64, or object when a value does not fit.

    Iterating yields one ImpressionRecord per row.  The log functions take a
    log or any iterable of records, which they turn into a log once (of).
    """

    __slots__ = (
        "pane_ids", "pane_index", "timestamps", "click_offsets", "click_positions",
        "result_offsets", "result_urls", "result_dwells",
        "reformulation_offsets", "reformulation_texts", "reformulation_deltas",
    )

    def __init__(self, pane_ids, pane_index, timestamps, click_offsets, click_positions,
                 result_offsets, result_urls, result_dwells,
                 reformulation_offsets, reformulation_texts, reformulation_deltas):
        self.pane_ids = tuple(pane_ids)
        self.pane_index = np.asarray(pane_index, dtype=np.intp)
        self.timestamps = timestamps
        self.click_offsets = click_offsets
        self.click_positions = click_positions
        self.result_offsets = result_offsets
        self.result_urls = list(result_urls)
        self.result_dwells = np.asarray(result_dwells, dtype=np.float64)
        self.reformulation_offsets = reformulation_offsets
        self.reformulation_texts = list(reformulation_texts)
        self.reformulation_deltas = np.asarray(reformulation_deltas, dtype=np.float64)

    @classmethod
    def of(cls, log: Iterable[ImpressionRecord]) -> "ImpressionLog":
        """The log itself, or the records of an iterable as a log."""
        if isinstance(log, cls):
            return log
        records = list(log)
        lookup: dict = {}
        results = [click for rec in records for click in rec.result_clicks]
        reformulations = [rec.reformulation for rec in records if rec.reformulation is not None]
        return cls(
            lookup,
            [lookup.setdefault(rec.pane_id, len(lookup)) for rec in records],
            _int_column([rec.timestamp for rec in records]),
            offsets_from_counts([len(rec.answer_clicks) for rec in records]),
            _int_column([p for rec in records for p in sorted(rec.answer_clicks)]),
            offsets_from_counts([len(rec.result_clicks) for rec in records]),
            [url for url, _ in results],
            [dwell for _, dwell in results],
            offsets_from_counts([rec.reformulation is not None for rec in records]),
            [text for text, _ in reformulations],
            [delta for _, delta in reformulations],
        )

    @classmethod
    def concat(cls, logs: Sequence["ImpressionLog"]) -> "ImpressionLog":
        """The rows of several logs, in order, as one log."""
        if not logs:
            return cls.of([])
        lookup: dict = {}
        pane_index = [
            np.array([lookup.setdefault(p, len(lookup)) for p in log.pane_ids], dtype=np.intp)[log.pane_index]
            for log in logs
        ]

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(log, name) for log in logs])

        def joined_offsets(name: str) -> np.ndarray:
            return offsets_from_counts(np.concatenate([np.diff(getattr(log, name)) for log in logs]))

        return cls(
            lookup, np.concatenate(pane_index), joined("timestamps"),
            joined_offsets("click_offsets"), joined("click_positions"),
            joined_offsets("result_offsets"), [url for log in logs for url in log.result_urls], joined("result_dwells"),
            joined_offsets("reformulation_offsets"),
            [text for log in logs for text in log.reformulation_texts], joined("reformulation_deltas"),
        )

    def __len__(self) -> int:
        return len(self.pane_index)

    def __iter__(self):
        clicks = self.per_row(self.click_offsets, self.click_positions.tolist())
        results = self.per_row(self.result_offsets, list(zip(self.result_urls, self.result_dwells.tolist())))
        reformulations = self.per_row(
            self.reformulation_offsets, list(zip(self.reformulation_texts, self.reformulation_deltas.tolist()))
        )
        for pane, timestamp, answer_clicks, result_clicks, reformulation in zip(
            self.pane_index.tolist(), self.timestamps.tolist(), clicks, results, reformulations
        ):
            yield ImpressionRecord(
                self.pane_ids[pane], timestamp, frozenset(answer_clicks), tuple(result_clicks),
                reformulation[0] if reformulation else None,
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImpressionLog):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in ((getattr(self, name), getattr(other, name)) for name in self.__slots__)
        )

    __hash__ = None

    def rows(self, offsets: np.ndarray) -> np.ndarray:
        """The row of every value of a variable-length column."""
        return np.repeat(np.arange(len(self)), np.diff(offsets))

    @staticmethod
    def per_row(offsets: np.ndarray, values: list):
        """The values of a variable-length column, one list per row."""
        bounds = offsets.tolist()
        return (values[start:end] for start, end in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class EngagementStats:
    impressions: int
    engaged_impressions: int
    per_position_clicks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_position_clicks", tuple(int(c) for c in self.per_position_clicks))
        if self.engaged_impressions > self.impressions:
            raise ValueError("engaged impressions exceed impressions")
        if self.engaged_impressions < 0 or self.impressions < 0:
            raise ValueError("negative counts")
        if any(c < 0 or c > self.impressions for c in self.per_position_clicks):
            raise ValueError("per-position clicks must be in [0, impressions]")


@dataclass(frozen=True)
class PaneLabels:
    """Human labels: one overall pane label plus one landing-page label per answer."""

    overall: str
    landing: tuple[str, ...]

    def __post_init__(self):
        if self.overall not in ("Good", "Fair", "Bad"):
            raise ValueError(f"bad overall label {self.overall!r}")
        object.__setattr__(self, "landing", tuple(self.landing))
        for lab in self.landing:
            if lab not in ("Good", "Fair", "Bad"):
                raise ValueError(f"bad landing label {lab!r}")


def engagement_rate(stats: EngagementStats) -> float:
    """Fraction of impressions with at least one answer click."""
    if stats.impressions <= 0:
        raise DomainError("engagement rate undefined for zero impressions")
    return stats.engaged_impressions / stats.impressions


def conditional_click_distribution(stats: EngagementStats) -> np.ndarray:
    """Click distribution over answer positions, conditional on engagement.

    Panes with no observed clicks get equal conditional click probability on
    every answer.
    """
    clicks = np.asarray(stats.per_position_clicks, dtype=np.float64)
    total = clicks.sum()
    if total == 0:
        return np.full(len(clicks), 1.0 / len(clicks))
    return clicks / total


def collect_stats(
    log: ImpressionLog | Iterable[ImpressionRecord], panes: Mapping[str, ClarificationPane]
) -> dict[str, EngagementStats]:
    """Aggregate an impression log into per-pane engagement statistics.

    Clicks on positions outside the pane's answer range are ignored rather
    than fatal; validate_pane is the place to surface malformed data.  Panes
    come in order of first appearance in the log.
    """
    log = ImpressionLog.of(log)
    answer_counts = []
    for pane_id in log.pane_ids:
        pane = panes.get(pane_id)
        if pane is None:
            raise KeyError(f"impression references unknown pane {pane_id!r}")
        answer_counts.append(pane.answer_count)
    n_panes = len(answer_counts)
    width = max(answer_counts, default=0)
    click_rows = log.rows(log.click_offsets)
    click_pane = log.pane_index[click_rows]
    positions = log.click_positions
    valid = (positions >= 1) & (positions <= np.asarray(answer_counts, dtype=np.int64)[click_pane])
    click_pane, positions = click_pane[valid], positions[valid].astype(np.int64)
    engaged_rows = np.zeros(len(log), dtype=bool)
    engaged_rows[click_rows[valid]] = True
    impressions = np.bincount(log.pane_index, minlength=n_panes).tolist()
    engaged = np.bincount(log.pane_index[engaged_rows], minlength=n_panes).tolist()
    clicks = np.bincount(click_pane * width + positions - 1, minlength=n_panes * width).reshape(n_panes, width)
    return {
        pane_id: EngagementStats(
            impressions=impressions[i],
            engaged_impressions=engaged[i],
            per_position_clicks=tuple(clicks[i, : answer_counts[i]].tolist()),
        )
        for i, pane_id in enumerate(log.pane_ids)
    }
