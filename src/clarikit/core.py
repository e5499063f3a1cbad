"""Domain types shared across the toolkit, plus elementary engagement statistics.

A clarification pane is a clarifying question with 2..5 clickable candidate
answers rendered horizontally below the search bar.  An impression is one
rendering of a pane to a user; engagement means the user clicked at least one
candidate answer.
"""

from __future__ import annotations

import re
from collections import abc
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

AMBIGUITY_CLASSES = ("ambiguous", "faceted", "unknown")
TRAFFIC_CLASSES = ("head", "torso", "tail", "unknown")
LABEL_VALUES = {"Bad": 0.0, "Fair": 1.0, "Good": 2.0}  # the human grades, as ranking label values
TEMPLATE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "other")

MIN_ANSWERS = 2
MAX_ANSWERS = 5

_TOKEN_RE = re.compile(r"[a-z0-9']+")


class DomainError(ValueError):
    """An operation was called outside its domain (e.g. zero impressions)."""


class NumericalError(RuntimeError):
    """A fit did not converge or met a non-finite or singular step, or a
    training step saw a non-finite gradient: the CLI exits 2."""


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
    Integer columns are int64.

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
            np.array([rec.timestamp for rec in records], dtype=np.int64),
            offsets_from_counts([len(rec.answer_clicks) for rec in records]),
            np.array([p for rec in records for p in sorted(rec.answer_clicks)], dtype=np.int64),
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


class PaneStats(abc.Mapping):
    """Per-pane engagement statistics as int64 columns, one row per pane in
    the order given: ids, impressions, engaged (impressions), answer_counts
    and clicks (n, widest pane) per position, zero past a row's answers.

    As a mapping it is pane id -> EngagementStats, each built only when
    read; in and len use index (id -> row), and the repr is the dict's."""

    def __init__(self, ids, impressions, engaged, clicks, answer_counts):
        self.ids = tuple(ids)
        self.index = dict(zip(self.ids, range(len(self.ids))))
        self.impressions, self.engaged, self.clicks, self.answer_counts = (
            np.asarray(column, dtype=np.int64) for column in (impressions, engaged, clicks, answer_counts)
        )

    @classmethod
    def of(cls, stats: Mapping[str, EngagementStats]) -> "PaneStats":
        """The table itself, or a mapping of pane id -> EngagementStats as a table."""
        if isinstance(stats, cls):
            return stats
        rows = list(stats.values())
        counts = np.array([len(s.per_position_clicks) for s in rows], dtype=np.int64)
        clicks = np.zeros((len(rows), counts.max(initial=0)), dtype=np.int64)
        clicks[np.arange(clicks.shape[1]) < counts[:, None]] = [c for s in rows for c in s.per_position_clicks]
        return cls(stats, [s.impressions for s in rows], [s.engaged_impressions for s in rows], clicks, counts)

    def take(self, rows) -> "PaneStats":
        """The given rows, in the given order, as a table."""
        rows = np.asarray(rows, dtype=np.intp)
        ids = [self.ids[row] for row in rows.tolist()]
        return PaneStats(ids, self.impressions[rows], self.engaged[rows], self.clicks[rows], self.answer_counts[rows])

    def by_id(self) -> "PaneStats":
        """The rows in ascending id order."""
        return self.take(sorted(range(len(self)), key=self.ids.__getitem__))

    def __getitem__(self, pane_id: str) -> EngagementStats:
        row = self.index[pane_id]
        clicks = self.clicks[row, : self.answer_counts[row]].tolist()
        return EngagementStats(int(self.impressions[row]), int(self.engaged[row]), tuple(clicks))

    def __contains__(self, pane_id) -> bool:
        return pane_id in self.index

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class PaneLabels:
    """Human labels: one overall pane label plus one landing-page label per answer."""

    overall: str
    landing: tuple[str, ...]

    def __post_init__(self):
        if self.overall not in LABEL_VALUES:
            raise ValueError(f"bad overall label {self.overall!r}")
        object.__setattr__(self, "landing", tuple(self.landing))
        for lab in self.landing:
            if lab not in LABEL_VALUES:
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
    return conditional_click_matrix([stats.per_position_clicks])[0]


def conditional_click_matrix(clicks) -> np.ndarray:
    """conditional_click_distribution of each row of a (panes, positions)
    matrix of click counts."""
    clicks = np.asarray(clicks, dtype=np.float64)
    totals = clicks.sum(axis=1, keepdims=True)
    return np.where(totals == 0, 1.0 / clicks.shape[1], clicks / np.where(totals == 0, 1.0, totals))


def collect_stats(
    log: ImpressionLog | Iterable[ImpressionRecord], panes: Mapping[str, ClarificationPane]
) -> PaneStats:
    """Aggregate an impression log into a table of per-pane engagement
    statistics, counted with one bincount per column; a pane's row is as
    wide as its answers.

    Clicks on positions outside the pane's answer range are ignored rather
    than fatal; validate_pane is the place to surface malformed data.  Panes
    come in order of first appearance in the log.
    """
    log = ImpressionLog.of(log)
    unknown = [pane_id for pane_id in log.pane_ids if pane_id not in panes]
    if unknown:
        raise KeyError(f"impression references unknown pane {unknown[0]!r}")
    answer_counts = [panes[pane_id].answer_count for pane_id in log.pane_ids]
    n_panes = len(answer_counts)
    width = max(answer_counts, default=0)
    click_rows = log.rows(log.click_offsets)
    click_pane = log.pane_index[click_rows]
    positions = log.click_positions
    valid = (positions >= 1) & (positions <= np.asarray(answer_counts, dtype=np.int64)[click_pane])
    click_pane, positions = click_pane[valid], positions[valid]
    engaged_rows = np.zeros(len(log), dtype=bool)
    engaged_rows[click_rows[valid]] = True
    return PaneStats(
        log.pane_ids,
        np.bincount(log.pane_index, minlength=n_panes),
        np.bincount(log.pane_index[engaged_rows], minlength=n_panes),
        np.bincount(click_pane * width + positions - 1, minlength=n_panes * width).reshape(n_panes, width),
        answer_counts,
    )
