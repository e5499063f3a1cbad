"""Domain types shared across the toolkit, plus elementary engagement statistics.

A clarification pane is a clarifying question with 2..5 clickable candidate
answers rendered horizontally below the search bar.  An impression is one
rendering of a pane to a user; engagement means the user clicked at least one
candidate answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

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

    @property
    def engaged(self) -> bool:
        return len(self.answer_clicks) > 0


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


def merge_stats(a: EngagementStats, b: EngagementStats) -> EngagementStats:
    """Associative merge for partial counters (map-reduce over impressions)."""
    if len(a.per_position_clicks) != len(b.per_position_clicks):
        raise ValueError("cannot merge stats over different answer counts")
    return EngagementStats(
        impressions=a.impressions + b.impressions,
        engaged_impressions=a.engaged_impressions + b.engaged_impressions,
        per_position_clicks=tuple(x + y for x, y in zip(a.per_position_clicks, b.per_position_clicks)),
    )


def collect_stats(
    log: Iterable[ImpressionRecord], panes: Mapping[str, ClarificationPane]
) -> dict[str, EngagementStats]:
    """Aggregate an impression log into per-pane engagement statistics.

    Clicks on positions outside the pane's answer range are ignored rather
    than fatal; validate_pane is the place to surface malformed data.
    """
    impressions: dict[str, int] = {}
    engaged: dict[str, int] = {}
    clicks: dict[str, list[int]] = {}
    for rec in log:
        pane = panes.get(rec.pane_id)
        if pane is None:
            raise KeyError(f"impression references unknown pane {rec.pane_id!r}")
        k = pane.answer_count
        impressions[rec.pane_id] = impressions.get(rec.pane_id, 0) + 1
        if rec.pane_id not in clicks:
            clicks[rec.pane_id] = [0] * k
            engaged[rec.pane_id] = 0
        valid = [p for p in rec.answer_clicks if 1 <= p <= k]
        if valid:
            engaged[rec.pane_id] += 1
            for p in valid:
                clicks[rec.pane_id][p - 1] += 1
    return {
        pane_id: EngagementStats(
            impressions=impressions[pane_id],
            engaged_impressions=engaged[pane_id],
            per_position_clicks=tuple(clicks[pane_id]),
        )
        for pane_id in impressions
    }
