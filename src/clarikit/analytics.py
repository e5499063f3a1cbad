"""Aggregate views of clarification engagement: breakdowns by pane and query
properties, conditional click curves by position, dissatisfaction and
multi-click rates, and annotator agreement.

Each breakdown is one DIMENSIONS entry: how it buckets a pane (labels from
the pane and its query, or a number cut into equal-width bins whose rows
carry quartiles), the report order of its buckets, and whether it needs URL
click history or keeps only five-answer panes.  Engagement rates in
breakdowns are reported relative to the overall average of the panes that
enter the breakdown, so a bucket at 1.0 engages exactly as much as average.
Query-clarification pairs with fewer than 10 impressions are dropped before
any breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    ClarificationPane,
    DomainError,
    EngagementStats,
    ImpressionLog,
    ImpressionRecord,
    PaneStats,
    Query,
    TEMPLATE_IDS,
    conditional_click_matrix,
)

MIN_IMPRESSIONS = 10


@dataclass(frozen=True)
class BreakdownRow:
    bucket: str
    impressions: int
    relative_engagement: float
    quartiles: tuple[float, float, float, float, float] | None = None  # min, q1, median, q3, max


@dataclass(frozen=True)
class BreakdownTable:
    rows: tuple[BreakdownRow, ...]


def normalized_entropy(probabilities: Sequence[float]) -> float:
    """Shannon entropy over outcomes divided by the maximum ln(#outcomes);
    base-free because of the normalization."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size <= 1:
        return 0.0
    p = p[p > 0]
    h = float(-(p * np.log(p)).sum())
    return h / float(np.log(len(probabilities)))


def click_entropy(stats: EngagementStats) -> float:
    return float(click_entropies([stats.per_position_clicks])[0])


def click_entropies(clicks) -> np.ndarray:
    """The entropy of each row's conditional click distribution, for a
    (panes, positions) matrix of click counts; a zero share adds nothing."""
    dist = conditional_click_matrix(clicks)
    return -(dist * np.log(np.where(dist > 0, dist, 1.0))).sum(axis=1)


def _eligible(stats: Mapping[str, EngagementStats]) -> PaneStats:
    """The rows with at least MIN_IMPRESSIONS impressions, in id order."""
    stats = PaneStats.of(stats).by_id()
    return stats.take(np.flatnonzero(stats.impressions >= MIN_IMPRESSIONS))


def url_stats(history: Sequence[tuple[str, int]]) -> tuple[int, float]:
    """A query's distinct clicked URLs (count > 0) and the normalized entropy
    of their click counts; (0, 0.0) without history."""
    counts = np.asarray([c for _, c in history], dtype=np.float64) if history else np.zeros(0)
    counts = counts[counts > 0]
    if counts.size == 0:
        return 0, 0.0
    return int(counts.size), normalized_entropy(counts / counts.sum())


def _equal_width_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin indices over n_bins equal-width bins between observed min and max."""
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.zeros(len(values), dtype=int)
    idx = np.floor((values - lo) / (hi - lo) * n_bins).astype(int)
    return np.minimum(idx, n_bins - 1)


@dataclass(frozen=True)
class Dimension:
    """One breakdown.  bucket(pane, query, the query's URL click history)
    gives the pane's labels, one per facet group, or, if binned, a number cut
    into equal-width bins; a dimension read from the stats instead has
    column(table), those numbers for every row of the PaneStats table at
    once.  order sorts the labels for the report."""

    bucket: Callable[[ClarificationPane, Query, Sequence[tuple[str, int]]], object] | None = None
    column: Callable[[PaneStats], np.ndarray] | None = None
    order: Callable[[str], object] = str
    binned: bool = False
    needs_history: bool = False
    five_answers_only: bool = False


_QUERY_TYPES = (  # three facet groups: question-ness, ambiguity, traffic
    "question", "not_question", "faceted", "ambiguous", "ambiguity_unknown", "head", "torso", "tail", "traffic_unknown"
)


def _query_type(pane, query, clicks) -> tuple[str, str, str]:
    return (
        "question" if query.is_question else "not_question",
        "ambiguity_unknown" if query.ambiguity_class == "unknown" else query.ambiguity_class,
        "traffic_unknown" if query.traffic_class == "unknown" else query.traffic_class,
    )


def _bin_number(label: str) -> int:
    return int(label.removeprefix("bin"))


# in the order analyze reports them
DIMENSIONS = {
    "template": Dimension(lambda pane, query, clicks: (pane.template_id,), order=TEMPLATE_IDS.index),
    "answer_count": Dimension(lambda pane, query, clicks: (str(pane.answer_count),), order=int),
    "click_entropy_bin": Dimension(
        column=lambda stats: click_entropies(stats.clicks),  # its rows are all five answers wide
        order=_bin_number, binned=True, five_answers_only=True,
    ),
    "query_length": Dimension(lambda pane, query, clicks: (str(query.length),), order=int),
    "query_type": Dimension(_query_type, order=_QUERY_TYPES.index),
    "unique_url_bin": Dimension(
        lambda pane, query, clicks: float(url_stats(clicks)[0]), order=_bin_number, binned=True, needs_history=True
    ),
    "url_entropy_bin": Dimension(
        lambda pane, query, clicks: url_stats(clicks)[1], order=_bin_number, binned=True, needs_history=True
    ),
}


def engagement_breakdown(
    stats: Mapping[str, EngagementStats],
    panes: Mapping[str, ClarificationPane],
    queries: Mapping[str, Query],
    dimension: str,
    historical_clicks: Mapping[str, Sequence[tuple[str, int]]] | None = None,
    n_bins: int = 5,
) -> BreakdownTable:
    """Relative engagement per bucket of a DIMENSIONS entry, from the columns
    of the PaneStats table of `collect_stats` (a mapping of pane id ->
    EngagementStats is read as one).  A pane in one bucket per facet group
    makes each group average to 1.0 under impression weighting; quartiles
    are unweighted over panes.  Raises DomainError when no pane is eligible,
    or when the eligible panes hold no engaged impression: relative
    engagement is then undefined.
    """
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown breakdown dimension {dimension!r}")
    rule = DIMENSIONS[dimension]
    if rule.needs_history and historical_clicks is None:
        raise ValueError(f"dimension {dimension!r} needs historical clicks per query")
    if n_bins < 1:
        raise ValueError(f"n_bins must be at least 1, got {n_bins}")
    stats = _eligible(stats)
    if rule.five_answers_only:
        stats = stats.take([row for row, pid in enumerate(stats.ids) if panes[pid].answer_count == 5])
    if not stats:
        raise DomainError(f"no panes with >= {MIN_IMPRESSIONS} impressions for dimension {dimension!r}")

    if rule.column is not None:
        keys = rule.column(stats)
    else:
        history = historical_clicks or {}
        qids = [panes[pid].query_id for pid in stats.ids]
        keys = [rule.bucket(panes[pid], queries[q], history.get(q, ())) for pid, q in zip(stats.ids, qids)]
    if rule.binned:
        keys = [(f"bin{j + 1}",) for j in _equal_width_bins(np.array(keys), n_bins)]
    buckets: dict[str, list[int]] = {}
    for row, labels in enumerate(keys):
        for label in labels:
            buckets.setdefault(label, []).append(row)

    if not stats.engaged.any():
        raise DomainError(f"no engaged impression among the eligible panes for dimension {dimension!r}")
    overall = int(stats.engaged.sum()) / int(stats.impressions.sum())
    rows = []
    for bucket in sorted(buckets, key=rule.order):
        members = np.array(buckets[bucket])
        impressions, engaged = int(stats.impressions[members].sum()), int(stats.engaged[members].sum())
        quartiles = None
        if rule.binned:
            per_pane = stats.engaged[members] / stats.impressions[members] / overall
            quartiles = tuple(float(q) for q in np.percentile(per_pane, [0, 25, 50, 75, 100]))
        rows.append(BreakdownRow(bucket, impressions, (engaged / impressions) / overall, quartiles))
    return BreakdownTable(rows=tuple(rows))


def conditional_click_by_position(
    stats: Mapping[str, EngagementStats],
    panes: Mapping[str, ClarificationPane],
    queries: Mapping[str, Query],
    ambiguity_class: str,
    answer_count: int,
) -> np.ndarray:
    """Average conditional click distribution over engaged impressions of
    panes whose query has the given ambiguity class and which have exactly
    answer_count answers."""
    stats = _eligible(stats)
    matching = [
        panes[pid].answer_count == answer_count and queries[panes[pid].query_id].ambiguity_class == ambiguity_class
        for pid in stats.ids
    ]
    selected = np.flatnonzero(np.array(matching, dtype=bool) & (stats.engaged > 0))
    if not selected.size:
        raise ValueError(f"no engaged {ambiguity_class} panes with {answer_count} answers")
    weights = stats.engaged[selected].astype(np.float64)
    dists = conditional_click_matrix(stats.clicks[selected, :answer_count])
    return (weights[:, None] * dists).sum(axis=0) / weights.sum()


def dissatisfaction_rate(
    log: ImpressionLog | Iterable[ImpressionRecord],
    dwell_threshold_s: float,
    reformulation_window_s: float = 300.0,
) -> float:
    """Fraction of impressions showing an unsatisfying result click (dwell
    under the threshold) or a reformulation inside the window."""
    if dwell_threshold_s <= 0 or reformulation_window_s <= 0:
        raise ValueError("thresholds must be positive")
    log = ImpressionLog.of(log)
    if len(log) == 0:
        return 0.0
    dissatisfied = np.zeros(len(log), dtype=bool)
    dissatisfied[log.rows(log.result_offsets)[log.result_dwells < dwell_threshold_s]] = True
    dissatisfied[log.rows(log.reformulation_offsets)[log.reformulation_deltas <= reformulation_window_s]] = True
    return int(dissatisfied.sum()) / len(log)


def multi_click_rate(log: ImpressionLog | Iterable[ImpressionRecord]) -> float:
    """Among engaged impressions, the fraction with two or more answer clicks."""
    clicks = np.diff(ImpressionLog.of(log).click_offsets)
    engaged = int((clicks >= 1).sum())
    if engaged == 0:
        raise ValueError("no engaged impressions in the log")
    return int((clicks >= 2).sum()) / engaged


def fleiss_kappa(ratings: np.ndarray, raters_per_item: int) -> float:
    """Agreement beyond chance for a (items x categories) count matrix where
    every row sums to the rater count.  1 means perfect agreement, 0 chance
    level, negative worse than chance."""
    ratings = np.asarray(ratings, dtype=np.float64)
    if ratings.ndim != 2:
        raise ValueError("ratings must be a 2-D items x categories matrix")
    if raters_per_item < 2:
        raise ValueError("need at least 2 raters per item")
    if not np.all(ratings.sum(axis=1) == raters_per_item):
        raise ValueError("every row must sum to raters_per_item")
    n = float(raters_per_item)
    per_item_agreement = ((ratings**2).sum(axis=1) - n) / (n * (n - 1))
    observed = float(per_item_agreement.mean())
    category_shares = ratings.sum(axis=0) / ratings.sum()
    expected = float((category_shares**2).sum())
    if expected >= 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)
