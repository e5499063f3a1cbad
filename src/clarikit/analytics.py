"""Aggregate views of clarification engagement: breakdowns by pane and query
properties, conditional click curves by position, dissatisfaction and
multi-click rates, and annotator agreement.

Engagement rates in breakdowns are reported relative to the overall average
of the panes that enter the breakdown, so a bucket at 1.0 engages exactly as
much as average.  Query-clarification pairs with fewer than 10 impressions
are dropped before any breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    ClarificationPane,
    EngagementStats,
    ImpressionLog,
    ImpressionRecord,
    Query,
    TEMPLATE_IDS,
    conditional_click_distribution,
    engagement_rate,
)

DIMENSIONS = (
    "template",
    "answer_count",
    "click_entropy_bin",
    "query_length",
    "query_type",
    "unique_url_bin",
    "url_entropy_bin",
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
    dimension: str
    overall_rate: float
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
    dist = conditional_click_distribution(stats)
    positive = dist[dist > 0]
    return float(-(positive * np.log(positive)).sum())


def _eligible(stats: Mapping[str, EngagementStats]) -> dict[str, EngagementStats]:
    return {pid: s for pid, s in stats.items() if s.impressions >= MIN_IMPRESSIONS}


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


def engagement_breakdown(
    stats: Mapping[str, EngagementStats],
    panes: Mapping[str, ClarificationPane],
    queries: Mapping[str, Query],
    dimension: str,
    historical_clicks: Mapping[str, Sequence[tuple[str, int]]] | None = None,
    n_bins: int = 5,
) -> BreakdownTable:
    """Relative engagement per bucket of the requested dimension, from the
    per-pane stats of `collect_stats`.

    Binned dimensions (click entropy, URL stats) also carry box-plot
    quartiles of the per-pane relative engagement, unweighted over panes.
    The click-entropy dimension is restricted to five-answer panes.
    """
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown breakdown dimension {dimension!r}")
    if dimension in ("unique_url_bin", "url_entropy_bin") and historical_clicks is None:
        raise ValueError(f"dimension {dimension!r} needs historical clicks per query")
    if dimension == "query_type":
        return engagement_by_query_type(stats, panes, queries)

    stats = _eligible(stats)
    if dimension == "click_entropy_bin":
        stats = {pid: s for pid, s in stats.items() if panes[pid].answer_count == 5}
    if not stats:
        raise ValueError(f"no panes with >= {MIN_IMPRESSIONS} impressions for dimension {dimension!r}")

    pane_ids = sorted(stats)
    buckets = _assign_buckets(dimension, pane_ids, stats, panes, queries, historical_clicks, n_bins)

    total_impressions = sum(stats[pid].impressions for pid in pane_ids)
    total_engaged = sum(stats[pid].engaged_impressions for pid in pane_ids)
    overall = total_engaged / total_impressions
    with_quartiles = dimension in ("click_entropy_bin", "unique_url_bin", "url_entropy_bin")

    rows = []
    for bucket in _bucket_order(dimension, buckets.values()):
        members = [pid for pid in pane_ids if buckets[pid] == bucket]
        if not members:
            continue
        impressions = sum(stats[pid].impressions for pid in members)
        engaged = sum(stats[pid].engaged_impressions for pid in members)
        relative = (engaged / impressions) / overall
        quartiles = None
        if with_quartiles:
            per_pane = np.array([engagement_rate(stats[pid]) / overall for pid in members])
            quartiles = tuple(float(q) for q in np.percentile(per_pane, [0, 25, 50, 75, 100]))
        rows.append(BreakdownRow(bucket, impressions, relative, quartiles))
    return BreakdownTable(dimension=dimension, overall_rate=overall, rows=tuple(rows))


def _assign_buckets(dimension, pane_ids, stats, panes, queries, historical_clicks, n_bins) -> dict[str, str]:
    if dimension == "template":
        return {pid: panes[pid].template_id for pid in pane_ids}
    if dimension == "answer_count":
        return {pid: str(panes[pid].answer_count) for pid in pane_ids}
    if dimension == "query_length":
        return {pid: str(queries[panes[pid].query_id].length) for pid in pane_ids}
    if dimension == "click_entropy_bin":
        values = np.array([click_entropy(stats[pid]) for pid in pane_ids])
        idx = _equal_width_bins(values, n_bins)
        return {pid: f"bin{j + 1}" for pid, j in zip(pane_ids, idx)}
    if dimension == "unique_url_bin":
        values = np.array(
            [float(url_stats(historical_clicks.get(panes[pid].query_id, ()))[0]) for pid in pane_ids]
        )
        idx = _equal_width_bins(values, n_bins)
        return {pid: f"bin{j + 1}" for pid, j in zip(pane_ids, idx)}
    values = np.array(
        [url_stats(historical_clicks.get(panes[pid].query_id, ()))[1] for pid in pane_ids]
    )
    idx = _equal_width_bins(values, n_bins)
    return {pid: f"bin{j + 1}" for pid, j in zip(pane_ids, idx)}


def _bucket_order(dimension: str, values) -> list[str]:
    present = set(values)
    if dimension == "template":
        return [t for t in TEMPLATE_IDS if t in present]
    if dimension in ("answer_count", "query_length"):
        return sorted(present, key=int)
    return sorted(present)


_QUERY_TYPE_FACETS = (
    ("question", lambda q: q.is_question),
    ("not_question", lambda q: not q.is_question),
    ("faceted", lambda q: q.ambiguity_class == "faceted"),
    ("ambiguous", lambda q: q.ambiguity_class == "ambiguous"),
    ("ambiguity_unknown", lambda q: q.ambiguity_class == "unknown"),
    ("head", lambda q: q.traffic_class == "head"),
    ("torso", lambda q: q.traffic_class == "torso"),
    ("tail", lambda q: q.traffic_class == "tail"),
    ("traffic_unknown", lambda q: q.traffic_class == "unknown"),
)


def engagement_by_query_type(
    stats: Mapping[str, EngagementStats],
    panes: Mapping[str, ClarificationPane],
    queries: Mapping[str, Query],
) -> BreakdownTable:
    """Relative engagement per query-type facet.  Each pane contributes to
    one bucket per facet group (question-ness, ambiguity, traffic), so the
    three groups each average to 1.0 under impression weighting."""
    stats = _eligible(stats)
    if not stats:
        raise ValueError(f"no panes with >= {MIN_IMPRESSIONS} impressions")
    total_impressions = sum(s.impressions for s in stats.values())
    overall = sum(s.engaged_impressions for s in stats.values()) / total_impressions
    rows = []
    for bucket, predicate in _QUERY_TYPE_FACETS:
        members = [pid for pid in sorted(stats) if predicate(queries[panes[pid].query_id])]
        if not members:
            continue
        impressions = sum(stats[pid].impressions for pid in members)
        engaged = sum(stats[pid].engaged_impressions for pid in members)
        rows.append(BreakdownRow(bucket, impressions, (engaged / impressions) / overall))
    return BreakdownTable(dimension="query_type", overall_rate=overall, rows=tuple(rows))


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
    selected = [
        pid
        for pid in sorted(stats)
        if panes[pid].answer_count == answer_count
        and queries[panes[pid].query_id].ambiguity_class == ambiguity_class
        and stats[pid].engaged_impressions > 0
    ]
    if not selected:
        raise ValueError(f"no engaged {ambiguity_class} panes with {answer_count} answers")
    weights = np.array([stats[pid].engaged_impressions for pid in selected], dtype=np.float64)
    dists = np.stack([conditional_click_distribution(stats[pid]) for pid in selected])
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
