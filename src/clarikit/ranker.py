"""Feature extraction, a small deterministic LambdaMART re-ranker, and the
ranking evaluation metrics (nDCG at a cutoff, relative engagement
improvement, paired randomization testing).

The boosted trees use exact greedy splits over the full feature set with a
shallow depth cap and no sampling; ties in split search break by feature
index and then threshold, so training is reproducible to the byte given a
seed for nothing but the data order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .analytics import url_stats
from .core import ClarificationPane, Query, TEMPLATE_IDS
from .dataio import read_json

TRAFFIC_ONE_HOT = ("head", "torso", "tail", "unknown")

# the rank depth whose nDCG LambdaMART's gradients follow
NDCG_CUTOFF = 10

FEATURE_NAMES = tuple(
    [f"template_{t}" for t in TEMPLATE_IDS]
    + ["query_length", "is_question", "is_faceted", "is_ambiguous"]
    + [f"traffic_{t}" for t in TRAFFIC_ONE_HOT]
    + ["answer_count", "unique_clicked_urls", "url_click_entropy_norm", "rlc_score"]
)


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def extract_features(
    query: Query,
    pane: ClarificationPane,
    historical_clicks: Sequence[tuple[str, int]] | None = None,
    rlc_scorer: Callable[[Query, ClarificationPane], float] | None = None,
) -> FeatureVector:
    """Deterministic per-pane feature vector.  URL statistics are zero when
    the query has no click history; the model score slot is zero when no
    scorer is supplied."""
    template = [1.0 if pane.template_id == t else 0.0 for t in TEMPLATE_IDS]
    if sum(template) != 1.0:
        template = [0.0] * (len(TEMPLATE_IDS) - 1) + [1.0]  # unknown ids count as "other"
    traffic = [1.0 if query.traffic_class == t else 0.0 for t in TRAFFIC_ONE_HOT]
    unique_urls, url_entropy = url_stats(historical_clicks or ())
    rlc_score = float(rlc_scorer(query, pane)) if rlc_scorer is not None else 0.0
    values = tuple(
        template
        + [
            float(query.length),
            1.0 if query.is_question else 0.0,
            1.0 if query.ambiguity_class == "faceted" else 0.0,
            1.0 if query.ambiguity_class == "ambiguous" else 0.0,
        ]
        + traffic
        + [float(pane.answer_count), float(unique_urls), url_entropy, rlc_score]
    )
    return FeatureVector(values=values)


def feature_rows(query: Query, panes: Sequence[ClarificationPane], historical_clicks=None, rlc_scorer=None) -> np.ndarray:
    """extract_features of each of a query's panes, as a (panes, features) matrix."""
    return np.array([extract_features(query, p, historical_clicks, rlc_scorer).as_array() for p in panes])


# -- nDCG ------------------------------------------------------------------


def dcg(labels_in_rank_order: Sequence[float], k: int) -> float:
    return sum(
        (2.0**label - 1.0) / math.log2(rank + 2) for rank, label in enumerate(labels_in_rank_order[:k])
    )


def ndcg_at_k(labels_in_rank_order: Sequence[float], k: int) -> float:
    """DCG with 2^label - 1 gains and log2(rank+1) discounts, normalized by
    the ideal ordering.  All-zero label lists score 0 by convention."""
    if k < 1:
        raise ValueError("k must be >= 1")
    labels = list(labels_in_rank_order)
    if not labels:
        raise ValueError("need at least one labeled item")
    ideal = dcg(sorted(labels, reverse=True), k)
    if ideal == 0.0:
        return 0.0
    return dcg(labels, k) / ideal


# -- gradient boosted trees over lambda gradients ---------------------------

# 1 / log2(rank + 2) for each rank nDCG@NDCG_CUTOFF counts, 0 for every later one
_RANK_DISCOUNTS = np.array([1.0 / math.log2(rank + 2) for rank in range(NDCG_CUTOFF)] + [0.0])


def tree_to_dict(tree: np.ndarray, at: int = 0) -> dict:
    """The subtree rooted at row `at` of a node table, in the ensemble format."""
    feature, threshold, left, right, value = tree[at].tolist()
    if feature < 0:
        return {"value": value}
    return {"feature": int(feature), "threshold": threshold, "left": tree_to_dict(tree, int(left)), "right": tree_to_dict(tree, int(right))}


def tree_from_dict(tree: dict) -> np.ndarray:
    """The node table of a tree of the ensemble format; its splits index FEATURE_NAMES."""
    nodes: list = []

    def add(d: dict) -> int:
        at = len(nodes)
        nodes.append(None)
        if "value" in d and "feature" not in d:
            nodes[at] = (-1, 0.0, at, at, float(d["value"]))
        elif not 0 <= int(d["feature"]) < len(FEATURE_NAMES):
            raise ValueError(f"split feature {d['feature']} is not one of the {len(FEATURE_NAMES)} features")
        else:
            nodes[at] = (int(d["feature"]), float(d["threshold"]), add(d["left"]), add(d["right"]), 0.0)
        return at

    add(tree)
    return np.array(nodes)


def _walk(trees: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The (rows, trees) matrix of the leaf value each row reaches in each
    tree: every row descends every tree at once, a level per step, until no
    row sits at a split (a loaded tree may be deeper than training grows)."""
    sizes = np.array([len(tree) for tree in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    feature, threshold, left, right, value = np.concatenate([np.zeros((0, 5)), *trees]).T
    feature = feature.astype(np.int64)
    left, right = (child.astype(np.int64) + np.repeat(roots, sizes) for child in (left, right))
    at = np.broadcast_to(roots, (len(rows), len(trees)))
    while (feature[at] >= 0).any():
        go_left = rows[np.arange(len(rows))[:, None], feature[at]] <= threshold[at]
        at = np.where(go_left, left[at], right[at])
    return value[at]


@dataclass
class LambdaMartConfig:
    n_trees: int = 100
    max_depth: int = 3
    shrinkage: float = 0.1

    def __post_init__(self):
        if not 0 <= self.max_depth <= 4:
            raise ValueError(f"tree depth must be 0 to 4, got {self.max_depth}")
        if self.n_trees < 0 or self.shrinkage <= 0:
            raise ValueError("bad boosting config")


@dataclass
class BoostedEnsemble:
    """Trees as node tables: float matrices of one row per node, root first,
    with the columns split feature (-1 at a leaf), threshold, left row, right
    row and leaf value.  A leaf is its own left and right child."""

    trees: list[np.ndarray] = field(default_factory=list)
    shrinkage: float = 0.1
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def predict(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        steps = self.shrinkage * _walk(self.trees, rows)
        # the scores add up tree by tree from 0.0, as a loop over the trees adds them
        return np.cumsum(np.concatenate([np.zeros((len(rows), 1)), steps], axis=1), axis=1)[:, -1]

    def save(self, path: str) -> None:
        payload = {
            "format": "clarikit-ensemble",
            "format_version": 1,
            "shrinkage": self.shrinkage,
            "feature_names": list(self.feature_names),
            "trees": [tree_to_dict(t) for t in self.trees],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "BoostedEnsemble":
        """A saved ensemble; a ValueError naming the path unless it is one
        over FEATURE_NAMES."""
        payload = read_json(path)
        if payload.get("format") != "clarikit-ensemble":
            raise ValueError(f"{path}: not an ensemble file")
        try:
            ensemble = BoostedEnsemble(
                trees=[tree_from_dict(d) for d in payload["trees"]],
                shrinkage=float(payload["shrinkage"]),
                feature_names=tuple(payload["feature_names"]),
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: invalid ensemble: {exc!r}") from None
        if ensemble.feature_names != FEATURE_NAMES:
            raise ValueError(f"{path}: feature names differ from the {len(FEATURE_NAMES)} this version extracts")
        return ensemble


def _in_pair_order(won: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """Each pane's sum of its terms for beating (won[q, p, k]) and losing to
    (lost[q, p, k]) pane k, in the order a loop over pairs (i, then j) adds
    them: losses to earlier panes, wins, losses to later panes."""
    earlier = np.tri(won.shape[2], k=-1, dtype=bool)
    terms = [np.zeros(won.shape[:2] + (1,)), np.where(earlier, lost, 0.0), won, np.where(earlier.T, lost, 0.0)]
    return np.cumsum(np.concatenate(terms, axis=2), axis=2)[:, :, -1]


def _lambda_gradients(scores: np.ndarray, gains: np.ndarray, pairs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """LambdaRank gradients and second-order weights, as (queries, panes)
    matrices, from scores (NaN in padded slots), gains (2^label - 1 over the
    ideal DCG) and the (query, i, j) of each pane i labelled above a pane j.
    A pair's lambda is the sigmoid miss times the absolute change in
    nDCG@NDCG_CUTOFF from swapping the pair in the current ranking."""
    q, i, j = pairs
    rank = np.argsort(np.argsort(-scores, axis=1, kind="stable"), axis=1, kind="stable")  # NaN slots rank last
    discounts = _RANK_DISCOUNTS[np.minimum(rank, NDCG_CUTOFF)]
    # math.exp, not np.exp: the two differ in the last bit for a few percent
    # of arguments, and the ensembles are reproducible to the byte
    rho = 1.0 / (1.0 + np.fromiter(map(math.exp, (scores[q, i] - scores[q, j]).tolist()), np.float64, len(q)))
    delta = np.abs((gains[q, i] - gains[q, j]) * (discounts[q, i] - discounts[q, j]))
    lam, weight = np.zeros((2,) + scores.shape + scores.shape[1:])
    lam[q, i, j] = rho * delta
    weight[q, i, j] = rho * (1.0 - rho) * delta
    return _in_pair_order(lam, -lam.transpose(0, 2, 1)), _in_pair_order(weight, weight.transpose(0, 2, 1))


def _best_split(rows: np.ndarray, targets: np.ndarray) -> tuple[int, float] | None:
    """Exact greedy variance-reduction split into two leaves of at least one
    row each; ties break by feature index, then threshold."""
    n = len(rows)
    if n < 2:
        return None
    total_sum = targets.sum()
    total_sq = float(targets @ targets)
    base_sse = total_sq - total_sum**2 / n
    order = np.argsort(rows, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(rows, order, axis=0)
    sorted_targets = targets[order]
    # every threshold between distinct values, by feature, then ascending
    feature, split_at = np.nonzero((sorted_vals[:-1] != sorted_vals[1:]).T)
    cum_sum = np.cumsum(sorted_targets, axis=0)[split_at, feature]
    cum_sq = np.cumsum(sorted_targets**2, axis=0)[split_at, feature]
    # sums are squared by pow, as a numpy scalar's ** 2 squares them; x * x,
    # an array's ** 2, differs from pow in the last bit now and then
    left_sse = cum_sq - np.float_power(cum_sum, 2) / (split_at + 1)
    right_sse = (total_sq - cum_sq) - np.float_power(total_sum - cum_sum, 2) / (n - split_at - 1)
    gain = base_sse - left_sse - right_sse
    # a candidate wins only if it beats the best so far by more than 1e-12,
    # so the winner ends a chain of such improvements; it is not the argmax
    best, start, pick = -1e-12, 0, None
    while (above := np.flatnonzero(gain[start:] > best + 1e-12)).size:
        pick = start + int(above[0])
        best, start = gain[pick], pick + 1
    if pick is None:
        return None
    f, s = int(feature[pick]), split_at[pick]
    return f, float((sorted_vals[s, f] + sorted_vals[s + 1, f]) / 2.0)


def _grow(nodes: list, rows: np.ndarray, lambdas: np.ndarray, weights: np.ndarray, depth: int) -> int:
    """Append a tree of at most `depth` levels fit to the lambdas, root first; return the root's row."""
    at = len(nodes)
    nodes.append(None)
    split = _best_split(rows, lambdas) if depth > 0 else None
    if split is not None:
        feature, threshold = split
        mask = rows[:, feature] <= threshold
        if mask.any() and not mask.all():
            left = _grow(nodes, rows[mask], lambdas[mask], weights[mask], depth - 1)
            right = _grow(nodes, rows[~mask], lambdas[~mask], weights[~mask], depth - 1)
            nodes[at] = (feature, threshold, left, right, 0.0)
            return at
    denom = weights.sum()
    nodes[at] = (-1, 0.0, at, at, lambdas.sum() / denom if denom > 1e-12 else 0.0)
    return at


def train_lambdamart(
    per_query: Sequence[tuple[np.ndarray, np.ndarray]],
    config: LambdaMartConfig = LambdaMartConfig(),
) -> BoostedEnsemble:
    """Boost regression trees on the lambda gradients of nDCG.

    per_query holds one (feature matrix, label vector) pair per query.  At
    least one query must have two panes with distinct labels.
    """
    per_query = [(np.atleast_2d(np.asarray(f, dtype=np.float64)), np.asarray(l, dtype=np.float64)) for f, l in per_query]
    if not any(len(set(l.tolist())) > 1 and len(l) >= 2 for _, l in per_query):
        raise ValueError("need at least one query with >= 2 panes and distinct labels")
    all_rows = np.concatenate([f for f, _ in per_query], axis=0)
    # the slots of the padded (queries, panes) matrices that hold a row, in row order
    sizes = np.array([len(l) for _, l in per_query])
    real = np.arange(sizes.max()) < sizes[:, None]
    labels = np.full(real.shape, np.nan)
    labels[real] = np.concatenate([l for _, l in per_query])
    ideal = np.array([dcg(sorted(l.tolist(), reverse=True), NDCG_CUTOFF) for _, l in per_query])
    gains = np.zeros(real.shape)
    gains[real] = np.concatenate([(2.0**l - 1.0) / (d or 1.0) for (_, l), d in zip(per_query, ideal)])
    # a query of ideal DCG 0 has no pairs, and NaN padding is in none
    pairs = np.nonzero((labels[:, :, None] > labels[:, None, :]) & (ideal != 0.0)[:, None, None])
    scores = np.zeros(len(all_rows))
    ensemble = BoostedEnsemble(trees=[], shrinkage=config.shrinkage)
    for _ in range(config.n_trees):
        padded = np.full(real.shape, np.nan)
        padded[real] = scores
        lambdas, weights = _lambda_gradients(padded, gains, pairs)
        nodes: list = []
        _grow(nodes, all_rows, lambdas[real], weights[real], config.max_depth)
        ensemble.trees.append(np.array(nodes))
        scores += config.shrinkage * _walk(ensemble.trees[-1:], all_rows)[:, 0]
    return ensemble


def rank_panes(
    query: Query,
    panes: Sequence[ClarificationPane],
    ensemble: BoostedEnsemble | None,
    historical_clicks: Sequence[tuple[str, int]] | None = None,
    rlc_scorer: Callable[[Query, ClarificationPane], float] | None = None,
) -> list[ClarificationPane]:
    """Panes in descending ensemble score; ties (including the empty
    ensemble) break by pane id, so the order is total and stable."""
    if not panes:
        raise ValueError("need at least one pane")
    rows = feature_rows(query, panes, historical_clicks, rlc_scorer)
    scores = ensemble.predict(rows) if ensemble is not None and ensemble.trees else np.zeros(len(panes))
    keyed = sorted(zip(scores, panes), key=lambda sp: (-sp[0], sp[1].id))
    return [p for _, p in keyed]


def engagement_improvement(
    ranker: Callable[[Query, Sequence[ClarificationPane]], Sequence[ClarificationPane]],
    test_set: Sequence[tuple[Query, Sequence[ClarificationPane], Mapping[str, float]]],
    baseline: Callable[[Query, Sequence[ClarificationPane]], Sequence[ClarificationPane]],
) -> float:
    """Relative engagement gain, in percent, of picking each query's
    top-ranked pane versus the baseline ranker's pick."""
    method_rates = []
    baseline_rates = []
    for query, panes, observed_rates in test_set:
        method_top = ranker(query, panes)[0]
        baseline_top = baseline(query, panes)[0]
        method_rates.append(observed_rates[method_top.id])
        baseline_rates.append(observed_rates[baseline_top.id])
    baseline_mean = float(np.mean(baseline_rates))
    if baseline_mean == 0.0:
        raise ValueError("baseline mean engagement is zero")
    return 100.0 * (float(np.mean(method_rates)) - baseline_mean) / baseline_mean


def entropy_baseline_ranker(
    historical_clicks: Mapping[str, Sequence[tuple[str, int]]],
) -> Callable[[Query, Sequence[ClarificationPane]], list[ClarificationPane]]:
    """Pluggable stand-in for an external pane-quality estimator: ranks a
    query's panes by the query's normalized URL click entropy (a pane-count
    tiebreak keeps the order total).  Queries score identically across their
    panes, so this mostly exercises the evaluation plumbing."""

    def ranker(query: Query, panes: Sequence[ClarificationPane]) -> list[ClarificationPane]:
        entropy = url_stats(historical_clicks.get(query.id, ()))[1]
        return sorted(panes, key=lambda p: (-(entropy + 0.01 * p.answer_count), p.id))

    return ranker


_SIGN_BLOCK_ROUNDS = 1000


def randomization_test(
    per_query_a: Sequence[float],
    per_query_b: Sequence[float],
    rounds: int = 10_000,
    seed: int = 0,
) -> float:
    """Two-sided paired randomization p-value for the mean difference of two
    per-query metric vectors."""
    a = np.asarray(per_query_a, dtype=np.float64)
    b = np.asarray(per_query_b, dtype=np.float64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("need two equal-length non-empty metric vectors")
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    diffs = a - b
    observed = abs(diffs.mean())
    rng = np.random.default_rng(seed)
    # the signs are drawn and reduced a block of rounds at a time, so memory
    # stays bounded; the draws follow one another as in one (rounds, n) draw
    extreme = 0
    for start in range(0, rounds, _SIGN_BLOCK_ROUNDS):
        signs = rng.choice([-1.0, 1.0], size=(min(_SIGN_BLOCK_ROUNDS, rounds - start), diffs.size))
        extreme += int(np.sum(np.abs((signs * diffs).mean(axis=1)) >= observed - 1e-15))
    return float((extreme + 1) / (rounds + 1))
