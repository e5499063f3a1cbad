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


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    def is_leaf(self) -> bool:
        return self.left is None

    def predict_one(self, row: np.ndarray) -> float:
        node = self
        while not node.is_leaf():
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def to_dict(self) -> dict:
        if self.is_leaf():
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "TreeNode":
        """A tree of the ensemble format; its splits index FEATURE_NAMES."""
        if "value" in d and "feature" not in d:
            return TreeNode(value=float(d["value"]))
        if not 0 <= int(d["feature"]) < len(FEATURE_NAMES):
            raise ValueError(f"split feature {d['feature']} is not one of the {len(FEATURE_NAMES)} features")
        return TreeNode(
            feature=int(d["feature"]),
            threshold=float(d["threshold"]),
            left=TreeNode.from_dict(d["left"]),
            right=TreeNode.from_dict(d["right"]),
        )


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
    trees: list[TreeNode] = field(default_factory=list)
    shrinkage: float = 0.1
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def predict(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        scores = np.zeros(len(rows))
        for tree in self.trees:
            scores += self.shrinkage * np.array([tree.predict_one(r) for r in rows])
        return scores

    def save(self, path: str) -> None:
        payload = {
            "format": "clarikit-ensemble",
            "format_version": 1,
            "shrinkage": self.shrinkage,
            "feature_names": list(self.feature_names),
            "trees": [t.to_dict() for t in self.trees],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "BoostedEnsemble":
        """A saved ensemble; a ValueError naming the path unless it is one
        over FEATURE_NAMES."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: not JSON: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != "clarikit-ensemble":
            raise ValueError(f"{path}: not an ensemble file")
        try:
            ensemble = BoostedEnsemble(
                trees=[TreeNode.from_dict(d) for d in payload["trees"]],
                shrinkage=float(payload["shrinkage"]),
                feature_names=tuple(payload["feature_names"]),
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: invalid ensemble: {exc!r}") from None
        if ensemble.feature_names != FEATURE_NAMES:
            raise ValueError(f"{path}: feature names differ from the {len(FEATURE_NAMES)} this version extracts")
        return ensemble


def _lambda_gradients(labels: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LambdaRank gradients and second-order weights for one query.

    For every pair with unequal labels, the lambda magnitude is the sigmoid
    miss times the absolute change in nDCG@NDCG_CUTOFF from swapping the pair
    in the current ranking.
    """
    n = len(labels)
    lambdas = np.zeros(n)
    weights = np.zeros(n)
    ideal = dcg(sorted(labels.tolist(), reverse=True), NDCG_CUTOFF)
    if ideal == 0.0:
        return lambdas, weights
    order = np.argsort(np.argsort(-scores, kind="stable"), kind="stable")  # rank of each item
    discounts = np.array([1.0 / math.log2(r + 2) if r < NDCG_CUTOFF else 0.0 for r in order])
    gains = (2.0**labels - 1.0) / ideal
    for i in range(n):
        for j in range(n):
            if labels[i] <= labels[j]:
                continue
            rho = 1.0 / (1.0 + math.exp(scores[i] - scores[j]))
            delta = abs((gains[i] - gains[j]) * (discounts[i] - discounts[j]))
            lambdas[i] += rho * delta
            lambdas[j] -= rho * delta
            w = rho * (1.0 - rho) * delta
            weights[i] += w
            weights[j] += w
    return lambdas, weights


def _best_split(rows: np.ndarray, targets: np.ndarray) -> tuple[int, float] | None:
    """Exact greedy variance-reduction split into two leaves of at least one
    row each; ties break by feature index, then threshold."""
    n, n_features = rows.shape
    if n < 2:
        return None
    best = None
    best_score = -1e-12
    total_sum = targets.sum()
    total_sq = float(targets @ targets)
    base_sse = total_sq - total_sum**2 / n
    for feature in range(n_features):
        column = rows[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_vals = column[order]
        sorted_targets = targets[order]
        cum_sum = np.cumsum(sorted_targets)
        cum_sq = np.cumsum(sorted_targets**2)
        for split_at in range(1, n):
            if sorted_vals[split_at - 1] == sorted_vals[split_at]:
                continue
            left_n = split_at
            right_n = n - split_at
            left_sse = cum_sq[split_at - 1] - cum_sum[split_at - 1] ** 2 / left_n
            right_sum = total_sum - cum_sum[split_at - 1]
            right_sse = (total_sq - cum_sq[split_at - 1]) - right_sum**2 / right_n
            gain = base_sse - left_sse - right_sse
            if gain > best_score + 1e-12:
                best_score = gain
                threshold = (sorted_vals[split_at - 1] + sorted_vals[split_at]) / 2.0
                best = (feature, float(threshold))
    return best


def _build_tree(
    rows: np.ndarray,
    lambdas: np.ndarray,
    weights: np.ndarray,
    depth: int,
) -> TreeNode:
    if depth == 0:
        return _leaf(lambdas, weights)
    split = _best_split(rows, lambdas)
    if split is None:
        return _leaf(lambdas, weights)
    feature, threshold = split
    mask = rows[:, feature] <= threshold
    if mask.all() or not mask.any():
        return _leaf(lambdas, weights)
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_build_tree(rows[mask], lambdas[mask], weights[mask], depth - 1),
        right=_build_tree(rows[~mask], lambdas[~mask], weights[~mask], depth - 1),
    )


def _leaf(lambdas: np.ndarray, weights: np.ndarray) -> TreeNode:
    denom = weights.sum()
    value = lambdas.sum() / denom if denom > 1e-12 else 0.0
    return TreeNode(value=float(value))


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
    offsets = np.cumsum([0] + [len(l) for _, l in per_query])
    scores = np.zeros(len(all_rows))
    ensemble = BoostedEnsemble(trees=[], shrinkage=config.shrinkage)
    for _ in range(config.n_trees):
        lambdas = np.zeros(len(all_rows))
        weights = np.zeros(len(all_rows))
        for q_idx, (_, labels) in enumerate(per_query):
            lo, hi = offsets[q_idx], offsets[q_idx + 1]
            l, w = _lambda_gradients(labels, scores[lo:hi])
            lambdas[lo:hi] = l
            weights[lo:hi] = w
        tree = _build_tree(all_rows, lambdas, weights, config.max_depth)
        ensemble.trees.append(tree)
        scores += config.shrinkage * np.array([tree.predict_one(r) for r in all_rows])
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
    rows = np.array([extract_features(query, p, historical_clicks, rlc_scorer).as_array() for p in panes])
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
