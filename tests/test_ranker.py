import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clarikit.core import CandidateAnswer, ClarificationPane, Query
from clarikit.ranker import (
    FEATURE_NAMES,
    NDCG_CUTOFF,
    BoostedEnsemble,
    LambdaMartConfig,
    dcg,
    engagement_improvement,
    entropy_baseline_ranker,
    extract_features,
    ndcg_at_k,
    randomization_test,
    rank_panes,
    train_lambdamart,
    tree_from_dict,
    tree_to_dict,
)
from clarikit.ranker import _best_split


def make_pane(pane_id, query_id, k=3, template_id="T2"):
    answers = tuple(CandidateAnswer(f"ans {i}", i + 1) for i in range(k))
    return ClarificationPane(pane_id, query_id, "Which one do you mean?", answers, template_id=template_id)


def brute_force_ndcg(labels, k):
    """Reference nDCG: enumerate all permutations for the ideal DCG."""
    best = max(dcg(list(perm), k) for perm in itertools.permutations(labels))
    if best == 0:
        return 0.0
    return dcg(labels, k) / best


class TestNdcg:
    def test_ideal_ordering_scores_one(self):
        assert ndcg_at_k([2, 1, 0], 3) == pytest.approx(1.0)

    def test_all_zero_labels_score_zero(self):
        assert ndcg_at_k([0, 0, 0], 3) == 0.0

    def test_example_0_2_1_by_brute_force(self):
        labels = [0, 2, 1]
        assert ndcg_at_k(labels, 3) == pytest.approx(brute_force_ndcg(labels, 3), abs=1e-12)
        # spot value: DCG = 0 + 3/log2(3) + 1/2; ideal = 3 + 1/log2(3)
        expected = (3 / math.log2(3) + 0.5) / (3 + 1 / math.log2(3))
        assert ndcg_at_k(labels, 3) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_brute_force_on_small_multisets(self, k):
        rng = np.random.default_rng(4)
        for _ in range(60):
            size = int(rng.integers(1, 6))
            labels = [float(rng.integers(0, 3)) for _ in range(size)]
            assert ndcg_at_k(labels, k) == pytest.approx(brute_force_ndcg(labels, k), abs=1e-12)

    def test_invariant_under_equal_label_permutation(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            labels = [float(rng.integers(0, 3)) for _ in range(5)]
            base = ndcg_at_k(labels, 3)
            # shuffling items does not change nDCG when every label is equal,
            # and swapping two equal labels never changes it either
            i, j = rng.integers(0, 5, size=2)
            if labels[i] == labels[j]:
                swapped = list(labels)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert ndcg_at_k(swapped, 3) == pytest.approx(base, abs=1e-12)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], 0)

    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12), st.integers(1, 15))
    def test_lies_in_unit_interval(self, labels, k):
        assert 0.0 <= ndcg_at_k(labels, k) <= 1.0


class TestFeatures:
    def test_no_history_gives_zero_url_stats(self):
        query = Query("q", "jaguar", traffic_class="head")
        vec = extract_features(query, make_pane("p", "q"))
        named = dict(zip(FEATURE_NAMES, vec.values))
        assert named["unique_clicked_urls"] == 0.0
        assert named["url_click_entropy_norm"] == 0.0

    def test_uniform_clicks_give_entropy_one(self):
        query = Query("q", "jaguar")
        vec = extract_features(query, make_pane("p", "q"), [("a", 5), ("b", 5), ("c", 5), ("d", 5)])
        named = dict(zip(FEATURE_NAMES, vec.values))
        assert named["unique_clicked_urls"] == 4.0
        assert named["url_click_entropy_norm"] == pytest.approx(1.0)

    def test_skewed_clicks_entropy_value(self):
        query = Query("q", "jaguar")
        vec = extract_features(query, make_pane("p", "q"), [("a", 8), ("b", 2)])
        named = dict(zip(FEATURE_NAMES, vec.values))
        expected = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2)) / math.log(2)
        assert named["url_click_entropy_norm"] == pytest.approx(expected, abs=1e-12)

    def test_one_hot_slots(self):
        query = Query("q", "how to fix tire", is_question=True, ambiguity_class="faceted", traffic_class="torso")
        vec = extract_features(query, make_pane("p", "q", template_id="T5"))
        named = dict(zip(FEATURE_NAMES, vec.values))
        assert named["template_T5"] == 1.0
        assert sum(v for n, v in named.items() if n.startswith("template_")) == 1.0
        assert named["traffic_torso"] == 1.0
        assert named["is_question"] == 1.0
        assert named["is_faceted"] == 1.0
        assert named["is_ambiguous"] == 0.0
        assert named["query_length"] == 4.0

    def test_rlc_score_slot(self):
        query = Query("q", "jaguar")
        vec = extract_features(query, make_pane("p", "q"), None, rlc_scorer=lambda q, p: 0.625)
        assert vec.values[-1] == 0.625


def separable_training_set(n_queries=50, seed=0):
    """Labels fully determined by one feature (query_length stands in)."""
    rng = np.random.default_rng(seed)
    per_query = []
    for _ in range(n_queries):
        labels = rng.permutation([0.0, 1.0, 2.0])
        rows = np.zeros((3, len(FEATURE_NAMES)))
        rows[:, FEATURE_NAMES.index("query_length")] = labels * 2.0 + 1.0
        per_query.append((rows, labels))
    return per_query


class TestLambdaMart:
    def test_separable_data_reaches_perfect_training_ndcg(self):
        per_query = separable_training_set()
        ensemble = train_lambdamart(per_query, LambdaMartConfig(n_trees=100, max_depth=3, shrinkage=0.1))
        ranked_labels = []
        for rows, labels in per_query:
            order = np.argsort(-ensemble.predict(rows), kind="stable")
            ranked_labels.append(labels[order].tolist())
        assert np.mean([ndcg_at_k(labels, 1) for labels in ranked_labels]) == 1.0

    def test_zero_trees_scores_zero(self, tmp_path):
        per_query = separable_training_set(n_queries=5)
        ensemble = train_lambdamart(per_query, LambdaMartConfig(n_trees=0))
        assert ensemble.predict(per_query[0][0]).tolist() == [0.0, 0.0, 0.0]
        path = str(tmp_path / "ensemble.json")
        ensemble.save(path)
        assert BoostedEnsemble.load(path).predict(per_query[0][0]).tobytes() == np.zeros(3).tobytes()

    def test_boosting_never_increases_pairwise_lambda_loss(self):
        per_query = separable_training_set(n_queries=20, seed=3)

        def lambda_loss(scores_by_query):
            total = 0.0
            for (rows, labels), scores in zip(per_query, scores_by_query):
                ideal = dcg(sorted(labels, reverse=True), 10)
                for i in range(len(labels)):
                    for j in range(len(labels)):
                        if labels[i] > labels[j]:
                            total += math.log1p(math.exp(-(scores[i] - scores[j])))
            return total

        config = LambdaMartConfig(n_trees=40, max_depth=2, shrinkage=0.1)
        ensemble = train_lambdamart(per_query, config)
        losses = []
        partial = BoostedEnsemble(trees=[], shrinkage=config.shrinkage)
        for tree in ensemble.trees:
            partial.trees.append(tree)
            losses.append(lambda_loss([partial.predict(rows) for rows, _ in per_query]))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_degenerate_labels_rejected(self):
        rows = np.zeros((2, len(FEATURE_NAMES)))
        with pytest.raises(ValueError):
            train_lambdamart([(rows, np.array([1.0, 1.0]))])

    def test_depth_cap_enforced(self):
        with pytest.raises(ValueError):
            LambdaMartConfig(max_depth=5)

    def test_training_insensitive_to_query_order(self):
        per_query = separable_training_set(n_queries=10, seed=1)
        a = train_lambdamart(per_query, LambdaMartConfig(n_trees=15))
        b = train_lambdamart(list(reversed(per_query)), LambdaMartConfig(n_trees=15))
        rows = per_query[0][0]
        np.testing.assert_allclose(a.predict(rows), b.predict(rows), atol=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        per_query = separable_training_set(n_queries=10)
        ensemble = train_lambdamart(per_query, LambdaMartConfig(n_trees=10))
        path = str(tmp_path / "ensemble.json")
        ensemble.save(path)
        loaded = BoostedEnsemble.load(path)
        rows = per_query[0][0]
        np.testing.assert_array_equal(loaded.predict(rows), ensemble.predict(rows))


# -- reference booster: the straight-line loops the array code replaces ------


def reference_lambda_gradients(labels, scores):
    """LambdaRank gradients and weights of one query, pair by pair."""
    n = len(labels)
    lambdas = np.zeros(n)
    weights = np.zeros(n)
    ideal = dcg(sorted(labels.tolist(), reverse=True), NDCG_CUTOFF)
    if ideal == 0.0:
        return lambdas, weights
    order = np.argsort(np.argsort(-scores, kind="stable"), kind="stable")
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


def reference_best_split(rows, targets):
    """Exact greedy split, split point by split point."""
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
            left_sse = cum_sq[split_at - 1] - cum_sum[split_at - 1] ** 2 / split_at
            right_sum = total_sum - cum_sum[split_at - 1]
            right_sse = (total_sq - cum_sq[split_at - 1]) - right_sum**2 / (n - split_at)
            gain = base_sse - left_sse - right_sse
            if gain > best_score + 1e-12:
                best_score = gain
                best = (feature, float((sorted_vals[split_at - 1] + sorted_vals[split_at]) / 2.0))
    return best


def reference_tree(rows, lambdas, weights, depth):
    """A tree in the ensemble.json form, grown node by node."""
    split = reference_best_split(rows, lambdas) if depth > 0 else None
    if split is not None:
        feature, threshold = split
        mask = rows[:, feature] <= threshold
        if mask.any() and not mask.all():
            return {
                "feature": feature,
                "threshold": threshold,
                "left": reference_tree(rows[mask], lambdas[mask], weights[mask], depth - 1),
                "right": reference_tree(rows[~mask], lambdas[~mask], weights[~mask], depth - 1),
            }
    denom = weights.sum()
    return {"value": float(lambdas.sum() / denom if denom > 1e-12 else 0.0)}


def reference_leaf(tree, row):
    while "feature" in tree:
        tree = tree["left"] if row[tree["feature"]] <= tree["threshold"] else tree["right"]
    return tree["value"]


def reference_predict(trees, shrinkage, rows):
    """Scores summed tree by tree, row by row."""
    scores = np.zeros(len(rows))
    for tree in trees:
        scores += shrinkage * np.array([reference_leaf(tree, r) for r in rows])
    return scores


def reference_train(per_query, config):
    """LambdaMART query by query, pair by pair and row by row."""
    all_rows = np.concatenate([f for f, _ in per_query], axis=0)
    offsets = np.cumsum([0] + [len(l) for _, l in per_query])
    scores = np.zeros(len(all_rows))
    trees = []
    for _ in range(config.n_trees):
        lambdas = np.zeros(len(all_rows))
        weights = np.zeros(len(all_rows))
        for q, (_, labels) in enumerate(per_query):
            lo, hi = offsets[q], offsets[q + 1]
            lambdas[lo:hi], weights[lo:hi] = reference_lambda_gradients(labels, scores[lo:hi])
        trees.append(reference_tree(all_rows, lambdas, weights, config.max_depth))
        scores += config.shrinkage * np.array([reference_leaf(trees[-1], r) for r in all_rows])
    return trees


def random_training_set(rng):
    """1 to 8 panes a query; features with repeated values, continuous ones,
    and a near copy of a column that splits its rows the same way in another
    order, so their gains tie to within rounding; some queries with all
    labels equal (ideal DCG 0)."""
    per_query = []
    for _ in range(int(rng.integers(1, 25))):
        n = int(rng.integers(1, 9))
        rows = rng.integers(0, 3, size=(n, len(FEATURE_NAMES))).astype(np.float64)
        rows[:, -3:] = np.round(rng.standard_normal((n, 3)), int(rng.integers(0, 3)))
        rows[:, 1] = rows[:, 0] + rng.random(n) * 0.5
        labels = rng.integers(0, 3, size=n).astype(np.float64) * (rng.random() > 0.2)
        per_query.append((rows, labels))
    per_query.append((np.round(rng.standard_normal((2, len(FEATURE_NAMES))), 1), np.array([0.0, 2.0])))
    return per_query


def _bits(trees) -> str:
    return json.dumps(trees, sort_keys=True)


class TestAgainstTheReferenceLoops:
    def test_ensembles_equal_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for _ in range(240):
            per_query = random_training_set(rng)
            config = LambdaMartConfig(
                n_trees=int(rng.integers(1, 8)), max_depth=int(rng.integers(0, 5)), shrinkage=float(rng.choice([0.1, 0.7]))
            )
            ensemble = train_lambdamart(per_query, config)
            reference = reference_train(per_query, config)
            assert _bits([tree_to_dict(t) for t in ensemble.trees]) == _bits(reference)
            rows = np.concatenate([f for f, _ in per_query])
            assert ensemble.predict(rows).tobytes() == reference_predict(reference, config.shrinkage, rows).tobytes()

    def test_split_search_keeps_the_tie_rule(self):
        """Targets large enough that near ties differ by about 1e-12: the
        first candidate within 1e-12 of a later, larger gain still wins."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            rows = rng.integers(0, 4, size=(n, 6)).astype(np.float64)
            rows[:, 1] = rows[:, 0] + rng.random(n) * 0.5
            rows[:, 3] = rows[:, 2][::-1] if rng.random() < 0.5 else rows[:, 2]
            targets = rng.standard_normal(n) * 10.0 ** rng.integers(0, 5)
            assert _best_split(rows, targets) == reference_best_split(rows, targets)

    def test_loaded_trees_deeper_than_training_grows(self, tmp_path):
        """Every path of these trees splits at least five times: the walk
        goes on until every row sits at a leaf."""
        rng = np.random.default_rng(11)

        def random_tree(depth):
            if depth == 0 or (depth < 4 and rng.random() < 0.3):
                return {"value": float(rng.standard_normal())}
            return {"feature": int(rng.integers(len(FEATURE_NAMES))), "threshold": float(rng.standard_normal()),
                    "left": random_tree(depth - 1), "right": random_tree(depth - 1)}

        trees = [random_tree(8) for _ in range(20)]
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps({"format": "clarikit-ensemble", "format_version": 1, "shrinkage": 0.3,
                                    "feature_names": list(FEATURE_NAMES), "trees": trees}))
        ensemble = BoostedEnsemble.load(str(path))
        assert [tree_to_dict(t) for t in ensemble.trees] == trees
        rows = rng.standard_normal((60, len(FEATURE_NAMES)))
        assert ensemble.predict(rows).tobytes() == reference_predict(trees, 0.3, rows).tobytes()


class TestRankPanes:
    def test_single_pane_returned(self):
        query = Query("q", "jaguar")
        pane = make_pane("p", "q")
        assert rank_panes(query, [pane], None) == [pane]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_panes(Query("q", "jaguar"), [], None)

    def test_order_follows_scores(self):
        query = Query("q", "jaguar a b c")  # query_length drives the stub tree
        # one tree: panes with more answers score higher
        tree = tree_from_dict({"feature": FEATURE_NAMES.index("answer_count"), "threshold": 3.5,
                               "left": {"value": 0.0}, "right": {"value": 1.0}})
        ensemble = BoostedEnsemble(trees=[tree], shrinkage=1.0)
        small = make_pane("small", "q", k=2)
        big = make_pane("big", "q", k=5)
        assert rank_panes(query, [small, big], ensemble) == [big, small]

    def test_permutation_invariance_up_to_tie_rule(self):
        query = Query("q", "jaguar")
        panes = [make_pane(f"p{i}", "q", k=2 + i % 3) for i in range(6)]
        base = rank_panes(query, list(panes), None)
        rng = np.random.default_rng(0)
        for _ in range(5):
            shuffled = list(panes)
            rng.shuffle(shuffled)
            assert rank_panes(query, shuffled, None) == base


class TestEngagementImprovement:
    def _test_set(self):
        out = []
        for i in range(4):
            query = Query(f"q{i}", "jaguar")
            panes = [make_pane(f"q{i}:a", f"q{i}"), make_pane(f"q{i}:b", f"q{i}")]
            rates = {f"q{i}:a": 0.1, f"q{i}:b": 0.2}
            out.append((query, panes, rates))
        return out

    def test_same_ranker_is_zero(self):
        test_set = self._test_set()
        by_id = lambda q, panes: sorted(panes, key=lambda p: p.id)
        assert engagement_improvement(by_id, test_set, by_id) == 0.0

    def test_oracle_vs_worst_is_plus_100(self):
        test_set = self._test_set()
        oracle = lambda q, panes: sorted(panes, key=lambda p: p.id, reverse=True)  # picks :b = 0.2
        worst = lambda q, panes: sorted(panes, key=lambda p: p.id)  # picks :a = 0.1
        assert engagement_improvement(oracle, test_set, worst) == pytest.approx(100.0)

    def test_random_never_beats_oracle(self):
        test_set = self._test_set()
        oracle = lambda q, panes: sorted(panes, key=lambda p: p.id, reverse=True)
        for seed in range(10):
            rng = np.random.default_rng(seed)

            def random_ranker(q, panes, rng=rng):
                order = list(panes)
                rng.shuffle(order)
                return order

            assert engagement_improvement(random_ranker, test_set, oracle) <= 0.0

    def test_baseline_ranker_is_total_and_stable(self):
        history = {"q0": [("u1", 3), ("u2", 3)]}
        ranker = entropy_baseline_ranker(history)
        query = Query("q0", "jaguar")
        panes = [make_pane("b", "q0", k=3), make_pane("a", "q0", k=3)]
        assert [p.id for p in ranker(query, panes)] == ["a", "b"]


class TestRandomizationTest:
    def test_identical_vectors_give_high_p(self):
        assert randomization_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7], rounds=500, seed=1) == 1.0

    def test_separated_vectors_give_low_p(self):
        a = [0.9] * 12
        b = [0.1] * 12
        assert randomization_test(a, b, rounds=2000, seed=1) < 0.01

    @pytest.mark.parametrize("rounds", [2345, 999, 1000, 1])
    def test_blocks_match_one_full_sign_matrix(self, rounds):
        """The blocked draws give the same p-value, to the bit, as one
        (rounds, queries) sign matrix, also for a partial last block."""
        rng = np.random.default_rng(5)
        a, b = rng.random(17), rng.random(17)
        diffs = a - b
        signs = np.random.default_rng(9).choice([-1.0, 1.0], size=(rounds, diffs.size))
        permuted = np.abs((signs * diffs).mean(axis=1))
        oracle = float((np.sum(permuted >= abs(diffs.mean()) - 1e-15) + 1) / (rounds + 1))
        assert randomization_test(a, b, rounds=rounds, seed=9) == oracle

    def test_memory_does_not_grow_with_rounds(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        a, b = rng.random(400), rng.random(400)
        tracemalloc.start()
        try:
            randomization_test(a, b, rounds=10_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # drawing one (10,000, 400) sign matrix at once peaks at 64 MB; a
        # block of 1,000 rounds needs under 10 MB
        assert peak < 20e6
