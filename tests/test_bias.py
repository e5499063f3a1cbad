import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clarikit.bias import (
    _EPS,
    CLICK_MODELS,
    FEATURE_NAMES,
    ExaminationFit,
    NumericalError,
    SwapTable,
    _adjacent_swap_index,
    _connected_to_first,
    _newton,
    _sigmoid,
    build_swap_dataset,
    cascade_attractiveness,
    cross_entropy,
    evaluate_click_models,
    fit_cascade_attractiveness,
    fit_examination_em,
    fit_fractional_logreg,
    fit_scatter_line,
    log_odds,
    pct_above_diagonal,
    regression_data,
    scatter_points,
    triple_fold,
)
from clarikit.core import CandidateAnswer, ClarificationPane, EngagementStats, PaneStats
from clarikit.synthlog import CorpusConfig, UserModel, gen_corpus, simulate_stats


def first(n_selected, n_triples):
    """The mask of the first n_selected of n_triples triples."""
    return np.arange(n_triples) < n_selected


def pane_of(texts, pane_id="p", query_id="q", question="Which one do you mean?", sizes=None):
    sizes = sizes or [0.0] * len(texts)
    answers = tuple(CandidateAnswer(text=t, position=i + 1, render_size=z) for i, (t, z) in enumerate(zip(texts, sizes)))
    return ClarificationPane(pane_id, query_id, question, answers)


class TestBuildSwapDataset:
    def test_adjacent_pair_found(self):
        panes = {
            "a": pane_of(["x", "y", "z"], "a"),
            "b": pane_of(["x", "z", "y"], "b"),
        }
        triples = build_swap_dataset(panes)
        assert len(triples) == 1
        assert triples[0].swap_index == 2
        assert (triples[0].pane_c, triples[0].pane_c_prime) == ("a", "b")

    def test_non_adjacent_excluded(self):
        panes = {
            "a": pane_of(["x", "y", "z"], "a"),
            "b": pane_of(["z", "y", "x"], "b"),
        }
        assert build_swap_dataset(panes) == []

    def test_different_question_excluded(self):
        panes = {
            "a": pane_of(["x", "y"], "a", question="Which x do you mean?"),
            "b": pane_of(["y", "x"], "b", question="Which y do you mean?"),
        }
        assert build_swap_dataset(panes) == []

    def test_unordered_input_order_invariant(self):
        pane_a = pane_of(["x", "y", "z"], "a")
        pane_b = pane_of(["x", "z", "y"], "b")
        forward = build_swap_dataset({"a": pane_a, "b": pane_b})
        backward = build_swap_dataset({"b": pane_b, "a": pane_a})
        assert forward == backward

    def test_generator_bookkeeping_matches(self):
        corpus = gen_corpus(CorpusConfig(n_queries=40, swap_fraction=1.0), seed=5)
        triples = build_swap_dataset(corpus.panes)
        assert len(triples) == len(corpus.swap_pairs)
        found = {(t.pane_c, t.pane_c_prime, t.swap_index) for t in triples}
        assert found == set(corpus.swap_pairs)

    def test_each_distinct_question_normalized_once(self, monkeypatch):
        import clarikit.bias as bias_mod
        from clarikit.intents import normalize_phrase

        corpus = gen_corpus(CorpusConfig(n_queries=40, swap_fraction=1.0), seed=5)
        normalized = []

        def counted(text):
            normalized.append(text)
            return normalize_phrase(text)

        monkeypatch.setattr(bias_mod, "normalize_phrase", counted)
        build_swap_dataset(corpus.panes)
        assert sorted(normalized) == sorted({pane.question_text for pane in corpus.panes.values()})


TEXTS = ("a", "b", "c", "d", "e")


@st.composite
def answer_orders(draw):
    """Two answer orders over the same texts; the second is a permutation
    of the first, often followed by one adjacent transposition."""
    first = draw(st.permutations(TEXTS[: draw(st.integers(2, 5))]))
    second = list(draw(st.one_of(st.just(first), st.permutations(first))))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(second) - 2))
        second[i], second[i + 1] = second[i + 1], second[i]
    return first, second


class TestSwapProperties:
    @given(answer_orders())
    def test_swap_index_is_symmetric(self, orders):
        a, b = pane_of(orders[0], "a"), pane_of(orders[1], "b")
        assert _adjacent_swap_index(a, b) == _adjacent_swap_index(b, a)

    @given(st.lists(st.tuples(st.sampled_from(("q1", "q2")), st.permutations(TEXTS[:4])), max_size=8))
    def test_each_swap_pair_found_once(self, specs):
        panes = {f"p{j}": pane_of(texts, f"p{j}", query_id=q) for j, (q, texts) in enumerate(specs)}
        found = sorted((t.pane_c, t.pane_c_prime) for t in build_swap_dataset(panes))
        expected = [
            (x, y) for x, y in itertools.combinations(sorted(panes), 2)
            if panes[x].query_id == panes[y].query_id and _adjacent_swap_index(panes[x], panes[y]) is not None
        ]
        assert found == expected


class TestSwapGeometry:
    def _stats(self, clicks_c, clicks_cp, n=100):
        return {
            "a": EngagementStats(n, max(clicks_c), tuple(clicks_c)),
            "b": EngagementStats(n, max(clicks_cp), tuple(clicks_cp)),
        }

    def _triple(self, k=2, i=1):
        panes = {"a": pane_of([f"t{j}" for j in range(k)], "a")}
        texts = [f"t{j}" for j in range(k)]
        texts[i - 1], texts[i] = texts[i], texts[i - 1]
        panes["b"] = pane_of(texts, "b")
        [triple] = build_swap_dataset(panes)
        return triple

    def test_identical_rates_sit_on_diagonal(self):
        # clicks follow the answers through the swap, so the per-position
        # vector reverses while each answer's own rate stays the same
        triple = self._triple()
        stats = self._stats([20, 5], [5, 20])
        for x, y, _, _ in scatter_points([triple], stats):
            assert x == y
        assert pct_above_diagonal([triple], stats) == {}

    def test_points_match_oracle_rates(self):
        # examination user: exam probs (0.9, 0.6), relevance 0.5 everywhere,
        # so the same answer clicks at 0.45 up top and 0.30 below
        triple = self._triple()
        n = 200_000
        stats = {
            "a": EngagementStats(n, 0, (int(0.45 * n), int(0.30 * n))),
            "b": EngagementStats(n, 0, (int(0.45 * n), int(0.30 * n))),
        }
        (x1, y1, k, i), (x2, y2, _, _) = scatter_points([triple], stats)
        assert (k, i) == (2, 1)
        assert x1 == pytest.approx(log_odds(0.30), abs=1e-3)
        assert y1 == pytest.approx(log_odds(0.45), abs=1e-3)
        assert x2 == pytest.approx(log_odds(0.30), abs=1e-3)
        assert y2 == pytest.approx(log_odds(0.45), abs=1e-3)

    def test_zero_impression_pane_rejected(self):
        triple = self._triple()
        panes = {"a": pane_of(["t0", "t1"], "a"), "b": pane_of(["t1", "t0"], "b")}
        for empty in ("a", "b"):
            stats = {"a": EngagementStats(10, 1, (1, 0)), "b": EngagementStats(10, 1, (1, 0))}
            stats[empty] = EngagementStats(0, 0, (0, 0))
            for output in (scatter_points, pct_above_diagonal):
                with pytest.raises(ValueError, match="a/b has a pane without impressions"):
                    output([triple], stats)
            with pytest.raises(ValueError, match="a/b has a pane without impressions"):
                regression_data([triple], panes, stats)

    def test_smoothing(self):
        triple = self._triple()
        stats = {"a": EngagementStats(98, 40, (40, 0)), "b": EngagementStats(98, 0, (0, 0))}
        table = SwapTable([triple], stats)
        np.testing.assert_array_equal(table.rates[0, 0], [41 / 100, 1 / 100, 1 / 100, 1 / 100, 1 / 100])
        assert (table.ctr_l[0], table.ctr_r[0]) == (41 / 100, 1 / 100)


class TestLogOdds:
    def test_half_is_zero(self):
        assert log_odds(0.5) == 0.0

    def test_antisymmetry(self):
        assert log_odds(0.2) == pytest.approx(-log_odds(0.8), abs=1e-12)
        assert log_odds(0.2) == pytest.approx(-1.3862943611198906)

    def test_direct_value(self):
        assert log_odds(0.75) == pytest.approx(math.log(3), abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                log_odds(bad)


class TestScatterLine:
    def test_diagonal_points(self):
        slope, intercept = fit_scatter_line([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert slope == pytest.approx(1.0)
        assert intercept == pytest.approx(0.0)

    def test_two_point_closed_form(self):
        slope, intercept = fit_scatter_line([(0.0, 1.0), (1.0, 2.0)])
        assert (slope, intercept) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            fit_scatter_line([(1.0, 0.0), (1.0, 5.0)])

    def test_matches_polyfit(self):
        rng = np.random.default_rng(2)
        pts = [(float(x), float(2.5 * x - 1 + rng.normal())) for x in rng.uniform(-3, 3, 40)]
        slope, intercept = fit_scatter_line(pts)
        ref = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)
        assert slope == pytest.approx(ref[0], abs=1e-10)
        assert intercept == pytest.approx(ref[1], abs=1e-10)


class TestAboveDiagonal:
    def test_all_above(self):
        triple = TestSwapGeometry()._triple()
        stats = {
            "a": EngagementStats(100, 50, (50, 10)),
            "b": EngagementStats(100, 50, (50, 10)),
        }
        cells = pct_above_diagonal([triple], stats)
        assert cells[(2, 1)][0] == 100.0

    def test_ties_excluded(self):
        triple = TestSwapGeometry()._triple()
        stats = {
            "a": EngagementStats(100, 20, (20, 20)),
            "b": EngagementStats(100, 20, (20, 20)),
        }
        assert pct_above_diagonal([triple], stats) == {}


class TestFeaturesAndTargets:
    def test_feature_values(self):
        panes = {"a": pane_of(["abcd", "ab"], "a"), "b": pane_of(["ab", "abcd"], "b")}  # sizes 4 and 2
        stats = {"a": EngagementStats(98, 40, (40, 10)), "b": EngagementStats(98, 40, (10, 40))}
        [row], _, _, _ = regression_data(build_swap_dataset(panes), panes, stats)
        assert dict(zip(FEATURE_NAMES, row.tolist())) == {
            "intercept": 1.0, "ctr_l": 41 / 100, "ctr_r": 11 / 100, "size_diff": (4 - 2) / 6, "offset": 0.0,
        }

    def test_size_diff_antisymmetric_offset_stable(self):
        # the same two orders, once with each as the observed pane
        panes = {
            "a": pane_of(["abcd", "ab", "x"], "a", query_id="q1"),
            "b": pane_of(["ab", "abcd", "x"], "b", query_id="q1"),
            "c": pane_of(["ab", "abcd", "x"], "c", query_id="q2"),
            "d": pane_of(["abcd", "ab", "x"], "d", query_id="q2"),
        }
        stats = dict.fromkeys(panes, EngagementStats(98, 40, (40, 10, 5)))
        rows, _, _, _ = regression_data(build_swap_dataset(panes), panes, stats)
        size_diff, offset = FEATURE_NAMES.index("size_diff"), FEATURE_NAMES.index("offset")
        assert rows[0, size_diff] == pytest.approx(1 / 3) and rows[0, size_diff] == -rows[1, size_diff]
        assert rows[0, offset] == rows[1, offset] == 0.0

    def test_targets_are_swap_position_rates(self):
        panes = {"a": pane_of(["x", "y", "z"], "a"), "b": pane_of(["x", "z", "y"], "b")}
        stats = {"a": EngagementStats(98, 0, (1, 2, 3)), "b": EngagementStats(98, 0, (10, 20, 30))}
        _, [label_l], [label_r], [weight] = regression_data(build_swap_dataset(panes), panes, stats)
        assert (label_l, label_r, weight) == (21 / 100, 31 / 100, 98.0)


class TestFractionalLogreg:
    def test_intercept_only_on_zero_features(self):
        rows = np.column_stack([np.ones(200), np.zeros(200)])
        targets = np.full(200, 0.3)
        fit = fit_fractional_logreg(rows, targets)
        predictions = 1.0 / (1.0 + np.exp(-(rows @ fit.weights)))
        np.testing.assert_allclose(predictions, 0.3, atol=1e-9)
        assert fit.weights[1] == 0.0

    def test_size_dominates_when_size_determines_clicks(self):
        rng = np.random.default_rng(1)
        n = 2000
        size_diff = rng.uniform(-1, 1, n)
        others = rng.uniform(0, 0.3, (n, 2))
        offset = rng.integers(0, 4, n).astype(float)
        rows = np.column_stack([np.ones(n), others, size_diff, offset])
        targets = 1 / (1 + np.exp(-(3.0 * size_diff - 1.0)))
        fit = fit_fractional_logreg(rows, targets)
        weights = dict(zip(("intercept", "ctr_l", "ctr_r", "size_diff", "offset"), fit.weights))
        assert abs(weights["size_diff"]) >= 5 * abs(weights["ctr_l"])
        assert abs(weights["size_diff"]) >= 5 * abs(weights["ctr_r"])
        assert abs(weights["size_diff"]) >= 5 * abs(weights["offset"])

    def test_converges_to_spec_tolerance(self):
        rng = np.random.default_rng(5)
        n = 500
        rows = np.column_stack([np.ones(n), rng.uniform(0, 1, (n, 2))])
        targets = rng.uniform(0.05, 0.6, n)
        fit = fit_fractional_logreg(rows, targets)
        assert fit.gradient_norm < 1e-10

    def test_non_convergence_is_diagnosed(self):
        rng = np.random.default_rng(6)
        rows = np.column_stack([np.ones(50), rng.uniform(0, 1, 50)])
        targets = rng.uniform(0.2, 0.8, 50)
        with pytest.raises(NumericalError, match="gradient norm"):
            fit_fractional_logreg(rows, targets, max_iter=2)

    def test_non_finite_target_is_diagnosed(self):
        rows = np.column_stack([np.ones(20), np.linspace(0.0, 1.0, 20)])
        targets = np.full(20, 0.3)
        targets[4] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            fit_fractional_logreg(rows, targets)

    def test_singular_design_is_diagnosed(self):
        # two equal varying columns leave the Newton system without a solution
        x = np.linspace(0.0, 1.0, 20)
        rows = np.column_stack([np.ones(20), x, x])
        targets = np.random.default_rng(7).uniform(0.2, 0.6, 20)
        with pytest.raises(NumericalError, match="Singular"):
            fit_fractional_logreg(rows, targets)

    def test_weighting_matters(self):
        rows = np.column_stack([np.ones(4), np.array([0.0, 0.0, 1.0, 1.0])])
        targets = np.array([0.2, 0.8, 0.2, 0.8])
        heavy_low = fit_fractional_logreg(rows, targets, np.array([9.0, 1.0, 9.0, 1.0]))
        heavy_high = fit_fractional_logreg(rows, targets, np.array([1.0, 9.0, 1.0, 9.0]))
        # rows[0] is (1, 0): its prediction is the sigmoid of the intercept
        assert heavy_low.weights[0] < heavy_high.weights[0]

    def test_cv_needs_enough_triples(self):
        with pytest.raises(ValueError):
            evaluate_click_models([], {}, {}, kinds=("logistic",), folds=10)


class TestCrossEntropy:
    def test_floor_is_entropy(self):
        assert cross_entropy([0.5], [0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_direct_value(self):
        assert cross_entropy([0.0], [0.01]) == pytest.approx(-math.log(0.99), abs=1e-12)

    def test_never_below_floor(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.05, 0.95, 50)
        for _ in range(20):
            q = np.clip(p + rng.normal(0, 0.05, 50), 0.01, 0.99)
            assert cross_entropy(p, q) >= cross_entropy(p, p) - 1e-12

    def test_prediction_domain(self):
        with pytest.raises(ValueError):
            cross_entropy([0.5], [0.0])
        with pytest.raises(ValueError):
            cross_entropy([0.5], [1.0])


class TestExaminationRecovery:
    def test_em_recovers_planted_positions(self):
        exam_probs = (1.0, 0.85, 0.72, 0.61, 0.52)
        plan = tuple((k, i, 60) for k in range(2, 6) for i in range(1, k))
        corpus = gen_corpus(
            CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.2, 0.7)), seed=21
        )
        stats = simulate_stats(corpus, UserModel.examination(exam_probs), 500, seed=22)
        recovered = fit_examination_em(stats, corpus.panes).eps
        np.testing.assert_allclose(recovered, exam_probs, atol=0.02)

    def test_unobserved_position_warns(self):
        panes = {"a": pane_of(["x", "y"], "a")}
        stats = {"a": EngagementStats(100, 30, (30, 10))}
        with pytest.warns(UserWarning, match="pinned"):
            fit_examination_em(stats, panes)

    def test_unidentified_position_warns(self):
        """No swap touches position 5, so its answers appear nowhere else: its
        examination trades against their attractiveness along a ridge."""
        plan = ((2, 1, 4), (3, 2, 4), (4, 3, 4), (5, 1, 4))
        corpus = gen_corpus(CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.2, 0.7)), seed=23)
        stats = simulate_stats(corpus, UserModel.examination((1.0, 0.85, 0.72, 0.61, 0.52)), 2000, seed=24)
        with pytest.warns(UserWarning, match=r"positions \[5\] share no answers with position 1"):
            fit_examination_em(stats, corpus.panes)

    def test_position_linked_only_through_a_pinned_answer_warns(self):
        """z, never clicked, is held at its lower bound whatever the positions
        are, so it carries nothing that ties position 5 to position 1."""
        panes = {"a": pane_of(["p", "q", "r", "s", "z"], "a"), "b": pane_of(["z", "p", "q", "r", "t"], "b")}
        stats = {"a": EngagementStats(400, 200, (120, 80, 60, 40, 0)),
                 "b": EngagementStats(400, 200, (0, 100, 70, 50, 30))}
        with pytest.warns(UserWarning, match=r"positions \[5\] share no answers with position 1"):
            fit_examination_em(stats, panes)

    def test_identified_positions_do_not_warn(self):
        stats, panes = self._planted()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_examination_em(stats, panes)

    @staticmethod
    def _planted():
        plan = ((2, 1, 4), (3, 2, 4), (4, 3, 4), (5, 4, 4), (5, 1, 4))
        corpus = gen_corpus(CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.2, 0.7)), seed=23)
        stats = simulate_stats(corpus, UserModel.examination((1.0, 0.85, 0.72, 0.61, 0.52)), 2000, seed=24)
        return stats, corpus.panes

    def test_newton_reaches_em_oracle_maximum(self):
        stats, panes = self._planted()
        cells = [
            (pos, (panes[pid].query_id, panes[pid].answers[pos].text), s.impressions, s.per_position_clicks[pos])
            for pid, s in sorted(stats.items()) for pos in range(panes[pid].answer_count)
        ]
        keys = sorted({c[1] for c in cells})
        position = np.array([c[0] for c in cells])
        item = np.array([keys.index(c[1]) for c in cells])
        n, k = np.array([c[2] for c in cells], dtype=float), np.array([c[3] for c in cells], dtype=float)
        # plain EM over latent examine/attract events, run to convergence
        eps, alpha = np.full(5, 0.5), np.full(len(keys), 0.2)
        eps[0] = 1.0
        for _ in range(5000):
            e, a = eps[position], alpha[item]
            eps = np.bincount(position, k + (n - k) * e * (1 - a) / (1 - e * a)) / np.bincount(position, n)
            alpha = np.bincount(item, k + (n - k) * a * (1 - e) / (1 - e * a)) / np.bincount(item, n)

        def loglik(eps, alpha):
            q = eps[position] * alpha[item]
            return float((k * np.log(q) + (n - k) * np.log1p(-q)).sum())

        fit = fit_examination_em(stats, panes)
        newton = loglik(fit.eps, np.array([fit.attractiveness[key] for key in keys]))
        oracle = loglik(eps, alpha)
        assert newton >= oracle - 1e-9 * abs(oracle)
        np.testing.assert_allclose(fit.eps, eps, rtol=0, atol=1e-6)

    def test_non_convergence_is_diagnosed(self):
        stats, panes = self._planted()
        with pytest.raises(NumericalError, match="gradient norm"):
            fit_examination_em(stats, panes, max_iter=1)


def cascade_rates(attraction):
    """Per-position click rates of a cascade user with these attractions."""
    rates, no_click_before = [], 1.0
    for a in attraction:
        rates.append(a * no_click_before)
        no_click_before *= 1.0 - a
    return rates


class TestCascadeModel:
    def test_attractiveness_inverts_cascade_rates(self):
        # cascade with attraction (0.2, 0.5, 0.5): observed rates (0.2, 0.4, 0.2)
        n = 1_000_000
        stats = EngagementStats(n, 0, tuple(int(r * n) for r in cascade_rates((0.2, 0.5, 0.5))))
        rates = np.array([(c + 1.0) / (n + 2.0) for c in stats.per_position_clicks])
        np.testing.assert_allclose(cascade_attractiveness(rates), [0.2, 0.5, 0.5], atol=1e-3)
        panes = {
            "a": pane_of(["x", "y", "z"], "a"),
            "b": pane_of(["y", "x", "z"], "b"),
            "c": pane_of(["x", "z", "y"], "c"),
        }
        triples = build_swap_dataset(panes)
        assert [(t.pane_c, t.pane_c_prime, t.swap_index) for t in triples] == [("a", "b", 1), ("a", "c", 2)]
        stats = {"a": stats, "b": EngagementStats(n, 0, (0, 0, 0)), "c": EngagementStats(n, 0, (0, 0, 0))}
        every = np.ones(2, dtype=bool)
        q_l, q_r = CLICK_MODELS["cascade"](SwapTable(triples, stats, panes), every)(every)
        # the recovered attractions, recomposed in each swapped order
        expected = [cascade_rates((0.5, 0.2, 0.5)), cascade_rates((0.2, 0.5, 0.5))]
        np.testing.assert_allclose(q_l, [expected[0][0], expected[1][1]], atol=1e-3)
        np.testing.assert_allclose(q_r, [expected[0][1], expected[1][2]], atol=1e-3)

    def test_swap_prediction_recomposes(self):
        panes = {
            "a": pane_of(["x", "y"], "a"),
            "b": pane_of(["y", "x"], "b"),
        }
        [triple] = build_swap_dataset(panes)
        n = 1_000_000
        stats = {
            "a": EngagementStats(n, 0, (int(0.2 * n), int(0.4 * n))),
            "b": EngagementStats(n, 0, (0, 0)),
        }
        every = np.ones(1, dtype=bool)
        [q_l], [q_r] = CLICK_MODELS["cascade"](SwapTable([triple], stats, panes), every)(every)
        # promoted answer y keeps attraction 0.5 at the top; x clicks at
        # 0.2 * (1 - 0.5) once behind it
        assert q_l == pytest.approx(0.5, abs=1e-3)
        assert q_r == pytest.approx(0.1, abs=1e-3)


class TestFitClickModel:
    @pytest.fixture
    def swap_data(self):
        corpus = gen_corpus(
            CorpusConfig(n_queries=30, swap_fraction=1.0, relevance=("uniform", 0.15, 0.5)), seed=50
        )
        stats = simulate_stats(corpus, UserModel.examination(), 300, seed=51)
        triples = build_swap_dataset(corpus.panes)
        return corpus, stats, triples

    def test_unknown_kind_rejected(self, swap_data):
        corpus, stats, triples = swap_data
        with pytest.raises(ValueError, match="oracle"):
            evaluate_click_models(triples, corpus.panes, stats, kinds=("blind", "oracle"), folds=3)

    def test_blind_predicts_global_mean_everywhere(self, swap_data):
        corpus, stats, triples = swap_data
        every = np.ones(len(triples), dtype=bool)
        predict = CLICK_MODELS["blind"](SwapTable(triples, stats, corpus.panes), every)
        clicks = sum(sum(stats[t.pane_c].per_position_clicks) for t in triples)
        slots = sum(stats[t.pane_c].impressions * t.answer_count for t in triples)
        expected = (clicks + 1.0) / (slots + 2.0)
        q_l, q_r = predict(first(5, len(triples)))
        assert set(q_l.tolist()) | set(q_r.tolist()) == {expected}

    def test_no_bias_carries_old_position_rates(self, swap_data):
        corpus, stats, triples = swap_data
        t = triples[0]
        data = SwapTable(triples, stats, corpus.panes)
        [q_l], [q_r] = CLICK_MODELS["no_bias"](data, np.ones(len(triples), dtype=bool))(first(1, len(triples)))
        assert q_l == oracle_rate(stats[t.pane_c], t.swap_index + 1)
        assert q_r == oracle_rate(stats[t.pane_c], t.swap_index)

    @pytest.mark.parametrize("kind", ["best_possible", "blind", "no_bias", "examination", "cascade", "logistic"])
    def test_all_kinds_predict_valid_rates(self, swap_data, kind):
        corpus, stats, triples = swap_data
        train = np.array([triple_fold(t, 3) != 0 for t in triples])
        q_l, q_r = CLICK_MODELS[kind](SwapTable(triples, stats, corpus.panes), train)(first(8, len(triples)))
        assert len(q_l) == len(q_r) == 8
        assert ((0.0 < q_l) & (q_l < 1.0)).all() and ((0.0 < q_r) & (q_r < 1.0)).all()

    def test_report_carries_the_logistic_fold_weights(self, swap_data):
        corpus, stats, triples = swap_data
        report = evaluate_click_models(triples, corpus.panes, stats, kinds=("logistic",), folds=3)
        rows, targets_l, targets_r, weights = regression_data(triples, corpus.panes, stats)
        fold_ids = np.array([triple_fold(t, 3) for t in triples])
        assert report.logreg.feature_names == FEATURE_NAMES
        assert report.logreg.folds == [0, 1, 2]
        for fold, got_l, got_r in zip(report.logreg.folds, report.logreg.fold_weights_l, report.logreg.fold_weights_r):
            train = fold_ids != fold
            np.testing.assert_array_equal(got_l, fit_fractional_logreg(rows[train], targets_l[train], weights[train]).weights)
            np.testing.assert_array_equal(got_r, fit_fractional_logreg(rows[train], targets_r[train], weights[train]).weights)
        assert evaluate_click_models(triples, corpus.panes, stats, kinds=("blind",), folds=3).logreg is None

    def test_fold_without_test_triples_gets_no_logistic_weights(self, monkeypatch):
        """Twelve queries over ten folds leave two folds without test
        triples: neither is evaluated, so neither gets logistic weights, and
        each evaluated fold's two regressions are fit once."""
        import clarikit.bias as bias_mod

        plan = ((3, 1, 6), (3, 2, 6))
        corpus = gen_corpus(CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.15, 0.5)), seed=300)
        stats = simulate_stats(corpus, UserModel.cascade(), 200, seed=301)
        triples = build_swap_dataset(corpus.panes)
        fits = []
        monkeypatch.setattr(bias_mod, "fit_fractional_logreg", lambda *a: fits.append(1) or fit_fractional_logreg(*a))
        report = evaluate_click_models(triples, corpus.panes, stats, folds=10)
        with_test = sorted({triple_fold(t, 10) for t in triples})
        assert len(with_test) < 10
        assert report.logreg.folds == with_test
        assert len(report.logreg.fold_weights_l) == len(report.logreg.fold_weights_r) == len(with_test)
        assert len(fits) == 2 * len(with_test)
        # every answer count is 3, so each cell averages over the evaluated folds
        assert {cell.folds for cell in report.cells.values()} == {len(with_test)}

    def test_no_evaluable_fold_rejected(self):
        """All triples of one query share a fold, which then has no training
        triples: no fold can be evaluated, whichever models are asked for."""
        corpus = gen_corpus(CorpusConfig(n_queries=1, panes_per_query=3, swap_fraction=1.0), seed=5)
        stats = simulate_stats(corpus, UserModel.examination(), 50, seed=6)
        triples = build_swap_dataset(corpus.panes)
        assert len(triples) == 3
        for kinds in (("blind",), tuple(CLICK_MODELS)):
            with pytest.raises(ValueError, match="no fold has both training and test triples"):
                evaluate_click_models(triples, corpus.panes, stats, kinds=kinds, folds=3)

    @pytest.mark.parametrize("folds", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, swap_data, folds):
        corpus, stats, triples = swap_data
        with pytest.raises(ValueError, match="at least 2 folds"):
            evaluate_click_models(triples, corpus.panes, stats, kinds=("blind",), folds=folds)

    def test_pooled_cascade_attractiveness_identifiable(self, swap_data):
        corpus, stats, _ = swap_data
        recovered = fit_cascade_attractiveness(stats, corpus.panes)
        assert all(0.0 < v < 1.0 for v in recovered.values())


@pytest.fixture(scope="module")
def null_experiment():
    """Unbiased relevance_only corpus for the null calibrations."""
    plan = tuple((k, i, 150) for k in range(2, 6) for i in range(1, k))
    corpus = gen_corpus(
        CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.1, 0.5)), seed=42
    )
    stats = simulate_stats(corpus, UserModel.relevance_only(), 800, seed=7)
    triples = build_swap_dataset(corpus.panes)
    return corpus, stats, triples


class TestUnbiasedNull:
    def test_points_scatter_symmetrically(self, null_experiment):
        _, stats, triples = null_experiment
        cells = pct_above_diagonal(triples, stats)
        pooled_above = sum(v[0] * v[1] for v in cells.values()) / sum(v[1] for v in cells.values())
        assert 47.0 <= pooled_above <= 53.0

    def test_slope_near_one(self, null_experiment):
        _, stats, triples = null_experiment
        pts = scatter_points(triples, stats)
        slope, _ = fit_scatter_line([(x, y) for x, y, _, _ in pts])
        assert 0.93 <= slope <= 1.07

    def test_cascade_self_consistency(self):
        """Cross entropy of the cascade fit on cascade-generated data sits
        within 1% of the entropy floor."""
        plan = ((3, 1, 40), (3, 2, 40), (5, 2, 40))
        corpus = gen_corpus(
            CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.15, 0.6)), seed=31
        )
        stats = simulate_stats(corpus, UserModel.cascade(), 4000, seed=32)
        triples = build_swap_dataset(corpus.panes)
        report = evaluate_click_models(triples, corpus.panes, stats, kinds=("best_possible", "cascade"))
        floor = report.mean("best_possible")
        assert report.mean("cascade") <= floor * 1.01


# -- the per-triple reference code ---------------------------------------------
#
# The swap geometry as it was computed one triple at a time, kept as
# straight-line oracles for the swap table's array code.


def oracle_rate(stats, position):
    """Laplace-smoothed click rate of the answer at a 1-based position."""
    if stats.impressions < 1:
        raise ValueError("rate undefined for zero impressions")
    return (stats.per_position_clicks[position - 1] + 1.0) / (stats.impressions + 2.0)


def oracle_points(triple, stats):
    """The (lower-position rate, higher-position rate) points of a triple:
    answer C[i] sits at i in C and at i+1 in C', answer C[i+1] the other way."""
    stats_c, stats_cp, i = stats[triple.pane_c], stats[triple.pane_c_prime], triple.swap_index
    point_one = (oracle_rate(stats_cp, i + 1), oracle_rate(stats_c, i))
    point_two = (oracle_rate(stats_c, i + 1), oracle_rate(stats_cp, i))
    return point_one, point_two


def oracle_scatter(triples, stats):
    rows = []
    for t in triples:
        for x, y in oracle_points(t, stats):
            rows.append((float(np.log(x / (1.0 - x))), float(np.log(y / (1.0 - y))), t.answer_count, t.swap_index))
    return rows


def oracle_above(triples, stats):
    above, counted = {}, {}
    for t in triples:
        key = (t.answer_count, t.swap_index)
        for x, y in oracle_points(t, stats):
            if y == x:
                continue
            counted[key] = counted.get(key, 0) + 1
            if y > x:
                above[key] = above.get(key, 0) + 1
    return {key: (100.0 * above.get(key, 0) / counted[key], counted[key]) for key in sorted(counted)}


def oracle_regression(triples, panes, stats):
    """Feature rows (intercept, ctr_l, ctr_r, size_diff, offset) of the
    observed panes, the swapped panes' rates at i and i+1, and the swapped
    panes' impressions."""
    rows, targets_l, targets_r, weights = [], [], [], []
    for t in triples:
        i, stats_c, stats_cp = t.swap_index, stats[t.pane_c], stats[t.pane_c_prime]
        left, right = panes[t.pane_c].answers[i - 1], panes[t.pane_c].answers[i]
        size_diff = (left.render_size - right.render_size) / (left.render_size + right.render_size)
        rows.append(np.array([1.0, oracle_rate(stats_c, i), oracle_rate(stats_c, i + 1), size_diff, float(i - 1)]))
        targets_l.append(oracle_rate(stats_cp, i))
        targets_r.append(oracle_rate(stats_cp, i + 1))
        weights.append(stats_cp.impressions)
    return np.array(rows), np.array(targets_l), np.array(targets_r), np.array(weights, dtype=np.float64)


def oracle_cascade(stats, i):
    """One triple's cascade prediction: the observed pane's attractiveness
    recomposed with answers i and i+1 swapped."""
    rates = np.array([oracle_rate(stats, pos) for pos in range(1, len(stats.per_position_clicks) + 1)])
    seen_before = np.concatenate([[0.0], np.cumsum(rates)[:-1]])
    attract = np.clip(rates / np.maximum(1.0 - seen_before, _EPS), _EPS, 1.0 - _EPS)
    order = list(range(len(attract)))
    order[i - 1], order[i] = order[i], order[i - 1]
    reordered = attract[order]
    no_click_before = np.concatenate([[1.0], np.cumprod(1.0 - reordered)[:-1]])
    predicted = reordered * no_click_before
    return float(predicted[i - 1]), float(predicted[i])


def oracle_predictions(kind, triples, panes, stats, train, test):
    rows, targets_l, targets_r, weights = oracle_regression(triples, panes, stats)
    training = [t for t, keep in zip(triples, train) if keep]
    if kind == "best_possible":
        return targets_l[test], targets_r[test]
    if kind == "blind":
        clicks = sum(sum(stats[t.pane_c].per_position_clicks) for t in training)
        slots = sum(stats[t.pane_c].impressions * len(stats[t.pane_c].per_position_clicks) for t in training)
        rate = (clicks + 1.0) / (slots + 2.0)
        return np.full(test.sum(), rate), np.full(test.sum(), rate)
    if kind == "no_bias":
        return rows[test, 2], rows[test, 1]
    if kind == "examination":
        observed = {}
        for t in training:
            observed[t.pane_c] = stats[t.pane_c]
            observed[t.pane_c_prime] = stats[t.pane_c_prime]
        eps = fit_examination_em(observed, panes).eps
        ctr_l, ctr_r, offset = rows[test, 1], rows[test, 2], rows[test, 4].astype(np.intp)
        eps_i, eps_next = eps[offset], eps[offset + 1]
        return ctr_r / np.maximum(eps_next, _EPS) * eps_i, ctr_l / np.maximum(eps_i, _EPS) * eps_next
    if kind == "cascade":
        pairs = np.array([oracle_cascade(stats[t.pane_c], t.swap_index) for t, keep in zip(triples, test) if keep])
        return pairs[:, 0], pairs[:, 1]
    assert kind == "logistic"
    fitted = [fit_fractional_logreg(rows[train], y[train], weights[train]).weights for y in (targets_l, targets_r)]
    return tuple(_sigmoid(rows[test] @ w) for w in fitted)


def outcome(compute):
    """compute()'s value, or the type and message of what it raised."""
    try:
        return compute()
    except (NumericalError, ValueError) as exc:
        return type(exc), str(exc)


def same(got, expected) -> bool:
    if isinstance(got, tuple) and got and isinstance(got[0], type):
        return got == expected
    return len(got) == len(expected) and all(np.array_equal(g, e) for g, e in zip(got, expected))


@st.composite
def swap_experiments(draw):
    """Queries of 2–5 answers with random render sizes, each with a base
    pane and one or two adjacent-swap variants, and random stats: clicks
    per position anywhere in [0, impressions], so ties and equal panes
    occur.  Which pane is the observed side depends on the drawn ids."""
    panes, stats = {}, {}
    for q in range(draw(st.integers(1, 8))):
        k = draw(st.integers(2, 5))
        texts = [f"q{q}a{j}" for j in range(k)]
        sizes = draw(st.lists(st.integers(1, 40).map(float), min_size=k, max_size=k))
        swaps = draw(st.lists(st.integers(1, k - 1), min_size=1, max_size=2, unique=True))
        orders = [texts] + [texts[: i - 1] + [texts[i], texts[i - 1]] + texts[i + 1 :] for i in swaps]
        ids = draw(st.permutations([f"q{q}p{j}" for j in range(len(orders))]))
        by_text = dict(zip(texts, sizes))
        for pane_id, order in zip(ids, orders):
            panes[pane_id] = pane_of(order, pane_id, query_id=f"q{q}", sizes=[by_text[t] for t in order])
            n = draw(st.integers(1, 30))
            clicks = tuple(draw(st.lists(st.integers(0, n), min_size=k, max_size=k)))
            stats[pane_id] = EngagementStats(n, max(clicks), clicks)
    triples = build_swap_dataset(panes)
    masks = st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)).map(lambda m: np.array(m, dtype=bool))
    # as in cross-validation, every test mask holds a triple
    return panes, stats, triples, draw(masks), draw(masks.filter(np.any))


class TestAgainstTheReferenceCode:
    @settings(max_examples=150)
    @given(swap_experiments())
    def test_every_output_equals_the_oracle(self, experiment):
        panes, stats, triples, train, test = experiment
        assert np.array_equal(np.array(scatter_points(triples, stats)), np.array(oracle_scatter(triples, stats)))
        assert pct_above_diagonal(triples, stats) == oracle_above(triples, stats)
        got, expected = regression_data(triples, panes, stats), oracle_regression(triples, panes, stats)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        table = SwapTable(triples, stats, panes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kind, fit in CLICK_MODELS.items():
                got = outcome(lambda: fit(table, train)(test))
                expected = outcome(lambda: oracle_predictions(kind, triples, panes, stats, train, test))
                assert same(got, expected), kind


# -- the per-pane reference fits -----------------------------------------------
#
# Both click-model fits as they keyed their cells by (query, answer text) one
# pane and position at a time, kept as straight-line oracles for the
# answer-item index.


def oracle_examination_fit(pane_stats, panes, max_positions=5, tol=1e-10, max_iter=100):
    cells = []  # (position index, item index, impressions, clicks)
    item_ids = {}
    for pane_id in sorted(pane_stats):
        pane = panes[pane_id]
        stats = pane_stats[pane_id]
        for pos in range(1, pane.answer_count + 1):
            item_key = (pane.query_id, pane.answers[pos - 1].text)
            item = item_ids.setdefault(item_key, len(item_ids))
            cells.append((pos - 1, item, stats.impressions, stats.per_position_clicks[pos - 1]))

    n_params = max_positions + len(item_ids)
    positions = np.array([c[0] for c in cells], dtype=np.intp)
    items = max_positions + np.array([c[1] for c in cells], dtype=np.intp)
    impressions = np.array([c[2] for c in cells], dtype=np.float64)
    clicks = np.array([c[3] for c in cells], dtype=np.float64)
    total = max(impressions.sum(), 1.0)
    k, m = clicks / total, (impressions - clicks) / total

    def per_param(cell_values):
        return np.bincount(positions, cell_values, n_params) + np.bincount(items, cell_values, n_params)

    param_k, param_m = per_param(k), per_param(m)
    movable = param_k + param_m > 0.0
    missing = np.flatnonzero(~movable[:max_positions])
    if missing.size:
        warnings.warn(f"positions {(missing + 1).tolist()} never observed; examination probability pinned")
    movable[0] = False
    lower = np.full(n_params, np.log(_EPS))
    upper = np.full(n_params, np.log1p(-_EPS))
    upper[:max_positions] = 0.0
    theta = np.log(np.clip(param_k / np.maximum(param_k + param_m, _EPS), 0.01, 0.99))
    theta[:max_positions] = np.where(movable[:max_positions], 0.0, np.log(0.5))
    theta[0] = 0.0
    never, always = movable & (param_k == 0.0), movable & (param_m == 0.0)
    theta[never], theta[always] = lower[never], upper[always]
    linking = (impressions > 0) & ~(never | always)[items]
    anchored = _connected_to_first(positions[linking], items[linking], n_params)
    unanchored = np.flatnonzero(movable[:max_positions] & ~anchored[:max_positions])
    if unanchored.size:
        warnings.warn(
            f"positions {(unanchored + 1).tolist()} share no answers with position 1; examination probability not identified"
        )

    def loss(params):
        s = params[positions] + params[items]
        return float(-(k * s + m * np.log(-np.expm1(s))).sum())

    def newton(params):
        s = params[positions] + params[items]
        no_click = -np.expm1(s)
        odds = np.exp(s) / no_click
        d1, d2 = m * odds - k, m * odds / no_click
        grad = per_param(d1)
        held = ~movable | ((params <= lower) & (grad > 0.0)) | ((params >= upper) & (grad < 0.0))

        def solve():
            curvature = per_param(d2)
            free = np.flatnonzero(~held)
            free_eps, free_alpha = free[free < max_positions], free[free >= max_positions]
            cross = np.bincount(positions * n_params + items, d2, max_positions * n_params).reshape(max_positions, n_params)
            cross = cross[np.ix_(free_eps, free_alpha)]
            scaled = cross / curvature[free_alpha]
            schur = np.diag(curvature[free_eps]) - scaled @ cross.T
            rhs = grad[free_eps] - scaled @ grad[free_alpha]
            scale = 1.0 / np.sqrt(curvature[free_eps])
            scaled_schur = schur * np.outer(scale, scale) + 1e-8 * np.eye(len(free_eps))
            step = np.zeros(n_params)
            step[free_eps] = scale * np.linalg.solve(scaled_schur, scale * rhs)
            step[free_alpha] = (grad[free_alpha] - cross.T @ step[free_eps]) / curvature[free_alpha]
            return step

        return float(np.abs(np.where(held, 0.0, grad / np.exp(params))).max()), solve

    theta, iterations, gnorm = _newton("examination fit", loss, newton, theta, tol, max_iter, lower, upper)
    fitted = np.exp(theta)
    return ExaminationFit(fitted[:max_positions], dict(zip(item_ids, fitted[max_positions:].tolist())), iterations, gnorm)


def oracle_cascade_fit(pane_stats, panes):
    clicks, examined = {}, {}
    for pane_id in sorted(pane_stats):
        pane = panes[pane_id]
        stats = pane_stats[pane_id]
        seen_before = 0
        for pos in range(1, pane.answer_count + 1):
            key = (pane.query_id, pane.answers[pos - 1].text)
            clicks[key] = clicks.get(key, 0.0) + stats.per_position_clicks[pos - 1]
            examined[key] = examined.get(key, 0.0) + max(stats.impressions - seen_before, 0)
            seen_before += stats.per_position_clicks[pos - 1]
    out = {}
    for key in clicks:
        if examined[key] <= 0:
            warnings.warn(f"answer {key} never examined; attractiveness pinned")
            out[key] = 0.5
        else:
            out[key] = float(np.clip(clicks[key] / examined[key], _EPS, 1.0 - _EPS))
    return out


@st.composite
def fit_experiments(draw):
    """Panes of 2-5 answers under up to three queries, in drawn id order,
    whose answer texts come from one pool of six, so queries share answers
    across panes; each position's clicks are never, always or sometimes."""
    panes, stats = {}, {}
    n_panes = draw(st.integers(1, 10))
    for j in draw(st.permutations(range(n_panes))):
        pane_id = f"p{j}"
        texts = draw(st.permutations([f"t{i}" for i in range(6)]))[: draw(st.integers(2, 5))]
        panes[pane_id] = pane_of(texts, pane_id, query_id=f"q{draw(st.integers(0, 2))}")
        n = draw(st.integers(0, 25))
        per_position = st.one_of(st.just(0), st.just(n), st.integers(0, n))
        clicks = tuple(draw(st.lists(per_position, min_size=len(texts), max_size=len(texts))))
        stats[pane_id] = EngagementStats(n, max(clicks), clicks)
    return panes, stats


def fit_outcome(fit):
    """fit()'s value, or the type and message of what it raised, and the
    warnings it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(fit)
    return result, [str(w.message) for w in caught]


class TestFitsAgainstTheReferenceCode:
    @settings(max_examples=200)
    @given(fit_experiments())
    def test_both_fits_equal_the_oracles(self, experiment):
        panes, stats = experiment
        for table in (stats, PaneStats.of(stats)):
            (got, got_warnings), (expected, expected_warnings) = (
                fit_outcome(lambda: fit(table, panes)) for fit in (fit_examination_em, oracle_examination_fit)
            )
            assert got_warnings == expected_warnings
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert np.array_equal(got.eps, expected.eps)
                assert list(got.attractiveness.items()) == list(expected.attractiveness.items())
                assert (got.iterations, got.gradient_norm) == (expected.iterations, expected.gradient_norm)
            (got, got_warnings), (expected, expected_warnings) = (
                fit_outcome(lambda: fit(table, panes)) for fit in (fit_cascade_attractiveness, oracle_cascade_fit)
            )
            assert got_warnings == expected_warnings
            assert list(got.items()) == list(expected.items())
