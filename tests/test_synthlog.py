import numpy as np
import pytest

from clarikit.core import CandidateAnswer, ClarificationPane, collect_stats, validate_pane
from clarikit.synthlog import (
    CorpusConfig,
    UserModel,
    _swap_answers,
    click_matrix,
    gen_corpus,
    oracle_click_rates,
    simulate_impressions,
    simulate_stats,
)


def pane_of(texts, pane_id="p", query_id="q"):
    answers = tuple(CandidateAnswer(text=t, position=i + 1) for i, t in enumerate(texts))
    return ClarificationPane(pane_id, query_id, "Which one do you mean?", answers)


class TestUserModel:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            UserModel(kind="divination")

    def test_rejects_bad_exam_probs(self):
        with pytest.raises(ValueError):
            UserModel.examination((1.0, 1.2))


    @pytest.mark.parametrize("params", [
        {"kind": "examination", "exam_probs": (True, 0.5, 0.5, 0.5, 0.5)},
        {"kind": "examination", "exam_probs": (1.0, float("nan"), 0.5, 0.5, 0.5)},
        {"kind": "cascade", "cascade_scale": True},
        {"kind": "size_offset_logistic", "w_size": True},
        {"kind": "size_offset_logistic", "size_scale": False},
        {"kind": "size_offset_logistic", "bias": float("inf")},
        {"kind": "size_offset_logistic", "size_scale": 0},
    ], ids=["exam_probs_bool", "exam_probs_nan", "cascade_scale_bool", "weight_bool", "size_scale_bool",
            "weight_inf", "size_scale_zero"])
    def test_rejects_bools_and_non_finite_numbers(self, params):
        with pytest.raises(ValueError):
            UserModel(**params)


class TestOracleClickRates:
    def test_relevance_only_ignores_position(self):
        pane = pane_of(["a", "b"])
        np.testing.assert_allclose(
            oracle_click_rates(UserModel.relevance_only(), pane, [0.3, 0.3]), [0.3, 0.3]
        )

    def test_examination_unexamined_is_unclicked(self):
        pane = pane_of(["a", "b"])
        model = UserModel.examination((1.0, 0.0))
        np.testing.assert_allclose(oracle_click_rates(model, pane, [0.5, 0.9]), [0.5, 0.0])

    def test_cascade_enumerates_user_paths(self):
        # two paths: click first (0.2), or skip first then click second (0.8 * 0.5)
        pane = pane_of(["a", "b"])
        model = UserModel.cascade()
        np.testing.assert_allclose(oracle_click_rates(model, pane, [0.2, 0.5]), [0.2, 0.4])

    def test_logistic_depends_on_size_and_offset(self):
        short = pane_of(["ab", "cd"])
        long_first = pane_of(["a much longer answer text", "cd"])
        model = UserModel.size_offset_logistic()
        base = oracle_click_rates(model, short, [0.5, 0.5])
        longer = oracle_click_rates(model, long_first, [0.5, 0.5])
        assert longer[0] < base[0]  # longer answer, fewer clicks
        assert base[1] < base[0]  # deeper position, fewer clicks


class TestGenCorpus:
    def test_deterministic_for_seed(self):
        config = CorpusConfig(n_queries=40, swap_fraction=0.5, panes_per_query=2)
        assert gen_corpus(config, seed=7) == gen_corpus(config, seed=7)

    def test_different_seeds_differ(self):
        config = CorpusConfig(n_queries=40)
        assert gen_corpus(config, seed=7) != gen_corpus(config, seed=8)

    def test_swap_fraction_one_gives_pane_pairs(self):
        corpus = gen_corpus(CorpusConfig(n_queries=30, swap_fraction=1.0), seed=3)
        by_query = {}
        for pane in corpus.panes.values():
            by_query.setdefault(pane.query_id, []).append(pane)
        assert all(len(panes) >= 2 for panes in by_query.values())
        assert len(corpus.swap_pairs) == 30

    def test_swap_is_one_adjacent_transposition(self):
        corpus = gen_corpus(CorpusConfig(n_queries=25, swap_fraction=1.0), seed=11)
        for base_id, variant_id, i in corpus.swap_pairs:
            base, variant = corpus.panes[base_id], corpus.panes[variant_id]
            assert base.question_text == variant.question_text
            base_texts, variant_texts = list(base.answer_texts()), list(variant.answer_texts())
            assert variant_texts[i - 1] == base_texts[i]
            assert variant_texts[i] == base_texts[i - 1]
            rest = [j for j in range(len(base_texts)) if j not in (i - 1, i)]
            assert all(base_texts[j] == variant_texts[j] for j in rest)

    def test_swap_helper_transposes(self):
        answers = pane_of(["a", "b", "c"]).answers
        swapped = _swap_answers(answers, 2)
        assert [a.text for a in swapped] == ["a", "c", "b"]
        assert [a.position for a in swapped] == [1, 2, 3]

    def test_panes_are_valid(self):
        corpus = gen_corpus(CorpusConfig(n_queries=50, swap_fraction=0.3, panes_per_query=2), seed=5)
        for pane in corpus.panes.values():
            assert validate_pane(pane) == []

    def test_ground_truth_follows_answers_through_swap(self):
        corpus = gen_corpus(CorpusConfig(n_queries=20, swap_fraction=1.0), seed=9)
        for base_id, variant_id, i in corpus.swap_pairs:
            base_rel = dict(zip(corpus.panes[base_id].answer_texts(), corpus.ground_truth[base_id]))
            variant_rel = dict(zip(corpus.panes[variant_id].answer_texts(), corpus.ground_truth[variant_id]))
            assert base_rel == variant_rel

    def test_cell_plan_controls_layout(self):
        plan = ((2, 1, 4), (5, 3, 6))
        corpus = gen_corpus(CorpusConfig(n_queries=0, cell_plan=plan), seed=1)
        assert len(corpus.swap_pairs) == 10
        counts = {}
        for base_id, _, i in corpus.swap_pairs:
            key = (corpus.panes[base_id].answer_count, i)
            counts[key] = counts.get(key, 0) + 1
        assert counts == {(2, 1): 4, (5, 3): 6}

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CorpusConfig(n_queries=10, swap_fraction=1.5)
        with pytest.raises(ValueError):
            CorpusConfig(n_queries=10, relevance=("zipf", 2))

    @pytest.mark.parametrize("layout", [
        {"answer_count_weights": (0.0, 0.0, 0.0, 0.0)},
        {"cell_plan": ((2.5, 1, 3),)},
        {"cell_plan": ((2, 1),)},
    ])
    def test_bad_layout_rejected(self, layout):
        with pytest.raises(ValueError, match="answer_count_weights|cell plan row"):
            CorpusConfig(n_queries=10, **layout)

    @pytest.mark.parametrize("relevance", [(), ("beta",), ("uniform", 0.1, 0.5, 0.9), ("beta", "1", 3.0)])
    def test_relevance_scheme_needs_its_numbers(self, relevance):
        with pytest.raises(ValueError, match="relevance scheme"):
            CorpusConfig(n_queries=10, relevance=relevance)

    @pytest.mark.parametrize("layout", [
        {"answer_count_weights": (True, 0, 0, 0)},
        {"answer_count_weights": (float("nan"), 1.0, 1.0, 1.0)},
        {"relevance": ("uniform", True, 0.5)},
        {"relevance": ("beta", float("inf"), 3.0)},
    ], ids=["weights_bool", "weights_nan", "relevance_bool", "relevance_inf"])
    def test_bools_and_non_finite_numbers_rejected(self, layout):
        with pytest.raises(ValueError, match="answer_count_weights|relevance scheme"):
            CorpusConfig(n_queries=10, **layout)

    def test_intent_sets_present_for_both_sources(self):
        corpus = gen_corpus(CorpusConfig(n_queries=5), seed=2)
        for qid in corpus.queries:
            assert set(corpus.intent_sets[qid]) == {"reformulation", "click_title"}


class TestSimulation:
    def test_zero_impressions_rejected(self):
        corpus = gen_corpus(CorpusConfig(n_queries=2), seed=0)
        with pytest.raises(ValueError):
            simulate_stats(corpus, UserModel.relevance_only(), 0, seed=0)

    def test_relevance_one_always_clicked(self):
        corpus = gen_corpus(CorpusConfig(n_queries=3), seed=4)
        pane_id = sorted(corpus.panes)[0]
        corpus.ground_truth[pane_id] = tuple(1.0 for _ in corpus.panes[pane_id].answers)
        stats = simulate_stats(corpus, UserModel.relevance_only(), 500, seed=1)[pane_id]
        assert stats.engaged_impressions == 500
        assert all(c == 500 for c in stats.per_position_clicks)

    def test_logs_deterministic(self):
        corpus = gen_corpus(CorpusConfig(n_queries=4, reformulation_rate=0.3, result_click_rate=0.4), seed=6)
        model = UserModel.examination()
        log_a = simulate_impressions(corpus, model, 50, seed=13)
        log_b = simulate_impressions(corpus, model, 50, seed=13)
        assert log_a == log_b

    def test_stats_match_impression_aggregation(self):
        corpus = gen_corpus(
            CorpusConfig(n_queries=6, swap_fraction=0.5, reformulation_rate=0.2, result_click_rate=0.3), seed=8
        )
        for model in (UserModel.relevance_only(), UserModel.cascade(), UserModel.size_offset_logistic()):
            fast = simulate_stats(corpus, model, 80, seed=21)
            slow = collect_stats(simulate_impressions(corpus, model, 80, seed=21), corpus.panes)
            assert fast == slow

    @pytest.mark.parametrize(
        "model",
        [
            UserModel.relevance_only(),
            UserModel.examination(),
            UserModel.cascade(),
            UserModel.size_offset_logistic(),
        ],
        ids=lambda m: m.kind,
    )
    def test_monte_carlo_converges_to_oracle(self, model):
        corpus = gen_corpus(CorpusConfig(n_queries=3, relevance=("uniform", 0.1, 0.6)), seed=17)
        n = 200_000
        stats = simulate_stats(corpus, model, n, seed=100)
        for pane_id, pane in corpus.panes.items():
            oracle = oracle_click_rates(model, pane, corpus.pane_relevances(pane_id))
            empirical = np.array(stats[pane_id].per_position_clicks) / n
            tolerance = 3.0 * np.sqrt(np.maximum(oracle * (1 - oracle), 1e-6) / n)
            assert (np.abs(empirical - oracle) <= tolerance).all(), (
                pane_id,
                empirical,
                oracle,
            )

    def test_cascade_at_most_one_click(self):
        pane = pane_of(["a", "b", "c"])
        rng = np.random.default_rng(0)
        clicks = click_matrix(UserModel.cascade(), pane, [0.6, 0.6, 0.6], 1000, rng)
        assert clicks.sum(axis=1).max() <= 1

    def test_independent_models_allow_multi_clicks(self):
        pane = pane_of(["a", "b", "c"])
        rng = np.random.default_rng(0)
        clicks = click_matrix(UserModel.relevance_only(), pane, [0.6, 0.6, 0.6], 1000, rng)
        assert clicks.sum(axis=1).max() > 1

    def test_examination_needs_a_probability_per_position(self):
        """click_matrix draws from oracle_click_rates, so a pane longer than
        the examination probabilities fails with the oracle's message."""
        pane = pane_of(["a", "b", "c"])
        with pytest.raises(ValueError, match="examination model covers 2 positions, pane has 3"):
            click_matrix(UserModel.examination([1.0, 0.5]), pane, [0.6, 0.6, 0.6], 10, np.random.default_rng(0))
