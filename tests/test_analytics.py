import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clarikit.analytics import (
    click_entropies,
    click_entropy,
    conditional_click_by_position,
    dissatisfaction_rate,
    engagement_breakdown,
    fleiss_kappa,
    multi_click_rate,
    normalized_entropy,
)
from clarikit.core import (
    CandidateAnswer,
    ClarificationPane,
    DomainError,
    EngagementStats,
    ImpressionLog,
    ImpressionRecord,
    Query,
    collect_stats,
    conditional_click_distribution,
)
from clarikit.synthlog import CorpusConfig, UserModel, gen_corpus, simulate_impressions


def make_pane(pane_id, query_id, k=2, template_id="other"):
    answers = tuple(CandidateAnswer(text=f"answer {i}", position=i + 1) for i in range(k))
    return ClarificationPane(pane_id, query_id, "Which one do you mean?", answers, template_id=template_id)


def impressions(pane_id, n, clicked_positions=(), start=0):
    """n impressions; clicked_positions is a list of per-impression click sets."""
    out = []
    for j in range(n):
        clicks = clicked_positions[j] if j < len(clicked_positions) else frozenset()
        out.append(ImpressionRecord(pane_id, start + j, frozenset(clicks)))
    return out


class TestEngagementBreakdown:
    def test_single_bucket_is_self_relative(self):
        panes = {"p1": make_pane("p1", "q1", template_id="T2")}
        queries = {"q1": Query("q1", "jaguar")}
        log = impressions("p1", 20, [{1}] * 5)
        table = engagement_breakdown(collect_stats(log, panes), panes, queries, "template")
        assert len(table.rows) == 1
        assert table.rows[0].relative_engagement == pytest.approx(1.0)

    def test_hand_computed_relatives(self):
        # bucket rates 0.1 and 0.3 with equal impressions: overall 0.2,
        # relatives 0.5 and 1.5
        panes = {
            "p1": make_pane("p1", "q1", template_id="T1"),
            "p2": make_pane("p2", "q2", template_id="T2"),
        }
        queries = {"q1": Query("q1", "jaguar"), "q2": Query("q2", "python")}
        log = impressions("p1", 20, [{1}] * 2) + impressions("p2", 20, [{1}] * 6)
        table = engagement_breakdown(collect_stats(log, panes), panes, queries, "template")
        by_bucket = {r.bucket: r.relative_engagement for r in table.rows}
        assert by_bucket["T1"] == pytest.approx(0.5)
        assert by_bucket["T2"] == pytest.approx(1.5)

    def test_uniform_clicks_land_in_top_entropy_bin(self):
        panes = {"pu": make_pane("pu", "q1", k=5), "pc": make_pane("pc", "q2", k=5)}
        queries = {"q1": Query("q1", "jaguar"), "q2": Query("q2", "python")}
        log = impressions("pu", 20, [{1}, {2}, {3}, {4}, {5}] * 4)
        log += impressions("pc", 20, [{1}] * 20)
        table = engagement_breakdown(collect_stats(log, panes), panes, queries, "click_entropy_bin")
        top = [r for r in table.rows if r.bucket == "bin5"]
        assert len(top) == 1 and top[0].impressions == 20
        assert any(r.bucket == "bin1" for r in table.rows)

    def test_click_entropy_restricted_to_five_answer_panes(self):
        panes = {"p5": make_pane("p5", "q1", k=5), "p3": make_pane("p3", "q2", k=3)}
        queries = {"q1": Query("q1", "jaguar"), "q2": Query("q2", "python")}
        log = impressions("p5", 15, [{1}] * 6) + impressions("p3", 15, [{1}] * 6)
        table = engagement_breakdown(collect_stats(log, panes), panes, queries, "click_entropy_bin")
        assert sum(r.impressions for r in table.rows) == 15

    def test_bins_sort_by_bin_index(self):
        """Twelve queries with 1..12 distinct clicked URLs fill twelve bins,
        reported bin1, bin2, ..., bin12 (not bin1, bin10, ...)."""
        ids = range(1, 13)
        panes = {f"p{i}": make_pane(f"p{i}", f"q{i}") for i in ids}
        queries = {f"q{i}": Query(f"q{i}", "jaguar") for i in ids}
        log = [record for i in ids for record in impressions(f"p{i}", 10, [{1}] * 2)]
        history = {f"q{i}": [(f"http://u/{j}", 1) for j in range(i)] for i in ids}
        table = engagement_breakdown(
            collect_stats(log, panes), panes, queries, "unique_url_bin", historical_clicks=history, n_bins=12
        )
        assert [r.bucket for r in table.rows] == [f"bin{i}" for i in ids]

    def test_min_impressions_dropped(self):
        panes = {"p1": make_pane("p1", "q1"), "p2": make_pane("p2", "q2")}
        queries = {"q1": Query("q1", "jaguar"), "q2": Query("q2", "python")}
        log = impressions("p1", 9, [{1}] * 9) + impressions("p2", 10, [{1}] * 2)
        table = engagement_breakdown(collect_stats(log, panes), panes, queries, "answer_count")
        assert sum(r.impressions for r in table.rows) == 10

    def test_url_dimensions_need_history(self):
        panes = {"p1": make_pane("p1", "q1")}
        queries = {"q1": Query("q1", "jaguar")}
        log = impressions("p1", 10, [{1}] * 2)
        with pytest.raises(ValueError, match="historical"):
            engagement_breakdown(collect_stats(log, panes), panes, queries, "unique_url_bin")

    def test_unknown_dimension(self):
        with pytest.raises(ValueError):
            engagement_breakdown({}, {}, {}, "astrology")

    def test_no_engaged_impression_rejected(self):
        """Relative engagement divides by the overall rate: with no engaged
        impression among the eligible panes it is undefined."""
        panes = {"p1": make_pane("p1", "q1"), "p2": make_pane("p2", "q2")}
        queries = {"q1": Query("q1", "jaguar"), "q2": Query("q2", "python")}
        # p2's clicks do not count: it is shown fewer times than eligibility needs
        log = impressions("p1", 20) + impressions("p2", 5, [{1}] * 5)
        with pytest.raises(DomainError, match="no engaged impression"):
            engagement_breakdown(collect_stats(log, panes), panes, queries, "template")

    def test_empty_log_rejected(self):
        panes = {"p1": make_pane("p1", "q1")}
        queries = {"q1": Query("q1", "jaguar")}
        with pytest.raises(ValueError):
            engagement_breakdown(collect_stats([], panes), panes, queries, "template")


@pytest.fixture(scope="module")
def corpus_log():
    config = CorpusConfig(n_queries=60, panes_per_query=2, swap_fraction=0.2)
    corpus = gen_corpus(config, seed=33)
    log = simulate_impressions(corpus, UserModel.examination(), 40, seed=5)
    rng = np.random.default_rng(0)
    history = {
        qid: [(f"url{i}", int(rng.integers(1, 30))) for i in range(int(rng.integers(1, 8)))]
        for qid in corpus.queries
    }
    return corpus, log, history


class TestBreakdownInvariant:
    @pytest.mark.parametrize(
        "dimension", ["template", "answer_count", "click_entropy_bin", "query_length", "unique_url_bin", "url_entropy_bin"]
    )
    def test_impression_weighted_mean_relative_is_one(self, corpus_log, dimension):
        corpus, log, history = corpus_log
        table = engagement_breakdown(collect_stats(log, corpus.panes), corpus.panes, corpus.queries, dimension, historical_clicks=history)
        weighted = sum(r.impressions * r.relative_engagement for r in table.rows)
        total = sum(r.impressions for r in table.rows)
        assert weighted / total == pytest.approx(1.0, abs=1e-9)

    def test_query_type_groups_each_average_to_one(self, corpus_log):
        corpus, log, _ = corpus_log
        table = engagement_breakdown(collect_stats(log, corpus.panes), corpus.panes, corpus.queries, "query_type")
        groups = {
            "questionness": ("question", "not_question"),
            "ambiguity": ("faceted", "ambiguous", "ambiguity_unknown"),
            "traffic": ("head", "torso", "tail", "traffic_unknown"),
        }
        for buckets in groups.values():
            rows = [r for r in table.rows if r.bucket in buckets]
            weighted = sum(r.impressions * r.relative_engagement for r in rows)
            total = sum(r.impressions for r in rows)
            assert weighted / total == pytest.approx(1.0, abs=1e-9)


class TestConditionalClickByPosition:
    def _setup(self):
        panes = {
            "p1": make_pane("p1", "q1", k=2),
            "p2": make_pane("p2", "q2", k=2),
        }
        queries = {
            "q1": Query("q1", "jaguar", ambiguity_class="ambiguous"),
            "q2": Query("q2", "python", ambiguity_class="ambiguous"),
        }
        return panes, queries

    def test_all_clicks_first_position(self):
        panes, queries = self._setup()
        log = impressions("p1", 12, [{1}] * 12)
        curve = conditional_click_by_position(collect_stats(log, panes), panes, queries, "ambiguous", 2)
        np.testing.assert_allclose(curve, [1.0, 0.0])

    def test_equal_engaged_mass_averages(self):
        panes, queries = self._setup()
        log = impressions("p1", 10, [{1}] * 10) + impressions("p2", 10, [{2}] * 10)
        curve = conditional_click_by_position(collect_stats(log, panes), panes, queries, "ambiguous", 2)
        np.testing.assert_allclose(curve, [0.5, 0.5])

    def test_sums_to_one(self):
        panes, queries = self._setup()
        log = impressions("p1", 15, [{1}, {2}, {1, 2}] * 4) + impressions("p2", 11, [{2}] * 7)
        curve = conditional_click_by_position(collect_stats(log, panes), panes, queries, "ambiguous", 2)
        assert abs(curve.sum() - 1.0) < 1e-9

    def test_no_matching_panes(self):
        panes, queries = self._setup()
        log = impressions("p1", 10, [{1}] * 10)
        with pytest.raises(ValueError):
            conditional_click_by_position(collect_stats(log, panes), panes, queries, "faceted", 2)


class TestDissatisfaction:
    def test_quiet_log_is_zero(self):
        log = impressions("p1", 10, [{1}] * 3)
        assert dissatisfaction_rate(log, 30.0) == 0.0

    def test_every_impression_reformulated_inside_window(self):
        log = [ImpressionRecord("p1", t, reformulation=("again", 60.0)) for t in range(8)]
        assert dissatisfaction_rate(log, 30.0) == 1.0

    def test_counting_oracle(self):
        log = [
            ImpressionRecord("p1", 0, result_clicks=(("u", 5.0),)),
            ImpressionRecord("p1", 1, result_clicks=(("u", 40.0),)),
        ]
        assert dissatisfaction_rate(log, 30.0) == 0.5

    def test_reformulation_outside_window_not_counted(self):
        log = [ImpressionRecord("p1", 0, reformulation=("again", 301.0))]
        assert dissatisfaction_rate(log, 30.0) == 0.0

    def test_monotone_under_adding_dissatisfied_impression(self):
        log = [ImpressionRecord("p1", 0, result_clicks=(("u", 50.0),))]
        before = dissatisfaction_rate(log, 30.0)
        log.append(ImpressionRecord("p1", 1, result_clicks=(("u", 1.0),)))
        assert dissatisfaction_rate(log, 30.0) >= before

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            dissatisfaction_rate([], 0.0)


class TestMultiClickRate:
    def test_all_single(self):
        log = impressions("p1", 5, [{1}] * 5)
        assert multi_click_rate(log) == 0.0

    def test_all_double(self):
        log = impressions("p1", 5, [{1, 2}] * 5)
        assert multi_click_rate(log) == 1.0

    def test_counting_oracle(self):
        log = impressions("p1", 4, [{1}, {1, 2}, {2}, set()])
        assert multi_click_rate(log) == pytest.approx(1 / 3)

    def test_no_engaged_impressions(self):
        with pytest.raises(ValueError):
            multi_click_rate(impressions("p1", 3))


def reference_rates(log, dwell_threshold_s, reformulation_window_s):
    """dissatisfaction_rate and multi_click_rate (None when nothing is
    engaged) as the record-by-record loops they replaced: their oracle."""
    dissatisfied = sum(
        any(dwell < dwell_threshold_s for _, dwell in rec.result_clicks)
        or (rec.reformulation is not None and rec.reformulation[1] <= reformulation_window_s)
        for rec in log
    )
    engaged = [rec for rec in log if rec.answer_clicks]
    multi = sum(len(rec.answer_clicks) >= 2 for rec in engaged)
    return dissatisfied / len(log) if log else 0.0, multi / len(engaged) if engaged else None


# seconds on both sides of the thresholds used below, NaN and infinity included
event_seconds = st.sampled_from([0.0, 29.5, 30.0, 30.5, 299.0, 300.0, 301.0, math.inf, math.nan])


@given(st.lists(st.builds(
    ImpressionRecord,
    pane_id=st.sampled_from(["p1", "p2"]),
    timestamp=st.integers(0, 100),
    answer_clicks=st.frozensets(st.integers(1, 6), max_size=3),
    result_clicks=st.lists(st.tuples(st.just("u"), event_seconds), max_size=3).map(tuple),
    reformulation=st.none() | st.tuples(st.just("again"), event_seconds),
), max_size=40))
def test_rates_match_the_record_loops(log):
    dissatisfaction, multi = reference_rates(log, 30.0, 300.0)
    for view in (log, ImpressionLog.of(log)):
        assert dissatisfaction_rate(view, 30.0, 300.0) == dissatisfaction
        if multi is None:
            with pytest.raises(ValueError):
                multi_click_rate(view)
        else:
            assert multi_click_rate(view) == multi


def kappa_pair_counting_oracle(ratings):
    """Straight-from-definition agreement: count agreeing rater pairs per item."""
    ratings = np.asarray(ratings, dtype=float)
    n = int(ratings[0].sum())
    per_item = []
    for row in ratings:
        agree = sum(math.comb(int(c), 2) for c in row)
        per_item.append(agree / math.comb(n, 2))
    observed = float(np.mean(per_item))
    shares = ratings.sum(axis=0) / ratings.sum()
    expected = float((shares**2).sum())
    if expected >= 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


class TestFleissKappa:
    def test_perfect_agreement(self):
        ratings = np.array([[4, 0, 0], [0, 4, 0], [4, 0, 0]])
        assert fleiss_kappa(ratings, 4) == pytest.approx(1.0)

    def test_unanimous_single_category(self):
        assert fleiss_kappa(np.array([[3, 0], [3, 0]]), 3) == 1.0

    def test_observed_equals_chance_is_zero(self):
        # balanced marginals give chance agreement 1/2; two agreeing and two
        # split items give observed agreement 1/2, so kappa is exactly 0
        ratings = np.array([[2, 0], [0, 2], [1, 1], [1, 1]])
        assert fleiss_kappa(ratings, 2) == pytest.approx(0.0, abs=1e-12)

    def test_definition_oracle_small_case(self):
        ratings = np.array([[3, 0], [1, 2]])
        assert fleiss_kappa(ratings, 3) == pytest.approx(kappa_pair_counting_oracle(ratings), abs=1e-12)
        assert fleiss_kappa(ratings, 3) == pytest.approx(0.25)

    def test_definition_oracle_random_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            ratings = rng.multinomial(5, [0.4, 0.3, 0.2, 0.1], size=10)
            expected = kappa_pair_counting_oracle(ratings)
            assert fleiss_kappa(ratings, 5) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_category_relabeling(self):
        rng = np.random.default_rng(7)
        ratings = rng.multinomial(3, [0.5, 0.25, 0.25], size=8)
        base = fleiss_kappa(ratings, 3)
        for _ in range(5):
            perm = rng.permutation(ratings.shape[1])
            assert fleiss_kappa(ratings[:, perm], 3) == pytest.approx(base, abs=1e-12)

    def test_inconsistent_row_sums_rejected(self):
        with pytest.raises(ValueError):
            fleiss_kappa(np.array([[3, 0], [2, 2]]), 3)


class TestEntropyHelpers:
    def test_normalized_entropy_uniform_is_one(self):
        assert normalized_entropy([0.25] * 4) == pytest.approx(1.0)

    def test_normalized_entropy_point_mass_is_zero(self):
        assert normalized_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_hand_computed_two_outcomes(self):
        h = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
        assert normalized_entropy([0.8, 0.2]) == pytest.approx(h / math.log(2), abs=1e-12)

    def test_click_entropy_of_uniform_stats(self):
        from clarikit.core import EngagementStats

        stats = EngagementStats(20, 20, (4, 4, 4, 4, 4))
        assert click_entropy(stats) == pytest.approx(math.log(5), abs=1e-12)

    @given(st.lists(st.lists(st.integers(0, 50), min_size=5, max_size=5), min_size=1, max_size=20))
    def test_click_entropies_equal_the_per_pane_entropy(self, rows):
        """The column equals, bit for bit, the entropy each pane's stats gave
        one at a time: the sum over its positive click shares."""
        for got, clicks in zip(click_entropies(rows).tolist(), rows):
            dist = conditional_click_distribution(EngagementStats(sum(clicks), 0, tuple(clicks)))
            positive = dist[dist > 0]
            assert got == float(-(positive * np.log(positive)).sum())
