import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clarikit.core import (
    CandidateAnswer,
    ClarificationPane,
    DomainError,
    EngagementStats,
    ImpressionLog,
    ImpressionRecord,
    PaneLabels,
    PaneStats,
    Query,
    collect_stats,
    conditional_click_distribution,
    engagement_rate,
    tokenize,
    validate_pane,
)


def make_pane(pane_id="p1", query_id="q1", texts=("red", "blue", "green"), **kwargs):
    answers = tuple(CandidateAnswer(text=t, position=i + 1) for i, t in enumerate(texts))
    return ClarificationPane(
        id=pane_id, query_id=query_id, question_text="Which color do you mean?", answers=answers, **kwargs
    )


def merge_stats(a: EngagementStats, b: EngagementStats) -> EngagementStats:
    """Sum of two partial counters of one pane: the oracle that collect_stats
    over a split log must agree with."""
    assert len(a.per_position_clicks) == len(b.per_position_clicks)
    return EngagementStats(
        impressions=a.impressions + b.impressions,
        engaged_impressions=a.engaged_impressions + b.engaged_impressions,
        per_position_clicks=tuple(x + y for x, y in zip(a.per_position_clicks, b.per_position_clicks)),
    )


class TestEngagementRate:
    def test_no_clicks(self):
        stats = EngagementStats(10, 0, (0, 0))
        assert engagement_rate(stats) == 0.0

    def test_all_engaged(self):
        stats = EngagementStats(10, 10, (10, 3))
        assert engagement_rate(stats) == 1.0

    def test_direct_division(self):
        stats = EngagementStats(74, 21, (12, 9))
        assert engagement_rate(stats) == pytest.approx(21 / 74)

    def test_zero_impressions_rejected(self):
        with pytest.raises(DomainError):
            engagement_rate(EngagementStats(0, 0, (0,)))

    def test_monotone_in_engaged(self):
        rates = [engagement_rate(EngagementStats(50, e, (0,) * 3)) for e in range(0, 51, 5)]
        assert rates == sorted(rates)


class TestConditionalClickDistribution:
    def test_no_clicks_is_uniform(self):
        dist = conditional_click_distribution(EngagementStats(10, 0, (0, 0, 0, 0, 0)))
        np.testing.assert_allclose(dist, [0.2] * 5)

    def test_single_position(self):
        dist = conditional_click_distribution(EngagementStats(10, 7, (7, 0, 0)))
        np.testing.assert_allclose(dist, [1, 0, 0])

    def test_normalization(self):
        dist = conditional_click_distribution(EngagementStats(10, 4, (3, 1, 0, 0)))
        np.testing.assert_allclose(dist, [0.75, 0.25, 0, 0])

    def test_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            imps = int(rng.integers(1, 50))
            clicks = tuple(int(rng.integers(0, imps + 1)) for _ in range(n))
            stats = EngagementStats(imps, min(imps, max(clicks)), clicks)
            dist = conditional_click_distribution(stats)
            assert abs(dist.sum() - 1.0) < 1e-12
            assert (dist >= 0).all()


class TestValidatePane:
    def test_well_formed(self):
        assert validate_pane(make_pane()) == []

    def test_too_many_answers(self):
        pane = make_pane(texts=("a", "b", "c", "d", "e", "f"))
        assert any(v.startswith("answer count") for v in validate_pane(pane))

    def test_too_few_answers(self):
        pane = make_pane(texts=("a",))
        assert any(v.startswith("answer count") for v in validate_pane(pane))

    def test_contiguity(self):
        answers = (CandidateAnswer("a", 1), CandidateAnswer("b", 3))
        pane = ClarificationPane("p", "q", "Which a are you looking for?", answers)
        assert any(v.startswith("contiguity") for v in validate_pane(pane))

    def test_empty_question(self):
        answers = (CandidateAnswer("a", 1), CandidateAnswer("b", 2))
        pane = ClarificationPane("p", "q", "  ", answers)
        assert any("question" in v for v in validate_pane(pane))


class TestTypes:
    def test_query_requires_tokens(self):
        with pytest.raises(ValueError):
            Query(id="q", text="  !!  ")

    def test_query_length(self):
        assert Query(id="q", text="jaguar car price").length == 3

    def test_answer_default_render_size(self):
        assert CandidateAnswer(text="windows 10", position=1).render_size == 10.0

    def test_answer_explicit_render_size(self):
        assert CandidateAnswer(text="x", position=1, render_size=42.0).render_size == 42.0

    def test_stats_invariants(self):
        with pytest.raises(ValueError):
            EngagementStats(5, 6, (0,))
        with pytest.raises(ValueError):
            EngagementStats(5, 3, (6,))

    def test_labels(self):
        labels = PaneLabels("Good", ("Fair", "Bad"))
        assert labels.landing == ("Fair", "Bad")
        with pytest.raises(ValueError):
            PaneLabels("Great", ())

    def test_tokenize(self):
        assert tokenize("Which Jaguar, exactly?") == ["which", "jaguar", "exactly"]


class TestCollectStats:
    def test_aggregation(self):
        panes = {"p1": make_pane()}
        log = [
            ImpressionRecord("p1", 0, frozenset({1})),
            ImpressionRecord("p1", 1, frozenset({1, 2})),
            ImpressionRecord("p1", 2, frozenset()),
        ]
        stats = collect_stats(log, panes)["p1"]
        assert stats.impressions == 3
        assert stats.engaged_impressions == 2
        assert stats.per_position_clicks == (2, 1, 0)

    def test_unknown_pane(self):
        with pytest.raises(KeyError):
            collect_stats([ImpressionRecord("nope", 0)], {})

    def test_merge_matches_single_pass(self):
        panes = {"p1": make_pane()}
        log = [
            ImpressionRecord("p1", t, frozenset({1 + t % 3}) if t % 2 else frozenset())
            for t in range(20)
        ]
        whole = collect_stats(log, panes)["p1"]
        first = collect_stats(log[:7], panes)["p1"]
        second = collect_stats(log[7:], panes)["p1"]
        assert merge_stats(first, second) == whole

    # one pane per answer count; clicks up to position 6 include some that
    # fall outside a pane and must be ignored the same way in every part
    PANES = {f"p{k}": make_pane(f"p{k}", texts=tuple(f"a{i}" for i in range(k))) for k in range(2, 6)}

    @given(st.lists(st.tuples(
        st.sampled_from(sorted(PANES)), st.frozensets(st.integers(1, 6), max_size=4), st.integers(0, 3),
    ), max_size=60))
    def test_partition_merges_to_single_pass(self, entries):
        log = [ImpressionRecord(pane_id, t, clicks) for t, (pane_id, clicks, _part) in enumerate(entries)]
        per_part: dict[str, list] = {}
        for part in range(4):
            subset = [rec for rec, entry in zip(log, entries) if entry[2] == part]
            for pane_id, stats in collect_stats(subset, self.PANES).items():
                per_part.setdefault(pane_id, []).append(stats)
        merged = {pane_id: reduce(merge_stats, parts) for pane_id, parts in per_part.items()}
        assert merged == collect_stats(log, self.PANES)


def reference_collect_stats(log, panes):
    """collect_stats as the record-by-record loop it replaced: the oracle for
    the counting, the unknown-pane error and the pane order."""
    impressions, engaged, clicks = {}, {}, {}
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
        pane_id: EngagementStats(impressions[pane_id], engaged[pane_id], tuple(clicks[pane_id]))
        for pane_id in impressions
    }


@given(st.lists(st.tuples(
    st.sampled_from(sorted(TestCollectStats.PANES) + ["unknown"]), st.frozensets(st.integers(1, 7), max_size=5),
), max_size=80))
def test_collect_stats_matches_the_record_loop(entries):
    """Counts, pane order (first appearance) and the unknown-pane error, for
    logs holding clicks beyond each pane's answers."""
    log = [ImpressionRecord(pane_id, t, clicks) for t, (pane_id, clicks) in enumerate(entries)]
    panes = TestCollectStats.PANES
    try:
        expected = list(reference_collect_stats(log, panes).items())
    except KeyError as exc:
        with pytest.raises(KeyError, match=re.escape(str(exc))):
            collect_stats(log, panes)
        return
    assert list(collect_stats(log, panes).items()) == expected
    assert list(collect_stats(ImpressionLog.of(log), panes).items()) == expected


def test_pane_stats_of_round_trips_a_hand_built_dict():
    """A dict of rows of any widths becomes a table once, in its order, and
    reads back as the same rows; a table passes through unchanged."""
    hand = {
        "b": EngagementStats(5, 2, (2, 0, 1)),
        "a": EngagementStats(0, 0, (0, 0)),
        "c": EngagementStats(9, 9, (9, 4, 0, 0, 2)),
    }
    table = PaneStats.of(hand)
    assert PaneStats.of(table) is table
    assert table == hand
    assert list(table.items()) == list(hand.items())
    assert repr(table) == repr(hand)
    assert table.clicks.tolist() == [[2, 0, 1, 0, 0], [0, 0, 0, 0, 0], [9, 4, 0, 0, 2]]
    assert table.answer_counts.tolist() == [3, 2, 5]
    assert len(table) == 3 and "a" in table and "z" not in table
    with pytest.raises(KeyError):
        table["z"]
    assert list(table.by_id().items()) == sorted(hand.items())
    assert dict(table.take([2, 0]).items()) == {"c": hand["c"], "b": hand["b"]}
    empty = PaneStats.of({})
    assert empty == {} and repr(empty) == "{}" and empty.clicks.shape == (0, 0)
