import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from clarikit.core import tokenize
from clarikit.intents import (
    IntentSet,
    contains_query,
    intents_from_click_titles,
    intents_from_reformulations,
    load_intent_sets,
    normalize_phrase,
    read_click_titles_tsv,
    read_reformulations_tsv,
    save_intent_sets,
    strip_site_suffix,
    truncate_intents,
)


class TestReformulations:
    def test_containment_kept(self):
        sets = intents_from_reformulations([("jaguar", "jaguar car", 5)], min_freq=1)
        assert sets["jaguar"].items == (("jaguar car", 5.0),)

    def test_no_containment_dropped(self):
        assert intents_from_reformulations([("jaguar", "leopard", 9)], min_freq=1) == {}

    def test_substring_without_token_match_dropped(self):
        assert intents_from_reformulations([("art", "cartoon history", 5)], min_freq=1) == {}

    def test_identical_query_dropped(self):
        assert intents_from_reformulations([("jaguar", "Jaguar", 5)], min_freq=1) == {}

    def test_aggregation_and_threshold(self):
        triples = [("a b", "a b c", 1), ("a b", "a b c", 1), ("a b", "a b d", 1)]
        sets = intents_from_reformulations(triples, min_freq=2)
        assert sets["a b"].items == (("a b c", 2.0),)

    def test_additivity_when_unfiltered(self):
        triples = [("q", "q x", 2), ("q", "q y", 3), ("q", "q x", 4)]
        merged = intents_from_reformulations(triples, min_freq=1)["q"]
        first = intents_from_reformulations(triples[:2], min_freq=1)["q"]
        second = intents_from_reformulations(triples[2:], min_freq=1)["q"]
        summed = {}
        for text, w in first.items + second.items:
            summed[text] = summed.get(text, 0) + w
        assert dict(merged.items) == summed

    def test_query_id_mapping(self):
        sets = intents_from_reformulations(
            [("jaguar", "jaguar car", 3)], min_freq=1, query_ids={"jaguar": "q42"}
        )
        assert sets["q42"].query_id == "q42"

    def test_outputs_contain_query_tokens(self):
        triples = [("red fox", "red fox habitat", 2), ("red fox", "arctic red fox", 3)]
        for intent_set in intents_from_reformulations(triples, min_freq=1).values():
            for text, _ in intent_set.items:
                assert contains_query(["red", "fox"], text.split())

    def test_bad_frequency_rejected(self):
        with pytest.raises(ValueError):
            intents_from_reformulations([("a", "a b", 0)], min_freq=1)


class TestClickTitles:
    def test_single_title(self):
        sets = intents_from_click_titles([("jaguar", "http://x", "Jaguar Cars", 10)], min_freq=1)
        assert sets["jaguar"].items == (("jaguar cars", 10.0),)

    def test_threshold_drops_singletons(self):
        assert intents_from_click_titles([("q", "u", "Some Title", 1)], min_freq=2) == {}

    def test_same_normalized_title_merges(self):
        records = [
            ("q", "http://a", "Jaguar Cars - SiteOne", 2),
            ("q", "http://b", "jaguar  CARS | Other Place", 3),
        ]
        sets = intents_from_click_titles(records, min_freq=1)
        assert sets["q"].items == (("jaguar cars", 5.0),)

    def test_site_suffix_stripping(self):
        assert strip_site_suffix("Jaguar Cars - Wikipedia") == "Jaguar Cars"
        assert strip_site_suffix("Jaguar Cars | Official") == "Jaguar Cars"
        assert strip_site_suffix("Self-titled album") == "Self-titled album"


class TestTruncate:
    def test_identity_when_small(self):
        s = IntentSet("q", "reformulation", (("a", 5.0), ("b", 3.0)))
        assert truncate_intents(s, 4) is s

    def test_keeps_heaviest(self):
        s = IntentSet("q", "reformulation", (("a", 5.0), ("b", 3.0), ("c", 2.0)))
        assert truncate_intents(s, 2).items == (("a", 5.0), ("b", 3.0))

    def test_tie_broken_lexicographically(self):
        s = IntentSet("q", "reformulation", (("zed", 2.0), ("apple", 2.0), ("top", 5.0)))
        assert truncate_intents(s, 2).items == (("top", 5.0), ("apple", 2.0))

    def test_idempotent(self):
        s = IntentSet("q", "click_title", tuple((f"t{i}", float(10 - i)) for i in range(9)))
        once = truncate_intents(s, 4)
        assert truncate_intents(once, 4) == once

    def test_weights_untouched(self):
        s = IntentSet("q", "reformulation", (("a", 7.5), ("b", 1.0)))
        assert truncate_intents(s, 1).items[0][1] == 7.5


class TestIntentSetType:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            IntentSet("q", "reformulation", (("a", 0.0),))

    def test_rejects_duplicate_texts(self):
        with pytest.raises(ValueError):
            IntentSet("q", "reformulation", (("a", 1.0), ("a", 2.0)))

    def test_items_sorted_by_weight_then_text(self):
        s = IntentSet("q", "click_title", (("b", 1.0), ("a", 1.0), ("c", 9.0)))
        assert s.items == (("c", 9.0), ("a", 1.0), ("b", 1.0))

    def test_normalize_phrase(self):
        assert normalize_phrase("  Jaguar,  CARS!! ") == "jaguar cars"


def test_round_trip_jsonl(tmp_path):
    sets = [
        IntentSet("q1", "reformulation", (("q1 car", 4.0),)),
        IntentSet("q1", "click_title", (("title one", 2.0), ("title two", 2.0))),
    ]
    path = str(tmp_path / "intents.jsonl")
    save_intent_sets(path, sets)
    loaded = load_intent_sets(path)
    assert loaded["q1"]["reformulation"] == sets[0]
    assert loaded["q1"]["click_title"] == sets[1]


# -- the per-row reader and miner the count-summing ones replaced, kept as
# oracles: every line split and converted, every row tokenized and matched,
# weights summed as floats row by row


def oracle_read(path: str, n_columns: int) -> list[tuple]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != n_columns:
                raise ValueError(f"{path}:{lineno}: expected {n_columns} tab-separated columns, got {len(cols)}")
            try:
                count = int(cols[-1])
                if count < 1:
                    raise ValueError(f"frequency must be >= 1, got {count}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rows.append((*cols[:-1], count))
    return rows


def oracle_reformulation(query_tokens, row):
    tokens = tokenize(row[1])
    return " ".join(tokens) if len(tokens) > len(query_tokens) and contains_query(query_tokens, tokens) else ""


def oracle_click_title(query_tokens, row):
    return normalize_phrase(strip_site_suffix(row[2]))


def oracle_mine(rows, source, intent, min_freq, query_ids):
    parsed, weights = {}, {}
    for row in rows:
        query, count = row[0], row[-1]
        if count < 1:
            raise ValueError(f"{source} frequency must be >= 1, got {count}")
        if query not in parsed:
            tokens = tokenize(query)
            parsed[query] = (" ".join(tokens), tokens)
        q_norm, q_tokens = parsed[query]
        text = intent(q_tokens, row) if q_norm else ""
        if text:
            bucket = weights.setdefault(q_norm, {})
            bucket[text] = bucket.get(text, 0.0) + float(count)
    out = {}
    for q_norm, bucket in weights.items():
        items = tuple((text, w) for text, w in bucket.items() if w >= min_freq)
        if not items:
            continue
        if query_ids is None:
            key = query_id = q_norm
        elif q_norm in query_ids:
            key = query_id = query_ids[q_norm]
        else:
            continue
        out[key] = IntentSet(query_id=query_id, source=source, items=items)
    return out


SOURCES = {  # source: (columns, reader, miner, oracle intent)
    "reformulation": (3, read_reformulations_tsv, intents_from_reformulations, oracle_reformulation),
    "click_title": (4, read_click_titles_tsv, intents_from_click_titles, oracle_click_title),
}

WORDS = ("jaguar", "car", "cars", "art", "cartoon", "red", "fox", "the", "")


def _variant(text: str, case: int) -> str:
    """Same tokens after normalization, another surface form."""
    return (text, text.upper(), text.title(), f" {text}!", text.replace(" ", "  "))[case]


@st.composite
def tsv_lines(draw, source: str) -> list[str]:
    """Rows over a few words, each drawn again in case variants and as
    duplicates, with blank lines between them."""
    phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    queries = draw(st.lists(phrase, min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        query = draw(st.sampled_from(queries))
        if source == "reformulation":
            extra = draw(phrase)
            text = draw(st.sampled_from((query, f"{query} {extra}", f"{extra} {query}", extra)))
            row = [query, text]
        else:
            title = draw(st.sampled_from((f"{query} {draw(phrase)}", draw(phrase), "!!")))
            suffix = draw(st.sampled_from(("", " - Site", " | Site", " - Wiki | Daily")))
            row = [query, f"http://{draw(st.integers(0, 2))}.example", title + suffix]
        rows.append(row + [str(draw(st.integers(1, 5)))])
    lines = []
    for _ in range(draw(st.integers(1, 40))):
        query, *rest = draw(st.sampled_from(rows))
        lines.append("\t".join([_variant(query, draw(st.integers(0, 4))), *rest]))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    return lines


def _write(directory: str, lines: list[str]) -> str:
    path = os.path.join(directory, "rows.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("source", SOURCES)
@settings(max_examples=100)
@given(data=st.data())
def test_count_summing_reader_and_miner_equal_the_oracle(source, data):
    lines = data.draw(tsv_lines(source))
    min_freq = data.draw(st.integers(1, 6))
    columns, read, mine, oracle_intent = SOURCES[source]
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, lines)
        oracle_rows = oracle_read(path, columns)
        query_ids = data.draw(st.none() | st.just({normalize_phrase(r[0]): f"id-{r[0]}" for r in oracle_rows[::2]}))
        expected = oracle_mine(oracle_rows, source, oracle_intent, min_freq, query_ids)
        assert mine(read(path), min_freq=min_freq, query_ids=query_ids) == expected


# (case, the bad line made from a good line's columns)
MUTATIONS = [
    ("too_few_columns", lambda cols: "\t".join(cols[1:])),
    ("too_many_columns", lambda cols: "\t".join(cols[:-1] + ["extra", cols[-1]])),
    ("trailing_tab", lambda cols: "\t".join(cols) + "\t"),
    ("no_tab", lambda cols: " ".join(cols)),
    ("frequency_zero", lambda cols: "\t".join(cols[:-1] + ["0"])),
    ("frequency_negative", lambda cols: "\t".join(cols[:-1] + ["-3"])),
    ("frequency_fraction", lambda cols: "\t".join(cols[:-1] + ["4.5"])),
    ("frequency_word", lambda cols: "\t".join(cols[:-1] + ["five"])),
]

GOOD_LINES = {
    "reformulation": ["jaguar\tjaguar car\t3", "", "Jaguar\tjaguar cars\t2", "jaguar\tjaguar car\t1"],
    "click_title": ["jaguar\thttp://a\tJaguar Cars - Site\t3", "", "jaguar\thttp://b\tcars\t2", "jaguar\thttp://a\tJaguar Cars - Site\t1"],
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seen", [True, False], ids=["seen_columns", "new_columns"])
@pytest.mark.parametrize("case,mutate", MUTATIONS, ids=[case for case, _ in MUTATIONS])
def test_bad_line_fails_as_the_oracle_does(tmp_path, source, seen, case, mutate):
    """A bad line after good ones, whose leading columns an earlier line
    has (so the count-summing reader does not split it) or not: the same
    path:line message from both readers."""
    lines = list(GOOD_LINES[source])
    cols = lines[0].split("\t") if seen else ["other", *lines[0].split("\t")[1:]]
    lines.insert(3, mutate(cols))
    path = _write(str(tmp_path), lines)
    columns, read, _, _ = SOURCES[source]
    with pytest.raises(ValueError) as expected:
        oracle_read(path, columns)
    with pytest.raises(ValueError) as got:
        read(path)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"{path}:4: ")
