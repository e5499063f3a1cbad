import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from clarikit import dataio
from clarikit.core import (
    AMBIGUITY_CLASSES,
    MAX_ANSWERS,
    MIN_ANSWERS,
    TEMPLATE_IDS,
    TRAFFIC_CLASSES,
    CandidateAnswer,
    ClarificationPane,
    ImpressionLog,
    ImpressionRecord,
    PaneLabels,
    Query,
)


@pytest.fixture
def sample(tmp_path):
    queries = [
        Query("q1", "jaguar", ambiguity_class="ambiguous", traffic_class="head"),
        Query("q2", "how to fix a flat tire", is_question=True, ambiguity_class="faceted"),
    ]
    panes = [
        ClarificationPane(
            "p1",
            "q1",
            "Which jaguar do you mean?",
            (CandidateAnswer("the car", 1), CandidateAnswer("the animal", 2, entity_type="animal")),
            template_id="T2",
        )
    ]
    log = [
        ImpressionRecord("p1", 1700000000, frozenset({2}), (("http://a", 12.5),), ("jaguar car", 30.0)),
        ImpressionRecord("p1", 1700000060),
    ]
    return tmp_path, queries, panes, log


def test_queries_round_trip(sample):
    tmp, queries, _, _ = sample
    path = str(tmp / "queries.jsonl")
    dataio.save_queries(path, queries)
    loaded = dataio.load_queries(path)
    assert list(loaded.values()) == queries


def test_panes_round_trip(sample):
    tmp, _, panes, _ = sample
    path = str(tmp / "panes.jsonl")
    dataio.save_panes(path, panes)
    assert list(dataio.load_panes(path).values()) == panes


def test_impressions_round_trip(sample):
    tmp, _, _, log = sample
    path = str(tmp / "impressions.jsonl")
    dataio.save_impressions(path, log)
    assert list(dataio.load_impressions(path)) == log


def test_writes_are_byte_deterministic(sample):
    tmp, queries, _, _ = sample
    a, b = str(tmp / "a.jsonl"), str(tmp / "b.jsonl")
    dataio.save_queries(a, queries)
    dataio.save_queries(b, queries)
    assert open(a, "rb").read() == open(b, "rb").read()


def _answers(*texts):
    return [{"text": text, "position": i + 1} for i, text in enumerate(texts)]


@pytest.mark.parametrize("fields,violation", [
    ({"answers": _answers("a")}, "answer count: 1 not in [2, 5]"),
    ({"answers": []}, "answer count: 0 not in [2, 5]"),
    ({"answers": _answers(*"abcdef")}, "answer count: 6 not in [2, 5]"),
    ({"answers": [{"text": "a", "position": 1}, {"text": "b", "position": 3}]}, "contiguity"),
    ({"question_text": " \t"}, "empty text: question"),
    ({"answers": _answers("a", "")}, "empty text: answer at position 2"),
    ({"answers": _answers("a", "\u2003")}, "empty text: answer at position 2"),
    ({"template_id": "T9"}, "template: unknown id 'T9'"),
], ids=["one_answer", "no_answers", "six_answers", "gap", "blank_question", "empty_answer", "blank_answer",
        "template"])
def test_invalid_panes_rejected_on_load(tmp_path, fields, violation):
    """A pane that breaks an invariant fails with its path:line and the
    violation, even when the shape is one a generic record check accepts."""
    import json

    good = {"id": "p1", "query_id": "q1", "question_text": "Which one?", "answers": _answers("a", "b")}
    path = tmp_path / "panes.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "p2", **fields}) + "\n")
    with pytest.raises(ValueError, match=r":2: invalid record: pane 'p2': .*" + re.escape(violation)):
        dataio.load_panes(str(path))


def test_invalid_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "q1", "text": "ok"}\n{broken\n')
    with pytest.raises(ValueError, match=":2:"):
        dataio.load_queries(str(path))


def test_tsv_round_trip(tmp_path):
    path = str(tmp_path / "t.tsv")
    rows = [["a", 1, 0.25], ["b", 2, 2 / 3]]
    dataio.write_tsv(path, ["bucket", "n", "value"], rows)
    header, got = dataio.read_tsv(path)
    assert header == ["bucket", "n", "value"]
    assert float(got[1][2]) == 2 / 3


def test_manifest(tmp_path, sample):
    _, queries, _, _ = sample
    qpath = str(tmp_path / "queries.jsonl")
    dataio.save_queries(qpath, queries)
    mpath = dataio.write_manifest(str(tmp_path), "synth-gen", {"n": 2}, {"queries": qpath}, seed=7)
    import json

    manifest = json.loads(open(mpath).read())
    assert manifest["command"] == "synth-gen"
    assert manifest["seed"] == 7
    assert manifest["inputs"]["queries"] == dataio.file_digest(qpath)


# -- round trips of generated records ------------------------------------------

ids = st.text(min_size=1, max_size=12)
texts = st.text(max_size=20)
# a character str.strip() keeps: whitespace is in the Z and C categories
visible = st.characters(exclude_categories=("Z", "C"))
nonblank_texts = st.builds(lambda before, char, after: before + char + after, texts, visible, texts)
seconds = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
grades = st.sampled_from(("Good", "Fair", "Bad"))

queries = st.builds(
    Query,
    id=ids,
    # a query needs at least one token
    text=st.builds(str.__add__, st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True), texts),
    is_question=st.booleans(),
    ambiguity_class=st.sampled_from(AMBIGUITY_CLASSES),
    traffic_class=st.sampled_from(TRAFFIC_CLASSES),
)


@st.composite
def panes(draw):
    """Valid panes only (see test_invalid_panes_rejected_on_load)."""
    answers = tuple(
        CandidateAnswer(
            text=draw(nonblank_texts),
            position=position,
            render_size=draw(st.floats(min_value=0.01, max_value=1e6)),
            entity_type=draw(st.none() | texts),
        )
        for position in range(1, draw(st.integers(MIN_ANSWERS, MAX_ANSWERS)) + 1)
    )
    return ClarificationPane(
        draw(ids), draw(ids), draw(nonblank_texts), answers, template_id=draw(st.sampled_from(TEMPLATE_IDS))
    )


impressions = st.builds(
    ImpressionRecord,
    pane_id=ids,
    timestamp=st.integers(0, 2**40),
    answer_clicks=st.frozensets(st.integers(1, 5)),
    result_clicks=st.lists(st.tuples(texts, seconds), max_size=3).map(tuple),
    reformulation=st.none() | st.tuples(texts, seconds),
)
labels = st.tuples(ids, ids, st.builds(PaneLabels, overall=grades, landing=st.lists(grades, max_size=5).map(tuple)))


@settings(max_examples=60)
@given(
    st.lists(queries, max_size=4, unique_by=lambda q: q.id),
    st.lists(panes(), max_size=4, unique_by=lambda p: p.id),
    st.lists(impressions, max_size=6),
    st.lists(labels, max_size=4),
)
def test_records_round_trip(query_list, pane_list, log, label_list):
    """Every record type comes back equal from its file: click sets, dwell
    floats and reformulation deltas included."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        dataio.save_queries(path, query_list)
        assert list(dataio.load_queries(path).values()) == query_list
        dataio.save_panes(path, pane_list)
        assert list(dataio.load_panes(path).values()) == pane_list
        dataio.save_impressions(path, log)
        assert list(dataio.load_impressions(path)) == log
        dataio.write_jsonl(path, (
            {"query_id": qid, "pane_id": pid, "overall": lab.overall, "landing": list(lab.landing)}
            for qid, pid, lab in label_list
        ))
        assert dataio.load_labels(path) == label_list


# -- the impression log ------------------------------------------------------------


def _record_line(rec: ImpressionRecord) -> str:
    """The line json.dumps gives an impression's record, as the writers
    format every record."""
    import json

    d = {
        "pane_id": rec.pane_id,
        "timestamp": rec.timestamp,
        "answer_clicks": sorted(rec.answer_clicks),
        "result_clicks": [[url, dwell] for url, dwell in rec.result_clicks],
    }
    if rec.reformulation is not None:
        d["reformulation"] = list(rec.reformulation)
    return json.dumps(d, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


EDGE_RECORDS = {
    "non_ascii": ImpressionRecord(
        "pané ✓", 1, frozenset({2}), (("http://例え.jp/ü?q=\"x\"", 3.5),), ("qué \\ tal\n\t ", 0.25)
    ),
    "position_above_62": ImpressionRecord("p", 2, frozenset({1, 62, 63, 64, 65, 1000})),
    "infinite_dwell": ImpressionRecord("p", 3, frozenset(), (("u", float("inf")), ("u", 0.0), ("v", 1e-300))),
    "nan_dwell_and_delta": ImpressionRecord("p", 4, frozenset(), (("u", float("nan")),), ("t", float("nan"))),
    "non_string_ids": ImpressionRecord("7", -5, frozenset({1}), (("u", 1.0),), ("1 x", 2.0)),
}


@pytest.mark.parametrize("record", EDGE_RECORDS.values(), ids=EDGE_RECORDS)
def test_impression_line_matches_json_dumps(tmp_path, record):
    """save_impressions formats lines from the log's columns, byte for byte
    as json.dumps writes the record, and a loaded log writes the same bytes."""
    path = tmp_path / "impressions.jsonl"
    dataio.save_impressions(str(path), [record, record])
    assert path.read_text(encoding="utf-8") == _record_line(record) * 2
    again = tmp_path / "again.jsonl"
    dataio.save_impressions(str(again), dataio.load_impressions(str(path)))
    assert again.read_bytes() == path.read_bytes()


def test_non_string_url_is_written_but_not_loaded(tmp_path):
    """save_impressions writes a record's result-click URL whatever its
    type, byte for byte as json.dumps does; the loader takes string URLs
    only."""
    record = ImpressionRecord("7", -5, frozenset({1}), ((None, 1.0),), ([1, "x"], 2.0))
    path = tmp_path / "impressions.jsonl"
    dataio.save_impressions(str(path), [record])
    assert path.read_text(encoding="utf-8") == _record_line(record)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: invalid record: result click URL must be a string, got null$"):
        dataio.load_impressions(str(path))


def test_non_string_pane_id_is_written_but_not_loaded(tmp_path):
    """save_impressions writes a record's pane id whatever its type, byte
    for byte as json.dumps does; the loader takes string pane ids only, on
    the columnar path too (the line is otherwise canonical)."""
    record = ImpressionRecord(7, -5, frozenset({1}), (("u", 1.0),), ([1, "x"], 2.0))
    path = tmp_path / "impressions.jsonl"
    dataio.save_impressions(str(path), [ImpressionRecord("p", 1), record])
    assert path.read_text(encoding="utf-8").splitlines(keepends=True)[1] == _record_line(record)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: invalid record: pane_id must be a string, got 7$"):
        dataio.load_impressions(str(path))


def test_non_canonical_lines_load_as_their_records(tmp_path):
    """Valid lines a written log never holds (unsorted or repeated clicks,
    missing optional keys, an empty or null reformulation, integer dwells,
    spaces around the value) load as the log they stand for, in a file of
    several chunks whose other chunks hold written lines."""
    import json

    canonical = [
        {"pane_id": f"p{i % 3}", "timestamp": i, "answer_clicks": [1, 3]}
        for i in range(2 * dataio.IMPRESSION_CHUNK_LINES)
    ]
    odd = [
        {"pane_id": "p9", "timestamp": 19, "answer_clicks": [3, 1, 3]},
        {"pane_id": "p1", "timestamp": 12, "result_clicks": [["u", 2], ["v", 7.5]], "reformulation": ""},
        {"pane_id": "p2", "timestamp": 2, "answer_clicks": [2, 2], "reformulation": None},
        {"pane_id": "p0", "timestamp": 3, "reformulation": [], "result_clicks": []},
    ]
    lines = [json.dumps(row) for row in canonical[:5] + odd + canonical[5:]]
    lines[7] = f" \t{lines[7]}  "
    path = tmp_path / "impressions.jsonl"
    path.write_text("\n".join(lines) + "\n")
    expected = [ImpressionRecord(row["pane_id"], row["timestamp"], frozenset({1, 3})) for row in canonical]
    expected[5:5] = [
        ImpressionRecord("p9", 19, frozenset({1, 3})),
        ImpressionRecord("p1", 12, frozenset(), (("u", 2.0), ("v", 7.5))),
        ImpressionRecord("p2", 2, frozenset({2})),
        ImpressionRecord("p0", 3),
    ]
    log = dataio.load_impressions(str(path))
    assert log == ImpressionLog.of(expected)
    assert log.click_positions[log.click_offsets[5]:log.click_offsets[9]].tolist() == [1, 3, 2]
    assert log.pane_ids == ("p0", "p1", "p2", "p9")


@pytest.mark.parametrize("field,value,message", [
    ("answer_clicks", {}, "answer_clicks must be a list of integers, got {}"),
    ("answer_clicks", "", 'answer_clicks must be a list of integers, got ""'),
    ("result_clicks", {}, "result_clicks must be a list, got {}"),
    ("reformulation", 0, "reformulation must be a [text, delta] pair, null or empty, got 0"),
    ("reformulation", False, "reformulation must be a [text, delta] pair, null or empty, got false"),
    ("reformulation", {}, "reformulation must be a [text, delta] pair, null or empty, got {}"),
], ids=["clicks_object", "clicks_string", "results_object", "reformulation_zero", "reformulation_false",
        "reformulation_object"])
def test_empty_values_of_another_type_are_rejected(tmp_path, field, value, message):
    """An empty or false value of the wrong JSON type fails naming its
    field; it is not read as a missing one."""
    import json

    path = tmp_path / "impressions.jsonl"
    rows = [{"pane_id": "p", "timestamp": 1}, {"pane_id": "p", "timestamp": 2, field: value}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: invalid record: {message}')}$"):
        dataio.load_impressions(str(path))


def test_chunk_size_does_not_change_what_loads(tmp_path, monkeypatch):
    """A file loads to equal logs whatever IMPRESSION_CHUNK_LINES is, and a
    file with one bad line fails at the same path:line with the same
    message, whether that line is in the 42nd chunk, the 6th or the first."""
    import json

    rows = [
        {"pane_id": f"p{i % 5}", "timestamp": i, "answer_clicks": [1 + i % 4, 1][: 1 + i % 2],
         "result_clicks": [[f"u{i}", i / 4]] * (i % 3), **({"reformulation": ["again", 1.5]} if i % 4 == 0 else {})}
        for i in range(60)
    ]
    lines = [json.dumps(row) for row in rows]
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text("\n".join(lines) + "\n")
    bad_line = '{"pane_id": "p", "timestamp": 1, "result_clicks": [["u", 1.0], ["v", "2"]]}'
    bad.write_text("\n".join(lines[:40] + ["", bad_line] + lines[40:]) + "\n")
    logs, errors = [], []
    for size in (1, 7, 4096):
        monkeypatch.setattr(dataio, "IMPRESSION_CHUNK_LINES", size)
        logs.append(dataio.load_impressions(str(good)))
        with pytest.raises(ValueError) as error:
            dataio.load_impressions(str(bad))
        errors.append(str(error.value))
    assert logs[0] == logs[1] == logs[2] and len(logs[0]) == 60
    assert errors == [f'{bad}:42: invalid record: result click dwell must be a number >= 0 or NaN, got "2"'] * 3


def test_impression_log_views(tmp_path):
    records = [
        ImpressionRecord("a", 5, frozenset({2, 1}), (("u", 1.0), ("v", 2.0))),
        ImpressionRecord("b", 6, reformulation=("again", 3.0)),
        ImpressionRecord("a", 7),
    ]
    log = ImpressionLog.of(records)
    assert len(log) == 3 and list(log) == records
    assert log.pane_ids == ("a", "b") and log.pane_index.tolist() == [0, 1, 0]
    assert log.click_offsets.tolist() == [0, 2, 2, 2] and log.click_positions.tolist() == [1, 2]
    assert log.rows(log.result_offsets).tolist() == [0, 0]
    assert log.rows(log.reformulation_offsets).tolist() == [1]
    assert ImpressionLog.concat([ImpressionLog.of(records[:1]), ImpressionLog.of(records[1:])]) == log
    assert ImpressionLog.of([]) == ImpressionLog.concat([]) and len(ImpressionLog.of([])) == 0
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n \n")
    assert dataio.load_impressions(str(empty)) == ImpressionLog.of([])


@pytest.mark.parametrize("loader,records", [
    (dataio.load_queries, [{"id": "q1", "text": "a"}, {"id": "q2", "text": "b"}, {"id": "q1", "text": "c"}]),
    (dataio.load_panes, [
        {"id": "p1", "query_id": "q1", "question_text": "Which?", "answers": _answers("a", "b")},
        None,
        {"id": "p1", "query_id": "q2", "question_text": "Which?", "answers": _answers("c", "d")},
    ]),
], ids=["queries", "panes"])
def test_duplicate_id_rejected(tmp_path, loader, records):
    """A record whose id an earlier line holds fails; it does not replace
    the earlier record.  None stands for a blank line."""
    import json

    path = tmp_path / "records.jsonl"
    path.write_text("".join(("" if r is None else json.dumps(r)) + "\n" for r in records))
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: invalid record: duplicate id ") + ".*first on line 1"):
        loader(str(path))


@pytest.mark.parametrize("loader", [dataio.load_queries, dataio.load_impressions], ids=["records", "impressions"])
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, loader):
    """The exact line of the first bytes that are not UTF-8, counting lines
    as the text reader does (\n, \r\n and a lone \r end one), also when
    it lies past the first chunk of lines read."""
    path = tmp_path / "records.jsonl"
    for before, line in [
        (b'{"id": "q1", "text": "a"}\n', 2),
        (b"\n" * 5000, 5001),
        (b"\r\n" * 3000 + b"\n" * 500 + b"\r" * 1500, 5001),
    ]:
        path.write_bytes(before + b'{"id": "q\xff"}\n{"id": "\xfe"}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: not UTF-8") + "$"):
            loader(str(path))
