import pytest

from clarikit import dataio
from clarikit.core import CandidateAnswer, ClarificationPane, ImpressionRecord, Query


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
    assert dataio.load_impressions(path) == log


def test_writes_are_byte_deterministic(sample):
    tmp, queries, _, _ = sample
    a, b = str(tmp / "a.jsonl"), str(tmp / "b.jsonl")
    dataio.save_queries(a, queries)
    dataio.save_queries(b, queries)
    assert open(a, "rb").read() == open(b, "rb").read()


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
