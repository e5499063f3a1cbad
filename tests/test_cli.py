import collections
import dataclasses
import glob
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from clarikit import cli, dataio
from clarikit.cli import main
from clarikit.core import EngagementStats


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small synthetic corpus with swaps, clicks, and events."""
    out = tmp_path_factory.mktemp("corpus")
    config = {
        "n_queries": 30,
        "panes_per_query": 2,
        "swap_fraction": 0.5,
        "n_per_pane": 60,
        "reformulation_rate": 0.2,
        "result_click_rate": 0.3,
        "user_model": {"kind": "examination"},
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))
    code = run_cli("synth-gen", "--out", out / "data", "--config", config_path, "--seed", 7)
    assert code == 0
    return str(out / "data")


def corpus_files(corpus_dir):
    return {
        "queries": os.path.join(corpus_dir, "queries.jsonl"),
        "panes": os.path.join(corpus_dir, "panes.jsonl"),
        "impressions": os.path.join(corpus_dir, "impressions.jsonl"),
        "intents": os.path.join(corpus_dir, "intents.jsonl"),
        "lexicon": os.path.join(corpus_dir, "entity_lexicon.tsv"),
    }


class TestSynthGen:
    def test_outputs_exist_with_manifest(self, corpus_dir):
        for name in ("queries.jsonl", "panes.jsonl", "impressions.jsonl", "intents.jsonl",
                     "ground_truth.jsonl", "entity_lexicon.tsv", "manifest.json"):
            assert os.path.exists(os.path.join(corpus_dir, name)), name
        manifest = json.load(open(os.path.join(corpus_dir, "manifest.json")))
        assert manifest["command"] == "synth-gen"
        assert manifest["seed"] == 7
        assert manifest["config"]["n_queries"] == 30

    def test_byte_identical_rerun(self, corpus_dir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_queries": 10, "swap_fraction": 1.0, "n_per_pane": 20}))
        for sub in ("a", "b"):
            assert run_cli("synth-gen", "--out", tmp_path / sub, "--config", config_path, "--seed", 3) == 0
        for name in ("queries.jsonl", "panes.jsonl", "impressions.jsonl", "manifest.json"):
            a = open(tmp_path / "a" / name, "rb").read()
            b = open(tmp_path / "b" / name, "rb").read()
            assert a == b, name

    def test_flag_overrides_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_queries": 5}))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path,
                       "--seed", 1, "--n-queries", 8) == 0
        queries = dataio.load_queries(str(tmp_path / "o" / "queries.jsonl"))
        assert len(queries) == 8

    def test_invalid_config_exits_one(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"swap_fraction": 1.7}))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 1

    def test_unknown_config_key_exits_one(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"swap_fractions": 0.5}))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 1

    @pytest.mark.parametrize("value", [2.7, True, "3"], ids=["fraction", "bool", "string"])
    def test_int_key_rejects_a_non_integer(self, tmp_path, capsys, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_queries": value}))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 1
        err = capsys.readouterr().err
        assert f"{config_path}: config key 'n_queries' expects an integer, got {json.dumps(value)}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_float_key_rejects_a_non_finite_number(self, tmp_path, capsys, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"question_fraction": value}))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 1
        err = capsys.readouterr().err
        assert f"{config_path}: config key 'question_fraction' expects a finite number, got {json.dumps(value)}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_float_flag_rejects_a_non_finite_number(self, tmp_path, capsys, value):
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--seed", 1, f"--question-fraction={value}") == 1
        assert "--question-fraction expects a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_records_config_values_as_run(self, tmp_path):
        """An integral float for an int key runs and is recorded as an int,
        an int for a float key as a float."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_queries": 3.0, "swap_fraction": 1, "n_per_pane": 2}))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 0
        assert len(dataio.load_queries(str(tmp_path / "o" / "queries.jsonl"))) == 3
        config = json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]
        assert (type(config["n_queries"]), type(config["swap_fraction"])) == (int, float)

    @pytest.mark.parametrize("values,message", [
        ({"relevance": 5}, "{config}: relevance must be a list"),
        ({"user_model": {"kind": "cascade", "foo": 1}}, "{config}: unknown user_model keys ['foo']"),
        ({"user_model": "cascade"}, "{config}: user_model must be a JSON object with a kind"),
        ({"cell_plan": [[2.5, 1, 3]]}, "{config}: cell plan row (2.5, 1, 3) must be 3 integers"),
        ({"answer_count_weights": 5}, "{config}: answer_count_weights must be 4 finite non-negative numbers"),
        ({"cell_plan": 7}, "{config}: cell_plan must be null or a non-empty list of rows"),
        ({"cell_plan": []}, "{config}: cell_plan must be null or a non-empty list of rows"),
        ({"user_model": {"kind": "examination", "exam_probs": 3}}, "{config}: exam_probs: "),
        ({"user_model": {"exam_probs": [1.0]}}, "{config}: user_model must be a JSON object with a kind"),
    ], ids=["relevance", "user_model", "user_model_string", "cell_plan_float", "answer_count_weights_number",
            "cell_plan_number", "cell_plan_empty", "exam_probs_number", "user_model_without_kind"])
    def test_malformed_structured_key_exits_one(self, tmp_path, capsys, values, message):
        """A malformed structured key exits 1 with a message naming the
        config file and the key; an empty cell plan is malformed, as null is
        the only way to give no plan."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dict(values, n_per_pane=2)))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 1
        err = capsys.readouterr().err
        assert message.format(config=config_path) in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("values,message", [
        ({"answer_count_weights": [True, 0, 0, 0]}, "answer_count_weights must be 4 finite non-negative numbers"),
        ({"user_model": {"kind": "examination", "exam_probs": [True, 0.5, 0.5, 0.5, 0.5]}},
         "examination probabilities must be numbers in [0, 1]"),
        ({"relevance": ["uniform", 0.1, float("inf")]}, "relevance scheme 'uniform' takes 2 finite numbers"),
    ], ids=["answer_count_weights", "exam_probs", "relevance"])
    def test_bool_or_non_finite_inside_a_structured_key_exits_one(self, tmp_path, capsys, values, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(values))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("question_fraction", 7.5, "question_fraction 7.5 not in [0, 1]"),
        ("question_fraction", -0.5, "question_fraction -0.5 not in [0, 1]"),
        ("intents_per_query", 0, "intents_per_query 0 not in [1, 16]"),
        ("intents_per_query", 17, "intents_per_query 17 not in [1, 16]"),
    ], ids=["question_fraction_above", "question_fraction_below", "intents_zero", "intents_past_the_facets"])
    def test_out_of_range_key_exits_one(self, tmp_path, capsys, key, value, message):
        """From the config file or from its flag, a value outside the key's
        domain exits 1 naming the key, with nothing under --out."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value, "n_queries": 2, "n_per_pane": 1}))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 1
        assert f"{config_path}: {message}" in capsys.readouterr().err
        flag = "--" + key.replace("_", "-")
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--seed", 1, "--n-queries", 2, f"{flag}={value}") == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("values", [{"question_fraction": 1.0, "intents_per_query": 16},
                                        {"question_fraction": 0.0, "intents_per_query": 1}], ids=["upper", "lower"])
    def test_domain_bounds_are_accepted(self, tmp_path, values):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dict(values, n_queries=3, n_per_pane=1)))
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--config", config_path, "--seed", 1) == 0
        queries = dataio.load_queries(str(tmp_path / "o" / "queries.jsonl"))
        assert {q.is_question for q in queries.values()} == {bool(values["question_fraction"])}
        sets = [json.loads(line) for line in open(tmp_path / "o" / "intents.jsonl")]
        assert {len(s["items"]) for s in sets if s["source"] == "reformulation"} == {values["intents_per_query"]}


class TestAnalyze:
    def test_reports_written(self, corpus_dir, tmp_path):
        files = corpus_files(corpus_dir)
        code = run_cli("analyze", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", files["panes"], "--impressions", files["impressions"])
        assert code == 0
        for name in ("breakdown_template.tsv", "breakdown_answer_count.tsv", "breakdown_query_type.tsv",
                     "summary.tsv", "manifest.json"):
            assert os.path.exists(tmp_path / "r" / name), name
        header, rows = dataio.read_tsv(str(tmp_path / "r" / "breakdown_answer_count.tsv"))
        assert header[:3] == ["bucket", "impressions", "relative_engagement"]
        weighted = sum(int(r[1]) * float(r[2]) for r in rows)
        total = sum(int(r[1]) for r in rows)
        assert abs(weighted / total - 1.0) < 1e-9
        # bucket totals reconcile with the generator's books: every pane got
        # exactly n_per_pane impressions
        panes = dataio.load_panes(files["panes"])
        assert total == 60 * len(panes)
        by_count = {}
        for pane in panes.values():
            by_count[str(pane.answer_count)] = by_count.get(str(pane.answer_count), 0) + 60
        assert {r[0]: int(r[1]) for r in rows} == by_count

    def test_no_answer_click_writes_no_breakdown(self, tmp_path):
        """A log without an answer click: no breakdown is defined, so none is
        written, and the summary still is."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"user_model": {"kind": "examination", "exam_probs": [0, 0, 0, 0, 0]}}))
        assert run_cli("synth-gen", "--out", tmp_path / "data", "--config", config, "--seed", 1,
                       "--n-queries", 6, "--n-per-pane", 12) == 0
        files = corpus_files(str(tmp_path / "data"))
        assert run_cli("analyze", "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
                       "--impressions", files["impressions"]) == 0
        assert not glob.glob(str(tmp_path / "r" / "breakdown_*"))
        assert (tmp_path / "r" / "summary.tsv").exists()

    def test_missing_input_exits_one(self, corpus_dir, tmp_path):
        files = corpus_files(corpus_dir)
        code = run_cli("analyze", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", files["panes"], "--impressions", "/nonexistent.jsonl")
        assert code == 1
        assert not os.path.exists(tmp_path / "r" / "summary.tsv")

    @pytest.mark.parametrize("name,field,value", [
        ("panes", "answers", 5),
        ("impressions", "answer_clicks", 3),
        ("impressions", "pane_id", None),
    ])
    def test_malformed_record_exits_one_with_file_line(self, corpus_dir, tmp_path, capsys, name, field, value):
        files = corpus_files(corpus_dir)
        lines = open(files[name], encoding="utf-8").read().splitlines()
        record = json.loads(lines[2])
        if value is None:
            del record[field]
        else:
            record[field] = value
        lines[2] = json.dumps(record)
        bad = tmp_path / f"{name}.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        files[name] = str(bad)
        code = run_cli("analyze", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", files["panes"], "--impressions", files["impressions"])
        assert code == 1
        assert f"{bad}:3:" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


    @pytest.mark.parametrize("answers", [6, 0], ids=["six_answers", "no_answers"])
    def test_invalid_pane_exits_one_with_file_line(self, corpus_dir, tmp_path, capsys, answers):
        files = corpus_files(corpus_dir)
        lines = open(files["panes"], encoding="utf-8").read().splitlines()
        record = json.loads(lines[2])
        record["answers"] = [{"text": f"answer {i}", "position": i + 1} for i in range(answers)]
        lines[2] = json.dumps(record)
        bad = tmp_path / "panes.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("analyze", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", bad, "--impressions", files["impressions"])
        assert code == 1
        assert f"{bad}:3: invalid record: pane {record['id']!r}: answer count: {answers} not in [2, 5]" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

class TestBias:
    def test_full_report(self, corpus_dir, tmp_path):
        files = corpus_files(corpus_dir)
        code = run_cli("bias", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", files["panes"], "--impressions", files["impressions"],
                       "--folds", 5)
        assert code == 0
        for name in ("scatter.tsv", "above_diagonal.tsv", "logreg_weights.tsv",
                     "cross_entropy.tsv", "scatter_fit.tsv", "manifest.json"):
            assert os.path.exists(tmp_path / "r" / name), name
        header, rows = dataio.read_tsv(str(tmp_path / "r" / "cross_entropy.tsv"))
        models = {r[0] for r in rows}
        assert {"best_possible", "blind", "no_bias", "examination", "cascade", "logistic"} <= models

    @staticmethod
    def swap_corpus(tmp_path, config: dict) -> list:
        config_path = tmp_path / "synth.json"
        config_path.write_text(json.dumps({"n_per_pane": 50, **config}))
        assert run_cli("synth-gen", "--out", tmp_path / "data", "--config", config_path, "--seed", 4) == 0
        return [f"--{name}={tmp_path / 'data' / name}.jsonl" for name in ("queries", "panes", "impressions")]

    def test_logreg_weights_list_the_evaluated_folds(self, tmp_path):
        """Twelve queries over ten folds: the two folds without test triples
        are not evaluated, and logreg_weights.tsv lists exactly the folds
        that cross_entropy.tsv counts."""
        from clarikit.tensor.text import fnv1a

        corpus = self.swap_corpus(tmp_path, {"cell_plan": [[3, 1, 6], [3, 2, 6]], "n_queries": 0})
        assert run_cli("bias", "--out", tmp_path / "r", *corpus, "--folds", 10) == 0
        queries = dataio.load_queries(str(tmp_path / "data" / "queries.jsonl"))
        evaluated = sorted({fnv1a(query_id) % 10 for query_id in queries})
        assert len(evaluated) == 8
        _, weight_rows = dataio.read_tsv(str(tmp_path / "r" / "logreg_weights.tsv"))
        for label in ("L", "R"):
            folds = [row[1] for row in weight_rows if row[0] == label and row[2] == "intercept"]
            assert folds == [str(fold) for fold in evaluated] + ["mean"]
        _, ce_rows = dataio.read_tsv(str(tmp_path / "r" / "cross_entropy.tsv"))
        assert {row[4] for row in ce_rows if row[1] == "overall"} == {str(len(evaluated))}

    def test_no_evaluable_fold_exits_one(self, tmp_path, capsys):
        # one query: all its triples share a fold, which has no training triples
        corpus = self.swap_corpus(tmp_path, {"n_queries": 1, "panes_per_query": 3, "swap_fraction": 1.0})
        assert run_cli("bias", "--out", tmp_path / "r", *corpus, "--folds", 3) == 1
        assert "no fold has both training and test triples" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_exit_one(self, corpus_dir, tmp_path, capsys, folds):
        files = corpus_files(corpus_dir)
        assert run_cli("bias", "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
                       "--impressions", files["impressions"], "--folds", folds) == 1
        assert f"cross-validation needs at least 2 folds, got {folds}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key,value", [("logreg_tol", 1e-10), ("logreg_max_iter", 100000)])
    def test_solver_keys_are_unknown(self, corpus_dir, tmp_path, key, value):
        files = corpus_files(corpus_dir)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}))
        code = run_cli("bias", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", files["panes"], "--impressions", files["impressions"],
                       "--config", config_path)
        assert code == 1
        assert not (tmp_path / "r").exists()


class TestIntents:
    def test_build_from_tsv(self, tmp_path):
        reform = tmp_path / "reform.tsv"
        reform.write_text("jaguar\tjaguar car\t5\njaguar\tjaguar animal\t3\njaguar\tleopard\t9\n")
        titles = tmp_path / "titles.tsv"
        titles.write_text("jaguar\thttp://a\tJaguar Cars - Site\t4\n")
        code = run_cli("intents", "--out", tmp_path / "r", "--reformulations", reform,
                       "--click-titles", titles, "--min-freq", 2)
        assert code == 0
        from clarikit.intents import load_intent_sets

        sets = load_intent_sets(str(tmp_path / "r" / "intents.jsonl"))
        assert sets["jaguar"]["reformulation"].items == (("jaguar car", 5.0), ("jaguar animal", 3.0))
        assert sets["jaguar"]["click_title"].items == (("jaguar cars", 4.0),)

    def test_requires_some_input(self, tmp_path):
        assert run_cli("intents", "--out", tmp_path / "r") == 1


@pytest.mark.parametrize("flag,row", [
    ("--history", "q000001\thttp://a\tmany"),
    ("--reformulations", "jaguar\tjaguar car\tfive"),
    ("--click-titles", "jaguar\thttp://a\tJaguar Cars\t4.5"),
    ("--reformulations", "jaguar\tjaguar car\t0"),
    ("--click-titles", "jaguar\thttp://a\tJaguar Cars\t0"),
])
def test_non_integer_count_exits_one_with_file_line(corpus_dir, tmp_path, capsys, flag, row):
    bad = tmp_path / "counts.tsv"
    bad.write_text(row + "\n")
    if flag == "--history":
        files = corpus_files(corpus_dir)
        command = ["analyze", "--queries", files["queries"], "--panes", files["panes"],
                   "--impressions", files["impressions"]]
    else:
        command = ["intents"]
    assert run_cli(*command, "--out", tmp_path / "r", flag, bad) == 1
    assert f"{bad}:1:" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.fixture(scope="module")
def trained_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    files = corpus_files(corpus_dir)
    code = run_cli("train-rlc", "--out", out / "rlc", "--queries", files["queries"],
                   "--panes", files["panes"], "--impressions", files["impressions"],
                   "--intents", files["intents"], "--lexicon", files["lexicon"],
                   "--dim", 16, "--hash-buckets", 256, "--steps", 30,
                   "--lr", "0.001", "--warmup-steps", 10, "--total-steps", 1000,
                   "--min-impressions", 10, "--seed", 5)
    assert code == 0
    code = run_cli("train-ranker", "--out", out / "ranker", "--queries", files["queries"],
                   "--panes", files["panes"], "--impressions", files["impressions"],
                   "--trees", 20, "--depth", 2, "--seed", 5)
    assert code == 0
    return str(out)


class TestTraining:
    def test_rlc_outputs(self, trained_dir):
        assert os.path.exists(os.path.join(trained_dir, "rlc", "rlc_model.json"))
        header, rows = dataio.read_tsv(os.path.join(trained_dir, "rlc", "loss.tsv"))
        assert header == ["step", "loss"]
        assert len(rows) == 30

    def test_ranker_outputs(self, trained_dir):
        from clarikit.ranker import BoostedEnsemble

        ensemble = BoostedEnsemble.load(os.path.join(trained_dir, "ranker", "ensemble.json"))
        assert len(ensemble.trees) == 20

    def test_fine_tune(self, corpus_dir, trained_dir, tmp_path):
        files = corpus_files(corpus_dir)
        panes = dataio.load_panes(files["panes"])
        by_query = {}
        for pane in panes.values():
            by_query.setdefault(pane.query_id, []).append(pane.id)
        labels = []
        for query_id, pane_ids in sorted(by_query.items())[:4]:
            for i, pane_id in enumerate(sorted(pane_ids)):
                labels.append({"query_id": query_id, "pane_id": pane_id,
                               "overall": "Good" if i == 0 else "Bad", "landing": []})
        labels_path = tmp_path / "labels.jsonl"
        labels_path.write_text("\n".join(json.dumps(l) for l in labels) + "\n")
        code = run_cli("fine-tune-rlc", "--out", tmp_path / "ft", "--queries", files["queries"],
                       "--panes", files["panes"], "--labels", labels_path,
                       "--model", os.path.join(trained_dir, "rlc", "rlc_model.json"),
                       "--steps", 10, "--lr", "0.0001", "--warmup-steps", 5,
                       "--total-steps", 100, "--panes-per-query", 4, "--seed", 2)
        assert code == 0
        assert os.path.exists(tmp_path / "ft" / "rlc_model.json")


    @pytest.mark.parametrize("command", ["train-rlc", "fine-tune-rlc"])
    def test_steps_below_warmup_exit_one(self, command, corpus_dir, trained_dir, tmp_path, capsys):
        files = corpus_files(corpus_dir)
        if command == "train-rlc":
            extra = ["--impressions", files["impressions"]]
        else:
            labels_path = tmp_path / "labels.jsonl"
            labels_path.write_text("")
            extra = ["--model", os.path.join(trained_dir, "rlc", "rlc_model.json"), "--labels", labels_path]
        code = run_cli(command, "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
                       *extra, "--steps", 20, "--warmup-steps", 30)
        assert code == 1
        err = capsys.readouterr().err
        assert "steps (20)" in err and "warmup_steps (30)" in err
        assert not (tmp_path / "r").exists()

    def test_default_schedules_are_coherent(self):
        from clarikit.cli import FINE_TUNE_DEFAULTS, TRAIN_RLC_DEFAULTS, _adam_config

        for defaults in (TRAIN_RLC_DEFAULTS, FINE_TUNE_DEFAULTS):
            assert _adam_config(defaults).warmup_steps <= defaults["steps"]


class TestRankAndEval:
    def test_version_1_model_exits_one(self, corpus_dir, tmp_path, capsys):
        files = corpus_files(corpus_dir)
        model = tmp_path / "v1.json"
        model.write_text('{"config":{},"format":"clarikit-tensors","format_version":1,"tensors":{}}\n')
        code = run_cli("rank", "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
                       "--rlc-model", model)
        assert code == 1
        assert f"{model}: unsupported format version 1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_rank_single_pane_query(self, corpus_dir, tmp_path):
        files = corpus_files(corpus_dir)
        queries = dataio.load_queries(files["queries"])
        panes = dataio.load_panes(files["panes"])
        by_query = {}
        for pane in panes.values():
            by_query.setdefault(pane.query_id, []).append(pane)
        single = next(qid for qid, ps in sorted(by_query.items()) if len(ps) >= 1)
        code = run_cli("rank", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", files["panes"], "--query-id", single)
        assert code == 0
        header, rows = dataio.read_tsv(str(tmp_path / "r" / "ranked.tsv"))
        assert rows[0][0] == single and rows[0][1] == "1"

    def test_rank_with_ensemble_deterministic(self, corpus_dir, trained_dir, tmp_path):
        files = corpus_files(corpus_dir)
        ensemble = os.path.join(trained_dir, "ranker", "ensemble.json")
        for sub in ("a", "b"):
            assert run_cli("rank", "--out", tmp_path / sub, "--queries", files["queries"],
                           "--panes", files["panes"], "--ensemble", ensemble) == 0
        assert (open(tmp_path / "a" / "ranked.tsv", "rb").read()
                == open(tmp_path / "b" / "ranked.tsv", "rb").read())

    def test_eval_engagement(self, corpus_dir, trained_dir, tmp_path):
        files = corpus_files(corpus_dir)
        code = run_cli("eval", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", files["panes"], "--impressions", files["impressions"],
                       "--ensemble", os.path.join(trained_dir, "ranker", "ensemble.json"),
                       "--seed", 1)
        assert code == 0
        header, rows = dataio.read_tsv(str(tmp_path / "r" / "eval.tsv"))
        metrics = {r[0] for r in rows}
        assert "engagement_improvement_pct" in metrics

    def test_eval_scores_each_pane_once(self, corpus_dir, trained_dir, tmp_path, monkeypatch):
        """The engagement and the labelled sets rank the same panes; each
        query's panes are scored in one forward, each pane once, and
        eval.tsv matches a scorer that re-scores."""
        from clarikit import cli, rlc

        files = corpus_files(corpus_dir)
        panes = dataio.load_panes(files["panes"])
        labels_path = tmp_path / "labels.jsonl"
        labels_path.write_text("".join(
            json.dumps({"query_id": p.query_id, "pane_id": p.id, "overall": "Good" if i % 2 else "Bad", "landing": []}) + "\n"
            for i, p in enumerate(sorted(panes.values(), key=lambda p: p.id))
        ))
        argv = ["eval", "--queries", files["queries"], "--panes", files["panes"],
                "--impressions", files["impressions"], "--labels", labels_path,
                "--intents", files["intents"], "--lexicon", files["lexicon"],
                "--rlc-model", os.path.join(trained_dir, "rlc", "rlc_model.json"),
                "--ensemble", os.path.join(trained_dir, "ranker", "ensemble.json"), "--seed", 1]
        forwards = collections.Counter()
        calls = collections.Counter()
        score_tensor = rlc.RlcModel.score_tensor

        def counted(model, query, batch, *args):
            forwards[query.id] += 1
            calls.update((query.id, pane.id) for pane in batch)
            return score_tensor(model, query, batch, *args)

        monkeypatch.setattr(rlc.RlcModel, "score_tensor", counted)
        assert run_cli(*argv, "--out", tmp_path / "once") == 0
        assert set(calls) == {(p.query_id, p.id) for p in panes.values()}
        assert set(calls.values()) == {1}
        assert set(forwards.values()) == {1}

        scorer_calls = collections.Counter()

        def rescoring(model, intent_sets, lexicon, panes_by_query):
            def scorer(query, pane):
                scorer_calls[(query.id, pane.id)] += 1
                batch = panes_by_query[query.id]
                values = model.score_tensor(query, batch, intent_sets.get(query.id, {}), lexicon).data
                return float(values[[p.id for p in batch].index(pane.id)])

            return scorer

        monkeypatch.setattr(cli, "_rlc_scorer", rescoring)
        assert run_cli(*argv, "--out", tmp_path / "rescored") == 0
        assert max(scorer_calls.values()) == 2
        assert (tmp_path / "once" / "eval.tsv").read_bytes() == (tmp_path / "rescored" / "eval.tsv").read_bytes()

    def test_rank_takes_no_config(self, corpus_dir, tmp_path):
        files = corpus_files(corpus_dir)
        config = tmp_path / "config.json"
        config.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            run_cli("rank", "--out", tmp_path / "r", "--queries", files["queries"],
                    "--panes", files["panes"], "--config", config)
        assert exc.value.code != 0
        assert not (tmp_path / "r").exists()

    def test_eval_requires_some_input(self, corpus_dir, tmp_path):
        files = corpus_files(corpus_dir)
        assert run_cli("eval", "--out", tmp_path / "r", "--queries", files["queries"],
                       "--panes", files["panes"]) == 1


@pytest.mark.parametrize("command,flag,record", [
    ("rank", "--intents", {"query_id": "q000001", "source": "reformulation", "items": 5}),
    ("fine-tune-rlc", "--labels", {"query_id": "q000001", "pane_id": "q000001:p0", "landing": []}),
    ("eval", "--labels", {"query_id": "q000001", "pane_id": "q000001:p0", "landing": []}),
])
def test_malformed_intents_or_labels_exit_one_with_file_line(corpus_dir, trained_dir, tmp_path, capsys,
                                                              command, flag, record):
    files = corpus_files(corpus_dir)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record) + "\n")
    extra = ["--model", os.path.join(trained_dir, "rlc", "rlc_model.json")] if command == "fine-tune-rlc" else []
    code = run_cli(command, "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
                   flag, bad, *extra)
    assert code == 1
    assert f"{bad}:1:" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_unexpected_exception_leaves_no_partial_output(tmp_path, monkeypatch):
    # plot-data writes its table, then the manifest write fails
    def fail(*args, **kwargs):
        raise RuntimeError("manifest write failed")

    monkeypatch.setattr(dataio, "write_manifest", fail)
    source = tmp_path / "table.tsv"
    source.write_text("metric\tvalue\nx\t1\n")
    with pytest.raises(RuntimeError, match="manifest write failed"):
        run_cli("plot-data", "--out", tmp_path / "r", "--input", source)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name", [".", "..", "manifest.json", "../x.tsv", "sub/x.tsv"],
                         ids=["dot", "dot_dot", "manifest", "parent_path", "sub_path"])
def test_plot_data_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    """A table named manifest.json would be overwritten by the manifest, and
    one with a path would be written around the staging directory: both
    exit 1 and leave --out as it was."""
    source = tmp_path / "table.tsv"
    source.write_text("metric\tvalue\nx\t1\n")
    out = tmp_path / "out" / "r"
    assert run_cli("plot-data", "--out", out, "--input", source) == 0
    before = {path: open(path, "rb").read() for path in glob.glob(f"{tmp_path}/**", recursive=True) if os.path.isfile(path)}
    assert run_cli("plot-data", "--out", out, "--input", source, "--name", name) == 1
    err = capsys.readouterr().err
    assert f"--name {name!r}" in err and "Traceback" not in err
    after = {path: open(path, "rb").read() for path in glob.glob(f"{tmp_path}/**", recursive=True) if os.path.isfile(path)}
    assert after == before
    assert sorted(os.listdir(out)) == ["manifest.json", "table.tsv"]


def test_failed_rerun_leaves_the_previous_run_intact(corpus_dir, tmp_path):
    """A rerun into the same --out that fails after writing some artifacts
    (bias writes its scatter and above-diagonal tables before the folds are
    checked) leaves every file of the earlier run as it was."""
    files = corpus_files(corpus_dir)
    argv = ["bias", "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
            "--impressions", files["impressions"]]
    assert run_cli(*argv, "--folds", 3) == 0
    before = {name: (tmp_path / "r" / name).read_bytes() for name in os.listdir(tmp_path / "r")}
    assert run_cli(*argv, "--folds", 1000) == 1
    assert {name: (tmp_path / "r" / name).read_bytes() for name in os.listdir(tmp_path / "r")} == before
    assert json.loads(before["manifest.json"])["config"]["folds"] == 3


def test_failed_run_removes_the_directories_it_created(tmp_path):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "fresh" / "keep.txt").write_text("x")
    for out in (tmp_path / "fresh" / "deep" / "er", tmp_path / "new" / "deep"):
        assert run_cli("bias", "--out", out, "--queries", tmp_path / "missing.jsonl",
                       "--panes", tmp_path / "missing.jsonl", "--impressions", tmp_path / "missing.jsonl") == 1
    assert sorted(os.listdir(tmp_path)) == ["fresh"]
    assert os.listdir(tmp_path / "fresh") == ["keep.txt"]


def test_discard_removes_what_exists_of_the_named_directories(tmp_path):
    """A stop can come while make creates --out: discard removes the part of
    it that exists, and nothing else."""
    outputs = cli.Outputs(str(tmp_path / "a" / "b" / "c"))
    (tmp_path / "a").mkdir()  # make was stopped after its first directory
    (tmp_path / "keep").mkdir()
    outputs.discard()
    assert os.listdir(tmp_path) == ["keep"]


def test_staging_directory_of_a_gone_process_is_removed(tmp_path):
    """A staging directory left by a process that no longer runs (one killed
    by SIGKILL cannot remove its own) is removed by the next command in that
    --out; one of a live process, and one not named by a pid, stay."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    out = tmp_path / "r"
    stale, live, unnamed = out / f".staging-{child.pid}-x1", out / f".staging-{os.getpid()}-x2", out / ".staging-x3"
    for directory in (stale, live, unnamed):
        directory.mkdir(parents=True)
        (directory / "table.tsv").write_text("partial")
    source = tmp_path / "table.tsv"
    source.write_text("metric\tvalue\nx\t1\n")
    assert run_cli("plot-data", "--out", out, "--input", source) == 0
    assert not stale.exists()
    assert live.exists() and unnamed.exists()
    assert (out / "table.tsv").read_text() == source.read_text()


@pytest.mark.parametrize("signum, code", [(signal.SIGTERM, 143), (signal.SIGINT, 130)], ids=["SIGTERM", "SIGINT"])
def test_sigterm_discards_the_staged_outputs(corpus_dir, tmp_path, signum, code):
    """A command stopped by SIGTERM (SIGINT) exits 143 (130) without a
    traceback and removes its staging directory, and the --out it created
    for it."""
    files = corpus_files(corpus_dir)
    out = tmp_path / "o" / "sub"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "clarikit.cli", "train-rlc", "--out", str(out), "--queries", files["queries"],
         "--panes", files["panes"], "--impressions", files["impressions"], "--intents", files["intents"],
         "--lexicon", files["lexicon"], "--dim", "16", "--hash-buckets", "256", "--steps", "100000"],
        # a shell's background job hands its children SIGINT ignored
        env=env, stderr=subprocess.PIPE, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 60
        while not glob.glob(str(out / ".staging-*")) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert glob.glob(str(out / ".staging-*")), "no staging directory appeared"
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == code, err
    assert b"Traceback" not in err
    assert not (tmp_path / "o").exists()


def _swallowing_stop(signum):
    """A plot-data whose command catches whatever raising signum in it
    raises, then writes its table."""
    def func(args, config, out):
        try:
            signal.raise_signal(signum)
        except BaseException:
            pass
        dataio.write_tsv(out.path("table.tsv"), ["metric"], [])

    return dataclasses.replace(cli.COMMANDS["plot-data"], func=func)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_stop_ends_the_process_from_its_handler(tmp_path, capsys, monkeypatch, signum):
    """A stop cannot be lost to a command that catches what it raises: its
    handler ends the process through os._exit(128 + signum), once the
    staging directory and the --out the command created are gone."""
    exits = []

    def exit_(code):
        exits.append((code, os.path.exists(tmp_path / "o")))
        raise SystemExit(code)

    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setitem(cli.COMMANDS, "plot-data", _swallowing_stop(signum))
    source = tmp_path / "table.tsv"
    source.write_text("metric\tvalue\nx\t1\n")
    run_cli("plot-data", "--out", tmp_path / "o" / "sub", "--input", source)
    assert exits == [(128 + signum, False)]
    assert f"{signal.Signals(signum).name}; --out left as it was\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_restores_the_signal_handlers(tmp_path):
    """main leaves the SIGINT and SIGTERM handlers as it found them, after a
    command that succeeded and after one that failed."""
    def handler(signum, frame):
        pass

    previous = {signum: signal.signal(signum, handler) for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        source = tmp_path / "table.tsv"
        source.write_text("metric\tvalue\nx\t1\n")
        assert run_cli("plot-data", "--out", tmp_path / "r", "--input", source) == 0
        assert [signal.getsignal(signum) for signum in previous] == [handler, handler]
        assert run_cli("plot-data", "--out", tmp_path / "r", "--input", tmp_path / "missing.tsv") == 1
        assert [signal.getsignal(signum) for signum in previous] == [handler, handler]
    finally:
        for signum, before in previous.items():
            signal.signal(signum, before)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_an_ignored_stop_signal_stays_ignored(tmp_path, monkeypatch, signum):
    """A process that ignores a stop signal (a shell's background job
    ignores SIGINT) keeps ignoring it while a command runs."""
    monkeypatch.setitem(cli.COMMANDS, "plot-data", _swallowing_stop(signum))
    previous = signal.signal(signum, signal.SIG_IGN)
    try:
        source = tmp_path / "table.tsv"
        source.write_text("metric\tvalue\nx\t1\n")
        assert run_cli("plot-data", "--out", tmp_path / "r", "--input", source) == 0
        assert signal.getsignal(signum) is signal.SIG_IGN
    finally:
        signal.signal(signum, previous)
    assert sorted(os.listdir(tmp_path / "r")) == ["manifest.json", "table.tsv"]


def test_out_holding_another_commands_manifest_is_refused(corpus_dir, tmp_path, capsys):
    """intents into synth-gen's --out would replace its manifest (and its
    intents.jsonl): refused, with the directory untouched."""
    data = tmp_path / "data"
    assert run_cli("synth-gen", "--out", data, "--seed", 1, "--n-queries", 3, "--n-per-pane", 2) == 0
    before = {name: (data / name).read_bytes() for name in os.listdir(data)}
    reform = tmp_path / "reform.tsv"
    reform.write_text("jaguar\tjaguar car\t5\n")
    assert run_cli("intents", "--out", data, "--reformulations", reform) == 1
    assert f"{data / 'manifest.json'}: --out holds the outputs of 'synth-gen'" in capsys.readouterr().err
    assert {name: (data / name).read_bytes() for name in os.listdir(data)} == before


def test_out_holding_a_manifest_nested_too_deep_is_refused(tmp_path, capsys):
    """A manifest.json nested past the JSON decoder's limit is no clarikit
    manifest: refused naming it, no traceback, the directory untouched."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text('{"command": ' + "[" * 5000 + "]" * 5000 + "}")
    before = {name: (data / name).read_bytes() for name in os.listdir(data)}
    reform = tmp_path / "reform.tsv"
    reform.write_text("jaguar\tjaguar car\t5\n")
    assert run_cli("intents", "--out", data, "--reformulations", reform) == 1
    err = capsys.readouterr().err
    assert f"{data / 'manifest.json'}: --out holds a manifest.json that is not a clarikit manifest" in err
    assert "Traceback" not in err
    assert {name: (data / name).read_bytes() for name in os.listdir(data)} == before


@pytest.fixture(scope="module")
def side_files(corpus_dir, trained_dir, tmp_path_factory):
    """Every input file some command takes, by flag."""
    out = tmp_path_factory.mktemp("side")
    files = corpus_files(corpus_dir)
    panes = sorted(dataio.load_panes(files["panes"]).values(), key=lambda p: p.id)
    queries = dataio.load_queries(files["queries"])
    (out / "history.tsv").write_text("".join(f"{p.query_id}\thttp://h/{p.id}\t3\n" for p in panes))
    (out / "labels.jsonl").write_text("".join(
        json.dumps({"query_id": p.query_id, "pane_id": p.id, "overall": "Good" if i % 2 else "Bad", "landing": []}) + "\n"
        for i, p in enumerate(panes)
    ))
    text = queries[panes[0].query_id].text
    (out / "reformulations.tsv").write_text(f"{text}\t{text} one\t3\n")
    (out / "click_titles.tsv").write_text(f"{text}\thttp://a\tOne Title - Site\t4\n")
    (out / "table.tsv").write_text("metric\tvalue\nx\t1\n")
    model = os.path.join(trained_dir, "rlc", "rlc_model.json")
    return {
        "--queries": files["queries"], "--panes": files["panes"], "--impressions": files["impressions"],
        "--intents": files["intents"], "--lexicon": files["lexicon"], "--history": str(out / "history.tsv"),
        "--labels": str(out / "labels.jsonl"), "--reformulations": str(out / "reformulations.tsv"),
        "--click-titles": str(out / "click_titles.tsv"), "--input": str(out / "table.tsv"),
        "--model": model, "--rlc-model": model,
        "--ensemble": os.path.join(trained_dir, "ranker", "ensemble.json"),
    }


CORPUS_FLAGS = ["--queries", "--panes"]
TEXT_FLAGS = ["--intents", "--lexicon"]


PROVENANCE_RUNS = [
    ("synth-gen", [], ["--n-queries", 3, "--n-per-pane", 2]),
    ("analyze", CORPUS_FLAGS + ["--impressions", "--history"], []),
    ("bias", CORPUS_FLAGS + ["--impressions"], ["--folds", 3]),
    ("intents", ["--reformulations", "--click-titles", "--queries"], ["--min-freq", 1]),
    ("train-rlc", CORPUS_FLAGS + ["--impressions"] + TEXT_FLAGS,
     ["--dim", 16, "--hash-buckets", 256, "--steps", 2, "--warmup-steps", 1]),
    ("fine-tune-rlc", CORPUS_FLAGS + TEXT_FLAGS + ["--model", "--labels"], ["--steps", 2, "--warmup-steps", 1]),
    ("train-ranker", CORPUS_FLAGS + ["--impressions"] + TEXT_FLAGS + ["--history", "--rlc-model"],
     ["--trees", 2, "--depth", 1]),
    ("rank", CORPUS_FLAGS + TEXT_FLAGS + ["--history", "--ensemble", "--rlc-model"], []),
    ("eval", CORPUS_FLAGS + TEXT_FLAGS + ["--history", "--impressions", "--labels", "--ensemble", "--rlc-model"],
     ["--randomization-rounds", 10]),
    ("plot-data", ["--input"], []),
]


@pytest.mark.parametrize("command,input_flags,extra", PROVENANCE_RUNS, ids=[run[0] for run in PROVENANCE_RUNS])
def test_manifest_digests_every_input_file_given(side_files, tmp_path, command, input_flags, extra):
    """With every optional input file given, the manifest holds exactly one
    digest per input-file flag passed, and --config is not an input."""
    argv = [command, "--out", tmp_path / "r"]
    if command not in ("rank", "plot-data"):
        config = tmp_path / "config.json"
        config.write_text("{}")
        argv += ["--config", config]
    for flag in input_flags:
        argv += [flag, side_files[flag]]
    assert run_cli(*argv, *extra) == 0
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["inputs"] == {
        flag[2:].replace("-", "_"): dataio.file_digest(side_files[flag]) for flag in input_flags
    }


class TestPlotData:
    def test_round_trip(self, corpus_dir, tmp_path):
        files = corpus_files(corpus_dir)
        assert run_cli("analyze", "--out", tmp_path / "r1", "--queries", files["queries"],
                       "--panes", files["panes"], "--impressions", files["impressions"]) == 0
        source = tmp_path / "r1" / "breakdown_template.tsv"
        assert run_cli("plot-data", "--out", tmp_path / "r2", "--input", source) == 0
        assert (open(source, "rb").read()
                == open(tmp_path / "r2" / "breakdown_template.tsv", "rb").read())


class TestEnvironment:
    def test_out_dir_from_env(self, corpus_dir, tmp_path, monkeypatch):
        files = corpus_files(corpus_dir)
        monkeypatch.setenv("CLARIKIT_OUT_DIR", str(tmp_path / "envout"))
        code = run_cli("rank", "--queries", files["queries"], "--panes", files["panes"])
        assert code == 0
        assert os.path.exists(tmp_path / "envout" / "ranked.tsv")


def _edited(**fields):
    """A bad-line maker: the line's record with fields set, or dropped where
    None, as JSON."""
    def edit(lines, index):
        record = json.loads(lines[index])
        for key, value in fields.items():
            if value is None:
                del record[key]
            else:
                record[key] = value
        return json.dumps(record)

    return edit


def _answer_edited(**fields):
    """A bad-line maker: the pane record with fields of its first answer set."""
    def edit(lines, index):
        record = json.loads(lines[index])
        record["answers"][0].update(fields)
        return json.dumps(record)

    return edit


def _key_list(lines, index):
    """A bad-line maker: the sorted keys of the line's record, a JSON array."""
    return json.dumps(sorted(json.loads(lines[index])))


def _nested_too_deep(lines, index):
    """A bad-line maker: the line's record with a value nested 5,000 arrays
    deep, past the JSON decoder's limit."""
    return lines[index][:-1] + ', "deep": ' + "[" * 5000 + "]" * 5000 + "}"


# past the impression loader's first chunk, so a chunk read again line by
# line must still count its lines
LATE_LINE = dataio.IMPRESSION_CHUNK_LINES + 7

# (input flag, case, 1-based line, (good lines, line index) -> bad line)
BAD_INPUTS = [
    ("--impressions", "broken_json", LATE_LINE, lambda lines, i: lines[i][:25]),
    ("--impressions", "click_position_zero", LATE_LINE, _edited(answer_clicks=[0, 2])),
    ("--impressions", "negative_dwell", LATE_LINE, _edited(result_clicks=[["http://a", -1.0]])),
    ("--impressions", "negative_reformulation_delta", LATE_LINE, _edited(reformulation=["again", -0.5])),
    ("--impressions", "missing_timestamp", LATE_LINE, _edited(timestamp=None)),
    ("--impressions", "infinite_timestamp", LATE_LINE, _edited(timestamp=float("inf"))),
    ("--impressions", "unhashable_pane_id", LATE_LINE, _edited(pane_id=["q000000:p0"])),
    ("--impressions", "pane_id_null", LATE_LINE, lambda lines, i: json.dumps(dict(json.loads(lines[i]), pane_id=None))),
    ("--impressions", "not_an_object", LATE_LINE, _key_list),
    ("--impressions", "first_line", 2, lambda lines, i: "{}"),
    ("--impressions", "url_not_a_string", LATE_LINE, _edited(result_clicks=[[7, 1.0]])),
    ("--impressions", "answer_clicks_a_string", LATE_LINE, _edited(answer_clicks="12")),
    ("--impressions", "timestamp_a_bool", LATE_LINE, _edited(timestamp=True)),
    ("--impressions", "fractional_timestamp", LATE_LINE, _edited(timestamp=2.5)),
    ("--impressions", "click_position_a_bool", LATE_LINE, _edited(answer_clicks=[True])),
    ("--impressions", "timestamp_beyond_64_bits", LATE_LINE, _edited(timestamp=2**70)),
    ("--impressions", "click_position_beyond_64_bits", LATE_LINE, _edited(answer_clicks=[2**64])),
    ("--impressions", "dwell_a_string", LATE_LINE, _edited(result_clicks=[["http://a", "2.5"]])),
    ("--impressions", "dwell_a_bool", LATE_LINE, _edited(result_clicks=[["http://a", True]])),
    ("--impressions", "result_click_a_string", LATE_LINE, _edited(result_clicks=["v7"])),
    ("--impressions", "reformulation_delta_a_string", LATE_LINE, _edited(reformulation=["again", "4"])),
    ("--impressions", "reformulation_text_not_a_string", LATE_LINE, _edited(reformulation=[["x"], 4.0])),
    ("--impressions", "nested_too_deep", LATE_LINE, _nested_too_deep),
    ("--queries", "duplicate_id", 3, lambda lines, i: lines[0]),
    ("--queries", "no_tokens", 3, _edited(text="?!")),
    ("--queries", "is_question_a_string", 3, _edited(is_question="false")),
    ("--queries", "id_not_a_string", 3, _edited(id=7)),
    ("--queries", "text_not_a_string", 3, _edited(text=7)),
    ("--queries", "nested_too_deep", 3, _nested_too_deep),
    ("--queries", "query_not_an_object", 3, _key_list),
    ("--panes", "duplicate_id", 3, lambda lines, i: lines[0]),
    ("--panes", "unhashable_id", 3, _edited(id=["p"])),
    ("--panes", "id_not_a_string", 3, _edited(id=7)),
    ("--panes", "query_id_not_a_string", 3, _edited(query_id=["q000000"])),
    ("--panes", "question_text_not_a_string", 3, _edited(question_text=7)),
    ("--panes", "fractional_position", 3, _answer_edited(position=2.9)),
    ("--panes", "negative_render_size", 3, _answer_edited(render_size=-4)),
    ("--panes", "nested_too_deep", 3, _nested_too_deep),
    ("--panes", "pane_not_an_object", 3, _key_list),
    ("--intents", "items_not_pairs", 2, _edited(items=5)),
    ("--intents", "intent_text_not_a_string", 2, _edited(items=[[7, 1.0]])),
    ("--intents", "query_id_not_a_string", 2, _edited(query_id=["q000000"])),
    ("--intents", "intent_weight_a_string", 2, _edited(items=[["a", "2.5"]])),
    ("--intents", "intent_item_a_string", 2, _edited(items=["a2"])),
    ("--intents", "nested_too_deep", 2, _nested_too_deep),
    ("--intents", "intent_set_not_an_object", 2, _key_list),
    ("--labels", "unknown_grade", 2, _edited(overall="Great")),
    ("--labels", "pane_id_not_a_string", 2, _edited(pane_id=True)),
    ("--labels", "query_id_not_a_string", 2, _edited(query_id=2.5)),
    ("--labels", "landing_a_string", 2, _edited(landing="")),
    ("--labels", "nested_too_deep", 2, _nested_too_deep),
    ("--labels", "label_not_an_object", 2, _key_list),
    ("--lexicon", "three_columns", 2, lambda lines, i: "a\tb\tc"),
    ("--history", "non_integer_count", 2, lambda lines, i: "q000000\thttp://x\tmany"),
    ("--reformulations", "zero_frequency", 2, lambda lines, i: "a\ta b\t0"),
    ("--click-titles", "three_columns", 2, lambda lines, i: "a\thttp://x\t4"),
]
# the field named by the cases whose value has the wrong JSON type
MISTYPED = {
    "url_not_a_string": "result click URL", "query_id_not_a_string": "query_id",
    "intent_text_not_a_string": "intent text", "id_not_a_string": "id", "unhashable_id": "id",
    "pane_id_null": "pane_id", "unhashable_pane_id": "pane_id", "pane_id_not_a_string": "pane_id",
    "reformulation_text_not_a_string": "reformulation text", "text_not_a_string": "text",
    "question_text_not_a_string": "question_text",
}
# the message of the cases whose number has the wrong JSON type or is out of
# its domain: loaders reject it, not coerce it
MISVALUED = {
    "answer_clicks_a_string": 'answer_clicks must be a list of integers, got "12"',
    "timestamp_a_bool": "timestamp must be an integer, got true",
    "fractional_timestamp": "timestamp must be an integer, got 2.5",
    "click_position_a_bool": "answer_clicks must be a list of integers, got [true]",
    "fractional_position": "position must be an integer, got 2.9",
    "negative_render_size": "render_size must be a number >= 0, got -4",
    "timestamp_beyond_64_bits": "timestamp must be a 64-bit integer, got 1180591620717411303424",
    "click_position_beyond_64_bits": "answer_clicks must be a list of 64-bit integers >= 1, got [18446744073709551616]",
    "dwell_a_string": 'result click dwell must be a number >= 0 or NaN, got "2.5"',
    "dwell_a_bool": "result click dwell must be a number >= 0 or NaN, got true",
    "result_click_a_string": 'result click must be a [URL, dwell] pair, got "v7"',
    "reformulation_delta_a_string": 'reformulation delta must be a number >= 0 or NaN, got "4"',
    "intent_weight_a_string": 'intent weight must be a number, got "2.5"',
    "intent_item_a_string": 'intent item must be a [text, weight] pair, got "a2"',
    "landing_a_string": 'landing must be a list of strings, got ""',
    "query_not_an_object": 'query must be a JSON object, got ["ambiguity_class","id","is_question","text","traffic_class"]',
    "pane_not_an_object": 'pane must be a JSON object, got ["answers","id","query_id","question_text","template_id"]',
    "intent_set_not_an_object": 'intent set must be a JSON object, got ["items","query_id","source"]',
    "label_not_an_object": 'label must be a JSON object, got ["landing","overall","pane_id","query_id"]',
}
# a command that reads the input, and the inputs it needs besides
READER = {
    "--queries": "analyze", "--panes": "analyze", "--impressions": "analyze", "--history": "analyze",
    "--intents": "rank", "--lexicon": "rank", "--labels": "eval",
    "--reformulations": "intents", "--click-titles": "intents",
}
NEEDS = {
    "analyze": ("--queries", "--panes", "--impressions"), "rank": ("--queries", "--panes"),
    "eval": ("--queries", "--panes"), "intents": (),
}


@pytest.mark.parametrize("flag,case,line,make_bad", BAD_INPUTS, ids=[f"{f[2:]}-{c}" for f, c, _, _ in BAD_INPUTS])
def test_bad_input_line_exits_one_naming_it(side_files, tmp_path, capsys, flag, case, line, make_bad):
    """A bad line of any line-oriented input: exit 1, a message naming its
    path:line, no traceback, nothing under --out.  Impression files get a
    blank first line and two chunks' worth of rows, so line numbers count
    blank lines and lines of earlier chunks."""
    with open(side_files[flag], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if flag == "--impressions":
        lines = [""] + lines * (1 + LATE_LINE // len(lines))
    lines[line - 1:line] = [make_bad(lines, min(line - 1, len(lines) - 1))]
    bad = tmp_path / f"bad{os.path.splitext(side_files[flag])[1]}"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    command = READER[flag]
    argv = [command, "--out", tmp_path / "r"]
    for needed in NEEDS[command]:
        argv += [needed, side_files[needed]]
    assert run_cli(*argv, flag, bad) == 1
    err = capsys.readouterr().err
    assert f"{bad}:{line}: " in err
    if case in MISTYPED:
        assert f"{bad}:{line}: invalid record: {MISTYPED[case]} must be a string, got " in err
    if case in MISVALUED:
        assert f"{bad}:{line}: invalid record: {MISVALUED[case]}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_message_quoting_a_huge_value_is_cut(side_files, tmp_path, capsys):
    """A message quotes the value it rejects: one of a megabyte is cut to
    cli.MESSAGE_CHARS characters, still naming the path:line and field."""
    with open(side_files["--impressions"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[1] = _edited(pane_id=[0] * 2**19)(lines, 1)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["analyze", "--out", tmp_path / "r"]
    for needed in NEEDS["analyze"]:
        argv += [needed, bad if needed == "--impressions" else side_files[needed]]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: invalid record: pane_id must be a string, got [0,0,")
    assert err.endswith("...\n") and len(err) <= cli.MESSAGE_CHARS + 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag", ["--reformulations", "--click-titles", "--lexicon", "--history", "--input"])
def test_non_utf8_tsv_input_exits_one_naming_it(side_files, tmp_path, capsys, flag):
    """A TSV input holding bytes that are not UTF-8: exit 1, a message naming
    its path and line, no traceback, nothing under --out."""
    good = open(side_files[flag], "rb").read()
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(good + b"caf\xff\tx\t1\n")
    command = READER.get(flag, "plot-data")
    argv = [command, "--out", tmp_path / "r"]
    for needed in NEEDS.get(command, ()):
        argv += [needed, side_files[needed]]
    assert run_cli(*argv, flag, bad) == 1
    err = capsys.readouterr().err
    assert f"{bad}:{len(good.splitlines()) + 1}: not UTF-8\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_usage_error_exits_one(tmp_path, capsys):
    """argparse exits 2 on a usage error; the CLI keeps 2 for numerical
    failures, so its parser exits 1 (here: -inf read as a flag)."""
    with pytest.raises(SystemExit) as exc:
        run_cli("synth-gen", "--out", tmp_path / "r", "--question-fraction", "-inf")
    assert exc.value.code == 1
    assert "expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _edited_document(edit):
    """A bad-document maker: the good JSON document, changed in place by
    edit."""
    def make(text):
        document = json.loads(text)
        edit(document)
        return json.dumps(document)

    return make


SPLIT_ON_99 = {"feature": 99, "threshold": 0.5, "left": {"value": 1.0}, "right": {"value": 0.0}}

# (input flag, case, good text -> bad text)
BAD_DOCUMENTS = [
    ("--ensemble", "not_json", lambda text: "not json\n"),
    ("--ensemble", "empty_list", lambda text: "[]\n"),
    ("--ensemble", "tree_is_a_number", _edited_document(lambda d: d["trees"].insert(0, 5))),
    ("--ensemble", "split_on_feature_99", _edited_document(lambda d: d["trees"].insert(0, SPLIT_ON_99))),
    ("--ensemble", "other_feature_names", _edited_document(lambda d: d["feature_names"].reverse())),
    ("--ensemble", "nested_too_deep", lambda text: '{"trees": [' + "[" * 5000 + "]" * 5000 + "]}"),
    ("--rlc-model", "not_json", lambda text: "not json\n"),
    ("--rlc-model", "unknown_config_key", _edited_document(lambda d: d["config"].update(colour=1))),
    ("--rlc-model", "no_embed_table", _edited_document(lambda d: d["tensors"].pop("embed.table"))),
    ("--rlc-model", "misshapen_tensor", _edited_document(lambda d: d["tensors"]["head.b2"].update(shape=[1, 1]))),
    # configs that claim more than the file holds: refused before anything
    # of their size is allocated or listed
    ("--rlc-model", "huge_dims", _edited_document(lambda d: d["config"].update(dim=10**6, hash_buckets=10**9))),
    ("--rlc-model", "huge_layers", _edited_document(lambda d: d["config"].update(layers=10**9))),
    ("--rlc-model", "huge_heads", _edited_document(lambda d: d["config"].update(dim=10**9, heads=10**9))),
    ("--rlc-model", "fractional_layers", _edited_document(lambda d: d["config"].update(layers=1.5))),
    ("--model", "not_json", lambda text: "not json\n"),
    ("--model", "no_embed_table", _edited_document(lambda d: d["tensors"].pop("embed.table"))),
    ("--config", "not_json", lambda text: "not json\n"),
]
DOCUMENT_READER = {
    "--ensemble": ("rank", ("--queries", "--panes")),
    "--rlc-model": ("rank", ("--queries", "--panes")),
    "--model": ("fine-tune-rlc", ("--queries", "--panes", "--labels")),
    "--config": ("analyze", ("--queries", "--panes", "--impressions")),
}


@pytest.mark.parametrize("flag,case,make_bad", BAD_DOCUMENTS, ids=[f"{f[2:]}-{c}" for f, c, _ in BAD_DOCUMENTS])
def test_bad_document_exits_one_naming_it(side_files, tmp_path, capsys, flag, case, make_bad):
    """A malformed single-document input (a model, an ensemble, a config):
    exit 1, a message naming its path, no traceback, nothing under --out."""
    good = "{}" if flag == "--config" else open(side_files[flag], encoding="utf-8").read()
    bad = tmp_path / "bad.json"
    bad.write_text(make_bad(good), encoding="utf-8")
    command, needs = DOCUMENT_READER[flag]
    argv = [command, "--out", tmp_path / "r"]
    for needed in needs:
        argv += [needed, side_files[needed]]
    assert run_cli(*argv, flag, bad) == 1
    err = capsys.readouterr().err
    assert f"{bad}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


# (command, its input flags, its other flags, the message)
OUT_OF_DOMAIN = [
    ("train-rlc", ["--impressions"], ["--heads", 0, "--dim", 16, "--hash-buckets", 256, "--steps", 2,
                                      "--warmup-steps", 1], "heads must be at least 1, got 0"),
    ("analyze", ["--impressions"], ["--entropy-bins", 0], "n_bins must be at least 1, got 0"),
    ("train-ranker", ["--impressions"], ["--depth", -1, "--trees", 2], "tree depth must be 0 to 4, got -1"),
    ("eval", ["--labels"], ["--randomization-rounds", -5], "rounds must be at least 1, got -5"),
    ("train-rlc", ["--impressions"], ["--max-intents", 0, "--dim", 16, "--hash-buckets", 256, "--steps", 2,
                                      "--warmup-steps", 1], "max_intents must be at least 1, got 0"),
    # numpy refuses the 466 TiB embedding table before touching any memory
    ("train-rlc", ["--impressions"], ["--hash-buckets", 10**12, "--steps", 2, "--warmup-steps", 1], "out of memory"),
]
# a command's first case is named by the command, a later one also by its
# first flag
OUT_OF_DOMAIN_IDS = [
    command if all(run[0] != command for run in OUT_OF_DOMAIN[:i]) else f"{command}{extra[0]}"
    for i, (command, _, extra, _) in enumerate(OUT_OF_DOMAIN)
]


@pytest.mark.parametrize("command,input_flags,extra,message", OUT_OF_DOMAIN, ids=OUT_OF_DOMAIN_IDS)
def test_number_outside_its_domain_exits_one(side_files, tmp_path, capsys, command, input_flags, extra, message):
    """A config value outside its domain (zero heads, intents or bins, a
    negative depth or round count, an embedding table too large to
    allocate) is rejected: exit 1, no traceback, nothing under --out."""
    argv = [command, "--out", tmp_path / "r"]
    for flag in CORPUS_FLAGS + input_flags:
        argv += [flag, side_files[flag]]
    assert run_cli(*argv, *extra) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_string_url_check_holds_on_both_impression_paths(tmp_path):
    """A result-click URL that is not a string fails at its line, also after
    a chunk-mate whose click positions the loader has to sort."""
    good = {"answer_clicks": [1], "pane_id": "p", "result_clicks": [["http://a", 1.0]], "timestamp": 1}
    bad = dict(good, result_clicks=[["http://a", 1.0], [7, 2.0]])
    for first in (good, dict(good, answer_clicks=[2, 1])):
        path = tmp_path / "impressions.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in (first, bad)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: invalid record: result click URL must be a string, got 7$"):
            dataio.load_impressions(str(path))


@pytest.mark.parametrize("command", ["analyze", "bias", "train-rlc", "train-ranker", "eval"])
def test_impression_of_an_unknown_pane_names_the_file(side_files, tmp_path, capsys, command):
    """Every command that reads --impressions names that file when an
    impression's pane is not in --panes."""
    with open(side_files["--impressions"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    bad = tmp_path / "impressions.jsonl"
    bad.write_text("\n".join(lines + [_edited(pane_id="nope")(lines, 0)]) + "\n", encoding="utf-8")
    corpus = ["--queries", side_files["--queries"], "--panes", side_files["--panes"]]
    assert run_cli(command, "--out", tmp_path / "r", "--impressions", bad, *corpus) == 1
    assert capsys.readouterr().err == f"error: {bad}: impression references unknown pane 'nope'\n"
    assert not (tmp_path / "r").exists()


def test_pane_of_an_unknown_query_names_the_file(side_files, tmp_path, capsys):
    with open(side_files["--panes"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    bad = tmp_path / "panes.jsonl"
    bad.write_text("\n".join(lines + [_edited(id="x:p0", query_id="nope")(lines, 0)]) + "\n", encoding="utf-8")
    assert run_cli("rank", "--out", tmp_path / "r", "--queries", side_files["--queries"], "--panes", bad) == 1
    assert capsys.readouterr().err == f"error: {bad}: pane 'x:p0' references unknown query 'nope'\n"
    assert not (tmp_path / "r").exists()


def test_bias_builds_no_per_pane_stats_object(corpus_dir, tmp_path, monkeypatch):
    """bias reads the stats table by columns and rows: no EngagementStats is
    built from loading the log to writing the last report."""
    built = []
    original = EngagementStats.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(EngagementStats, "__post_init__", counted)
    files = corpus_files(corpus_dir)
    assert run_cli("bias", "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
                   "--impressions", files["impressions"], "--folds", 3) == 0
    assert built == []
    EngagementStats(1, 0, (0,))
    assert len(built) == 1  # the count sees a row that is built


def test_bias_builds_one_swap_table(corpus_dir, tmp_path, monkeypatch):
    """bias gathers its triples once: the scatter, the above-diagonal cells
    and the click-model comparison all read one SwapTable."""
    from clarikit.bias import SwapTable

    built = []
    original = SwapTable.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SwapTable, "__init__", counted)
    files = corpus_files(corpus_dir)
    assert run_cli("bias", "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
                   "--impressions", files["impressions"], "--folds", 3) == 0
    assert len(built) == 1


def test_analyze_builds_no_per_pane_stats_object(corpus_dir, tmp_path, monkeypatch):
    """analyze reads the stats table by columns, the click entropies
    included: no EngagementStats is built for any breakdown."""
    built = []
    original = EngagementStats.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(EngagementStats, "__post_init__", counted)
    files = corpus_files(corpus_dir)
    assert run_cli("analyze", "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
                   "--impressions", files["impressions"]) == 0
    assert (tmp_path / "r" / "breakdown_click_entropy_bin.tsv").exists()
    assert built == []


@pytest.mark.parametrize("command", ["eval", "train-ranker", "train-rlc"])
def test_learning_commands_build_no_per_pane_stats_object(side_files, tmp_path, monkeypatch, command):
    """The learning commands read each pane's click rate from the stats
    columns: no EngagementStats is built."""
    built = []
    original = EngagementStats.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(EngagementStats, "__post_init__", counted)
    _, input_flags, extra = next(run for run in PROVENANCE_RUNS if run[0] == command)
    argv = [command, "--out", tmp_path / "r"]
    for flag in input_flags:
        argv += [flag, side_files[flag]]
    assert run_cli(*argv, *extra) == 0
    assert built == []


@pytest.mark.parametrize("command", ["fine-tune-rlc", "eval"])
def test_label_of_an_unknown_pane_names_the_file(side_files, tmp_path, capsys, command):
    """A label of a pane that --panes does not hold: exit 1 naming the
    labels file and the pane, nothing under --out."""
    with open(side_files["--labels"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    bad = tmp_path / "labels.jsonl"
    bad.write_text("\n".join(lines + [_edited(pane_id="nope:p9")(lines, 0)]) + "\n", encoding="utf-8")
    argv = [command, "--out", tmp_path / "r", "--queries", side_files["--queries"], "--panes", side_files["--panes"],
            "--labels", bad]
    if command == "fine-tune-rlc":
        argv += ["--model", side_files["--model"], "--steps", 2, "--warmup-steps", 1]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: label references unknown pane 'nope:p9'\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["fine-tune-rlc", "eval"])
def test_label_naming_another_query_names_the_file(side_files, tmp_path, capsys, command):
    """A label whose query_id is not its pane's query: exit 1 naming the
    labels file, the pane and both queries, nothing under --out."""
    with open(side_files["--labels"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    labels = [json.loads(line) for line in lines]
    pane_id, owner = labels[0]["pane_id"], labels[0]["query_id"]
    other = next(label["query_id"] for label in labels if label["query_id"] != owner)
    bad = tmp_path / "labels.jsonl"
    bad.write_text("\n".join(lines + [_edited(query_id=other)(lines, 0)]) + "\n", encoding="utf-8")
    argv = [command, "--out", tmp_path / "r", "--queries", side_files["--queries"], "--panes", side_files["--panes"],
            "--labels", bad]
    if command == "fine-tune-rlc":
        argv += ["--model", side_files["--model"], "--steps", 2, "--warmup-steps", 1]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: label of pane {pane_id!r} names query {other!r}, but the pane belongs to {owner!r}\n"
    )
    assert not (tmp_path / "r").exists()


def test_cli_import_loads_no_command_module():
    """Each command imports its own modules when it runs: importing the CLI
    loads none of them."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, clarikit.cli; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout.split()
    deferred = ("clarikit.analytics", "clarikit.bias", "clarikit.ranker", "clarikit.rlc", "clarikit.synthlog")
    assert [name for name in loaded if name in deferred or name.startswith("clarikit.tensor")] == []
    assert "clarikit.cli" in loaded


@pytest.mark.parametrize("command,module,name", [
    ("bias", "clarikit.bias", "NumericalError"),
    ("train-rlc", "clarikit.tensor.optim", "NonFiniteGradientError"),
])
def test_numerical_failure_exits_two(corpus_dir, tmp_path, capsys, monkeypatch, command, module, name):
    """A numerical failure raised by a module its command imported exits 2."""
    import importlib

    error = getattr(importlib.import_module(module), name)

    def fail(*args, **kwargs):
        raise error("did not converge")

    target = "clarikit.bias.evaluate_click_models" if command == "bias" else "clarikit.rlc.train_pairwise"
    monkeypatch.setattr(target, fail)
    files = corpus_files(corpus_dir)
    argv = [command, "--out", tmp_path / "r", "--queries", files["queries"], "--panes", files["panes"],
            "--impressions", files["impressions"]]
    if command == "train-rlc":
        argv += ["--steps", 50]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "numerical failure: did not converge\n"
    assert not (tmp_path / "r").exists()
