"""Mutation fuzzing of every JSON-lines input: one field of one record of a
good file is given another JSON type, dropped, joined by an extra key or
set to a number outside its domain, and a command that reads the file runs
in process on it.  Whatever the mutation, the command exits 0, 1 or 2,
raises nothing, leaves no --out unless it succeeded, and on exit 1 prints
one `error: ...` line, which names an input file when a value's type was
changed."""

import contextlib
import io
import json
import os
import shutil
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from clarikit.cli import main

# one value of each JSON type; a type mutation takes one of another type
TYPED_VALUES = (None, True, 7, 2.5, "x", [], [1], {"k": 1})
OUT_OF_DOMAIN = (-1, 0, -2.5, 10**20, 1e308)


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def paths(value, at=()):
    """The path (keys and indices) of every value inside a record."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield at + (key,), inner
        yield from paths(inner, at + (key,))


def lookup(record, path):
    for key in path:
        record = record[key]
    return record


def mutations(record: dict) -> list:
    """(kind, path, new value) of every mutation of one field of a record;
    the value is None for a dropped key, and the path of an extra key ends
    in that key."""
    out = [("extra", ("extra_field",), 1)]
    for path, value in paths(record):
        out += [("type", path, new) for new in TYPED_VALUES if json_type(new) != json_type(value)]
        if isinstance(value, dict):
            out.append(("extra", path + ("extra_field",), 1))
        if isinstance(lookup(record, path[:-1]), dict):
            out.append(("missing", path, None))
        if json_type(value) == "number":
            out += [("number", path, new) for new in OUT_OF_DOMAIN]
    return out


def mutated(record: dict, kind: str, path: tuple, value) -> dict:
    record = json.loads(json.dumps(record))
    parent = lookup(record, path[:-1])
    if kind == "missing":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small corpus every command runs on, a model trained on it and
    labels of its panes; the arguments of each command."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "synth.json"
    config.write_text(json.dumps({
        "n_queries": 4, "panes_per_query": 2, "swap_fraction": 1.0, "n_per_pane": 12,
        "user_model": {"kind": "examination"},
    }))
    assert main(["synth-gen", "--out", str(root / "data"), "--config", str(config), "--seed", "1"]) == 0
    files = {name: str(root / "data" / f"{name}.jsonl") for name in ("queries", "panes", "impressions", "intents")}
    files["labels"] = str(root / "labels.jsonl")
    with open(files["panes"], encoding="utf-8") as fh:
        panes = [json.loads(line) for line in fh]
    with open(files["labels"], "w", encoding="utf-8") as fh:
        for i, pane in enumerate(panes):
            grade = ("Bad", "Fair", "Good")[i % 3]
            fh.write(json.dumps({"query_id": pane["query_id"], "pane_id": pane["id"], "overall": grade, "landing": []}) + "\n")
    small_rlc = ["--dim", "4", "--heads", "1", "--hash-buckets", "16", "--max-intents", "2", "--steps", "1",
                 "--warmup-steps", "1", "--min-impressions", "1"]
    model = str(root / "rlc" / "rlc_model.json")
    flags = {name: [f"--{name}", path] for name, path in files.items()}
    corpus = flags["queries"] + flags["panes"]
    assert main(["train-rlc", "--out", str(root / "rlc"), *corpus, *flags["impressions"], *small_rlc]) == 0
    commands = {
        "analyze": ["impressions"],
        "bias": ["impressions"],
        "train-rlc": ["impressions", "intents"],
        "fine-tune-rlc": ["intents", "labels"],
        "train-ranker": ["impressions", "intents"],
        "rank": ["intents"],
        "eval": ["impressions", "intents", "labels"],
    }
    extra = {
        "bias": ["--folds", "3"],
        "train-rlc": small_rlc,
        "fine-tune-rlc": ["--model", model, "--steps", "1", "--warmup-steps", "1", "--panes-per-query", "2"],
        "train-ranker": ["--rlc-model", model, "--trees", "1", "--depth", "1", "--min-impressions", "1"],
        "rank": ["--rlc-model", model],
        "eval": ["--rlc-model", model, "--randomization-rounds", "5", "--min-impressions", "1"],
    }
    argv = {
        command: [token for name in ["queries", "panes", *names] for token in flags[name]] + extra.get(command, [])
        for command, names in commands.items()
    }
    return root, files, argv


@pytest.mark.parametrize("name", ["queries", "panes", "impressions", "intents", "labels"])
@settings(max_examples=200)
@given(data=st.data())
def test_mutated_record_exits_cleanly(fuzz_inputs, name, data):
    root, files, argv = fuzz_inputs
    with open(files[name], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    kind, path, value = data.draw(st.sampled_from(mutations(json.loads(lines[index]))), label="mutation")
    readers = sorted(command for command, args in argv.items() if files[name] in args)
    command = data.draw(st.sampled_from(readers), label="command")
    lines[index] = json.dumps(mutated(json.loads(lines[index]), kind, path, value))
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bad = work / os.path.basename(files[name])
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = work / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True):
        code = main([command, "--out", str(out), *[str(bad) if arg == files[name] else arg for arg in argv[command]]])
    err = stderr.getvalue()
    assert code in (0, 1, 2), err
    if code == 1:
        assert err.count("\n") == 1 and err.startswith("error: "), err
        if kind == "type":
            assert any(input_path in err for input_path in [str(bad), *files.values()]), err
    if code != 0:
        assert not out.exists()
