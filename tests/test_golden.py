"""Golden artifacts: synth-gen, analyze and bias on one small seeded corpus,
and intents on TSVs written for its queries; train-rlc, train-ranker with
the trained scorer and rank on the same corpus; and fine-tune-rlc,
train-ranker without a scorer and eval on it too, and eval with the trained
scorer on reordered inputs, must keep writing byte-identical files,
manifest.json included.

The digests were recorded before the analytics and click-model code was
restructured; a change meant to preserve behaviour must leave them as they
are.  Update them only with a change that is meant to alter an artifact, and
say which one and why.
"""

import hashlib
import json
import os
import re

import pytest

from clarikit.cli import main

SYNTH_CONFIG = {
    "n_queries": 24,
    "panes_per_query": 2,
    "swap_fraction": 0.5,
    "n_per_pane": 40,
    "reformulation_rate": 0.2,
    "result_click_rate": 0.3,
    "user_model": {"kind": "examination"},
}

GOLDEN = {
    "data": {
        "entity_lexicon.tsv": "bc719de7f5636394bafcca69f40dc270e4042883a7e8647d1778385ccc5d14fa",
        "ground_truth.jsonl": "2538aeb452905c076ea8de45d900ba516f21886b41aa3fcef7756774e4a83828",
        "impressions.jsonl": "a1c7ec1d2c75abfcd90d88d5f8d576883a5c394db107b4805079d76ae50cd6f5",
        "intents.jsonl": "9b8d1d7c93b4dd6333db518606105283718a1cf85c3337cbaf8fc6d54736d362",
        "manifest.json": "bf618bbecdacb812f0a5309bd3bf81c8f9004a02fd9c5f337a44ac10d3881cfb",
        "panes.jsonl": "f9d9aca5d0bc6630ba22da148a940e85093e79d1c2c95951b7d999703c6facaa",
        "queries.jsonl": "6beb1ad6b9fe2c5e364c1156435645fab9d6855edb7ea0195c2498c4d433afca",
    },
    "analyze": {
        "breakdown_answer_count.tsv": "668fbb144198289cbdf34306a2c876fd7e1aec328bd7e25dc328112fb4de4ec8",
        "breakdown_click_entropy_bin.tsv": "a042dd54f4583b3444ba201ce5ec1904ea102a9252b18dd20b103f5734986f02",
        "breakdown_query_length.tsv": "2bacdebcbce78225b98625d0b9ef8ff293b749bd34622c7c7cd09ba62997c1e6",
        "breakdown_query_type.tsv": "77ea83109aa8cb80a22527c584a0f9911dd24184c83e8031d67e9a6e5f199240",
        "breakdown_template.tsv": "0df8de8e4f13b6f5fd0b4c28844b00f1a473507c81a214cf7bc69186904df0e6",
        "breakdown_unique_url_bin.tsv": "d18537aa93eb330abe8b14586ff28ee1247a519bb7f545e72f10ef0af9eabf02",
        "breakdown_url_entropy_bin.tsv": "00b08efd204ce55c7d0f430bff394a2a4a7862d7d8c90ab0e6de8421390b65df",
        "conditional_click_by_position.tsv": "59018c71c247bf899ad57fe3360fc9f05a4a93b899c0ac48101eb23e7ddd3f14",
        "manifest.json": "412a1c5cddfabb1da06d04e8b3ddf0e882b85d1b679b3e0ee3b86ae73f07ab84",
        "summary.tsv": "f116d05e29dc708fb404bd894680bf0cb5cb1afc709412601a553487f8d12b7b",
    },
    # logreg_weights.tsv, the logistic rows of cross_entropy.tsv and
    # manifest.json were re-pinned when the swap regression moved to Newton's
    # method and lost its two solver config keys (weights moved by <= 3.3e-9
    # relative, logistic cross entropy by <= 2.1e-9 relative).
    # cross_entropy.tsv was re-pinned again when the examination fit became a
    # converged projected Newton fit instead of EM stopped at an iteration
    # cap: only its examination rows changed (fold means by <= 8.2e-8
    # relative, fold standard deviations by <= 3.6e-7 relative)
    "bias": {
        "above_diagonal.tsv": "84828e722d1a8dffe5ec50eb8c1f67130d2f08f45cb1348a5bbfd65f21a30a15",
        "cross_entropy.tsv": "6b9eeb4251d7445ec81ab43f84a51f17dffa994fa6a0136f88c841d5909e769f",
        "logreg_weights.tsv": "004eb2bcb7e5049ff21d55b7bd92f4c352f249d69b0f3fdcf6659dfc33837975",
        "manifest.json": "e1143dee2a26c2ce1df15d9ec3430ca66cf1f8f9eecbd493b908cb4248a60679",
        "scatter.tsv": "c752c1d6344d4711e59b65fb2f83bea3dbad065ec6bb371b9c8723ddd3b24896",
        "scatter_fit.tsv": "ff58ebb465752f121518f3b8d5d6784992afeb5ee4f927568090267692c4bf93",
    },
    # the TSVs of golden_intent_tsvs, mined with the corpus's queries
    "intents": {
        "intents.jsonl": "a07c4eca2de9f8d92122ddcbba0d1c11e0b45ffb174cb644ba088902e4bb579a",
        "manifest.json": "daad2b36142d920f1b7d54bbda8a00a6435035d81bcdf305f0aee8776dfb9c83",
    },
}


def tree_digests(directory) -> dict:
    out = {}
    for base, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def golden_corpus(tmp_path) -> list:
    """Writes the golden corpus under tmp_path/data; its corpus flags."""
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    data = tmp_path / "data"
    assert main(["synth-gen", "--out", str(data), "--config", str(config), "--seed", "11"]) == 0
    return [
        "--queries", str(data / "queries.jsonl"),
        "--panes", str(data / "panes.jsonl"),
        "--impressions", str(data / "impressions.jsonl"),
    ]


def golden_intent_tsvs(tmp_path) -> list:
    """Writes reformulation and click-title TSVs for the golden corpus's
    queries under tmp_path; the intents flags that read them.  Rows come in
    case variants and duplicates, between blank lines; follow-ups may equal
    or not contain their query, titles carry ' - Site' and ' | Site'
    suffixes, and some rows stay below --min-freq.  The first query has more
    intents than --n-max keeps, and one query is not in the corpus."""
    texts = [json.loads(line)["text"] for line in (tmp_path / "data" / "queries.jsonl").read_text().splitlines()]
    texts.append("unknown zebra query")
    reformulations, titles = [], []
    for i, text in enumerate(texts):
        shown = (text, text.upper(), text.title() + "!")[i % 3]
        reformulations += [
            f"{shown}\t{text} guide\t{1 + i % 3}",
            f"{text}\t{text.upper()} GUIDE\t{2 + i % 2}",
            f"{shown}\tbest {text}\t{i % 4 + 1}",
            f"{text}\t{text.title()}\t7",  # equals the query
            f"{text}\tsomething else entirely\t9",  # does not contain it
            f"{text}\t{text} rare {i}\t1",  # below --min-freq
            "",
            f"{shown}\t{text} guide\t{1 + i % 3}",  # a duplicate row
        ]
        titles += [
            f"{shown}\thttps://{i}.example/a\t{text.title()} Reviews - Site\t{2 + i % 3}",
            f"{text}\thttps://{i}.example/b\t{text} reviews | Other Site\t{1 + i % 2}",
            f"{text}\thttps://{i}.example/a\t{text.upper()} Manual - Wiki | Daily\t3",
            f"{text}\thttps://{i}.example/c\t!!! - Site\t5",  # nothing left once stripped
            f"{shown}\thttps://{i}.example/d\t{text} rare title {i}\t1",
            "",
            f"{shown}\thttps://{i}.example/a\t{text.title()} Reviews - Site\t{2 + i % 3}",
        ]
    reformulations += [f"{texts[0]}\t{texts[0]} extra {n}\t{2 + n}" for n in range(10)]
    (tmp_path / "reformulations.tsv").write_text("\n".join(reformulations) + "\n", encoding="utf-8")
    (tmp_path / "click_titles.tsv").write_text("\n".join(titles) + "\n", encoding="utf-8")
    return [
        "--reformulations", str(tmp_path / "reformulations.tsv"),
        "--click-titles", str(tmp_path / "click_titles.tsv"),
        "--queries", str(tmp_path / "data" / "queries.jsonl"),
    ]


def test_golden_artifacts(tmp_path):
    corpus = golden_corpus(tmp_path)
    assert main(["analyze", "--out", str(tmp_path / "analyze"), *corpus]) == 0
    assert main(["bias", "--out", str(tmp_path / "bias"), *corpus, "--folds", "3"]) == 0
    assert main(["intents", "--out", str(tmp_path / "intents"), *golden_intent_tsvs(tmp_path)]) == 0
    for out, expected in GOLDEN.items():
        assert tree_digests(tmp_path / out) == expected, out


# A two-layer, two-head scorer with small dims, so the run stays short yet
# every encoder stage stacks layers and splits heads.
RLC_GOLDEN = {
    "rlc": {
        "loss.tsv": "954dc63dfc1f9f2008cbbd1f9b4394fd2cec6ddc261d3e22bb665a2a3e09e6dd",
        "manifest.json": "c8496680cbab2e57929d995c7653541444d72730944c27f85937f35b79b76bd3",
        "rlc_model.json": "49cc7d191207afb57b4ed415cdc609ef02f57af3a14c5fbd3f41f51d42aed385",
    },
    "ranker": {
        "ensemble.json": "fcce2411153dec29b99f922e1b4e094d242074ebf20ef3aa00123dd918d62d8d",
        "manifest.json": "a3a32f96597e3be9236325872e63530df4825439907a112873205df966a4f3be",
    },
    "rank": {
        "manifest.json": "39a2649dcc3d53f3de24a6ca26112e46810cd23165c6d83cc72179a1d9235e2f",
        "ranked.tsv": "4af5bf719214238f31eed08bf470b52f7abab85d9fd0710104e57aa47704f28f",
    },
}


def train_golden_rlc(tmp_path, corpus: list, text: list) -> str:
    """Trains the golden scorer under tmp_path/rlc; the path of its model."""
    assert main([
        "train-rlc", "--out", str(tmp_path / "rlc"), *corpus, *text, "--seed", "3",
        "--dim", "8", "--heads", "2", "--layers", "2", "--max-intents", "4", "--hash-buckets", "64",
        "--steps", "20", "--lr", "0.001", "--warmup-steps", "5", "--total-steps", "100",
    ]) == 0
    return str(tmp_path / "rlc" / "rlc_model.json")


def text_flags(tmp_path) -> list:
    data = tmp_path / "data"
    return ["--intents", str(data / "intents.jsonl"), "--lexicon", str(data / "entity_lexicon.tsv")]


def test_golden_rlc_artifacts(tmp_path):
    corpus = golden_corpus(tmp_path)
    text = text_flags(tmp_path)
    model = train_golden_rlc(tmp_path, corpus, text)
    assert main([
        "train-ranker", "--out", str(tmp_path / "ranker"), *corpus, *text, "--rlc-model", model,
        "--trees", "5", "--depth", "2", "--seed", "3",
    ]) == 0
    assert main([
        "rank", "--out", str(tmp_path / "rank"), *corpus[:4], *text, "--rlc-model", model,
        "--ensemble", str(tmp_path / "ranker" / "ensemble.json"),
    ]) == 0
    for out, expected in RLC_GOLDEN.items():
        assert tree_digests(tmp_path / out) == expected, out


# fine-tune-rlc continues the golden scorer on labels that cycle through
# Bad, Fair and Good over the panes in id order; train-ranker runs without a
# scorer, and eval ranks with that ensemble on the impressions and the labels.
LABEL_CYCLE = ("Bad", "Fair", "Good")

TRAINING_GOLDEN = {
    "fine_tune": {
        "loss.tsv": "c06207bb35210241af9c8d84ee93f2de2e5d99ccf4e1fa364c8018fc1783e87a",
        "manifest.json": "2b343ad197a51731e673f4df99f859456f7606abb558e008b00bac1327a27b9b",
        "rlc_model.json": "725b3aa9c323d08e74d93e210fb0e16a2289f6669ca4f404ecb772c521f6b6e4",
    },
    "plain_ranker": {
        "ensemble.json": "4d3377654c1c600c27eeb439da5d451063e4245aebcd432f902de4b47ca4447b",
        "manifest.json": "5911f1379a34f6738c1ce4f5a44563406778da53ae3b18ff385c05454dd7dd6c",
    },
    "eval": {
        "eval.tsv": "89a44af8e763c1fb9555229c7d4092ac17124296234904a62fc5a2d213bbc122",
        "manifest.json": "30916fda2399722de5cdbd8a30541ab94f1d627a7d465a27190563752f0fcdff",
    },
}


def golden_labels(tmp_path) -> str:
    from clarikit import dataio

    panes = dataio.load_panes(str(tmp_path / "data" / "panes.jsonl"))
    path = tmp_path / "labels.jsonl"
    dataio.write_jsonl(str(path), (
        {"query_id": pane.query_id, "pane_id": pane_id, "overall": LABEL_CYCLE[i % 3], "landing": []}
        for i, (pane_id, pane) in enumerate(sorted(panes.items()))
    ))
    return str(path)


def test_golden_fine_tune_ranker_and_eval_artifacts(tmp_path):
    corpus = golden_corpus(tmp_path)
    text = text_flags(tmp_path)
    model = train_golden_rlc(tmp_path, corpus, text)
    labels = golden_labels(tmp_path)
    assert main([
        "fine-tune-rlc", "--out", str(tmp_path / "fine_tune"), *corpus[:4], *text, "--model", model,
        "--labels", labels, "--steps", "10", "--lr", "0.0001", "--warmup-steps", "5", "--total-steps", "100",
        "--panes-per-query", "4", "--seed", "3",
    ]) == 0
    assert main([
        "train-ranker", "--out", str(tmp_path / "plain_ranker"), *corpus, "--trees", "5", "--depth", "2",
        "--seed", "3",
    ]) == 0
    assert main([
        "eval", "--out", str(tmp_path / "eval"), *corpus, "--labels", labels,
        "--ensemble", str(tmp_path / "plain_ranker" / "ensemble.json"),
        "--randomization-rounds", "2345", "--seed", "3",
    ]) == 0
    for out, expected in TRAINING_GOLDEN.items():
        assert tree_digests(tmp_path / out) == expected, out


# eval with the golden scorer and the ensemble trained with it, on the
# impressions in the order of a digest of each line and on the labels in
# reverse id order: eval batches each query's panes in the orders of these
# two files, and a pane's score moves in its last bits with its batch.  The
# impressions of the first ten queries and of the p1s panes are left out, so
# some batches hold labelled panes only and some both kinds.
SCORED_EVAL_GOLDEN = {
    "eval.tsv": "a6f148107948ddbe4e7c93dacfd3a0efe121d3e641afe6a50bee98d7bd80068c",
    "manifest.json": "9fe5b6a0c1b2253a3f394924ba5adc46c07d22f30f0b04ec12c5c4672c9bf499",
}

# (query id, pane ids) of every batch the scorer scores in that eval, in order
SCORED_EVAL_BATCHES = [
    ('q000010', ('q000010:p1', 'q000010:p0')),
    ('q000011', ('q000011:p1', 'q000011:p0', 'q000011:p0s', 'q000011:p1s')),
    ('q000012', ('q000012:p0', 'q000012:p1')),
    ('q000013', ('q000013:p0s', 'q000013:p1', 'q000013:p0')),
    ('q000014', ('q000014:p0s', 'q000014:p1', 'q000014:p0')),
    ('q000015', ('q000015:p1', 'q000015:p0', 'q000015:p0s')),
    ('q000016', ('q000016:p1', 'q000016:p0')),
    ('q000017', ('q000017:p0', 'q000017:p1')),
    ('q000018', ('q000018:p0', 'q000018:p1', 'q000018:p1s')),
    ('q000019', ('q000019:p1', 'q000019:p0', 'q000019:p0s')),
    ('q000020', ('q000020:p1', 'q000020:p0')),
    ('q000021', ('q000021:p0', 'q000021:p1', 'q000021:p0s')),
    ('q000022', ('q000022:p1', 'q000022:p0', 'q000022:p1s')),
    ('q000023', ('q000023:p0', 'q000023:p0s', 'q000023:p1', 'q000023:p1s')),
    ('q000000', ('q000000:p1', 'q000000:p0')),
    ('q000001', ('q000001:p1s', 'q000001:p1', 'q000001:p0')),
    ('q000002', ('q000002:p1s', 'q000002:p1', 'q000002:p0s', 'q000002:p0')),
    ('q000003', ('q000003:p1s', 'q000003:p1', 'q000003:p0s', 'q000003:p0')),
    ('q000004', ('q000004:p1', 'q000004:p0s', 'q000004:p0')),
    ('q000005', ('q000005:p1s', 'q000005:p1', 'q000005:p0s', 'q000005:p0')),
    ('q000006', ('q000006:p1', 'q000006:p0')),
    ('q000007', ('q000007:p1', 'q000007:p0')),
    ('q000008', ('q000008:p1', 'q000008:p0')),
    ('q000009', ('q000009:p1', 'q000009:p0')),
]


@pytest.fixture(scope="module")
def scored_eval(tmp_path_factory):
    """Runs the scored eval; its --out and the batches it scored."""
    from clarikit import rlc

    tmp_path = tmp_path_factory.mktemp("scored_eval")
    corpus = golden_corpus(tmp_path)
    text = text_flags(tmp_path)
    model = train_golden_rlc(tmp_path, corpus, text)
    assert main([
        "train-ranker", "--out", str(tmp_path / "ranker"), *corpus, *text, "--rlc-model", model,
        "--trees", "5", "--depth", "2", "--seed", "3",
    ]) == 0
    lines = (tmp_path / "data" / "impressions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    impressions = tmp_path / "impressions.jsonl"
    kept = [line for line in lines if not re.match(r"q00000\d:|.*:p1s$", json.loads(line)["pane_id"])]
    impressions.write_text("".join(sorted(kept, key=lambda line: hashlib.sha256(line.encode()).hexdigest())))
    labels = golden_labels(tmp_path)
    reversed_labels = tmp_path / "reversed_labels.jsonl"
    with open(labels, encoding="utf-8") as fh:
        reversed_labels.write_text("".join(reversed(fh.readlines())))
    batches = []
    score_tensor = rlc.RlcModel.score_tensor

    def recorded(model, query, panes, *args):
        batches.append((query.id, tuple(pane.id for pane in panes)))
        return score_tensor(model, query, panes, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rlc.RlcModel, "score_tensor", recorded)
        assert main([
            "eval", "--out", str(tmp_path / "eval"), *corpus[:4], "--impressions", str(impressions), *text,
            "--labels", str(reversed_labels), "--rlc-model", model,
            "--ensemble", str(tmp_path / "ranker" / "ensemble.json"),
            "--randomization-rounds", "2345", "--seed", "3",
        ]) == 0
    return tmp_path / "eval", batches


def test_golden_scored_eval_artifacts(scored_eval):
    out, _ = scored_eval
    assert tree_digests(out) == SCORED_EVAL_GOLDEN


def test_scored_eval_batches_keep_their_order(scored_eval):
    _, batches = scored_eval
    assert batches == SCORED_EVAL_BATCHES
