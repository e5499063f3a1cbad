"""The benchmark's three workloads: synthetic-corpus configs, the side inputs
the benchmark writes next to them, the CLI stages each workload runs, and the
oracle checks on the stages' outputs.

Everything here is the benchmark's own code: it imports nothing from
clarikit, so a check can never pass because the code under test agrees with
itself.  Inputs depend only on the seed, so the same seed gives byte-identical
inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

# Answer-examination probabilities of the log_scan user model.  They are
# written into the synth-gen config, so the multi-click oracle and the
# generator share one source.
EXAM_PROBS = (1.0, 0.85, 0.72, 0.61, 0.52)

# intents --min-freq and --n-max defaults; the expected intent sets apply them.
MIN_FREQ = 2
N_MAX = 8
# Each true intent weight is emitted this many times over, split into rows of
# 1..3 clicks, so the intent TSVs hold ~83k rows at 400 queries.
TSV_WEIGHT_SCALE = 8

_TOKEN_RE = re.compile(r"[a-z0-9']+")


@dataclass(frozen=True)
class Stage:
    command: str
    # (input dir, out dir of every earlier stage by command, seed) -> CLI
    # arguments after the command name, without --out
    args: Callable[[str, dict, int], list]


@dataclass(frozen=True)
class Workload:
    name: str
    synth_config: dict
    # (input dir, seed): writes the benchmark's own side inputs
    write_side_inputs: Callable[[str, int], None]
    stages: tuple
    # (input dir, out dir by command) -> [(command, failed-check message)]
    check: Callable[[str, dict], list]


# -- shared helpers ------------------------------------------------------------


def read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_tsv(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return lines[0], lines[1:]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _corpus(inp: str) -> list:
    return [
        "--queries", os.path.join(inp, "queries.jsonl"),
        "--panes", os.path.join(inp, "panes.jsonl"),
    ]


def _normalize(text: str) -> str:
    return " ".join(_TOKEN_RE.findall(text.lower()))


def _chunks(total: int, rng: random.Random) -> list:
    """Split a click total into row frequencies of 1..3."""
    out = []
    while total > 0:
        part = min(total, rng.randint(1, 3))
        out.append(part)
        total -= part
    return out


def _vary_case(text: str, rng: random.Random) -> str:
    """Same tokens after normalization, different surface form."""
    return rng.choice((text, text.title(), text.upper(), f"{text}!"))


# -- log_scan ------------------------------------------------------------------


def write_intent_tsvs(inp: str, seed: int) -> None:
    """Write reformulation and click-title TSVs whose mined intent sets are
    known, plus expected_intents.jsonl for the oracle.

    Every true intent of intents.jsonl is spread over several rows with
    varied case.  Distractor rows must all be filtered: follow-ups that do
    not contain the query, follow-ups equal to it, follow-ups seen once
    (below --min-freq), and titles that are nothing but punctuation before
    the ' - Site' suffix.
    """
    rng = random.Random(f"log_scan-tsv-{seed}")
    queries = {q["id"]: q["text"] for q in read_jsonl(os.path.join(inp, "queries.jsonl"))}
    sets = read_jsonl(os.path.join(inp, "intents.jsonl"))
    sites = ("Site", "Wiki", "Shop Online", "News | Daily")
    expected: dict = {}  # (normalized query, source) -> intent -> weight
    reform_rows, title_rows = [], []
    for intent_set in sets:
        text = queries[intent_set["query_id"]]
        source = intent_set["source"]
        bucket = expected.setdefault((_normalize(text), source), {})
        for n, (intent, weight) in enumerate(intent_set["items"]):
            total = int(weight) * TSV_WEIGHT_SCALE
            bucket[intent] = bucket.get(intent, 0) + total
            for freq in _chunks(total, rng):
                shown = _vary_case(intent, rng)
                if source == "reformulation":
                    reform_rows.append((text, shown, freq))
                else:
                    url = f"https://{intent_set['query_id']}.example/{n}/{rng.randint(0, 9)}"
                    title_rows.append((text, url, f"{shown} - {rng.choice(sites)}", freq))
        qid = intent_set["query_id"]
        tokens = text.split()
        if source == "reformulation":
            reform_rows.append((text, f"{' '.join(reversed(tokens))} extra", rng.randint(2, 9)))
            reform_rows.append((text, text.upper(), rng.randint(2, 9)))
            reform_rows.append((text, f"{tokens[-1]} only", rng.randint(2, 9)))
            reform_rows.append((text, f"{text} {qid} rare", 1))
        else:
            title_rows.append((text, f"https://{qid}.example/rare", f"{qid} rare title - Site", 1))
            title_rows.append((text, f"https://{qid}.example/empty", f"!!! - {rng.choice(sites)}", rng.randint(2, 9)))
    rng.shuffle(reform_rows)
    rng.shuffle(title_rows)
    with open(os.path.join(inp, "reformulations.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{q}\t{qp}\t{w}\n" for q, qp, w in reform_rows)
    with open(os.path.join(inp, "click_titles.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{q}\t{url}\t{title}\t{f}\n" for q, url, title, f in title_rows)

    # intents maps a normalized query text to the last query id (in file
    # order) that has it; queries sharing a text pool their intents
    owner = {_normalize(text): qid for qid, text in sorted(queries.items())}
    with open(os.path.join(inp, "expected_intents.jsonl"), "w", encoding="utf-8") as fh:
        for (q_norm, source), bucket in sorted(expected.items(), key=lambda kv: (owner[kv[0][0]], kv[0][1])):
            items = sorted(((t, float(w)) for t, w in bucket.items() if w >= MIN_FREQ), key=lambda it: (-it[1], it[0]))
            fh.write(_dumps({"query_id": owner[q_norm], "source": source, "items": [list(it) for it in items[:N_MAX]]}))
            fh.write("\n")


def multi_click_oracle(inp: str) -> tuple:
    """Closed-form multi-click rate under the examination model and its
    binomial standard error: answers click independently with probability
    exam_prob(position) * relevance, and every pane has the same impression
    count, so the rate is sum P(>=2 clicks) / sum P(>=1 click)."""
    n_per_pane = LOG_SCAN.synth_config["n_per_pane"]
    p_any = p_multi = 0.0
    for row in read_jsonl(os.path.join(inp, "ground_truth.jsonl")):
        probs = [e * r for e, r in zip(EXAM_PROBS, row["relevance"])]
        none = math.prod(1.0 - p for p in probs)
        exactly_one = sum(p * none / (1.0 - p) for p in probs)
        p_any += 1.0 - none
        p_multi += 1.0 - none - exactly_one
    rate = p_multi / p_any
    engaged = p_any * n_per_pane
    return rate, math.sqrt(rate * (1.0 - rate) / engaged)


def check_log_scan(inp: str, outs: dict) -> list:
    failures = []
    _, rows = read_tsv(os.path.join(outs["analyze"], "summary.tsv"))
    observed = {name: float(value) for name, value in rows}
    expected, stderr = multi_click_oracle(inp)
    if abs(observed["multi_click_rate"] - expected) > 5.0 * stderr:
        failures.append((
            "analyze",
            f"multi_click_rate {observed['multi_click_rate']:.5f} is not within 5 standard errors "
            f"({stderr:.5f}) of the closed form {expected:.5f}",
        ))
    got = read_jsonl(os.path.join(outs["intents"], "intents.jsonl"))
    want = read_jsonl(os.path.join(inp, "expected_intents.jsonl"))
    if got != want:
        failures.append(("intents", f"intents.jsonl ({len(got)} sets) differs from the {len(want)} sets planted in the TSVs"))
    return failures


LOG_SCAN = Workload(
    name="log_scan",
    synth_config={
        "n_queries": 400,
        "panes_per_query": 2,
        "n_per_pane": 100,
        "swap_fraction": 0.0,
        "reformulation_rate": 0.2,
        "result_click_rate": 0.3,
        "user_model": {"kind": "examination", "exam_probs": list(EXAM_PROBS)},
    },
    write_side_inputs=write_intent_tsvs,
    stages=(
        Stage("analyze", lambda inp, outs, seed: _corpus(inp) + ["--impressions", os.path.join(inp, "impressions.jsonl")]),
        Stage(
            "intents",
            lambda inp, outs, seed: [
                "--reformulations", os.path.join(inp, "reformulations.tsv"),
                "--click-titles", os.path.join(inp, "click_titles.tsv"),
                "--queries", os.path.join(inp, "queries.jsonl"),
            ],
        ),
    ),
    check=check_log_scan,
)


# -- swap_bias -----------------------------------------------------------------


def check_swap_bias(inp: str, outs: dict) -> list:
    failures = []
    pane_ids = {row["pane_id"] for row in read_jsonl(os.path.join(inp, "ground_truth.jsonl"))}
    pairs = sum(1 for pid in pane_ids if pid.endswith("s") and pid[:-1] in pane_ids)
    _, scatter = read_tsv(os.path.join(outs["bias"], "scatter.tsv"))
    if len(scatter) != 2 * pairs:
        failures.append(("bias", f"scatter.tsv has {len(scatter)} rows for {pairs} swap pairs, expected {2 * pairs}"))
    _, ce_rows = read_tsv(os.path.join(outs["bias"], "cross_entropy.tsv"))
    overall = {model: float(mean) for model, group, mean, _std, _folds in ce_rows if group == "overall"}
    best = min(overall, key=overall.get)
    if overall.get("best_possible") != overall[best]:
        failures.append(("bias", f"{best} has a lower overall cross entropy than best_possible"))
    return failures


SWAP_BIAS = Workload(
    name="swap_bias",
    synth_config={
        # every (answer count, swap position) cell, 10 queries each.  Clicks
        # carry no position bias: under size_offset_logistic the examination
        # EM stops anywhere between 50k and 92k iterations over 10 folds
        # depending on the seed, so bias time would follow the seed, not the
        # code; under this null nearly every fold runs to max_iter.
        "cell_plan": [[k, i, 10] for k in range(2, 6) for i in range(1, k)],
        "n_per_pane": 200,
        "user_model": {"kind": "relevance_only"},
    },
    write_side_inputs=lambda inp, seed: None,
    stages=(
        # 3 folds keep one bias run near 3 s, so a run holds several passes
        Stage(
            "bias",
            lambda inp, outs, seed: _corpus(inp) + ["--impressions", os.path.join(inp, "impressions.jsonl"), "--folds", "3"],
        ),
    ),
    check=check_swap_bias,
)


# -- learn_rank ----------------------------------------------------------------


def _label(value: float) -> str:
    return "Good" if value >= 0.3 else "Fair" if value >= 0.15 else "Bad"


def write_labels(inp: str, seed: int) -> None:
    """labels.jsonl from ground_truth.jsonl: within each query the pane of
    highest mean relevance is Good, the lowest Bad, the rest Fair; each
    answer's landing label grades its own relevance."""
    by_query: dict = {}
    for row in read_jsonl(os.path.join(inp, "ground_truth.jsonl")):
        by_query.setdefault(row["pane_id"].split(":")[0], []).append(row)
    with open(os.path.join(inp, "labels.jsonl"), "w", encoding="utf-8") as fh:
        for qid in sorted(by_query):
            ranked = sorted(by_query[qid], key=lambda r: (-sum(r["relevance"]) / len(r["relevance"]), r["pane_id"]))
            for rank, row in enumerate(ranked):
                overall = "Good" if rank == 0 else "Bad" if rank == len(ranked) - 1 else "Fair"
                landing = [_label(v) for v in row["relevance"]]
                fh.write(_dumps({"query_id": qid, "pane_id": row["pane_id"], "overall": overall, "landing": landing}))
                fh.write("\n")


def _model_inputs(inp: str) -> list:
    return _corpus(inp) + [
        "--intents", os.path.join(inp, "intents.jsonl"),
        "--lexicon", os.path.join(inp, "entity_lexicon.tsv"),
    ]


def _scored(inp: str, outs: dict) -> list:
    return _model_inputs(inp) + [
        "--rlc-model", os.path.join(outs["fine-tune-rlc"], "rlc_model.json"),
        "--ensemble", os.path.join(outs["train-ranker"], "ensemble.json"),
    ]


def check_learn_rank(inp: str, outs: dict) -> list:
    failures = []
    panes_by_query: dict = {}
    for row in read_jsonl(os.path.join(inp, "ground_truth.jsonl")):
        panes_by_query.setdefault(row["pane_id"].split(":")[0], set()).add(row["pane_id"])
    _, ranked = read_tsv(os.path.join(outs["rank"], "ranked.tsv"))
    by_query: dict = {}
    for qid, rank, pane_id in ranked:
        by_query.setdefault(qid, []).append((int(rank), pane_id))
    if set(by_query) != set(panes_by_query):
        failures.append(("rank", "ranked.tsv does not cover exactly the corpus queries"))
    for qid, entries in by_query.items():
        ranks = sorted(r for r, _ in entries)
        if ranks != list(range(1, len(entries) + 1)) or {p for _, p in entries} != panes_by_query.get(qid):
            failures.append(("rank", f"{qid} is not ranked as a permutation of its panes"))
    _, metrics = read_tsv(os.path.join(outs["eval"], "eval.tsv"))
    ndcgs = [(name, float(v)) for name, v in metrics if name.startswith("ndcg@") and not name.endswith("_p")]
    if len(ndcgs) != 6 or any(not 0.0 <= v <= 1.0 for _, v in ndcgs):
        failures.append(("eval", f"nDCG values out of [0, 1] or missing: {ndcgs}"))
    for command in ("train-rlc", "fine-tune-rlc"):
        _, losses = read_tsv(os.path.join(outs[command], "loss.tsv"))
        if not losses or any(not math.isfinite(float(loss)) for _, loss in losses):
            failures.append((command, "loss.tsv is empty or has a non-finite loss"))
    return failures


LEARN_RANK = Workload(
    name="learn_rank",
    synth_config={
        "n_queries": 20,
        "panes_per_query": 5,
        "n_per_pane": 200,
        "relevance": ["planted"],
        "result_click_rate": 0.3,
        "user_model": {"kind": "relevance_only"},
    },
    write_side_inputs=write_labels,
    stages=(
        Stage(
            "train-rlc",
            lambda inp, outs, seed: _model_inputs(inp) + [
                "--impressions", os.path.join(inp, "impressions.jsonl"),
                "--dim", "32", "--hash-buckets", "1024", "--max-intents", "4",
                "--steps", "60", "--lr", "0.001", "--warmup-steps", "20", "--seed", str(seed),
            ],
        ),
        Stage(
            "fine-tune-rlc",
            lambda inp, outs, seed: _model_inputs(inp) + [
                "--model", os.path.join(outs["train-rlc"], "rlc_model.json"),
                "--labels", os.path.join(inp, "labels.jsonl"),
                "--steps", "20", "--lr", "0.0005", "--warmup-steps", "10", "--seed", str(seed),
            ],
        ),
        Stage(
            "train-ranker",
            lambda inp, outs, seed: _model_inputs(inp) + [
                "--impressions", os.path.join(inp, "impressions.jsonl"),
                "--rlc-model", os.path.join(outs["fine-tune-rlc"], "rlc_model.json"),
                "--seed", str(seed),
            ],
        ),
        Stage("rank", lambda inp, outs, seed: _scored(inp, outs)),
        Stage(
            "eval",
            lambda inp, outs, seed: _scored(inp, outs) + [
                "--impressions", os.path.join(inp, "impressions.jsonl"),
                "--labels", os.path.join(inp, "labels.jsonl"),
                "--seed", str(seed),
            ],
        ),
    ),
    check=check_learn_rank,
)

WORKLOADS = {w.name: w for w in (LOG_SCAN, SWAP_BIAS, LEARN_RANK)}
