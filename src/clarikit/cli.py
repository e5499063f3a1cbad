"""Batch command-line surface.

Each command is declared once, in COMMANDS: its function, its config keys
and their defaults, whether it takes --seed, and its input-file flags.  The
parser is built from that table.  Every int or float config key is also a
flag, its name in kebab case; a command with config keys reads them from an
optional JSON config file (--config), whose values for those keys must be
numbers of their default's type, and flags override file values.  Every
command writes plain delimited or line-delimited artifacts into --out and a
manifest.json (command, version, seed, resolved config, a digest of every
input file given) next to them.  An --out that holds another command's
manifest is refused.  A failed command leaves --out as it was, and leaves
no directory it created; so does one stopped by SIGTERM or SIGINT.

Exit codes: 0 success, 1 usage, input or validation error, 2 numerical
failure, 130 stopped by SIGINT, 143 stopped by SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import sys
import tempfile
import threading
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import analytics, bias, dataio, intents as intents_mod, ranker as ranker_mod, rlc as rlc_mod
from .bias import NumericalError
from .core import DomainError, collect_stats, engagement_rate
from .synthlog import CorpusConfig, UserModel, gen_corpus, simulate_impressions
from .tensor.optim import AdamConfig, NonFiniteGradientError


_STAGING = re.compile(r"\.staging-(\d+)-")


def _alive(pid: int) -> bool:
    if os.name != "posix":
        return True  # os.kill(pid, 0) is a probe on POSIX only; elsewhere it signals
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        pass  # another user's process, or no pid at all
    return True


class Outputs:
    """Stages the files of one command in a directory inside --out, named by
    the command's pid.  Only a command that succeeded moves them into --out,
    the manifest last; a failed one, rerun or not, leaves --out as it was,
    and removes the directories it created for it.  The staging directory
    of a command that could not clean up (killed by SIGKILL) is removed by
    the next command in that --out, once no process has its pid."""

    def __init__(self, out_dir: str):
        self.created: list[str] = []  # deepest first
        missing = os.path.abspath(out_dir)
        while not os.path.exists(missing):
            self.created.append(missing)
            missing = os.path.dirname(missing)
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        for name in os.listdir(out_dir):
            match = _STAGING.match(name)
            if match and not _alive(int(match[1])):
                shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
        self.staging = tempfile.mkdtemp(prefix=f".staging-{os.getpid()}-", dir=out_dir)

    def path(self, name: str) -> str:
        return os.path.join(self.staging, name)

    def commit(self) -> None:
        for name in sorted(os.listdir(self.staging), key=lambda name: (name == "manifest.json", name)):
            os.replace(os.path.join(self.staging, name), os.path.join(self.out_dir, name))
        os.rmdir(self.staging)

    def discard(self) -> None:
        shutil.rmtree(self.staging, ignore_errors=True)
        for directory in self.created:
            try:
                os.rmdir(directory)
            except OSError:
                break  # something else wrote into it meanwhile


def _typed(path: str, key: str, value, default):
    """A config-file value of a key whose default is an int or a float, as
    that type: an int key takes an integral number, a float key any finite
    number, and neither takes a bool.  Values of other keys pass through."""
    kind = type(default)
    if kind not in (int, float):
        return value
    number = type(value) in (int, float) and math.isfinite(value)
    if kind is int and number and (type(value) is int or value.is_integer()):
        return int(value)
    if kind is float and number:
        return float(value)
    expected = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{path}: config key {key!r} expects {expected}, got {json.dumps(value)}")


def _refuse_other_command(out_dir: str, command: str) -> None:
    """An --out whose manifest.json records another command is refused: this
    run would replace that command's provenance.  A rerun of the same
    command may replace its own."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return
    try:
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)["command"]
    except (ValueError, KeyError, TypeError):
        raise ValueError(f"{path}: --out holds a manifest.json that is not a clarikit manifest") from None
    if previous != command:
        raise ValueError(f"{path}: --out holds the outputs of {previous!r}; give {command!r} a directory of its own")


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, then config-file values (each of the type of its default),
    then explicit flags.  Numbers must be finite, from either source."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{args.config}: not JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        merged.update((key, _typed(args.config, key, value, defaults[key])) for key, value in file_values.items())
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            if not math.isfinite(flag):
                raise ValueError(f"{_flag(key)} expects a finite number, got {flag}")
            merged[key] = flag
    return merged


def _load_corpus_files(args) -> tuple[dict, dict]:
    queries = dataio.load_queries(args.queries)
    panes = dataio.load_panes(args.panes)
    for pane in panes.values():
        if pane.query_id not in queries:
            raise ValueError(f"pane {pane.id} references unknown query {pane.query_id}")
    return queries, panes


def _load_text_inputs(args) -> tuple[dict, dict[str, str]]:
    """The --intents sets and the --lexicon entity types, empty when not given."""
    intent_sets = intents_mod.load_intent_sets(args.intents) if args.intents else {}
    lexicon = dict(dataio.read_tsv_rows(args.lexicon, (str, str))) if args.lexicon else {}
    return intent_sets, lexicon


def _history(args, log, panes) -> dict[str, list[tuple[str, int]]]:
    """Per-query URL click history: the --history (query_id, url, count) TSV
    if given, else one click per result click of the impressions the
    command read, else none."""
    if args.history:
        rows = dataio.read_tsv_rows(args.history, (str, str, int))
    elif log is None:
        rows = ()
    else:
        query_ids = [panes[pane_id].query_id if pane_id in panes else None for pane_id in log.pane_ids]
        click_queries = (query_ids[pane] for pane in log.pane_index[log.rows(log.result_offsets)].tolist())
        rows = ((query_id, url, 1) for query_id, url in zip(click_queries, log.result_urls) if query_id is not None)
    history: dict[str, dict[str, int]] = {}
    for query_id, url, count in rows:
        bucket = history.setdefault(query_id, {})
        bucket[url] = bucket.get(url, 0) + count
    return {qid: sorted(urls.items()) for qid, urls in history.items()}


def _load_scorer(args) -> Callable:
    """Reads --intents, --lexicon and --rlc-model, each if given, so a
    malformed file fails even when no model will use it.  Returns
    panes_by_query -> the scorer of _rlc_scorer."""
    intent_sets, lexicon = _load_text_inputs(args)
    # scoring only: without parameters that need a gradient a forward keeps
    # no graph, so a batch's intermediates are freed as it goes
    model = rlc_mod.RlcModel.load(args.rlc_model, requires_grad=False) if args.rlc_model else None
    return lambda panes_by_query: _rlc_scorer(model, intent_sets, lexicon, panes_by_query)


def _rlc_scorer(model: rlc_mod.RlcModel | None, intent_sets, lexicon, panes_by_query):
    """A (query, pane) -> RLC score callable, or None without a model.
    panes_by_query holds, per query id, the panes the command scores: the
    first score asked of a query scores all of them in one forward, and
    every later one is read from the memo.  A pane's score can differ in its
    last few bits with the other panes of its batch, which set the shapes of
    the forward's products; the same inputs always give the same bits."""
    if model is None:
        return None
    scores: dict[tuple[str, str], float] = {}

    def scorer(query, pane):
        key = (query.id, pane.id)
        if key not in scores:
            batch = panes_by_query[query.id]
            values = model.score_tensor(query, batch, intent_sets.get(query.id, {}), lexicon).data
            scores.update(zip([(query.id, p.id) for p in batch], values.tolist()))
        return scores[key]

    return scorer


def _engagement_triples(queries, panes, log, min_impressions: int) -> list[rlc_mod.TrainTriple]:
    """Queries with >= 2 sufficiently shown panes whose engagement rates
    differ become training triples labeled by those rates."""
    stats = collect_stats(log, panes)
    by_query: dict[str, list[tuple[str, float]]] = {}
    for pane_id, pane_stats in sorted(stats.items()):
        if pane_stats.impressions < min_impressions:
            continue
        by_query.setdefault(panes[pane_id].query_id, []).append((pane_id, engagement_rate(pane_stats)))
    triples = []
    for query_id in sorted(by_query):
        entries = by_query[query_id]
        if len(entries) < 2 or len({rate for _, rate in entries}) < 2:
            continue
        triples.append(
            rlc_mod.TrainTriple(
                query=queries[query_id],
                panes=tuple(panes[pid] for pid, _ in entries),
                labels=tuple(rate for _, rate in entries),
            )
        )
    return triples


# -- commands ----------------------------------------------------------------

SYNTH_DEFAULTS = {
    "n_queries": 200,
    **{f.name: f.default for f in fields(CorpusConfig) if f.name != "n_queries"},
    "user_model": {"kind": "relevance_only"},
    "n_per_pane": 100,
}


def _tuples(value):
    """A JSON array as a tuple, its nested arrays too; anything else as is."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def cmd_synth_gen(args, config: dict, out: Outputs) -> None:
    # the structured keys are set only by the config file, so a value of the
    # wrong shape is reported against it
    spec = config["user_model"]
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"{args.config}: user_model must be a JSON object with a kind, got {json.dumps(spec)}")
    unknown = sorted(set(spec) - {f.name for f in fields(UserModel)})
    if unknown:
        raise ValueError(f"{args.config}: unknown user_model keys {unknown}")
    try:
        user_model = UserModel(**{key: _tuples(value) for key, value in spec.items()})
        corpus_config = CorpusConfig(**{f.name: _tuples(config[f.name]) for f in fields(CorpusConfig)})
    except ValueError as exc:
        # the file is named only when no flag could have set the bad value
        flagged = any(getattr(args, f.name, None) is not None for f in fields(CorpusConfig))
        raise ValueError(f"{args.config}: {exc}" if args.config and not flagged else str(exc)) from None
    corpus = gen_corpus(corpus_config, seed=args.seed)
    log = simulate_impressions(corpus, user_model, config["n_per_pane"], seed=args.seed)

    dataio.save_queries(out.path("queries.jsonl"), [corpus.queries[k] for k in sorted(corpus.queries)])
    dataio.save_panes(out.path("panes.jsonl"), [corpus.panes[k] for k in sorted(corpus.panes)])
    dataio.save_impressions(out.path("impressions.jsonl"), log)
    intents_mod.save_intent_sets(
        out.path("intents.jsonl"),
        [s for per_query in corpus.intent_sets.values() for s in per_query.values()],
    )
    dataio.write_jsonl(
        out.path("ground_truth.jsonl"),
        (
            {"pane_id": pane_id, "relevance": list(corpus.ground_truth[pane_id])}
            for pane_id in sorted(corpus.ground_truth)
        ),
    )
    dataio.write_tsv(
        out.path("entity_lexicon.tsv"),
        ["answer_text", "entity_type"],
        sorted(corpus.entity_lexicon.items()),
    )


ANALYZE_DEFAULTS = {
    "dwell_threshold_s": 30.0,
    "reformulation_window_s": 300.0,
    "entropy_bins": 5,
}


def cmd_analyze(args, config: dict, out: Outputs) -> None:
    queries, panes = _load_corpus_files(args)
    log = dataio.load_impressions(args.impressions)
    history = _history(args, log, panes)
    stats = collect_stats(log, panes)

    for dimension, rule in analytics.DIMENSIONS.items():
        if rule.needs_history and not history:
            continue
        try:
            table = analytics.engagement_breakdown(
                stats, panes, queries, dimension, historical_clicks=history, n_bins=config["entropy_bins"]
            )
        except DomainError:
            continue  # dimension has no eligible panes in this log
        rows = []
        for row in table.rows:
            base = [row.bucket, row.impressions, row.relative_engagement]
            if row.quartiles is not None:
                base.extend(row.quartiles)
            rows.append(base)
        header = ["bucket", "impressions", "relative_engagement"]
        if any(r.quartiles is not None for r in table.rows):
            header += ["min", "q1", "median", "q3", "max"]
        dataio.write_tsv(out.path(f"breakdown_{dimension}.tsv"), header, rows)

    curves = []
    for ambiguity in ("ambiguous", "faceted"):
        for count in (2, 3, 4, 5):
            try:
                curve = analytics.conditional_click_by_position(stats, panes, queries, ambiguity, count)
            except ValueError:
                continue
            curves.append([ambiguity, count] + [float(v) for v in curve])
    if curves:
        width = max(len(r) for r in curves) - 2
        dataio.write_tsv(
            out.path("conditional_click_by_position.tsv"),
            ["ambiguity_class", "answer_count"] + [f"position_{i + 1}" for i in range(width)],
            [r + [""] * (2 + width - len(r)) for r in curves],
        )

    summary = [
        ["dissatisfaction_rate", analytics.dissatisfaction_rate(
            log, config["dwell_threshold_s"], config["reformulation_window_s"])],
    ]
    try:
        summary.append(["multi_click_rate", analytics.multi_click_rate(log)])
    except ValueError:
        pass
    dataio.write_tsv(out.path("summary.tsv"), ["metric", "value"], summary)


BIAS_DEFAULTS = {"folds": 10}


def cmd_bias(args, config: dict, out: Outputs) -> None:
    _, panes = _load_corpus_files(args)
    # the log is dropped once counted, so what the fits allocate stays below the load's peak
    stats = collect_stats(dataio.load_impressions(args.impressions), panes)
    triples = bias.build_swap_dataset(panes)
    triples = [t for t in triples if t.pane_c in stats and t.pane_c_prime in stats]
    if not triples:
        raise ValueError("no swap triples found in the pane set")

    points = bias.scatter_points(triples, stats)
    dataio.write_tsv(
        out.path("scatter.tsv"),
        ["log_odds_lower", "log_odds_higher", "answer_count", "swap_position"],
        points,
    )
    slope, intercept = bias.fit_scatter_line([(x, y) for x, y, _, _ in points])
    cells = bias.pct_above_diagonal(triples, stats)
    dataio.write_tsv(
        out.path("above_diagonal.tsv"),
        ["answer_count", "swap_position", "pct_above", "points"],
        [[k, i, pct, n] for (k, i), (pct, n) in sorted(cells.items())],
    )

    ce_report = bias.evaluate_click_models(triples, panes, stats, folds=config["folds"])
    report = ce_report.logreg
    weight_rows = []
    for label, per_fold in (("L", report.fold_weights_l), ("R", report.fold_weights_r)):
        for fold, weights in zip(report.folds, per_fold):
            for name, value in zip(report.feature_names, weights):
                weight_rows.append([label, fold, name, float(value)])
        for name, value in zip(report.feature_names, np.mean(per_fold, axis=0)):
            weight_rows.append([label, "mean", name, float(value)])
    dataio.write_tsv(out.path("logreg_weights.tsv"), ["label", "fold", "feature", "weight"], weight_rows)

    ce_rows = [
        [model, group, cell.mean, cell.std, cell.folds]
        for (model, group), cell in sorted(ce_report.cells.items())
    ]
    dataio.write_tsv(out.path("cross_entropy.tsv"), ["model", "options", "mean", "std", "folds"], ce_rows)
    dataio.write_tsv(
        out.path("scatter_fit.tsv"), ["metric", "value"],
        [["slope", slope], ["intercept", intercept], ["points", len(points)]],
    )


INTENTS_DEFAULTS = {"min_freq": 2, "n_max": 8}


def cmd_intents(args, config: dict, out: Outputs) -> None:
    if not args.reformulations and not args.click_titles:
        raise ValueError("need --reformulations and/or --click-titles input")
    query_ids = None
    if args.queries:
        queries = dataio.load_queries(args.queries)
        query_ids = {intents_mod.normalize_phrase(q.text): q.id for q in queries.values()}
    sets: list = []
    for path, read, mine in (
        (args.reformulations, intents_mod.read_reformulations_tsv, intents_mod.intents_from_reformulations),
        (args.click_titles, intents_mod.read_click_titles_tsv, intents_mod.intents_from_click_titles),
    ):
        if path:
            built = mine(read(path), min_freq=config["min_freq"], query_ids=query_ids)
            sets.extend(intents_mod.truncate_intents(s, config["n_max"]) for s in built.values())
    intents_mod.save_intent_sets(out.path("intents.jsonl"), sets)


TRAIN_RLC_DEFAULTS = {
    "dim": 64,
    "heads": 2,
    "layers": 1,
    "max_intents": 8,
    "hash_buckets": 4096,
    "steps": 500,
    "lr": 1e-5,
    "weight_decay": 0.0,
    "warmup_steps": 50,
    "total_steps": 100000,
    "min_impressions": 10,
}


def _adam_config(config: dict) -> AdamConfig:
    """The optimizer settings of train-rlc and fine-tune-rlc.  A run shorter
    than its warmup never reaches its peak learning rate, so it is
    rejected."""
    steps, warmup = config["steps"], config["warmup_steps"]
    if steps < warmup:
        raise ValueError(f"steps ({steps}) is less than warmup_steps ({warmup}): the learning rate would never reach its peak")
    return AdamConfig(
        lr=config["lr"],
        weight_decay=config["weight_decay"],
        warmup_steps=warmup,
        total_steps=config["total_steps"],
    )


def cmd_train_rlc(args, config: dict, out: Outputs) -> None:
    adam = _adam_config(config)
    queries, panes = _load_corpus_files(args)
    # the log is dropped once the triples are built, so it is not held through training
    triples = _engagement_triples(
        queries, panes, dataio.load_impressions(args.impressions), config["min_impressions"]
    )
    intent_sets, lexicon = _load_text_inputs(args)
    if not triples:
        raise ValueError("no queries with >= 2 panes of distinct engagement rates")
    model_config = rlc_mod.RlcConfig(
        dim=config["dim"],
        heads=config["heads"],
        layers=config["layers"],
        max_intents=config["max_intents"],
        hash_buckets=config["hash_buckets"],
    )
    model = rlc_mod.RlcModel.init(model_config, seed=args.seed)
    report = rlc_mod.train_pairwise(
        model, triples, intent_sets, lexicon, adam, steps=config["steps"], shuffle_seed=args.seed
    )
    model.save(out.path("rlc_model.json"))
    dataio.write_tsv(
        out.path("loss.tsv"), ["step", "loss"], [[i + 1, loss] for i, loss in enumerate(report.losses)]
    )


FINE_TUNE_DEFAULTS = {
    "steps": 200,
    "lr": 1e-6,
    "weight_decay": 0.0,
    "warmup_steps": 50,
    "total_steps": 100000,
    "panes_per_query": 10,
}


def cmd_fine_tune_rlc(args, config: dict, out: Outputs) -> None:
    adam = _adam_config(config)
    queries, panes = _load_corpus_files(args)
    labels = {pane_id: pane_labels.overall for _qid, pane_id, pane_labels in dataio.load_labels(args.labels)}
    intent_sets, lexicon = _load_text_inputs(args)
    model = rlc_mod.RlcModel.load(args.model)
    triples = rlc_mod.triples_from_labels(queries, panes, labels)
    report = rlc_mod.fine_tune(
        model,
        triples,
        list(panes.values()),
        adam,
        steps=config["steps"],
        intent_sets=intent_sets,
        entity_lexicon=lexicon,
        panes_per_query=config["panes_per_query"],
        pad_seed=args.seed,
    )
    model.save(out.path("rlc_model.json"))
    dataio.write_tsv(
        out.path("loss.tsv"), ["step", "loss"], [[i + 1, loss] for i, loss in enumerate(report.losses)]
    )


TRAIN_RANKER_DEFAULTS = {
    "trees": 100,
    "depth": 3,
    "shrinkage": 0.1,
    "min_impressions": 10,
}


def _label_scale(rates: Sequence[float]) -> list[float]:
    """Engagement rates mapped onto the graded-label scale used by the nDCG
    gains (0..2), preserving order."""
    top = max(rates)
    if top <= 0:
        return [0.0 for _ in rates]
    return [2.0 * r / top for r in rates]


def cmd_train_ranker(args, config: dict, out: Outputs) -> None:
    queries, panes = _load_corpus_files(args)
    log = dataio.load_impressions(args.impressions)
    history = _history(args, log, panes)
    make_scorer = _load_scorer(args)
    triples = _engagement_triples(queries, panes, log, config["min_impressions"])
    if not triples:
        raise ValueError("no trainable queries in the impression log")
    scorer = make_scorer({t.query.id: t.panes for t in triples})
    per_query = []
    for triple in triples:
        rows = np.array(
            [
                ranker_mod.extract_features(triple.query, pane, history.get(triple.query.id), scorer).as_array()
                for pane in triple.panes
            ]
        )
        per_query.append((rows, np.array(_label_scale(triple.labels))))
    ensemble = ranker_mod.train_lambdamart(
        per_query,
        ranker_mod.LambdaMartConfig(
            n_trees=config["trees"], max_depth=config["depth"], shrinkage=config["shrinkage"]
        ),
    )
    ensemble.save(out.path("ensemble.json"))


def cmd_rank(args, config: dict, out: Outputs) -> None:
    queries, panes = _load_corpus_files(args)
    history = _history(args, None, panes)
    make_scorer = _load_scorer(args)
    ensemble = ranker_mod.BoostedEnsemble.load(args.ensemble) if args.ensemble else None
    by_query: dict[str, list] = {}
    for pane in panes.values():
        by_query.setdefault(pane.query_id, []).append(pane)
    scorer = make_scorer(by_query)
    wanted = [args.query_id] if args.query_id else sorted(by_query)
    rows = []
    for query_id in wanted:
        if query_id not in by_query:
            raise ValueError(f"no panes for query {query_id!r}")
        ranked = ranker_mod.rank_panes(
            queries[query_id], by_query[query_id], ensemble, history.get(query_id), scorer
        )
        for position, pane in enumerate(ranked, start=1):
            rows.append([query_id, position, pane.id])
    dataio.write_tsv(out.path("ranked.tsv"), ["query_id", "rank", "pane_id"], rows)


EVAL_DEFAULTS = {"min_impressions": 10, "randomization_rounds": 10000}


def cmd_eval(args, config: dict, out: Outputs) -> None:
    queries, panes = _load_corpus_files(args)
    make_scorer = _load_scorer(args)
    ensemble = ranker_mod.BoostedEnsemble.load(args.ensemble) if args.ensemble else None

    log = dataio.load_impressions(args.impressions) if args.impressions else None
    history = _history(args, log, panes)

    test_set = []  # (query, panes, engagement rate per pane id)
    if log is not None:
        stats = collect_stats(log, panes)
        by_query: dict[str, list] = {}
        for pane_id, pane_stats in stats.items():
            if pane_stats.impressions >= config["min_impressions"]:
                by_query.setdefault(panes[pane_id].query_id, []).append(pane_id)
        for query_id in sorted(by_query):
            pane_ids = by_query[query_id]
            if len(pane_ids) < 2:
                continue
            rates = {pid: engagement_rate(stats[pid]) for pid in pane_ids}
            test_set.append((queries[query_id], [panes[pid] for pid in pane_ids], rates))

    labeled = []  # (query, labelled panes)
    if args.labels:
        labels = {
            pane_id: rlc_mod.LABEL_VALUES[pane_labels.overall]
            for _qid, pane_id, pane_labels in dataio.load_labels(args.labels)
        }
        by_query = {}
        for pane_id in labels:
            if pane_id in panes:
                by_query.setdefault(panes[pane_id].query_id, []).append(pane_id)
        labeled = [(queries[qid], [panes[pid] for pid in by_query[qid]]) for qid in sorted(by_query)]

    # both sets rank mostly the same panes: each query's are scored in one forward
    scored: dict[str, dict] = {}
    for query, query_panes, *_ in test_set + labeled:
        scored.setdefault(query.id, {}).update((p.id, p) for p in query_panes)
    scorer = make_scorer({qid: list(by_id.values()) for qid, by_id in scored.items()})

    def method_ranker(query, query_panes):
        return ranker_mod.rank_panes(query, query_panes, ensemble, history.get(query.id), scorer)

    baseline = ranker_mod.entropy_baseline_ranker(history)
    rows = []
    if test_set:
        improvement = ranker_mod.engagement_improvement(method_ranker, test_set, baseline)
        rows.append(["engagement_improvement_pct", improvement])
        rows.append(["engagement_queries", len(test_set)])

    if args.labels:
        method_labels, baseline_labels = [], []
        for query, query_panes in labeled:
            ranked = method_ranker(query, query_panes)
            method_labels.append([labels[p.id] for p in ranked])
            ranked_baseline = baseline(query, query_panes)
            baseline_labels.append([labels[p.id] for p in ranked_baseline])
        for k in (1, 3, 5):
            method_scores = [ranker_mod.ndcg_at_k(l, k) for l in method_labels]
            baseline_scores = [ranker_mod.ndcg_at_k(l, k) for l in baseline_labels]
            rows.append([f"ndcg@{k}", float(np.mean(method_scores))])
            rows.append([f"ndcg@{k}_baseline", float(np.mean(baseline_scores))])
            rows.append(
                [
                    f"ndcg@{k}_randomization_p",
                    ranker_mod.randomization_test(
                        method_scores, baseline_scores, rounds=config["randomization_rounds"], seed=args.seed or 0
                    ),
                ]
            )

    if not rows:
        raise ValueError("nothing to evaluate: provide --impressions and/or --labels")
    dataio.write_tsv(out.path("eval.tsv"), ["metric", "value"], rows)


def cmd_plot_data(args, config: dict, out: Outputs) -> None:
    header, rows = dataio.read_tsv(args.input)
    name = args.name or os.path.basename(args.input)
    dataio.write_tsv(out.path(name), header, rows)


# -- the command table and argument wiring --------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand.  defaults: its config keys and their values, or None
    for a command that takes no --config.  required and optional: the dests
    of its input-file flags, each of which the manifest digests when given.
    extras: the dests of its other string flags."""

    func: Callable[[argparse.Namespace, dict, Outputs], None]
    help: str
    defaults: dict | None = None
    seed: bool = False
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    extras: tuple[str, ...] = ()


CORPUS = ("queries", "panes")
TEXT = ("intents", "lexicon")

COMMANDS = {
    "synth-gen": Command(cmd_synth_gen, "generate a synthetic corpus and impression log", SYNTH_DEFAULTS, seed=True),
    "analyze": Command(
        cmd_analyze, "engagement breakdowns and interaction quality metrics", ANALYZE_DEFAULTS,
        required=CORPUS + ("impressions",), optional=("history",),
    ),
    "bias": Command(cmd_bias, "swap-experiment click bias report", BIAS_DEFAULTS, required=CORPUS + ("impressions",)),
    "intents": Command(
        cmd_intents, "build intent sets from reformulations and click titles", INTENTS_DEFAULTS,
        optional=("reformulations", "click_titles", "queries"),
    ),
    "train-rlc": Command(
        cmd_train_rlc, "train the pane scoring model on click data", TRAIN_RLC_DEFAULTS, seed=True,
        required=CORPUS + ("impressions",), optional=TEXT,
    ),
    "fine-tune-rlc": Command(
        cmd_fine_tune_rlc, "continue training on human-labeled panes", FINE_TUNE_DEFAULTS, seed=True,
        required=CORPUS + ("model", "labels"), optional=TEXT,
    ),
    "train-ranker": Command(
        cmd_train_ranker, "train the boosted re-ranker on click data", TRAIN_RANKER_DEFAULTS, seed=True,
        required=CORPUS + ("impressions",), optional=TEXT + ("history", "rlc_model"),
    ),
    "rank": Command(
        cmd_rank, "rank the panes of each query",
        required=CORPUS, optional=TEXT + ("history", "ensemble", "rlc_model"), extras=("query_id",),
    ),
    "eval": Command(
        cmd_eval, "nDCG on labels and engagement improvement on clicks", EVAL_DEFAULTS, seed=True,
        required=CORPUS, optional=TEXT + ("history", "impressions", "labels", "ensemble", "rlc_model"),
    ),
    "plot-data": Command(
        cmd_plot_data, "re-emit a report as a plotting-ready table", required=("input",), extras=("name",)
    ),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as input errors do: exit code 2 means a
    numerical failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clarikit",
        description="Engagement analytics, click-bias estimation, and learned re-ranking for search clarification panes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        sub.add_argument("--out", help="output directory (or CLARIKIT_OUT_DIR)")
        if command.defaults is not None:
            sub.add_argument("--config", help="JSON config file; flags override its values")
        if command.seed:
            sub.add_argument("--seed", type=int, default=0)
        for dest in command.required + command.optional:
            sub.add_argument(_flag(dest), required=dest in command.required)
        for dest in command.extras:
            sub.add_argument(_flag(dest))
        for key, value in (command.defaults or {}).items():
            if type(value) in (int, float):  # structured values are config-file only
                sub.add_argument(_flag(key), type=type(value), default=None)
    return parser


class _Terminated(BaseException):
    """SIGTERM arrived while a command ran."""


def _terminate(signum, frame):
    raise _Terminated()


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out or os.environ.get("CLARIKIT_OUT_DIR")
    if not out_dir:
        parser.error("--out (or CLARIKIT_OUT_DIR) is required")
    command = COMMANDS[args.command]
    # SIGTERM becomes an exception, as SIGINT is KeyboardInterrupt, so a
    # stopped command discards its staged outputs as a failed one does; only
    # the main thread may set it
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        _refuse_other_command(out_dir, args.command)
        outputs = Outputs(out_dir)
        try:
            config = _merge_config(args, command.defaults or {})
            command.func(args, config, outputs)
            given = [dest for dest in command.required + command.optional if getattr(args, dest)]
            inputs = {dest: getattr(args, dest) for dest in given}
            dataio.write_manifest(outputs.staging, args.command, config, inputs, seed=getattr(args, "seed", None))
            outputs.commit()
        except BaseException:
            # whatever failed, --out keeps what it held; unexpected
            # exceptions keep their traceback
            outputs.discard()
            raise
    except (NumericalError, NonFiniteGradientError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except _Terminated:
        print("terminated by SIGTERM; --out left as it was", file=sys.stderr)
        return 128 + signal.SIGTERM
    except KeyboardInterrupt:
        print("interrupted by SIGINT; --out left as it was", file=sys.stderr)
        return 128 + signal.SIGINT
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
