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
no directory it created; so does one stopped by SIGTERM or SIGINT, whose
handler ends the process.  Error messages are cut to MESSAGE_CHARS characters.

Exit codes: 0 success, 1 usage, input or validation error, 2 numerical
failure (core.NumericalError), 130 stopped by SIGINT, 143 stopped by SIGTERM.
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
import threading
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import dataio, intents as intents_mod
from .core import DomainError, ImpressionLog, NumericalError, PaneStats, collect_stats
from .synthconfig import CorpusConfig, UserModel

# each command imports the modules it runs when it runs, so a process
# loads only its own command's code
if TYPE_CHECKING:
    from . import rlc as rlc_mod
    from .tensor.optim import AdamConfig


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
    the manifest last; a failed or stopped one leaves --out as it was, and
    removes what make created of the directories it names.  The staging
    directory of a command that could not clean up (killed by SIGKILL) is
    removed by the next command in that --out, once no process has its pid."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        missing = os.path.abspath(out_dir)
        self.staging = os.path.join(missing, f".staging-{os.getpid()}-{os.urandom(4).hex()}")
        self.created: list[str] = []  # deepest first
        while not os.path.exists(missing):
            self.created.append(missing)
            missing = os.path.dirname(missing)

    def make(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        for name in os.listdir(self.out_dir):
            match = _STAGING.match(name)
            if match and not _alive(int(match[1])):
                shutil.rmtree(os.path.join(self.out_dir, name), ignore_errors=True)
        os.mkdir(self.staging, 0o700)

    def path(self, name: str) -> str:
        return os.path.join(self.staging, name)

    def commit(self) -> None:
        for name in sorted(os.listdir(self.staging), key=lambda name: (name == "manifest.json", name)):
            os.replace(os.path.join(self.staging, name), os.path.join(self.out_dir, name))
        os.rmdir(self.staging)

    def discard(self) -> None:
        shutil.rmtree(self.staging, ignore_errors=True)
        for directory in filter(os.path.exists, self.created):  # a stop can come before make made them all
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
        previous = dataio.read_json(path)["command"]
    except (ValueError, KeyError):
        raise ValueError(f"{path}: --out holds a manifest.json that is not a clarikit manifest") from None
    if previous != command:
        raise ValueError(f"{path}: --out holds the outputs of {previous!r}; give {command!r} a directory of its own")


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, then config-file values (each of the type of its default),
    then explicit flags.  Numbers must be finite, from either source."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        file_values = dataio.read_json(args.config)
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
            raise ValueError(f"{args.panes}: pane {pane.id!r} references unknown query {pane.query_id!r}")
    return queries, panes


def _load_log(args, panes) -> ImpressionLog:
    """The --impressions log; an impression of a pane that --panes does not
    hold fails naming the file."""
    log = dataio.load_impressions(args.impressions)
    unknown = next((pane_id for pane_id in log.pane_ids if pane_id not in panes), None)
    if unknown is not None:
        raise ValueError(f"{args.impressions}: impression references unknown pane {unknown!r}")
    return log


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
        query_ids = [panes[pane_id].query_id for pane_id in log.pane_ids]
        click_queries = (query_ids[pane] for pane in log.pane_index[log.rows(log.result_offsets)].tolist())
        rows = ((query_id, url, 1) for query_id, url in zip(click_queries, log.result_urls))
    history: dict[str, dict[str, int]] = {}
    for query_id, url, count in rows:
        bucket = history.setdefault(query_id, {})
        bucket[url] = bucket.get(url, 0) + count
    return {qid: sorted(urls.items()) for qid, urls in history.items()}


def _load_scorer(args) -> Callable:
    """Reads --intents, --lexicon and --rlc-model, each if given, so a
    malformed file fails even when no model will use it.  Returns
    panes_by_query -> the scorer of _rlc_scorer."""
    from . import rlc as rlc_mod

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


def _click_ratings(stats: PaneStats, min_impressions: int) -> dict[str, float]:
    """The engagement rate of each pane of stats shown at least
    min_impressions times, in the order of its rows."""
    shown = np.flatnonzero(stats.impressions >= min_impressions)
    rates = stats.engaged[shown] / stats.impressions[shown]
    return dict(zip([stats.ids[row] for row in shown.tolist()], rates.tolist()))


def _engagement_triples(queries, panes, log, min_impressions: int) -> list[rlc_mod.TrainTriple]:
    """Queries whose sufficiently shown panes differ in engagement rate
    become training triples labeled by those rates, panes in id order."""
    from . import rlc as rlc_mod

    ratings = _click_ratings(collect_stats(log, panes).by_id(), min_impressions)
    return [t for t in rlc_mod.group_by_query(queries, panes, ratings) if len(set(t.labels)) >= 2]


def _load_grades(args, panes) -> dict[str, float]:
    """The overall --labels grades as pane id -> Bad 0.0, Fair 1.0 or Good
    2.0, in file order; a later label of a pane replaces its grade.  A label
    of a pane that --panes does not hold, or naming a query other than its
    pane's, fails naming the file."""
    from .rlc import LABEL_VALUES

    grades = {}
    for query_id, pane_id, pane_labels in dataio.load_labels(args.labels):
        if pane_id not in panes:
            raise ValueError(f"{args.labels}: label references unknown pane {pane_id!r}")
        if query_id != panes[pane_id].query_id:
            raise ValueError(
                f"{args.labels}: label of pane {pane_id!r} names query {query_id!r}, "
                f"but the pane belongs to {panes[pane_id].query_id!r}"
            )
        grades[pane_id] = LABEL_VALUES[pane_labels.overall]
    return grades


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
    from .synthlog import gen_corpus, simulate_impressions

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
    from . import analytics

    queries, panes = _load_corpus_files(args)
    log = _load_log(args, panes)
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
    from . import bias

    _, panes = _load_corpus_files(args)
    # the log is dropped once counted, so what the fits allocate stays below the load's peak
    stats = collect_stats(_load_log(args, panes), panes)
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
    from .tensor.optim import AdamConfig

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
    from . import rlc as rlc_mod

    adam = _adam_config(config)
    queries, panes = _load_corpus_files(args)
    # the log is dropped once the triples are built, so it is not held through training
    triples = _engagement_triples(
        queries, panes, _load_log(args, panes), config["min_impressions"]
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
    from . import rlc as rlc_mod

    adam = _adam_config(config)
    queries, panes = _load_corpus_files(args)
    grades = _load_grades(args, panes)
    intent_sets, lexicon = _load_text_inputs(args)
    model = rlc_mod.RlcModel.load(args.model)
    triples = rlc_mod.group_by_query(queries, panes, dict(sorted(grades.items())))
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
    from . import ranker as ranker_mod

    queries, panes = _load_corpus_files(args)
    log = _load_log(args, panes)
    history = _history(args, log, panes)
    make_scorer = _load_scorer(args)
    triples = _engagement_triples(queries, panes, log, config["min_impressions"])
    if not triples:
        raise ValueError("no trainable queries in the impression log")
    scorer = make_scorer({t.query.id: t.panes for t in triples})
    per_query = [
        (ranker_mod.feature_rows(t.query, t.panes, history.get(t.query.id), scorer), np.array(_label_scale(t.labels)))
        for t in triples
    ]
    ensemble = ranker_mod.train_lambdamart(
        per_query,
        ranker_mod.LambdaMartConfig(
            n_trees=config["trees"], max_depth=config["depth"], shrinkage=config["shrinkage"]
        ),
    )
    ensemble.save(out.path("ensemble.json"))


def cmd_rank(args, config: dict, out: Outputs) -> None:
    from . import ranker as ranker_mod

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
    from . import ranker as ranker_mod, rlc as rlc_mod

    queries, panes = _load_corpus_files(args)
    make_scorer = _load_scorer(args)
    ensemble = ranker_mod.BoostedEnsemble.load(args.ensemble) if args.ensemble else None

    log = _load_log(args, panes) if args.impressions else None
    history = _history(args, log, panes)

    # the scorer batches each query's panes in these orders: the click set's
    # follows the stats rows (first appearance in the log), the labelled set's the labels file
    rates = _click_ratings(collect_stats(log, panes), config["min_impressions"]) if log is not None else {}
    test_set = [t for t in rlc_mod.group_by_query(queries, panes, rates) if len(t.panes) >= 2]
    grades = _load_grades(args, panes) if args.labels else {}
    labeled = rlc_mod.group_by_query(queries, panes, grades)

    # both sets rank mostly the same panes: each query's are scored in one forward
    scored: dict[str, dict] = {}
    for triple in test_set + labeled:
        scored.setdefault(triple.query.id, {}).update((p.id, p) for p in triple.panes)
    scorer = make_scorer({qid: list(by_id.values()) for qid, by_id in scored.items()})

    def method_ranker(query, query_panes):
        return ranker_mod.rank_panes(query, query_panes, ensemble, history.get(query.id), scorer)

    baseline = ranker_mod.entropy_baseline_ranker(history)
    rows = []
    if test_set:
        improvement = ranker_mod.engagement_improvement(
            method_ranker, [(t.query, t.panes, rates) for t in test_set], baseline
        )
        rows.append(["engagement_improvement_pct", improvement])
        rows.append(["engagement_queries", len(test_set)])

    if args.labels:
        method_labels, baseline_labels = [], []
        for triple in labeled:
            method_labels.append([grades[p.id] for p in method_ranker(triple.query, triple.panes)])
            baseline_labels.append([grades[p.id] for p in baseline(triple.query, triple.panes)])
        for k in (1, 3, 5):
            method_scores = [ranker_mod.ndcg_at_k(l, k) for l in method_labels]
            baseline_scores = [ranker_mod.ndcg_at_k(l, k) for l in baseline_labels]
            rows.append([f"ndcg@{k}", float(np.mean(method_scores))])
            rows.append([f"ndcg@{k}_baseline", float(np.mean(baseline_scores))])
            rows.append(
                [
                    f"ndcg@{k}_randomization_p",
                    ranker_mod.randomization_test(
                        method_scores, baseline_scores, rounds=config["randomization_rounds"], seed=args.seed
                    ),
                ]
            )

    if not rows:
        raise ValueError("nothing to evaluate: provide --impressions and/or --labels")
    dataio.write_tsv(out.path("eval.tsv"), ["metric", "value"], rows)


def cmd_plot_data(args, config: dict, out: Outputs) -> None:
    name = args.name or os.path.basename(args.input)
    # the table goes into --out itself, beside the manifest written after it
    if name in (".", "..", "manifest.json") or any(sep and sep in name for sep in (os.sep, os.altsep)):
        raise ValueError(f"--name {name!r} must be a file name other than manifest.json, without a path separator")
    header, rows = dataio.read_tsv(args.input)
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


_STOPS = {signal.SIGINT: "interrupted by SIGINT", signal.SIGTERM: "terminated by SIGTERM"}

# a message quotes the value it rejects, which can be megabytes long
MESSAGE_CHARS = 1000


def _report(message: str) -> None:
    """Prints message to stderr, cut to MESSAGE_CHARS characters."""
    print(message if len(message) <= MESSAGE_CHARS else message[: MESSAGE_CHARS - 3] + "...", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Runs one command; returns its exit code.  SIGINT and SIGTERM end the
    process from their handler, through os._exit, also when main runs in-process."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out or os.environ.get("CLARIKIT_OUT_DIR")
    if not out_dir:
        parser.error("--out (or CLARIKIT_OUT_DIR) is required")
    command = COMMANDS[args.command]

    def stop(signum, frame):
        try:
            outputs.discard()
            print(f"{_STOPS[signum]}; --out left as it was", file=sys.stderr, flush=True)
        finally:
            os._exit(128 + signum)

    previous = {}
    try:
        outputs = Outputs(out_dir)  # names the directories that make creates
        # only the main thread may set handlers; an ignored stop signal stays
        # ignored, and a handler not set from Python (None) could not be restored
        if threading.current_thread() is threading.main_thread():
            previous = {signum: signal.signal(signum, stop) for signum in _STOPS if signal.getsignal(signum) not in (signal.SIG_IGN, None)}
        _refuse_other_command(out_dir, args.command)
        try:
            outputs.make()
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
    except NumericalError as exc:
        _report(f"numerical failure: {exc}")
        return 2
    except (ValueError, KeyError, OSError) as exc:
        _report(f"error: {exc}")
        return 1
    except MemoryError as exc:
        _report(f"error: out of memory: {exc}")
        return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
