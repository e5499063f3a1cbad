"""Span and counter recording for the traced run, installed from outside the
program: every traced function is replaced by a wrapper at each module
attribute that refers to it (a function imported by name into several modules
is wrapped in each), and traced methods are replaced on their class.

Spans are held in memory as [name, start, end, parent index, stage] and
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children; calls never overlap because the
program runs on one thread.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import math
import sys
import time

# (module, class or None, attribute, span name).  Functions are matched by
# identity across every loaded clarikit module, so each binding site is found.
SPANNED = (
    ("clarikit.dataio", None, "load_impressions", "dataio.load_impressions"),
    ("clarikit.dataio", None, "save_impressions", "dataio.save_impressions"),
    ("clarikit.core", None, "collect_stats", "core.collect_stats"),
    ("clarikit.synthlog", None, "gen_corpus", "synthlog.gen_corpus"),
    ("clarikit.synthlog", None, "simulate_impressions", "synthlog.simulate_impressions"),
    ("clarikit.analytics", None, "engagement_breakdown", "analytics.engagement_breakdown"),
    ("clarikit.analytics", None, "conditional_click_by_position", "analytics.conditional_click_by_position"),
    ("clarikit.analytics", None, "dissatisfaction_rate", "analytics.dissatisfaction_rate"),
    ("clarikit.analytics", None, "multi_click_rate", "analytics.multi_click_rate"),
    ("clarikit.intents", None, "intents_from_reformulations", "intents.intents_from_reformulations"),
    ("clarikit.intents", None, "intents_from_click_titles", "intents.intents_from_click_titles"),
    ("clarikit.bias", None, "build_swap_dataset", "bias.build_swap_dataset"),
    ("clarikit.bias", None, "fit_examination_em", "bias.fit_examination_em"),
    ("clarikit.bias", None, "fit_fractional_logreg", "bias.fit_fractional_logreg"),
    ("clarikit.bias", None, "evaluate_click_models", "bias.evaluate_click_models"),
    ("clarikit.tensor.text", None, "sequence_ids", "tensor.text.sequence_ids"),
    ("clarikit.tensor.nn", None, "transformer_encoder_layer", "tensor.nn.transformer_encoder_layer"),
    ("clarikit.tensor.autodiff", "Tensor", "backward", "tensor.autodiff.Tensor.backward"),
    ("clarikit.tensor.optim", "Adam", "step", "tensor.optim.Adam.step"),
    ("clarikit.tensor.checkpoint", None, "load_tensors", "tensor.checkpoint.load_tensors"),
    ("clarikit.tensor.checkpoint", None, "save_tensors", "tensor.checkpoint.save_tensors"),
    ("clarikit.rlc", "RlcModel", "score_tensor", "rlc.RlcModel.score_tensor"),
    ("clarikit.rlc", None, "train_pairwise", "rlc.train_pairwise"),
    ("clarikit.ranker", None, "train_lambdamart", "ranker.train_lambdamart"),
    ("clarikit.ranker", None, "extract_features", "ranker.extract_features"),
    ("clarikit.ranker", "BoostedEnsemble", "predict", "ranker.BoostedEnsemble.predict"),
    ("clarikit.ranker", None, "randomization_test", "ranker.randomization_test"),
    ("clarikit.ranker", None, "rank_panes", "ranker.rank_panes"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stage = ""
        self.counts: collections.Counter = collections.Counter()  # (stage, counter) -> n
        self.scored: dict = collections.defaultdict(set)  # stage -> distinct (query, pane) ids
        self._stack: list = []
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.stage]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _counted(self, counter: str, fn, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.stage, counter)] += 1
            if key is not None:
                self.scored[self.stage].add(key(args))
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "clarikit" or n.startswith("clarikit.")]
        for module_name, class_name, attr, span_name in SPANNED:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                self._patch(getattr(owner, class_name), attr, self._spanned(span_name, getattr(getattr(owner, class_name), attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._spanned(span_name, original)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        tensor = importlib.import_module("clarikit.tensor.autodiff").Tensor
        self._patch(tensor, "__init__", self._counted("tensors", tensor.__init__))
        model = importlib.import_module("clarikit.rlc").RlcModel
        # RlcModel.score(query, pane, ...): count calls and distinct panes
        self._patch(model, "score", self._counted("score_calls", model.score, key=lambda a: (a[1].id, a[2].id)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, run_id: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tstage\trun\n")
            for index, (name, start, end, parent, stage) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{stage}\t{run_id}\n")

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, commands: list) -> dict:
        """Per-layer metrics over every recorded stage; layers the workload
        does not load, and `commands` it does not run, read 0."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _stage in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict = collections.defaultdict(float)
        durations: dict = collections.defaultdict(list)
        for index, (name, start, end, _parent, _stage) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[index]
            durations[name].append(end - start)

        metrics = {}
        for *_site, name in SPANNED:
            samples = sorted(durations.get(name, ()))
            metrics[f"{name}.s"] = self_s.get(name, 0.0)
            metrics[f"{name}.calls"] = len(samples)
            metrics[f"{name}.p50_s"] = _percentile(samples, 0.50)
            metrics[f"{name}.p99_s"] = _percentile(samples, 0.99)
        for command in commands:
            metrics[f"cli.{command}.unattributed_s"] = self_s.get(f"cli.{command}", 0.0)

        stages = sorted({stage for _name, _start, _end, _parent, stage in self.spans})

        def count(stage: str, key: str) -> int:
            return self.counts[(stage, key)]

        metrics["dataio.load_impressions.records"] = sum(count(s, "records_loaded") for s in stages)
        # the worst stage: most stats passes per loaded record, fewest
        # distinct panes per score call
        metrics["core.collect_stats.scan_ratio"] = max(
            (count(s, "records_scanned") / count(s, "records_loaded") for s in stages if count(s, "records_loaded")),
            default=0.0,
        )
        metrics["rlc.score.distinct_ratio"] = min(
            (len(self.scored[s]) / count(s, "score_calls") for s in stages if count(s, "score_calls")),
            default=0.0,
        )
        metrics["intents.rows_in"] = sum(count(s, "intent_rows_in") for s in stages)
        metrics["intents.sets_out"] = sum(count(s, "intent_sets_out") for s in stages)
        steps = count("train-rlc", "train_steps")
        metrics["tensor.autodiff.tensors_per_step"] = count("train-rlc", "train_tensors") / steps if steps else 0.0
        return metrics


def _percentile(sorted_samples: list, q: float) -> float:
    """Nearest-rank percentile; 0 without samples."""
    if not sorted_samples:
        return 0.0
    return sorted_samples[max(0, math.ceil(q * len(sorted_samples)) - 1)]


# -- per-span counter hooks ----------------------------------------------------


def _count_scanned(tracer: Tracer, args: tuple) -> tuple:
    log = args[0] if isinstance(args[0], list) else list(args[0])
    tracer.counts[(tracer.stage, "records_scanned")] += len(log)
    return (log,) + args[1:]


def _count_rows(tracer: Tracer, args: tuple) -> tuple:
    def counted(rows):
        for row in rows:
            tracer.counts[(tracer.stage, "intent_rows_in")] += 1
            yield row

    return (counted(args[0]),) + args[1:]


def _train_begin(tracer: Tracer, args: tuple) -> tuple:
    tracer.counts[(tracer.stage, "tensors_before_training")] = tracer.counts[(tracer.stage, "tensors")]
    tracer.counts[(tracer.stage, "steps_before_training")] = tracer.counts[(tracer.stage, "adam_steps")]
    return args


def _train_end(tracer: Tracer, result) -> None:
    stage = tracer.stage
    tracer.counts[(stage, "train_tensors")] += tracer.counts[(stage, "tensors")] - tracer.counts[(stage, "tensors_before_training")]
    tracer.counts[(stage, "train_steps")] += tracer.counts[(stage, "adam_steps")] - tracer.counts[(stage, "steps_before_training")]


def _count(counter: str, amount):
    def hook(tracer: Tracer, result) -> None:
        tracer.counts[(tracer.stage, counter)] += amount(result)

    return hook


_BEFORE = {
    "core.collect_stats": _count_scanned,
    "intents.intents_from_reformulations": _count_rows,
    "intents.intents_from_click_titles": _count_rows,
    "rlc.train_pairwise": _train_begin,
}
_AFTER = {
    "dataio.load_impressions": _count("records_loaded", len),
    "intents.intents_from_reformulations": _count("intent_sets_out", len),
    "intents.intents_from_click_titles": _count("intent_sets_out", len),
    "tensor.optim.Adam.step": _count("adam_steps", lambda _result: 1),
    "rlc.train_pairwise": _train_end,
}
