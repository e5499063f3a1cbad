"""The benchmark names parts of the program from outside it: its traced run
wraps program functions by name (the SPANNED table of perfbench/spans.py,
plus Tensor.__init__ and RlcModel.score, which Tracer.install patches as
counters), and its workloads run CLI stages with fixed flags
(perfbench/workloads.py).  A name or flag that disappears breaks a benchmark
run, so each is checked here."""

import importlib
import importlib.util
import os
import sys

import pytest

from clarikit.cli import SYNTH_DEFAULTS, build_parser

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _spanned() -> tuple:
    return _perfbench("spans").SPANNED


COUNTED = (("clarikit.tensor.autodiff", "Tensor", "__init__"), ("clarikit.rlc", "RlcModel", "score"))


@pytest.mark.parametrize(
    "module_name, class_name, attr",
    [site[:3] for site in _spanned()] + list(COUNTED),
    ids=lambda value: value or "-",
)
def test_traced_name_resolves_to_callable(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr))


WORKLOADS = _perfbench("workloads").WORKLOADS.values()


@pytest.mark.parametrize(
    "workload, stage",
    [(w, s) for w in WORKLOADS for s in w.stages],
    ids=lambda value: getattr(value, "name", None) or getattr(value, "command", None),
)
def test_benchmark_stage_parses(workload, stage):
    """Every stage's arguments, built with dummy paths and seed, parse under
    the CLI parser: argparse exits on a flag the parser does not declare."""
    outs = {s.command: os.path.join("out", s.command) for s in workload.stages}
    args = build_parser().parse_args([stage.command, *stage.args("inp", outs, 1), "--out", "out"])
    assert args.command == stage.command


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_benchmark_synth_config_keys_are_known(workload):
    assert set(workload.synth_config) <= set(SYNTH_DEFAULTS)


def test_traced_hooks_see_the_loaded_log(tmp_path):
    """The traced run counts load_impressions' result with len
    (records_loaded), and its collect_stats hook passes list(log)
    (records_scanned) in place of the log: both views must hold the same
    impressions, and give the same stats in the same pane order."""
    from clarikit import dataio
    from clarikit.core import collect_stats
    from clarikit.synthlog import CorpusConfig, UserModel, gen_corpus, simulate_impressions

    corpus = gen_corpus(CorpusConfig(n_queries=6, panes_per_query=2, reformulation_rate=0.3, result_click_rate=0.3), seed=2)
    path = str(tmp_path / "impressions.jsonl")
    dataio.save_impressions(path, simulate_impressions(corpus, UserModel.examination(), 30, seed=4))
    log = dataio.load_impressions(path)
    records = list(log)
    assert len(log) == len(records) == 6 * 2 * 30
    assert list(collect_stats(records, corpus.panes).items()) == list(collect_stats(log, corpus.panes).items())
