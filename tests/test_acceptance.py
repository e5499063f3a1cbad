"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance on fixed seeds, so outcomes are
deterministic.  Two more tests check that the swap regressions and the
examination fits behind criteria 4 and 5 converge.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines and
timings.
"""

import itertools
import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from clarikit import analytics
from clarikit.bias import (
    build_swap_dataset,
    evaluate_click_models,
    fit_cascade_attractiveness,
    fit_examination_em,
    fit_fractional_logreg,
    fit_scatter_line,
    pct_above_diagonal,
    regression_data,
    scatter_points,
    triple_fold,
)
from clarikit.cli import main as cli_main
from clarikit.core import (
    CandidateAnswer,
    ClarificationPane,
    EngagementStats,
    Query,
    conditional_click_distribution,
    engagement_rate,
)
from clarikit.intents import IntentSet
from clarikit.ranker import LambdaMartConfig, dcg, extract_features, ndcg_at_k, train_lambdamart
from clarikit.rlc import (
    RlcConfig,
    RlcModel,
    TrainTriple,
    pair_loss,
    pair_probabilities,
    pairwise_accuracy,
    train_pairwise,
)
from clarikit.synthlog import CorpusConfig, UserModel, gen_corpus, simulate_stats
from clarikit.tensor import autodiff as ad
from clarikit.tensor.autodiff import Tensor
from clarikit.tensor.optim import AdamConfig


def _finish(number: int, name: str, started: float, budget_s: float, checks: dict):
    elapsed = time.time() - started
    checks = dict(checks)
    checks["runtime"] = elapsed < budget_s
    ok = all(checks.values())
    verdict = "PASS" if ok else "FAIL"
    detail = "" if ok else f"  failed: {[k for k, v in checks.items() if not v]}"
    print(f"ACCEPTANCE {number:2d} {name}: {verdict} ({elapsed:.1f}s){detail}")
    assert ok, (name, {k: v for k, v in checks.items() if not v})


# -- criterion 1: gradient fidelity ------------------------------------------


def test_criterion_01_gradient_fidelity():
    started = time.time()
    checks = {}
    rng = np.random.default_rng(42)

    # every differentiable op, via scalar losses over fresh parameters
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    m = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    gain = Tensor(rng.standard_normal(4), requires_grad=True)
    bias = Tensor(rng.standard_normal(4), requires_grad=True)
    table = Tensor(rng.standard_normal((11, 4)), requires_grad=True)
    ids = np.array([0, 3, 3, 10])
    # batched forms: a (batch, rows, cols) stack against a shared matrix or
    # another stack, and a sum over one axis
    x3 = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    y3 = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    op_cases = {
        "add": ({"a": a, "b": b}, lambda: ad.sum_(ad.mul(ad.add(a, b), ad.add(a, b)))),
        "neg": ({"a": a}, lambda: ad.sum_(ad.mul(ad.neg(a), a))),
        "mul": ({"a": a, "b": b}, lambda: ad.sum_(ad.mul(a, b))),
        "matmul": ({"a": a, "m": m}, lambda: ad.sum_(ad.mul(ad.matmul(a, m), ad.matmul(a, m)))),
        "transpose": ({"a": a}, lambda: ad.sum_(ad.matmul(ad.transpose(a), a))),
        "concat": ({"a": a, "b": b}, lambda: ad.sum_(ad.mul(ad.concat([a, b], axis=0), ad.concat([a, b], axis=0)))),
        "relu": ({"a": a}, lambda: ad.sum_(ad.relu(a))),
        "softplus": ({"a": a}, lambda: ad.sum_(ad.softplus(a))),
        "softmax": ({"a": a, "b": b}, lambda: ad.sum_(ad.mul(ad.softmax(a, axis=-1), b))),
        "layer_norm": ({"a": a, "gain": gain, "bias": bias}, lambda: ad.sum_(ad.mul(ad.layer_norm(a, gain, bias), b))),
        "embedding_lookup": ({"table": table}, lambda: ad.sum_(ad.mul(ad.embedding_lookup(table, ids), ad.embedding_lookup(table, ids)))),
        "matmul_batched_shared": ({"x3": x3, "m": m}, lambda: ad.sum_(ad.mul(ad.matmul(x3, m), ad.matmul(x3, m)))),
        "matmul_batched_stacks": ({"x3": x3, "y3": y3}, lambda: ad.sum_(ad.mul(ad.matmul(x3, ad.transpose(y3)), ad.matmul(x3, ad.transpose(y3))))),
        "transpose_batched": ({"x3": x3}, lambda: ad.sum_(ad.mul(ad.matmul(ad.transpose(x3), x3), ad.matmul(ad.transpose(x3), x3)))),
        "sum_axis": ({"x3": x3}, lambda: ad.sum_(ad.mul(ad.sum_(x3, axis=1), ad.sum_(ad.mul(x3, x3), axis=1)))),
    }
    for name, (params, f) in op_cases.items():
        errors = ad.check_gradients(f, params)
        checks[f"op:{name}"] = max(errors.values()) < 1e-4

    # the full pane-pair loss of one batched (winner, loser) forward, swept
    # over every parameter of a micro model; the panes fill different numbers
    # of answer slots, so each carries its own (seq, seq) attention masks
    config = RlcConfig(dim=8, heads=2, layers=1, answer_slots=3, max_intents=2, hash_buckets=48, ff_dim=12, head_hidden=8)
    model = RlcModel.init(config, seed=5)
    query = Query("q1", "jaguar parts")
    pane_a = ClarificationPane(
        "p1", "q1", "Which one do you mean?",
        (CandidateAnswer("car engine", 1), CandidateAnswer("animal habitat", 2)),
    )
    pane_b = ClarificationPane(
        "p2", "q1", "Which one do you mean?",
        (CandidateAnswer("book review", 1), CandidateAnswer("city map", 2), CandidateAnswer("train schedule", 3)),
    )
    sets = {
        "reformulation": IntentSet("q1", "reformulation", (("jaguar parts car", 6.0), ("jaguar parts engine", 2.0))),
        "click_title": IntentSet("q1", "click_title", (("car parts catalog", 3.0),)),
    }
    lexicon = {"car engine": "vehicle", "animal habitat": "animal"}

    def full_loss():
        return pair_loss(model.score_tensor(query, [pane_a, pane_b], sets, lexicon))

    errors = ad.check_gradients(full_loss, model.params)
    checks["full_rlc_loss"] = max(errors.values()) < 1e-4
    _finish(1, "gradient fidelity", started, 120, checks)


# -- criterion 2: unbiased-null calibration -----------------------------------


def test_criterion_02_unbiased_null_calibration():
    started = time.time()
    plan = tuple((k, i, 4000) for k in range(2, 6) for i in range(1, k))
    corpus = gen_corpus(
        CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.1, 0.5)), seed=2024
    )
    stats = simulate_stats(corpus, UserModel.relevance_only(), 600, seed=77)
    triples = build_swap_dataset(corpus.panes)
    points = scatter_points(triples, stats)
    slope, _ = fit_scatter_line([(x, y) for x, y, _, _ in points])
    cells = pct_above_diagonal(triples, stats)
    checks = {
        "enough_points": len(points) >= 10_000,
        "all_cells_present": len(cells) == 10,
        "slope_in_band": 0.95 <= slope <= 1.05,
    }
    for key, (pct, _count) in cells.items():
        checks[f"cell_{key}"] = 48.0 <= pct <= 52.0
    _finish(2, "unbiased-null calibration", started, 60, checks)


# -- criterion 3: click-model recovery ----------------------------------------


def test_criterion_03_click_model_recovery():
    started = time.time()
    checks = {}

    # cascade-generated data, just over 2e5 impressions; the fit must sit
    # within 1% of the entropy floor and the pooled maximum-likelihood
    # attractiveness must recover the planted relevances
    plan = ((3, 1, 6), (3, 2, 6))
    corpus = gen_corpus(
        CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.15, 0.5)), seed=300
    )
    n_per = math.ceil(200_000 / len(corpus.panes))
    stats = simulate_stats(corpus, UserModel.cascade(), n_per, seed=301)
    triples = build_swap_dataset(corpus.panes)
    report = evaluate_click_models(triples, corpus.panes, stats, kinds=("best_possible", "cascade"))
    floor = report.mean("best_possible")
    checks["cascade_ce_within_1pct"] = report.mean("cascade") <= floor * 1.01
    recovered = fit_cascade_attractiveness(stats, corpus.panes)
    worst = 0.0
    for pane_id, pane in corpus.panes.items():
        truth = corpus.pane_relevances(pane_id)
        for answer, true_value in zip(pane.answers, truth):
            worst = max(worst, abs(recovered[(pane.query_id, answer.text)] - true_value))
    checks["cascade_params_within_0.02"] = worst <= 0.02

    # examination-generated data: 120 panes, > 2e5 impressions
    exam_probs = (1.0, 0.85, 0.72, 0.61, 0.52)
    plan = ((2, 1, 12), (3, 2, 12), (4, 3, 12), (5, 4, 12), (5, 1, 12))
    corpus = gen_corpus(
        CorpusConfig(n_queries=0, cell_plan=plan, relevance=("uniform", 0.2, 0.7)), seed=310
    )
    n_per = math.ceil(200_000 / len(corpus.panes))
    stats = simulate_stats(corpus, UserModel.examination(exam_probs), n_per, seed=311)
    triples = build_swap_dataset(corpus.panes)
    report = evaluate_click_models(triples, corpus.panes, stats, kinds=("best_possible", "examination"))
    floor = report.mean("best_possible")
    checks["examination_ce_within_1pct"] = report.mean("examination") <= floor * 1.01
    recovered = fit_examination_em(stats, corpus.panes).eps
    checks["examination_params_within_0.02"] = float(np.abs(recovered - np.array(exam_probs)).max()) <= 0.02
    _finish(3, "click-model recovery", started, 300, checks)


# -- criteria 4 and 5 share one size+offset-biased experiment ------------------


@pytest.fixture(scope="module")
def size_offset_experiment():
    started = time.time()
    plan = tuple((k, i, 250) for k in range(2, 6) for i in range(1, k))
    corpus = gen_corpus(
        CorpusConfig(n_queries=0, cell_plan=plan, relevance=("bimodal", 0.1, 0.25, 0.6, 0.9, 0.5)),
        seed=11,
    )
    model = UserModel.size_offset_logistic(bias=-3.5, w_relevance=4.0, w_size=-1.8, w_offset=-1.2, w_pixel=-0.35)
    stats = simulate_stats(corpus, model, 200, seed=3)
    triples = build_swap_dataset(corpus.panes)
    ce = evaluate_click_models(triples, corpus.panes, stats)
    return corpus, stats, triples, ce.logreg, ce, time.time() - started


def test_criterion_04_regression_sign_pattern(size_offset_experiment):
    # the shared experiment time counts against both criteria's budgets
    _, _, _, logreg, ce, setup_elapsed = size_offset_experiment
    started = time.time() - setup_elapsed
    weights_l = np.array(logreg.fold_weights_l)
    weights_r = np.array(logreg.fold_weights_r)
    size_idx = logreg.feature_names.index("size_diff")
    offset_idx = logreg.feature_names.index("offset")
    ce_logistic = ce.mean("logistic")
    ce_no_bias = ce.mean("no_bias")
    checks = {
        "offset_negative_L_9of10": int((weights_l[:, offset_idx] < 0).sum()) >= 9,
        "offset_negative_R_9of10": int((weights_r[:, offset_idx] < 0).sum()) >= 9,
        "size_diff_positive_L_9of10": int((weights_l[:, size_idx] > 0).sum()) >= 9,
        "size_diff_negative_R_9of10": int((weights_r[:, size_idx] < 0).sum()) >= 9,
        "beats_no_bias_by_10pct": ce_logistic <= 0.9 * ce_no_bias,
    }
    _finish(4, "swap regression sign pattern", started, 300, checks)


def test_criterion_05_cross_entropy_ordering(size_offset_experiment):
    _, _, _, _, ce, setup_elapsed = size_offset_experiment
    started = time.time() - setup_elapsed
    values = {kind: ce.mean(kind) for kind in ("best_possible", "logistic", "examination", "cascade", "no_bias", "blind")}
    checks = {
        "logistic_below_examination": values["logistic"] < values["examination"],
        "logistic_below_cascade": values["logistic"] < values["cascade"],
        "examination_below_no_bias": values["examination"] < values["no_bias"],
        "cascade_below_no_bias": values["cascade"] < values["no_bias"],
        "no_bias_below_blind": values["no_bias"] < values["blind"],
        "best_possible_is_floor": all(v >= values["best_possible"] - 1e-12 for v in values.values()),
    }
    _finish(5, "click-model cross-entropy ordering", started, 300, checks)


def test_swap_regression_folds_converge(size_offset_experiment):
    # every fold's regression behind criteria 4 and 5 is a converged Newton
    # fit; the gradient at the reported weights is recomputed here
    corpus, stats, triples, logreg, _, _ = size_offset_experiment
    rows, targets_l, targets_r, impressions = regression_data(triples, corpus.panes, stats)
    folds = len(logreg.fold_weights_l)
    fold_ids = np.array([triple_fold(t, folds) for t in triples])
    for fold in range(folds):
        train = fold_ids != fold
        x = rows[train]
        w = impressions[train] / impressions[train].sum()
        for targets, reported in ((targets_l, logreg.fold_weights_l[fold]), (targets_r, logreg.fold_weights_r[fold])):
            fit = fit_fractional_logreg(x, targets[train], impressions[train])
            assert fit.iterations <= 20
            np.testing.assert_array_equal(fit.weights, reported)
            gradient = x.T @ (w * (1.0 / (1.0 + np.exp(-(x @ reported))) - targets[train]))
            assert np.abs(gradient).max() < 1e-10


def test_examination_folds_converge(size_offset_experiment):
    # every fold's examination fit behind criterion 5 is a converged
    # projected Newton fit; the projected gradient of the negative
    # log-likelihood per cell impression is recomputed here from the returned
    # examination and attractiveness
    corpus, stats, triples, logreg, _, _ = size_offset_experiment
    folds = len(logreg.fold_weights_l)
    fold_ids = [triple_fold(t, folds) for t in triples]
    for fold in range(folds):
        train = {}
        for t, f in zip(triples, fold_ids):
            if f != fold:
                train[t.pane_c], train[t.pane_c_prime] = stats[t.pane_c], stats[t.pane_c_prime]
        with warnings.catch_warnings():
            # every position of every fold is identified: none warns
            warnings.simplefilter("error")
            fit = fit_examination_em(train, corpus.panes)
        assert fit.iterations <= 60
        grad_eps, grad_alpha = np.zeros(5), dict.fromkeys(fit.attractiveness, 0.0)
        total = sum(s.impressions * corpus.panes[pid].answer_count for pid, s in train.items())
        for pane_id, s in train.items():
            pane = corpus.panes[pane_id]
            for pos in range(pane.answer_count):
                key = (pane.query_id, pane.answers[pos].text)
                eps, alpha = fit.eps[pos], fit.attractiveness[key]
                clicks = s.per_position_clicks[pos]
                d = ((s.impressions - clicks) / (1 - eps * alpha) - clicks / (eps * alpha)) / total
                grad_eps[pos] += d * alpha
                grad_alpha[key] += d * eps
        alpha = np.array(list(fit.attractiveness.values()))
        g_alpha = np.array(list(grad_alpha.values()))
        # position 1 is pinned; elsewhere a gradient pointing out of the box
        # at a bound is not a violation
        projected = np.concatenate([
            fit.eps[1:] - np.clip(fit.eps[1:] - grad_eps[1:], 1e-6, 1.0),
            alpha - np.clip(alpha - g_alpha, 1e-6, 1 - 1e-6),
        ])
        assert np.abs(projected).max() < 1e-8


# -- criterion 6: memorization -------------------------------------------------


def _memorization_set():
    rng = np.random.default_rng(0)
    triples, sets = [], {}
    for i in range(20):
        qid = f"q{i}"
        query = Query(qid, f"topic{i} info")
        good = ClarificationPane(
            f"{qid}:a", qid, "Which one do you mean?",
            (CandidateAnswer(f"facet{i} one", 1), CandidateAnswer(f"facet{i} two", 2)),
        )
        bad = ClarificationPane(
            f"{qid}:b", qid, "Which one do you mean?",
            (CandidateAnswer(f"junk{int(rng.integers(100))}", 1), CandidateAnswer(f"junk{int(rng.integers(100))}", 2)),
        )
        triples.append(TrainTriple(query, (good, bad), (0.42, 0.11)))
        sets[qid] = {"reformulation": IntentSet(qid, "reformulation", ((f"topic{i} info facet{i}", 4.0),))}
    return triples, sets


def test_criterion_06_rlc_memorization():
    started = time.time()
    triples, sets = _memorization_set()
    model = RlcModel.init(RlcConfig(), seed=1)  # default desk-scale dims
    config = AdamConfig(lr=5e-3, warmup_steps=20, total_steps=50_000)
    train_pairwise(model, triples, sets, None, config, steps=500, shuffle_seed=2)
    accuracy = pairwise_accuracy(model, triples, sets)
    _finish(6, "RLC memorization", started, 300, {"training_accuracy_1.0": accuracy == 1.0})


# -- criterion 7: RLC invariances -----------------------------------------------


def test_criterion_07_rlc_invariances():
    import dataclasses

    started = time.time()
    config = RlcConfig(dim=16, heads=2, layers=1, answer_slots=3, max_intents=3, hash_buckets=128, ff_dim=24, head_hidden=12)
    query = Query("q1", "jaguar parts")
    pane = ClarificationPane(
        "p1", "q1", "Which one do you mean?",
        (CandidateAnswer("car engine", 1), CandidateAnswer("animal habitat", 2)),
    )
    sets = {
        "reformulation": IntentSet("q1", "reformulation", (("jaguar parts car", 6.0), ("jaguar parts engine", 2.0))),
        "click_title": IntentSet("q1", "click_title", (("car parts catalog", 3.0),)),
    }
    lexicon = {"car engine": "vehicle"}
    checks = {}

    model = RlcModel.init(config, seed=9)
    base_cov = model.encode_intent_coverage(query, pane, sets["reformulation"], "reformulation").data
    base_score = model.score(query, pane, sets, lexicon)
    worst = 0.0
    for factor in (3.0, 0.125, 1e6):
        scaled_set = IntentSet("q1", "reformulation", tuple((t, w * factor) for t, w in sets["reformulation"].items))
        scaled = model.encode_intent_coverage(query, pane, scaled_set, "reformulation").data
        worst = max(worst, float(np.abs(scaled - base_cov).max()))
    checks["intent_weight_rescale_1e-12"] = worst < 1e-12

    wide = RlcModel.init(dataclasses.replace(config, answer_slots=5, max_intents=6), seed=9)
    narrow = RlcModel(config, wide.params)
    checks["padding_mask_1e-12"] = abs(
        wide.score(query, pane, sets, lexicon) - narrow.score(query, pane, sets, lexicon)
    ) < 1e-12

    rng = np.random.default_rng(4)
    exact = True
    for _ in range(100):
        s_a, s_b = float(rng.normal() * 6), float(rng.normal() * 6)
        p_a, p_b = pair_probabilities(s_a, s_b)
        q_b, q_a = pair_probabilities(s_b, s_a)
        exact = exact and (p_a + p_b == 1.0) and (q_a == p_a) and (q_b == p_b)
    checks["pair_probability_complementarity_exact"] = exact
    checks["base_score_finite"] = math.isfinite(base_score)
    _finish(7, "RLC invariances", started, 60, checks)


# -- criterion 8: re-ranker quality ordering --------------------------------------


def _ranking_experiment(seed: int):
    config = CorpusConfig(
        n_queries=120, panes_per_query=5, relevance=("planted",), intents_per_query=4, question_fraction=0.5
    )
    corpus = gen_corpus(config, seed=seed)
    stats = simulate_stats(corpus, UserModel.relevance_only(), 600, seed=seed + 1)
    qids = sorted(corpus.queries)
    test_qids = set(qids[: len(qids) // 4])

    def triples_for(test_side: bool):
        out = []
        for qid in qids:
            if (qid in test_qids) != test_side:
                continue
            pane_ids = sorted(pid for pid, p in corpus.panes.items() if p.query_id == qid)
            rates = [engagement_rate(stats[pid]) for pid in pane_ids]
            if len(set(rates)) < 2:
                continue
            out.append(TrainTriple(corpus.queries[qid], tuple(corpus.panes[p] for p in pane_ids), tuple(rates)))
        return out

    train_triples, test_triples = triples_for(False), triples_for(True)
    rlc_config = RlcConfig(dim=32, heads=2, layers=1, max_intents=4, hash_buckets=1024, ff_dim=64, head_hidden=32)
    model = RlcModel.init(rlc_config, seed=seed + 2)
    adam = AdamConfig(lr=3e-3, warmup_steps=30, total_steps=50_000)
    train_pairwise(model, train_triples, corpus.intent_sets, corpus.entity_lexicon, adam, steps=800, shuffle_seed=seed + 3)

    def scorer(q, p):
        return model.score(q, p, corpus.intent_sets.get(q.id, {}), corpus.entity_lexicon)

    def scaled(rates):
        top = max(rates)
        return [2.0 * r / top if top > 0 else 0.0 for r in rates]

    def dataset(triples, use_rlc):
        return [
            (
                np.array([extract_features(t.query, p, None, scorer if use_rlc else None).as_array() for p in t.panes]),
                np.array(scaled(t.labels)),
            )
            for t in triples
        ]

    def test_ndcg1(predict, test):
        return float(np.mean([
            ndcg_at_k(labels[np.argsort(-predict(rows), kind="stable")].tolist(), 1) for rows, labels in test
        ]))

    results = {}
    boost_config = LambdaMartConfig(n_trees=40, max_depth=2, shrinkage=0.1)
    for name, use_rlc in (("with_rlc", True), ("without_rlc", False)):
        ensemble = train_lambdamart(dataset(train_triples, use_rlc), boost_config)
        results[name] = test_ndcg1(ensemble.predict, dataset(test_triples, use_rlc))
    train = dataset(train_triples, False)
    design = np.concatenate([np.column_stack([np.ones(len(r)), r]) for r, _ in train])
    targets = np.concatenate([l for _, l in train])
    weights, *_ = np.linalg.lstsq(design, targets, rcond=None)
    results["linear"] = test_ndcg1(
        lambda rows: np.column_stack([np.ones(len(rows)), rows]) @ weights, dataset(test_triples, False)
    )
    return results


def test_criterion_08_ranker_ordering():
    started = time.time()
    runs = [_ranking_experiment(seed) for seed in range(5)]
    medians = {key: float(np.median([r[key] for r in runs])) for key in ("with_rlc", "without_rlc", "linear")}
    checks = {
        "with_rlc_ge_without": medians["with_rlc"] >= medians["without_rlc"],
        "without_ge_linear": medians["without_rlc"] >= medians["linear"],
    }
    print(f"  nDCG@1 medians over 5 seeds: {medians}")
    _finish(8, "re-ranker quality ordering", started, 900, checks)


# -- criterion 9: metric oracles -------------------------------------------------


def _brute_force_ndcg(labels, k):
    best = max(dcg(list(perm), k) for perm in itertools.permutations(labels))
    if best == 0:
        return 0.0
    return dcg(labels, k) / best


def _kappa_pair_counting(ratings):
    ratings = np.asarray(ratings, dtype=float)
    raters = int(ratings[0].sum())
    per_item = [sum(math.comb(int(c), 2) for c in row) / math.comb(raters, 2) for row in ratings]
    observed = float(np.mean(per_item))
    shares = ratings.sum(axis=0) / ratings.sum()
    expected = float((shares**2).sum())
    if expected >= 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def test_criterion_09_metric_oracles():
    started = time.time()
    checks = {}

    ndcg_exact = True
    for size in range(1, 6):
        for labels in itertools.product((0.0, 1.0, 2.0), repeat=size):
            for k in (1, 3, 5):
                got = ndcg_at_k(list(labels), k)
                want = _brute_force_ndcg(list(labels), k)
                ndcg_exact = ndcg_exact and got == pytest.approx(want, abs=1e-12)
    checks["ndcg_matches_brute_force"] = ndcg_exact

    entropy = analytics.click_entropy(EngagementStats(20, 20, (4, 4, 4, 4, 4)))
    checks["entropy_uniform"] = abs(entropy - math.log(5)) < 1e-12
    hand = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    checks["normalized_entropy_hand_value"] = abs(analytics.normalized_entropy([0.8, 0.2]) - hand / math.log(2)) < 1e-12
    dist = conditional_click_distribution(EngagementStats(10, 4, (3, 1, 0, 0)))
    checks["conditional_distribution_hand_value"] = (
        float(np.abs(dist - np.array([0.75, 0.25, 0.0, 0.0])).max()) < 1e-12
    )
    checks["conditional_distribution_uniform_rule"] = (
        float(np.abs(conditional_click_distribution(EngagementStats(5, 0, (0, 0, 0, 0, 0))) - 0.2).max()) < 1e-12
    )

    rng = np.random.default_rng(99)
    kappa_ok = True
    for _ in range(30):
        ratings = rng.multinomial(5, (0.4, 0.3, 0.2, 0.1), size=10)
        got = analytics.fleiss_kappa(ratings, 5)
        kappa_ok = kappa_ok and abs(got - _kappa_pair_counting(ratings)) < 1e-12
    checks["fleiss_kappa_matches_definition"] = kappa_ok
    _finish(9, "metric oracles", started, 60, checks)


# -- criterion 10: byte-level reproducibility -------------------------------------


def _run_pipeline(root: str) -> dict[str, bytes]:
    os.makedirs(root, exist_ok=True)
    data = os.path.join(root, "data")
    synth_config = {
        "n_queries": 25,
        "panes_per_query": 2,
        "swap_fraction": 0.3,
        "n_per_pane": 60,
        "reformulation_rate": 0.1,
        "result_click_rate": 0.2,
        "user_model": {"kind": "examination"},
    }
    config_path = os.path.join(root, "synth.json")
    with open(config_path, "w") as fh:
        json.dump(synth_config, fh)
    assert cli_main(["synth-gen", "--out", data, "--config", config_path, "--seed", "7"]) == 0

    # raw reformulation triples derived deterministically from the corpus
    # intent sets, so the intents command participates in the chain
    from clarikit.intents import load_intent_sets

    generated = load_intent_sets(os.path.join(data, "intents.jsonl"))
    queries = {}
    for line in open(os.path.join(data, "queries.jsonl")):
        record = json.loads(line)
        queries[record["id"]] = record["text"]
    reform_path = os.path.join(root, "reformulations.tsv")
    with open(reform_path, "w") as fh:
        for qid in sorted(generated):
            for text, weight in generated[qid].get("reformulation", IntentSet(qid, "reformulation", (("x y", 1.0),))).items:
                fh.write(f"{queries[qid]}\t{text}\t{int(weight)}\n")
    intents_dir = os.path.join(root, "intents")
    assert cli_main([
        "intents", "--out", intents_dir, "--reformulations", reform_path,
        "--queries", os.path.join(data, "queries.jsonl"), "--min-freq", "1",
    ]) == 0

    rlc_dir = os.path.join(root, "rlc")
    assert cli_main([
        "train-rlc", "--out", rlc_dir,
        "--queries", os.path.join(data, "queries.jsonl"),
        "--panes", os.path.join(data, "panes.jsonl"),
        "--impressions", os.path.join(data, "impressions.jsonl"),
        "--intents", os.path.join(intents_dir, "intents.jsonl"),
        "--lexicon", os.path.join(data, "entity_lexicon.tsv"),
        "--dim", "16", "--hash-buckets", "256", "--steps", "25",
        "--lr", "0.001", "--warmup-steps", "10", "--total-steps", "1000",
        "--min-impressions", "10", "--seed", "7",
    ]) == 0

    ranker_dir = os.path.join(root, "ranker")
    assert cli_main([
        "train-ranker", "--out", ranker_dir,
        "--queries", os.path.join(data, "queries.jsonl"),
        "--panes", os.path.join(data, "panes.jsonl"),
        "--impressions", os.path.join(data, "impressions.jsonl"),
        "--intents", os.path.join(intents_dir, "intents.jsonl"),
        "--lexicon", os.path.join(data, "entity_lexicon.tsv"),
        "--rlc-model", os.path.join(rlc_dir, "rlc_model.json"),
        "--trees", "15", "--depth", "2", "--seed", "7",
    ]) == 0

    eval_dir = os.path.join(root, "eval")
    assert cli_main([
        "eval", "--out", eval_dir,
        "--queries", os.path.join(data, "queries.jsonl"),
        "--panes", os.path.join(data, "panes.jsonl"),
        "--impressions", os.path.join(data, "impressions.jsonl"),
        "--intents", os.path.join(intents_dir, "intents.jsonl"),
        "--lexicon", os.path.join(data, "entity_lexicon.tsv"),
        "--ensemble", os.path.join(ranker_dir, "ensemble.json"),
        "--rlc-model", os.path.join(rlc_dir, "rlc_model.json"),
        "--seed", "7",
    ]) == 0

    artifacts = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            artifacts[os.path.relpath(path, root)] = open(path, "rb").read()
    return artifacts


def test_criterion_10_reproducibility(tmp_path):
    started = time.time()
    first = _run_pipeline(str(tmp_path / "run1"))
    second = _run_pipeline(str(tmp_path / "run2"))
    checks = {
        "same_artifact_set": set(first) == set(second),
        "all_bytes_identical": all(first[name] == second.get(name) for name in first),
        "nontrivial_artifact_count": len(first) >= 12,
    }
    _finish(10, "byte-level reproducibility", started, 600, checks)
