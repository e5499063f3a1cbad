"""Synthetic queries, panes, intent sets, and impression logs with analytically
known click probabilities.

Four user models are supported:

  relevance_only       clicks each answer independently with its relevance;
                       position and presentation play no role, which makes it
                       the unbiased null for swap experiments.
  examination          each position has a fixed probability of being examined;
                       a click needs examination and attraction.  Independent
                       across positions, so multi-clicks happen.
  cascade              scans left to right, clicks with the answer's relevance,
                       stops at the first click.  At most one click.
  size_offset_logistic clicks each answer independently with probability
                       sigmoid(bias + w_relevance*rel + w_size*size/size_scale
                       + w_offset*(position-1) + w_pixel*preceding_size/size_scale),
                       where preceding_size is the summed render size of the
                       answers to the left.  The default weights make longer
                       answers, deeper positions, and answers pushed right by
                       wide neighbours less clickable; these are the
                       presentation effects the swap regression measures, and
                       the physical-offset term is the part a per-position
                       examination or cascade model cannot express.

Simulation draws one uniform matrix per pane from a stream seeded by
(master_seed, pane_id), so logs are reproducible and independent of how work
is partitioned over panes.  One routine turns those draws into clicks for
both simulators, comparing a block of panes at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import CandidateAnswer, ClarificationPane, EngagementStats, ImpressionLog, Query, offsets_from_counts
from .intents import IntentSet
from .tensor.text import fnv1a

MODEL_KINDS = ("relevance_only", "examination", "cascade", "size_offset_logistic")

_NOUNS = (
    "jaguar", "python", "mercury", "eclipse", "phoenix", "amazon", "kiwi", "saturn",
    "cricket", "delta", "polaris", "orion", "maple", "falcon", "atlas", "comet",
)
_MODIFIERS = ("price", "review", "manual", "history", "repair", "recipe", "parts", "rental", "course", "guide")
_FACETS = (
    "car", "animal", "team", "software", "film", "hotel", "book", "city",
    "game", "plant", "band", "store", "phone", "league", "tool", "brand",
)
_FILLERS = ("", "option", "official site", "near me today", "complete beginner edition")
# planted-mode answers that cover no intent draw from off-topic terms, so
# covering and non-covering answers differ in content, not just in weight
_OFF_TOPIC = ("misc", "assorted", "general", "archive", "redirect", "untagged", "sundry", "leftover")
_TEMPLATE_QUESTIONS = {
    "T1": "What would you like to know about {noun}?",
    "T2": "Which {noun} do you mean?",
    "T3": "Which {noun} are you looking for?",
    "T4": "What do you want to do with {noun}?",
    "T5": "Who are you shopping for?",
    "T6": "What are you trying to do?",
    "T7": "Do you have {noun} in mind?",
    "other": "More about {noun}?",
}

# facets 2g and 2g+1 share an entity group, so panes drawn from one group
# have a consistent answer set
_ENTITY_GROUP = {facet: f"group{i // 2}" for i, facet in enumerate(_FACETS)}


def _is_number(value) -> bool:
    """A finite int or float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_list(value) -> bool:
    return isinstance(value, (tuple, list))


@dataclass(frozen=True)
class UserModel:
    kind: str
    exam_probs: tuple[float, ...] = (1.0, 0.85, 0.72, 0.61, 0.52)
    cascade_scale: float = 1.0
    bias: float = -3.1
    w_relevance: float = 6.0
    w_size: float = -0.75
    w_offset: float = -0.55
    w_pixel: float = -0.3
    size_scale: float = 12.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown user model kind {self.kind!r}")
        probs = self.exam_probs
        if not _is_list(probs) or any(not (_is_number(p) and 0.0 <= p <= 1.0) for p in probs):
            raise ValueError(f"exam_probs: examination probabilities must be numbers in [0, 1], got {probs!r}")
        if not (_is_number(self.cascade_scale) and 0.0 < self.cascade_scale <= 1.0):
            raise ValueError(f"cascade scale must be a number in (0, 1], got {self.cascade_scale!r}")
        for name in ("bias", "w_relevance", "w_size", "w_offset", "w_pixel", "size_scale"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"logistic parameter {name} must be a finite number, got {getattr(self, name)!r}")
        if self.size_scale <= 0:
            raise ValueError(f"size_scale must be positive, got {self.size_scale!r}")

    @staticmethod
    def relevance_only() -> "UserModel":
        return UserModel(kind="relevance_only")

    @staticmethod
    def examination(exam_probs: Sequence[float] | None = None) -> "UserModel":
        model = UserModel(kind="examination")
        return replace(model, exam_probs=tuple(exam_probs)) if exam_probs is not None else model

    @staticmethod
    def cascade(scale: float = 1.0) -> "UserModel":
        return UserModel(kind="cascade", cascade_scale=scale)

    @staticmethod
    def size_offset_logistic(**kwargs) -> "UserModel":
        return UserModel(kind="size_offset_logistic", **kwargs)


def _logistic_probs(model: UserModel, pane: ClarificationPane, relevances: np.ndarray) -> np.ndarray:
    sizes = np.array([a.render_size for a in pane.answers]) / model.size_scale
    offsets = np.arange(len(pane.answers), dtype=np.float64)
    preceding = np.concatenate([[0.0], np.cumsum(sizes)[:-1]])
    z = (
        model.bias
        + model.w_relevance * relevances
        + model.w_size * sizes
        + model.w_offset * offsets
        + model.w_pixel * preceding
    )
    return 1.0 / (1.0 + np.exp(-z))


def _click_thresholds(model: UserModel, pane: ClarificationPane, relevances: Sequence[float]) -> np.ndarray:
    """Each answer's click probability for a user who reaches it: an answer
    is clicked where its uniform falls below this.  Every kind but cascade
    clicks its answers independently, so this is their click rate."""
    rel = np.array(relevances, dtype=np.float64)
    k = len(pane.answers)
    if rel.shape != (k,):
        raise ValueError(f"expected {k} relevances, got shape {rel.shape}")
    if model.kind == "examination":
        if len(model.exam_probs) < k:
            raise ValueError(f"examination model covers {len(model.exam_probs)} positions, pane has {k}")
        return np.array(model.exam_probs[:k]) * rel
    if model.kind == "cascade":
        return model.cascade_scale * rel
    if model.kind == "size_offset_logistic":
        return _logistic_probs(model, pane, rel)
    return rel


def oracle_click_rates(model: UserModel, pane: ClarificationPane, relevances: Sequence[float]) -> np.ndarray:
    """Exact per-answer click probability (per impression) under the model."""
    rates = _click_thresholds(model, pane, relevances)
    if model.kind == "cascade":  # reached only past answers that did not attract
        return rates * np.concatenate([[1.0], np.cumprod(1.0 - rates)[:-1]])
    return rates


# numbers after the scheme name in CorpusConfig.relevance
_RELEVANCE_PARAMS = {"beta": 2, "uniform": 2, "bimodal": 5, "planted": 0}


@dataclass(frozen=True)
class CorpusConfig:
    n_queries: int
    panes_per_query: int = 1
    swap_fraction: float = 0.0
    answer_count_weights: tuple[float, float, float, float] = (0.2, 0.3, 0.25, 0.25)
    # ("beta", a, b) | ("uniform", lo, hi) | ("bimodal", lo, hi, lo2, hi2, p_hi) | ("planted",)
    relevance: tuple = ("beta", 1.0, 3.0)
    intents_per_query: int = 4
    question_fraction: float = 0.25
    reformulation_rate: float = 0.0
    result_click_rate: float = 0.0
    # (answer_count, swap_position, n_queries) rows; overrides the random mix
    # and forces one base pane plus one adjacent-swap variant per query
    cell_plan: tuple[tuple[int, int, int], ...] | None = None

    def __post_init__(self):
        if self.cell_plan is None and self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if not 0.0 <= self.swap_fraction <= 1.0:
            raise ValueError(f"swap fraction {self.swap_fraction} not in [0, 1]")
        if self.panes_per_query < 1:
            raise ValueError("panes_per_query must be >= 1")
        weights = self.answer_count_weights
        if not (_is_list(weights) and len(weights) == 4 and all(map(_is_number, weights))
                and min(weights) >= 0 and sum(weights) > 0):
            raise ValueError("answer_count_weights must be 4 finite non-negative numbers for 2..5 answers, not all 0")
        if not _is_list(self.relevance):
            raise ValueError(f"relevance must be a list, a scheme name and then its numbers, got {self.relevance!r}")
        scheme, *numbers = self.relevance or (None,)
        if not isinstance(scheme, str) or scheme not in _RELEVANCE_PARAMS:
            raise ValueError(f"unknown relevance scheme {scheme!r}")
        if len(numbers) != _RELEVANCE_PARAMS[scheme] or not all(_is_number(v) for v in numbers):
            raise ValueError(f"relevance scheme {scheme!r} takes {_RELEVANCE_PARAMS[scheme]} finite numbers, got {numbers}")
        if self.cell_plan is not None:
            if not _is_list(self.cell_plan) or not self.cell_plan:
                raise ValueError(f"cell_plan must be null or a non-empty list of rows, got {self.cell_plan!r}")
            for row in self.cell_plan:
                if not _is_list(row) or len(row) != 3 or any(type(v) is not int for v in row):
                    raise ValueError(f"cell plan row {row!r} must be 3 integers")
                k, i, count = row
                if not (2 <= k <= 5 and 1 <= i <= k - 1 and count >= 1):
                    raise ValueError(f"bad cell plan row ({k}, {i}, {count})")
        if not 0.0 <= self.reformulation_rate <= 1.0 or not 0.0 <= self.result_click_rate <= 1.0:
            raise ValueError("event rates must be in [0, 1]")


@dataclass
class Corpus:
    config: CorpusConfig
    seed: int
    queries: dict[str, Query]
    panes: dict[str, ClarificationPane]
    intent_sets: dict[str, dict[str, IntentSet]]
    ground_truth: dict[str, tuple[float, ...]]  # pane_id -> per-answer relevance
    entity_lexicon: dict[str, str]  # answer text -> entity type
    swap_pairs: list[tuple[str, str, int]] = field(default_factory=list)

    def pane_relevances(self, pane_id: str) -> np.ndarray:
        return np.asarray(self.ground_truth[pane_id], dtype=np.float64)


# planted template effects interact with question-ness: question queries
# engage more with the action templates, statement queries with the generic
# ones, so tree learners can pick up what a linear model on one-hots cannot
_TEMPLATE_BOOST_QUESTION = {
    "T1": 0.00, "T2": 0.01, "T3": 0.02, "T4": 0.04, "T5": 0.06, "T6": 0.06, "T7": 0.03, "other": 0.0,
}
_TEMPLATE_BOOST_STATEMENT = {
    "T1": 0.06, "T2": 0.05, "T3": 0.03, "T4": 0.01, "T5": 0.00, "T6": 0.00, "T7": 0.02, "other": 0.03,
}


def _cdf(p) -> np.ndarray:
    """The cumulative distribution Generator.choice(len(p), p=p) draws
    against, normalized as it normalizes it."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_index(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The index rng.choice(len(p), p=p) draws when cdf is _cdf(p): the same
    one uniform from the stream, searched as choice searches it, without
    choice's per-call argument checks."""
    return int(cdf.searchsorted(rng.random(), "right"))


_AMBIGUITY_CDF = _cdf((0.3, 0.55, 0.15))


def _draw_relevance(config: CorpusConfig, rng: np.random.Generator) -> float:
    scheme = config.relevance
    if scheme[0] == "beta":
        return float(np.clip(rng.beta(scheme[1], scheme[2]), 0.01, 0.99))
    if scheme[0] == "uniform":
        return float(rng.uniform(scheme[1], scheme[2]))
    if scheme[0] == "bimodal":
        lo, hi, lo2, hi2, p_hi = scheme[1:]
        if rng.random() < p_hi:
            return float(rng.uniform(lo2, hi2))
        return float(rng.uniform(lo, hi))
    raise AssertionError("planted relevance is computed, not drawn")


def _swap_answers(answers: tuple[CandidateAnswer, ...], i: int) -> tuple[CandidateAnswer, ...]:
    """Transpose the answers at 1-based positions i and i+1, renumbering only
    those two positions."""
    swapped = list(answers)
    left, right = swapped[i - 1], swapped[i]
    swapped[i - 1] = replace(right, position=i)
    swapped[i] = replace(left, position=i + 1)
    return tuple(swapped)


def gen_corpus(config: CorpusConfig, seed: int) -> Corpus:
    """Deterministically generate a corpus for one (config, seed) pair.

    Every flagged query gets pane pairs (base, variant) that share question
    and answers and differ by exactly one adjacent transposition.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, fnv1a("corpus")]))
    corpus = Corpus(config, seed, queries={}, panes={}, intent_sets={}, ground_truth={}, entity_lexicon={})
    planted = config.relevance[0] == "planted"
    template_ids = tuple(_TEMPLATE_QUESTIONS)
    count_weights = np.asarray(config.answer_count_weights, dtype=np.float64)
    count_cdf = _cdf(count_weights / count_weights.sum())

    if config.cell_plan is not None:
        plan = [(k, i) for k, i, count in config.cell_plan for _ in range(count)]
    else:
        plan = [(0, 0)] * config.n_queries  # answer counts drawn per pane

    for q_index, (plan_k, plan_i) in enumerate(plan):
        qid = f"q{q_index:06d}"
        noun = _NOUNS[int(rng.integers(len(_NOUNS)))]
        modifier = _MODIFIERS[int(rng.integers(len(_MODIFIERS)))]
        is_question = bool(rng.random() < config.question_fraction)
        text = f"how to find {noun} {modifier}" if is_question else f"{noun} {modifier}"
        query = Query(
            id=qid,
            text=text,
            is_question=is_question,
            ambiguity_class=("ambiguous", "faceted", "unknown")[_draw_index(_AMBIGUITY_CDF, rng)],
            traffic_class=("head", "torso", "tail")[int(rng.integers(3))],
        )
        corpus.queries[qid] = query

        n_intents = max(1, config.intents_per_query)
        facet_pool = rng.permutation(len(_FACETS))[:n_intents]
        facets = [_FACETS[j] for j in facet_pool]
        intent_weights = np.array([max(1.0, round(12.0 / (r + 1))) for r in range(n_intents)])
        corpus.intent_sets[qid] = {
            "reformulation": IntentSet(
                query_id=qid,
                source="reformulation",
                items=tuple((f"{text} {facet}", float(w)) for facet, w in zip(facets, intent_weights)),
            ),
            "click_title": IntentSet(
                query_id=qid,
                source="click_title",
                items=tuple((f"{facet} {noun} overview", float(w)) for facet, w in zip(facets, intent_weights)),
            ),
        }

        relevance_by_text: dict[str, float] = {}
        # planted mode holds the answer count fixed within a query so pane
        # quality differences come from coverage and consistency, not size
        query_k = 2 + _draw_index(count_cdf, rng) if planted else 0
        for p_index in range(config.panes_per_query):
            pane_id = f"{qid}:p{p_index}"
            k = plan_k or query_k or 2 + _draw_index(count_cdf, rng)
            template_id = template_ids[int(rng.integers(len(template_ids)))]
            question_text = _TEMPLATE_QUESTIONS[template_id].format(noun=noun)

            consistent = bool(rng.random() < 0.5)
            if consistent:
                group_facet = facets[int(rng.integers(len(facets)))]
                group = _ENTITY_GROUP[group_facet]
                pool = [f for f in _FACETS if _ENTITY_GROUP[f] == group]
            else:
                pool = list(_FACETS)
            cover_p = float(rng.uniform(0.2, 1.0))
            uncovered = list(_OFF_TOPIC) if planted else [f for f in pool if f not in facets] or pool

            # planted relevance carries pane-level effects (template boost,
            # consistency), so it is keyed per pane; otherwise relevance is a
            # per-(query, answer text) property shared across the query's panes
            pane_rel_map: dict[str, float] = {} if planted else relevance_by_text
            answers = []
            used_texts: set[str] = set()
            for pos in range(1, k + 1):
                covers = bool(rng.random() < cover_p)
                candidates = [f for f in facets if f in pool] if covers else uncovered
                if not candidates:
                    candidates = pool
                facet = candidates[int(rng.integers(len(candidates)))]
                filler = _FILLERS[int(rng.integers(len(_FILLERS)))]
                answer_text = f"{facet} {filler}".strip()
                while answer_text in used_texts:
                    answer_text = f"{answer_text} {pos}"
                used_texts.add(answer_text)

                if planted:
                    if facet in facets:
                        weight_share = float(intent_weights[facets.index(facet)] / intent_weights.sum())
                    else:
                        weight_share = 0.0
                    boost = (_TEMPLATE_BOOST_QUESTION if is_question else _TEMPLATE_BOOST_STATEMENT)[template_id]
                    rel = 0.06 + 0.5 * weight_share + (0.1 if consistent else 0.0) + boost
                    pane_rel_map[answer_text] = float(np.clip(rel + rng.normal(0.0, 0.01), 0.02, 0.95))
                elif answer_text not in pane_rel_map:
                    pane_rel_map[answer_text] = _draw_relevance(config, rng)

                etype = _ENTITY_GROUP.get(facet, "offtopic")
                corpus.entity_lexicon.setdefault(answer_text, etype)
                answers.append(CandidateAnswer(text=answer_text, position=pos, entity_type=etype))

            answers = tuple(answers)
            pane = ClarificationPane(
                id=pane_id, query_id=qid, question_text=question_text, answers=answers, template_id=template_id
            )
            corpus.panes[pane_id] = pane
            corpus.ground_truth[pane_id] = tuple(pane_rel_map[a.text] for a in answers)

            wants_swap = plan_k or (config.swap_fraction > 0 and rng.random() < config.swap_fraction)
            if wants_swap and k >= 2:
                i = plan_i if plan_i else int(rng.integers(1, k))
                variant_id = f"{pane_id}s"
                variant = replace(pane, id=variant_id, answers=_swap_answers(answers, i))
                corpus.panes[variant_id] = variant
                corpus.ground_truth[variant_id] = tuple(pane_rel_map[a.text] for a in variant.answers)
                corpus.swap_pairs.append((pane_id, variant_id, i))

    return corpus


# the uniforms one block of panes holds at most (512 KB), unless one pane's
# draws alone are more
_BLOCK_DRAWS = 1 << 16


def _pane_rng(master_seed: int, pane_id: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, fnv1a(pane_id)]))


def _click_blocks(corpus: Corpus, model: UserModel, n_per_pane: int, seed: int):
    """(pane ids, their generators, clicks) for the panes in id order, a
    block at a time; clicks is a boolean (panes, 5, n_per_pane) array.  Each
    generator has drawn its pane's rng.random((n_per_pane, answers)), whose
    entries below _click_thresholds attract; cascade clicks only the first
    attraction.  Positions past a pane's answers never click."""
    if n_per_pane < 1:
        raise ValueError("n_per_pane must be >= 1")
    pane_ids = sorted(corpus.panes)
    size = max(1, _BLOCK_DRAWS // (5 * n_per_pane))
    for start in range(0, len(pane_ids), size):
        block = pane_ids[start:start + size]
        uniforms, thresholds = np.ones((len(block), 5, n_per_pane)), np.zeros((len(block), 5, 1))
        rngs = []
        for row, pane_id in enumerate(block):
            pane = corpus.panes[pane_id]
            k = len(pane.answers)
            rng = _pane_rng(seed, pane_id)
            uniforms[row, :k] = rng.random((n_per_pane, k)).T
            thresholds[row, :k, 0] = _click_thresholds(model, pane, corpus.pane_relevances(pane_id))
            rngs.append(rng)
        clicks = uniforms < thresholds
        if model.kind == "cascade":
            clicks &= clicks.cumsum(axis=1, dtype=np.int8) == 1
        yield block, rngs, clicks


def simulate_stats(corpus: Corpus, model: UserModel, n_per_pane: int, seed: int) -> dict[str, EngagementStats]:
    """Aggregate engagement statistics from the same per-pane draws as
    simulate_impressions, without building the log."""
    stats = {}
    for block, _, clicks in _click_blocks(corpus, model, n_per_pane, seed):
        engaged = clicks.any(axis=1).sum(axis=1).tolist()
        per_position = clicks.sum(axis=2).tolist()
        for pane_id, pane_engaged, pane_clicks in zip(block, engaged, per_position):
            stats[pane_id] = EngagementStats(n_per_pane, pane_engaged, pane_clicks[:len(corpus.panes[pane_id].answers)])
    return stats


def simulate_impressions(
    corpus: Corpus, model: UserModel, n_per_pane: int, seed: int, base_timestamp: int = 1_600_000_000
) -> ImpressionLog:
    """Draw an impression log; empirical per-answer rates converge to
    oracle_click_rates.  Reformulation and result-click events are sampled
    i.i.d. at the corpus-config rates, after the click draws, so per-pane
    click outcomes match simulate_stats exactly."""
    cfg = corpus.config
    pieces = []
    for block, rngs, clicks in _click_blocks(corpus, model, n_per_pane, seed):
        no_events = np.zeros(n_per_pane, dtype=bool)
        timestamps = base_timestamp + np.arange(n_per_pane, dtype=np.int64)
        result_rows, reform_rows, urls, dwells, texts, deltas = [], [], [], [], [], []
        for pane_id, rng in zip(block, rngs):
            query_id = corpus.panes[pane_id].query_id
            again = f"{corpus.queries[query_id].text} again"
            result_flags = rng.random(n_per_pane) < cfg.result_click_rate if cfg.result_click_rate else no_events
            reform_flags = rng.random(n_per_pane) < cfg.reformulation_rate if cfg.reformulation_rate else no_events
            # each impression's event draws in turn, a result click before a reformulation
            for j in np.flatnonzero(result_flags | reform_flags).tolist():
                if result_flags[j]:
                    dwells.append(float(rng.uniform(0.0, 60.0)))
                    urls.append(f"url:{query_id}:{int(rng.integers(5))}")
                if reform_flags[j]:
                    deltas.append(float(rng.uniform(0.0, 600.0)))
                    texts.append(again)
            result_rows.append(result_flags)
            reform_rows.append(reform_flags)
        pieces.append(ImpressionLog(
            block, np.repeat(np.arange(len(block)), n_per_pane), np.tile(timestamps, len(block)),
            offsets_from_counts(clicks.sum(axis=1).ravel()), np.nonzero(clicks.swapaxes(1, 2))[2].astype(np.int64) + 1,
            offsets_from_counts(np.concatenate(result_rows)), urls, dwells,
            offsets_from_counts(np.concatenate(reform_rows)), texts, deltas,
        ))
    return ImpressionLog.concat(pieces)
