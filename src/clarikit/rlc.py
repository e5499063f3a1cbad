"""Two-encoder neural scorer for clarification panes.

One branch (the intents coverage encoder, one per intent source) measures how
well the candidate answers cover the query's mined intents; the other (the
answers consistency encoder) measures whether the answers are coherent with
each other and the clarifying question.  A two-layer feed-forward head maps
the concatenated branch outputs to a scalar score.  A query's panes are
scored as one batch: each branch and the head run once over all of them.

Panes are padded to a fixed number of answer slots and intent sets to a fixed
number of intent slots; padded slots are masked out of attention and pooling,
so padding never changes a score.  Training is pairwise: for two panes of the
same query, the softmax over their two scores is pushed toward the one with
the higher engagement label.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import ClarificationPane, Query, tokenize
from .intents import IntentSet
from .tensor import autodiff as ad
from .tensor.autodiff import Tensor
from .tensor.nn import ParamSpec, dense, encoder_layer_layout, init_params, masked_mean_rows, transformer_encoder_layer
from .tensor.optim import Adam, AdamConfig
from .tensor.text import text_encode
from .tensor import checkpoint

INTENT_SOURCES = ("reformulation", "click_title")

# the panes of one query, scored as one batch; a single pane is a batch of one
PaneBatch = ClarificationPane | Sequence[ClarificationPane]


def _as_batch(panes: PaneBatch) -> list[ClarificationPane]:
    batch = [panes] if isinstance(panes, ClarificationPane) else list(panes)
    if not batch:
        raise ValueError("no panes to score")
    return batch


@dataclass(frozen=True)
class RlcConfig:
    dim: int = 64
    heads: int = 2
    layers: int = 1
    answer_slots: int = 5
    max_intents: int = 8
    hash_buckets: int = 4096
    ff_dim: int = 128
    head_hidden: int = 64

    def __post_init__(self):
        for name, least in (("dim", 1), ("heads", 1), ("layers", 0), ("answer_slots", 2), ("max_intents", 1),
                            ("hash_buckets", 2), ("ff_dim", 1), ("head_hidden", 1)):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.answer_slots > 5:
            raise ValueError(f"answer_slots must be at most 5, got {self.answer_slots}")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} must be divisible by heads {self.heads}")


def param_layout(config: RlcConfig) -> Iterator[tuple[str, ParamSpec]]:
    """(name, spec) of every parameter of this config, in draw order and made
    lazily, so a reader may stop early.  One shared embedding table; per-role
    projections keep the encoder roles distinct in the same token space."""
    d = config.dim
    yield "embed.table", ParamSpec((config.hash_buckets, d), 0.1)
    for role in ("ice.reformulation", "ice.click_title", "ace.answer", "ace.question"):
        yield f"{role}.proj", dense(d, d)
    for source in INTENT_SOURCES:
        for stage in ("answers_enc", "intents_enc"):
            for layer in range(config.layers):
                yield from encoder_layer_layout(f"ice.{source}.{stage}.l{layer}", d, config.heads, config.ff_dim)
        for i in (1, 2):
            yield f"ice.{source}.ff_w{i}", dense(d, d)
            yield f"ice.{source}.ff_b{i}", ParamSpec((d,))
    for layer in range(config.layers):
        yield from encoder_layer_layout(f"ace.enc.l{layer}", d, config.heads, config.ff_dim)
    yield "head.w1", dense(3 * d, config.head_hidden)  # two intent sources + the consistency branch
    yield "head.b1", ParamSpec((config.head_hidden,))
    yield "head.w2", dense(config.head_hidden, 1)
    yield "head.b2", ParamSpec((1,))


@dataclass(frozen=True)
class TrainTriple:
    """One query with its candidate panes and per-pane labels (engagement
    rates from clicks, or ordinal human labels)."""

    query: Query
    panes: tuple[ClarificationPane, ...]
    labels: tuple[float, ...]

    def __post_init__(self):
        if len(self.panes) != len(self.labels):
            raise ValueError("one label per pane required")
        if any(not np.isfinite(l) for l in self.labels):
            raise ValueError("labels must be finite")


class RlcModel:
    """Parameter container plus the forward pipeline.  Parameters live in a
    flat name -> Tensor dict so the optimizer, checkpoints, and gradient
    checks all see one namespace."""

    def __init__(self, config: RlcConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    # -- construction -----------------------------------------------------

    @staticmethod
    def init(config: RlcConfig, seed: int) -> "RlcModel":
        return RlcModel(config, init_params(param_layout(config), np.random.default_rng(seed)))

    # -- forward ----------------------------------------------------------

    def _padded_intents(self, intent_set: IntentSet | None) -> tuple[list[str | None], np.ndarray]:
        n = self.config.max_intents
        items = list(intent_set.items[:n]) if intent_set is not None else []
        texts: list[str | None] = [text for text, _ in items] + [None] * (n - len(items))
        weights = np.zeros(n)
        weights[: len(items)] = [w for _, w in items]
        if not items:
            # no intents at all: a single uniformly weighted null slot
            weights[0] = 1.0
        return texts, weights / weights.sum()

    def _padded_answers(self, panes: list[ClarificationPane]) -> tuple[list[list[str | None]], np.ndarray]:
        """Each pane's answer texts padded to answer_slots with None, and the
        (B, answer_slots) mask of the real ones."""
        k = self.config.answer_slots
        texts: list[list[str | None]] = []
        for pane in panes:
            if not pane.answers:
                raise ValueError(f"pane {pane.id} has no answers")
            real: list[str | None] = [a.text for a in pane.answers[:k]]
            texts.append(real + [None] * (k - len(real)))
        mask = np.array([[0.0 if t is None else 1.0 for t in row] for row in texts])
        return texts, mask

    def encode_intent_coverage(
        self, query: Query, panes: PaneBatch, intent_set: IntentSet | None, source: str
    ) -> Tensor:
        """Coverage branch for one intent source, as a (B, dim) tensor: encode
        every (query, answer, intent) triplet, summarize the answers per
        intent, contextualize across intents, weight by normalized intent
        weight, sum, and refine with two point-wise feed-forward layers.

        Each pane's triplets form one (intents x answers) block of rows, and
        the B blocks one (B, rows, dim) stack: one text encoding, one pass
        per answers-encoder layer with a block-diagonal mask per pane (each
        intent's answers attend only to each other), and one pooling
        matmul."""
        cfg = self.config
        panes = _as_batch(panes)
        query_tokens = tokenize(query.text)
        answer_texts, answer_mask = self._padded_answers(panes)
        intent_texts, weights = self._padded_intents(intent_set)
        intent_tokens = [None if t is None else tokenize(t) for t in intent_texts]
        triplets = []
        for texts in answer_texts:
            answer_tokens = [None if t is None else tokenize(t) for t in texts]
            triplets.append([
                None if intent is None or answer is None else [query_tokens, answer, intent]
                for intent in intent_tokens
                for answer in answer_tokens
            ])
        seq = text_encode(triplets, self.params["embed.table"], self.params[f"ice.{source}.proj"])
        # row i * answer_slots + a holds intent i with answer slot a
        same_intent = np.repeat(np.repeat(np.eye(cfg.max_intents), cfg.answer_slots, axis=0), cfg.answer_slots, axis=1)
        block_mask = same_intent * np.tile(answer_mask, cfg.max_intents)[:, None, :]
        for layer in range(cfg.layers):
            seq = transformer_encoder_layer(seq, self.params, f"ice.{source}.answers_enc.l{layer}", key_mask=block_mask)
        # mean over each intent's real answers; a padded intent is a zero row
        real_intents = np.array([0.0 if t is None else 1.0 for t in intent_texts])
        answer_means = answer_mask / answer_mask.sum(axis=1, keepdims=True)
        pooling = (np.diag(real_intents)[None, :, :, None] * answer_means[:, None, None, :]).reshape(len(panes), cfg.max_intents, -1)
        intents_seq = ad.matmul(Tensor(pooling), seq)

        intent_mask = real_intents.copy()
        if intent_mask.sum() == 0:
            intent_mask[0] = 1.0  # the null slot carries the uniform weight
        for layer in range(cfg.layers):
            intents_seq = transformer_encoder_layer(
                intents_seq, self.params, f"ice.{source}.intents_enc.l{layer}", key_mask=intent_mask
            )
        # weight each contextualized intent by its normalized frequency and sum
        pooled = ad.sum_(ad.matmul(Tensor(weights[None, :]), intents_seq), axis=1)
        h = ad.relu(ad.add(ad.matmul(pooled, self.params[f"ice.{source}.ff_w1"]), self.params[f"ice.{source}.ff_b1"]))
        return ad.add(ad.matmul(h, self.params[f"ice.{source}.ff_w2"]), self.params[f"ice.{source}.ff_b2"])

    def encode_answer_consistency(
        self, panes: PaneBatch, entity_lexicon: Mapping[str, str] | None = None
    ) -> Tensor:
        """Consistency branch, as a (B, dim) tensor: encode each answer with
        its entity type, add the question encoding, run the encoder over the
        slots, and mean-pool the real ones."""
        cfg = self.config
        panes = _as_batch(panes)
        table = self.params["embed.table"]
        lexicon = entity_lexicon or {}
        answer_texts, answer_mask = self._padded_answers(panes)
        answers = text_encode(
            [[None if t is None else [tokenize(t), tokenize(lexicon.get(t, ""))] for t in texts] for texts in answer_texts],
            table,
            self.params["ace.answer.proj"],
        )
        question = text_encode([[[tokenize(pane.question_text)]] for pane in panes], table, self.params["ace.question.proj"])
        mask = np.concatenate([answer_mask, np.ones((len(panes), 1))], axis=1)
        key_mask = np.broadcast_to(mask[:, None, :], (len(panes), mask.shape[1], mask.shape[1]))
        seq = ad.concat([answers, question], axis=1)
        for layer in range(cfg.layers):
            seq = transformer_encoder_layer(seq, self.params, f"ace.enc.l{layer}", key_mask=key_mask)
        return ad.sum_(masked_mean_rows(seq, mask), axis=1)

    def score_tensor(
        self,
        query: Query,
        panes: PaneBatch,
        intent_sets: Mapping[str, IntentSet] | None,
        entity_lexicon: Mapping[str, str] | None = None,
    ) -> Tensor:
        """Scores of B panes of one query as a (B,) tensor, from one forward
        pass: every branch and the head run once over the whole batch.  A
        pane's score agrees with its score in any other batch up to its last
        few bits, not bit for bit: the batch sets the shapes of the
        products."""
        panes = _as_batch(panes)
        intent_sets = intent_sets or {}
        branches = [
            self.encode_intent_coverage(query, panes, intent_sets.get(source), source)
            for source in INTENT_SOURCES
        ]
        branches.append(self.encode_answer_consistency(panes, entity_lexicon))
        joined = ad.concat(branches, axis=1)
        h = ad.relu(ad.add(ad.matmul(joined, self.params["head.w1"]), self.params["head.b1"]))
        out = ad.add(ad.matmul(h, self.params["head.w2"]), self.params["head.b2"])
        return ad.sum_(out, axis=1)

    def score(self, query, pane, intent_sets=None, entity_lexicon=None) -> float:
        return self.score_tensor(query, [pane], intent_sets, entity_lexicon).item()

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        checkpoint.save_tensors(path, self.params, config=asdict(self.config))

    @staticmethod
    def load(path: str, requires_grad: bool = True) -> "RlcModel":
        """A saved model; a ValueError naming the path unless its config is
        valid and it holds exactly the parameters, by name and shape, that
        the config implies."""
        tensors, config = checkpoint.load_tensors(path, requires_grad=requires_grad)
        try:
            config = RlcConfig(**config)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: invalid model config: {exc}") from None
        found = {name: t.data.shape for name, t in tensors.items()}
        # one spec past the file's count tells a config that implies more (say 10**9 layers)
        expected = {name: spec.shape for name, spec in itertools.islice(param_layout(config), len(found) + 1)}
        if len(expected) > len(found):
            raise ValueError(f"{path}: its config implies more than the {len(found)} parameters the file holds")
        wrong = sorted({name for name, _ in found.items() ^ expected.items()})
        if wrong:
            raise ValueError(f"{path}: parameters missing, unexpected or misshapen for its config: {wrong[:5]}")
        return RlcModel(config, tensors)


def pair_probabilities(score_a: float, score_b: float) -> tuple[float, float]:
    """Softmax over two scores as (p_a, p_b).  Computed from the higher score
    down so the pair sums to exactly 1.0 and swapping the arguments returns
    the bitwise-mirrored pair."""
    if score_a >= score_b:
        p_hi = 1.0 / (1.0 + math.exp(score_b - score_a))
        return p_hi, 1.0 - p_hi
    p_hi = 1.0 / (1.0 + math.exp(score_a - score_b))
    return 1.0 - p_hi, p_hi


_LOSER_MINUS_WINNER = Tensor([-1.0, 1.0])


def pair_loss(scores: Tensor) -> Tensor:
    """Binary cross entropy of the pairwise softmax over (winner, loser)
    scores, with the winner as the positive class: softplus(loser - winner)."""
    return ad.softplus(ad.sum_(ad.mul(scores, _LOSER_MINUS_WINNER)))


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    pair_count: int = 0


def training_pairs(triples: Sequence[TrainTriple]) -> list[tuple[int, int, int]]:
    """(triple index, winner pane index, loser pane index) for every unordered
    pane pair with distinct labels."""
    pairs = []
    for t_idx, triple in enumerate(triples):
        for a in range(len(triple.panes)):
            for b in range(a + 1, len(triple.panes)):
                if triple.labels[a] == triple.labels[b]:
                    continue
                if triple.labels[a] > triple.labels[b]:
                    pairs.append((t_idx, a, b))
                else:
                    pairs.append((t_idx, b, a))
    return pairs


def train_pairwise(
    model: RlcModel,
    triples: Sequence[TrainTriple],
    intent_sets: Mapping[str, Mapping[str, IntentSet]],
    entity_lexicon: Mapping[str, str] | None,
    optimizer_config: AdamConfig,
    steps: int,
    shuffle_seed: int = 0,
) -> TrainReport:
    """Pairwise training: each step draws the next (winner, loser) pane pair
    from a seeded shuffle (reshuffled per epoch), scores both panes in one
    forward and applies one Adam update of the softmax cross-entropy pair
    loss."""
    pairs = training_pairs(triples)
    if not pairs:
        raise ValueError("no trainable pairs: every query needs >= 2 panes with distinct labels")
    optimizer = Adam(model.params, optimizer_config)
    rng = np.random.default_rng(shuffle_seed)
    report = TrainReport(pair_count=len(pairs))
    order: list[int] = []
    for _ in range(steps):
        if not order:
            order = list(rng.permutation(len(pairs)))
        t_idx, win, lose = pairs[order.pop()]
        triple = triples[t_idx]
        sets = intent_sets.get(triple.query.id, {})
        optimizer.zero_grad()
        loss = pair_loss(model.score_tensor(triple.query, [triple.panes[win], triple.panes[lose]], sets, entity_lexicon))
        loss.backward()
        optimizer.step()
        report.losses.append(loss.item())
    return report


def pairwise_accuracy(
    model: RlcModel,
    triples: Sequence[TrainTriple],
    intent_sets: Mapping[str, Mapping[str, IntentSet]],
    entity_lexicon: Mapping[str, str] | None = None,
) -> float:
    """Fraction of distinct-label pane pairs the model orders correctly.
    Each query's panes are scored in one forward."""
    pairs = training_pairs(triples)
    if not pairs:
        raise ValueError("no scorable pairs")
    scores: dict[int, np.ndarray] = {}
    correct = 0
    for t_idx, win, lose in pairs:
        if t_idx not in scores:
            triple = triples[t_idx]
            sets = intent_sets.get(triple.query.id, {})
            scores[t_idx] = model.score_tensor(triple.query, triple.panes, sets, entity_lexicon).data
        if scores[t_idx][win] > scores[t_idx][lose]:
            correct += 1
    return correct / len(pairs)


LABEL_VALUES = {"Bad": 0.0, "Fair": 1.0, "Good": 2.0}


def fine_tune(
    model: RlcModel,
    labeled: Sequence[TrainTriple],
    negative_pool: Sequence[ClarificationPane],
    optimizer_config: AdamConfig,
    steps: int,
    intent_sets: Mapping[str, Mapping[str, IntentSet]],
    entity_lexicon: Mapping[str, str] | None = None,
    panes_per_query: int = 10,
    pad_seed: int = 0,
) -> TrainReport:
    """Continue pairwise training on human-labeled panes.  Queries with fewer
    than panes_per_query candidates are padded with label-0 panes sampled from
    other queries, so every query ranks a fixed-size list."""
    distinct = {label for triple in labeled for label in triple.labels}
    if len(distinct) < 2:
        raise ValueError("fine-tuning needs at least 2 distinct labels overall")
    rng = np.random.default_rng(pad_seed)
    padded: list[TrainTriple] = []
    for triple in labeled:
        panes = list(triple.panes)
        labels = list(triple.labels)
        foreign = [p for p in negative_pool if p.query_id != triple.query.id]
        need = panes_per_query - len(panes)
        if need > 0 and foreign:
            chosen = rng.choice(len(foreign), size=min(need, len(foreign)), replace=False)
            for idx in sorted(int(c) for c in chosen):
                panes.append(foreign[idx])
                labels.append(0.0)
        padded.append(TrainTriple(query=triple.query, panes=tuple(panes), labels=tuple(labels)))
    return train_pairwise(
        model, padded, intent_sets, entity_lexicon, optimizer_config, steps, shuffle_seed=pad_seed + 1
    )


def group_by_query(
    queries: Mapping[str, Query],
    panes: Mapping[str, ClarificationPane],
    ratings: Mapping[str, float],
) -> list[TrainTriple]:
    """Rated panes (pane id -> rating) as one triple per query, queries in
    id order and each query's panes in the order of ratings."""
    by_query: dict[str, list[str]] = {}
    for pane_id in ratings:
        by_query.setdefault(panes[pane_id].query_id, []).append(pane_id)
    return [
        TrainTriple(queries[query_id], tuple(panes[p] for p in pane_ids), tuple(ratings[p] for p in pane_ids))
        for query_id, pane_ids in sorted(by_query.items())
    ]
