"""Click-bias analysis over adjacent-answer swap experiments.

The unit of analysis is a swap triple: two panes for the same query that are
identical except two adjacent answers trade places.  Comparing the click rate
of the same answer at the two positions isolates position and presentation
effects from relevance.  On top of the triples this module builds log-odds
scatter data, above-diagonal percentages per (answer count, swap position),
a four-feature logistic regression predicting the swapped pane's click rates,
and a family of baseline click models compared by cross entropy.

Every output reads the one SwapTable a bias run builds.  Its rows are taken
by index from the PaneStats table of the triples' panes: row t is triple t,
side 0 its observed pane C and side 1 its swapped pane C', p a 0-based
position and i the triple's 1-based swap index.

    impressions[t, side]   shape (n, 2)
    clicks[t, side, p]     shape (n, 2, MAX_ANSWERS), zero past a pane's answers
    rates[t, side, p]      (clicks + 1) / (impressions + 2), smoothed to finite log odds
    ctr_l, ctr_r           rates[t, 0, i - 1], rates[t, 0, i]: C at i and i + 1
    target_l, target_r     rates[t, 1, i - 1], rates[t, 1, i]: C' at i and i + 1
    sizes[t, j]            render size of C's answer at position i + j

The scatter's points are (target_r, ctr_l) for answer C[i] and (ctr_r,
target_l) for answer C[i + 1]: x where the answer sat deeper, y higher.

The examination and cascade fits pool their cells by answer, one
(query, answer text) across panes, through one answer-item index over the
pane rows (_answer_items).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import MAX_ANSWERS, ClarificationPane, EngagementStats, NumericalError, PaneStats
from .intents import normalize_phrase
from .tensor.text import fnv1a

FEATURE_NAMES = ("intercept", "ctr_l", "ctr_r", "size_diff", "offset")

_EPS = 1e-6
_TOL = 1e-10  # the max-norm of the gradient at which a Newton fit stops


@dataclass(frozen=True)
class SwapTriple:
    """Pane pair differing by one adjacent transposition at swap_index, so
    C[i] == C'[i+1] and C[i+1] == C'[i] (1-based positions)."""

    query_id: str
    pane_c: str
    pane_c_prime: str
    swap_index: int
    answer_count: int


def build_swap_dataset(panes: Mapping[str, ClarificationPane]) -> list[SwapTriple]:
    """Find every unordered pane pair that is one adjacent transposition apart.

    Panes are walked in id order, and for each adjacent position whose two
    texts differ, the answer texts with those two swapped are looked up among
    the earlier panes of the same query and normalized question.  So the pane
    with the smaller id is the observed side, whatever the input order.
    """
    # keys and values are flat tuples of strings: unlike lists, the garbage collector stops tracking them
    earlier: dict[tuple, tuple] = {}  # (query, normalized question, *answer texts) -> pane ids
    questions = functools.cache(normalize_phrase)  # a few question texts recur over many panes
    triples = []
    for pane_id in sorted(panes):
        pane = panes[pane_id]
        group, texts = (pane.query_id, questions(pane.question_text)), pane.answer_texts()
        for i in range(1, len(texts)):
            if texts[i - 1] != texts[i]:
                for first in earlier.get((*group, *texts[: i - 1], texts[i], texts[i - 1], *texts[i + 1 :]), ()):
                    triples.append(SwapTriple(pane.query_id, first, pane_id, swap_index=i, answer_count=len(texts)))
        key = (*group, *texts)
        earlier[key] = earlier.get(key, ()) + (pane_id,)
    triples.sort(key=lambda t: (t.query_id, t.pane_c, t.pane_c_prime))
    return triples


class SwapTable:
    """The arrays of the module docstring, with the triples themselves and
    each triple's query id, swap index, answer count and the stats rows of
    its two panes (pane_rows, shape (n, 2))."""

    def __init__(
        self, triples: Iterable[SwapTriple], stats: Mapping[str, EngagementStats], panes: Mapping[str, ClarificationPane]
    ):
        self.triples, self.stats, self.panes = list(triples), PaneStats.of(stats), panes
        triples, index, n = self.triples, self.stats.index, len(self.triples)
        rows = [(index[t.pane_c], index[t.pane_c_prime], t.swap_index, t.answer_count) for t in triples]
        gathered = np.array(rows, dtype=np.intp).reshape(n, 4)
        self.pane_rows, (self.swap_index, self.answer_count) = gathered[:, :2], gathered[:, 2:].T
        self.query_ids = np.array([t.query_id for t in triples], dtype=object)
        pairs = (panes[t.pane_c].answers[t.swap_index - 1 : t.swap_index + 1] for t in triples)
        self.sizes = np.array([[a.render_size for a in pair] for pair in pairs], dtype=np.float64).reshape(n, 2)
        self.impressions = self.stats.impressions[self.pane_rows].astype(np.float64)
        clicks = self.stats.clicks[self.pane_rows, :MAX_ANSWERS]
        self.clicks = np.zeros((n, 2, MAX_ANSWERS))
        self.clicks[..., : clicks.shape[2]] = clicks
        empty = np.flatnonzero((self.impressions < 1).any(axis=1))
        if empty.size:
            pair = "/".join(self.stats.ids[row] for row in self.pane_rows[empty[0]].tolist())
            raise ValueError(f"triple {pair} has a pane without impressions")
        self.rates = (self.clicks + 1.0) / (self.impressions[:, :, None] + 2.0)
        swapped = np.take_along_axis(self.rates, self.swap_index[:, None, None] - 1 + np.arange(2), axis=2)
        (self.ctr_l, self.ctr_r), (self.target_l, self.target_r) = swapped.transpose(1, 2, 0).copy()
        # the swap regression's feature rows, columns as FEATURE_NAMES
        left, right = self.sizes.T
        size_diff = (left - right) / (left + right)
        self.rows = np.column_stack([np.ones(n), self.ctr_l, self.ctr_r, size_diff, self.swap_index - 1.0])

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The scatter's x and y, shape (n, 2): one column per swapped answer, C[i]'s first."""
        return np.column_stack([self.target_r, self.ctr_r]), np.column_stack([self.ctr_l, self.target_l])


def log_odds(p):
    """log(p / (1 - p)), elementwise."""
    p = np.asarray(p, dtype=np.float64)
    outside = ~((0.0 < p) & (p < 1.0))
    if outside.any():
        raise ValueError(f"log odds undefined for p={p[outside].flat[0]}")
    return np.log(p / (1.0 - p))


def scatter_points(table: SwapTable) -> list[tuple[float, float, int, int]]:
    """(x, y, answer_count, swap_index) rows in log-odds space, two per
    triple: x is an answer's rate where it sat deeper, y where it sat
    higher."""
    x, y = (log_odds(side).ravel().tolist() for side in table.points())
    return list(zip(x, y, table.answer_count.repeat(2).tolist(), table.swap_index.repeat(2).tolist()))


def fit_scatter_line(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least squares y = slope * x + intercept."""
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    x, y = map(np.array, zip(*points))
    if np.allclose(x, x[0]):
        raise ValueError("degenerate x values")
    x_mean, y_mean = x.mean(), y.mean()
    slope = float(((x - x_mean) * (y - y_mean)).sum() / ((x - x_mean) ** 2).sum())
    return slope, float(y_mean - slope * x_mean)


def pct_above_diagonal(table: SwapTable) -> dict[tuple[int, int], tuple[float, int]]:
    """Per (answer_count, swap_index) cell: the percentage of points whose
    higher-position rate exceeds their lower-position rate, and the point
    count.  Ties sit on the diagonal and are excluded from both sides, which
    keeps the unbiased null calibrated at exactly 50%."""
    x, y = table.points()
    off = x != y
    # one integer per (answer count, swap index) cell, in sorted order
    cell = np.broadcast_to((MAX_ANSWERS + 1) * table.answer_count[:, None] + table.swap_index[:, None], x.shape)[off]
    cells, where = np.unique(cell, return_inverse=True)
    counted = np.bincount(where, minlength=len(cells)).tolist()
    above = np.bincount(where[y[off] > x[off]], minlength=len(cells)).tolist()
    keys = [divmod(key, MAX_ANSWERS + 1) for key in cells.tolist()]
    return {key: (100.0 * up / count, count) for key, up, count in zip(keys, above, counted)}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


@dataclass
class LogisticFit:
    weights: np.ndarray
    iterations: int
    gradient_norm: float


def _newton(what, loss, newton, theta, tol, max_iter, lower=-np.inf, upper=np.inf):
    """Damped Newton steps from theta on the box [lower, upper]; returns
    (theta, iterations, gradient norm).  newton(theta) gives the fit's
    stopping norm and a function computing the full step, so a converged
    point never solves.  A step that raises the loss by more than the
    rounding of its sum is halved; one that never descends shrinks to zero
    and ends at max_iter.  Raises NumericalError on a non-finite loss or
    norm, a singular system, or no convergence within max_iter steps."""
    current = loss(theta)
    iterations = 0
    while True:
        gnorm, solve = newton(theta)
        if not np.isfinite(gnorm) or not np.isfinite(current):
            raise NumericalError(f"{what} step {iterations}: non-finite loss or gradient norm")
        if gnorm < tol:
            return theta, iterations, gnorm
        if iterations == max_iter:
            raise NumericalError(f"{what} did not converge in {max_iter} iterations; final gradient norm {gnorm:.3e}")
        iterations += 1
        try:
            step = solve()
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Newton step {iterations}: {exc}; gradient norm {gnorm:.3e}") from None
        while (new := loss(candidate := np.clip(theta - step, lower, upper))) > current + 1e-14 * abs(current):
            step = 0.5 * step
        theta, current = candidate, new


def fit_fractional_logreg(
    rows: np.ndarray,
    targets: np.ndarray,
    sample_weights: np.ndarray | None = None,
    tol: float = _TOL,
    max_iter: int = 100,
) -> LogisticFit:
    """Logistic regression with fractional labels (targets are rates), fit by
    Newton's method.

    Equivalent to impression-weighted binary regression: the cross-entropy
    objective -[y log s + (1-y) log(1-s)] is linear in y.  Deterministic and
    seed-free.  Column 0 is the intercept; a constant column cannot be told
    apart from it and keeps weight 0.  Stops once the max-norm of the
    gradient (sample weights normalized to sum 1) is below tol.
    """
    w = np.ones(len(rows)) if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    w = w / w.sum()
    y = np.asarray(targets, dtype=np.float64)
    free = np.ptp(rows, axis=0) > 0.0
    free[0] = True
    x = rows[:, free]

    def loss(params: np.ndarray) -> float:
        z = x @ params
        # -[y z - log(1 + e^z)] summed with weights, stable via logaddexp
        return float((w * (np.logaddexp(0.0, z) - y * z)).sum())

    def newton(params: np.ndarray):
        p = _sigmoid(x @ params)
        grad = x.T @ (w * (p - y))
        return float(np.abs(grad).max()), lambda: np.linalg.solve(x.T @ (x * (w * p * (1.0 - p))[:, None]), grad)

    theta, iterations, gnorm = _newton("logistic regression", loss, newton, np.zeros(x.shape[1]), tol, max_iter)
    weights = np.zeros(rows.shape[1])
    weights[free] = theta
    return LogisticFit(weights=weights, iterations=iterations, gradient_norm=gnorm)


@dataclass
class LogRegCvReport:
    """The logistic model's weight vectors for the two labels, one per
    evaluated fold, and the ids of those folds."""

    feature_names: tuple[str, ...]
    folds: list[int]
    fold_weights_l: list[np.ndarray]
    fold_weights_r: list[np.ndarray]


def triple_fold(triple: SwapTriple, folds: int) -> int:
    return fnv1a(triple.query_id) % folds


def cross_entropy(true_rates: Sequence[float], predicted_rates: Sequence[float]) -> float:
    """Mean of -[p log q + (1-p) log(1-q)] over points.  Predicting the true
    rates themselves gives the entropy floor."""
    p = np.asarray(true_rates, dtype=np.float64)
    q = np.asarray(predicted_rates, dtype=np.float64)
    if ((q <= 0.0) | (q >= 1.0)).any():
        raise ValueError("predicted rates must be strictly inside (0, 1)")
    return float(-(p * np.log(q) + (1.0 - p) * np.log(1.0 - q)).mean())


@dataclass
class ExaminationFit:
    eps: np.ndarray  # per position; position 1 is 1.0
    attractiveness: dict[tuple[str, str], float]  # per (query, answer text)
    iterations: int
    gradient_norm: float


def _connected_to_first(left: np.ndarray, right: np.ndarray, n_nodes: int) -> np.ndarray:
    """Which of n_nodes the edges (left[i], right[i]) connect to node 0: each
    node takes the smallest label among itself and its neighbours until no
    label changes, which leaves every component labelled by its smallest
    node."""
    label = np.arange(n_nodes)
    while True:
        low = np.minimum(label[left], label[right])
        new = label.copy()
        np.minimum.at(new, left, low)
        np.minimum.at(new, right, low)
        if np.array_equal(new, label):
            return label == 0
        label = new


def _answer_items(pane_stats: Mapping[str, EngagementStats], panes: Mapping[str, ClarificationPane]):
    """The answer-item index both click-model fits read: for the stats rows
    in id order, their impressions and clicks, the item shown at each
    (row, position), shape (n, widest pane), and the item keys.  An item is
    one (query, answer text), numbered in order of first appearance;
    positions past a pane's answers hold -1."""
    stats = PaneStats.of(pane_stats).by_id()
    shown = [panes[pane_id] for pane_id in stats.ids]
    counts = np.array([pane.answer_count for pane in shown], dtype=np.intp)
    keys: dict[tuple[str, str], int] = {}
    items = np.full((len(shown), counts.max(initial=0)), -1, dtype=np.intp)
    items[np.arange(items.shape[1]) < counts[:, None]] = [
        keys.setdefault((pane.query_id, answer.text), len(keys)) for pane in shown for answer in pane.answers
    ]
    return stats.impressions, stats.clicks[:, : items.shape[1]], items, list(keys)


def fit_examination_em(
    pane_stats: Mapping[str, EngagementStats], panes: Mapping[str, ClarificationPane], max_iter: int = 100
) -> ExaminationFit:
    """Maximum-likelihood position examination probabilities eps and answer
    attractiveness alpha under the examination model (click probability
    eps * alpha), on the box eps in [_EPS, 1], alpha in [_EPS, 1 - _EPS].

    Answers are identified by (query, answer text) across panes, which is
    what lets swapped panes separate position from attractiveness.  The
    first position is pinned to 1.0; the product with attractiveness is what
    the likelihood identifies.  Positions never observed keep 0.5 with a
    warning.  A position that shares no answers, directly or through other
    positions, with position 1 is fitted but not identified (any point of a
    ridge fits equally well), and also warns; an answer never or always
    clicked sits at its bound whatever the positions are, so it links none.

    Fit by projected Newton steps (Bertsekas 1982) on the negative
    log-likelihood per cell impression, taken in log eps and log alpha: there
    the loss of a cell depends on log eps + log alpha only and is convex, so
    every cell adds one weight to its position's diagonal, its item's
    diagonal and their cross entry.  The Newton step solves the Schur
    complement onto the free positions (at most MAX_ANSWERS - 1) and
    back-substitutes the items.  A variable at a bound whose gradient points
    out of the box is held for the step.  Stops once the max-norm of the
    projected gradient in (eps, alpha) is below _TOL.
    """
    impressions, clicks, items, keys = _answer_items(pane_stats, panes)
    shown = items >= 0
    n_params = MAX_ANSWERS + len(keys)  # log eps per position, then log alpha per item
    # one cell per shown (pane, position), pane by pane
    positions = np.nonzero(shown)[1]
    items = MAX_ANSWERS + items[shown]
    impressions = impressions.repeat(shown.sum(axis=1)).astype(np.float64)
    clicks = clicks[shown].astype(np.float64)
    total = max(impressions.sum(), 1.0)
    k, m = clicks / total, (impressions - clicks) / total

    def per_param(cell_values: np.ndarray) -> np.ndarray:
        return np.bincount(positions, cell_values, n_params) + np.bincount(items, cell_values, n_params)

    param_k, param_m = per_param(k), per_param(m)
    movable = param_k + param_m > 0.0
    missing = np.flatnonzero(~movable[:MAX_ANSWERS])
    if missing.size:
        warnings.warn(f"positions {(missing + 1).tolist()} never observed; examination probability pinned")
    movable[0] = False
    lower = np.full(n_params, np.log(_EPS))
    upper = np.full(n_params, np.log1p(-_EPS))
    upper[:MAX_ANSWERS] = 0.0
    # start with every observed position examined and every answer at its
    # pooled click rate; a parameter whose cells were never (always) clicked
    # has its optimum at the lower (upper) bound whatever the others are, and
    # started there it is held from the first step (it has no curvature when
    # always clicked)
    theta = np.log(np.clip(param_k / np.maximum(param_k + param_m, _EPS), 0.01, 0.99))
    theta[:MAX_ANSWERS] = np.where(movable[:MAX_ANSWERS], 0.0, np.log(0.5))
    theta[0] = 0.0
    never, always = movable & (param_k == 0.0), movable & (param_m == 0.0)
    theta[never], theta[always] = lower[never], upper[always]
    # positions and answers are the nodes of a graph with an edge per shown
    # cell whose answer is not held at a bound; a free position outside
    # position 1's component, with its answers, can trade examination for
    # attractiveness along a flat ridge
    linking = (impressions > 0) & ~(never | always)[items]
    anchored = _connected_to_first(positions[linking], items[linking], n_params)
    unanchored = np.flatnonzero(movable[:MAX_ANSWERS] & ~anchored[:MAX_ANSWERS])
    if unanchored.size:
        warnings.warn(
            f"positions {(unanchored + 1).tolist()} share no answers with position 1; examination probability not identified"
        )

    def loss(params: np.ndarray) -> float:
        s = params[positions] + params[items]
        return float(-(k * s + m * np.log(-np.expm1(s))).sum())

    def newton(params: np.ndarray):
        s = params[positions] + params[items]
        no_click = -np.expm1(s)  # 1 - eps * alpha
        odds = np.exp(s) / no_click
        # first and second derivative of each cell's loss in s
        d1, d2 = m * odds - k, m * odds / no_click
        grad = per_param(d1)
        held = ~movable | ((params <= lower) & (grad > 0.0)) | ((params >= upper) & (grad < 0.0))

        def solve() -> np.ndarray:
            curvature = per_param(d2)
            free = np.flatnonzero(~held)
            free_eps, free_alpha = free[free < MAX_ANSWERS], free[free >= MAX_ANSWERS]
            cross = np.bincount(positions * n_params + items, d2, MAX_ANSWERS * n_params).reshape(MAX_ANSWERS, n_params)
            cross = cross[np.ix_(free_eps, free_alpha)]
            scaled = cross / curvature[free_alpha]
            schur = np.diag(curvature[free_eps]) - scaled @ cross.T
            rhs = grad[free_eps] - scaled @ grad[free_alpha]
            # scaled by the positions' own curvature, the Schur matrix has its
            # eigenvalues in [0, 1]; it is singular when a position's
            # examination is not identified (its answers are seen nowhere
            # else), hence the small ridge
            scale = 1.0 / np.sqrt(curvature[free_eps])
            scaled_schur = schur * np.outer(scale, scale) + 1e-8 * np.eye(len(free_eps))
            step = np.zeros(n_params)
            step[free_eps] = scale * np.linalg.solve(scaled_schur, scale * rhs)
            step[free_alpha] = (grad[free_alpha] - cross.T @ step[free_eps]) / curvature[free_alpha]
            return step

        # d loss / d eps = (d loss / d log eps) / eps, and the same for alpha
        return float(np.abs(np.where(held, 0.0, grad / np.exp(params))).max()), solve

    theta, iterations, gnorm = _newton("examination fit", loss, newton, theta, _TOL, max_iter, lower, upper)
    fitted = np.exp(theta)
    return ExaminationFit(fitted[:MAX_ANSWERS], dict(zip(keys, fitted[MAX_ANSWERS:].tolist())), iterations, gnorm)


def fit_cascade_attractiveness(
    pane_stats: Mapping[str, EngagementStats], panes: Mapping[str, ClarificationPane]
) -> dict[tuple[str, str], float]:
    """Dataset-level maximum-likelihood attractiveness per (query, answer).

    Under the sequential model examinations are observable from aggregate
    counts: position k was examined in every impression with no click before
    k, so the MLE is pooled clicks over pooled examinations.  Answers whose
    positions were never examined are pinned to 0.5 with a warning.
    """
    impressions, clicks, items, keys = _answer_items(pane_stats, panes)
    shown = items >= 0
    examined = np.maximum(impressions[:, None] - (np.cumsum(clicks, axis=1) - clicks), 0)
    pooled_clicks, pooled_examined = (np.bincount(items[shown], cells[shown], len(keys)) for cells in (clicks, examined))
    never = pooled_examined <= 0
    for j in np.flatnonzero(never).tolist():
        warnings.warn(f"answer {keys[j]} never examined; attractiveness pinned")
    rates = np.clip(pooled_clicks / np.where(never, 1.0, pooled_examined), _EPS, 1.0 - _EPS)
    return dict(zip(keys, np.where(never, 0.5, rates).tolist()))


# -- comparison click models ---------------------------------------------------
#
# Each entry of CLICK_MODELS is fit on the training triples of one fold and
# returns a predictor of the swapped pane's (label L, label R) rates for its
# test triples; both sets are boolean masks over the rows of a SwapTable,
# whose target_l and target_r are the evaluation truths:
#   fit(table, train mask) -> predict(test mask) -> (rates L, rates R)


def _fit_best_possible(data: SwapTable, train: np.ndarray):
    """Echo the observed swapped-pane rates: the entropy floor."""
    return lambda test: (data.target_l[test], data.target_r[test])


def _fit_blind(data: SwapTable, train: np.ndarray):
    """One smoothed click rate over every training slot, predicted everywhere."""
    clicks = data.clicks[train, 0].sum()
    slots = (data.impressions[train, 0] * data.answer_count[train]).sum()
    rate = (clicks + 1.0) / (slots + 2.0)
    return lambda test: (np.full(test.sum(), rate), np.full(test.sum(), rate))


def _fit_no_bias(data: SwapTable, train: np.ndarray):
    """Each answer keeps the rate observed at its old position: label L is
    the observed ctr_r, label R the observed ctr_l."""
    return lambda test: (data.ctr_r[test], data.ctr_l[test])


def _fit_examination(data: SwapTable, train: np.ndarray):
    """Position examination probabilities fit by maximum likelihood on the
    training panes (position 1 pinned to 1.0); each swapped answer's
    attractiveness is its observed rate over the examination probability of
    its old position."""
    eps = fit_examination_em(data.stats.take(np.unique(data.pane_rows[train])), data.panes).eps

    def predict(test):
        i = data.swap_index[test]
        eps_i, eps_next = eps[i - 1], eps[i]  # swap positions i and i+1
        # label L: the answer observed at i+1 moves up to i; label R: the
        # answer observed at i moves down to i+1
        ctr_l, ctr_r = data.ctr_l[test], data.ctr_r[test]
        return ctr_r / np.maximum(eps_next, _EPS) * eps_i, ctr_l / np.maximum(eps_i, _EPS) * eps_next

    return predict


def cascade_attractiveness(rates: np.ndarray) -> np.ndarray:
    """Per-answer click probabilities under the sequential scan model from
    smoothed rates by position (the last axis): the closed-form
    maximum-likelihood estimates, since examinations are observable when at
    most one answer is clicked."""
    seen_before = np.zeros_like(rates)
    seen_before[..., 1:] = np.cumsum(rates[..., :-1], axis=-1)
    return np.clip(rates / np.maximum(1.0 - seen_before, _EPS), _EPS, 1.0 - _EPS)


def _fit_cascade(data: SwapTable, train: np.ndarray):
    """The observed pane's own attractiveness recomposed in the swapped
    order; nothing is fit on the training folds."""

    def predict(test):
        attract, i = cascade_attractiveness(data.rates[test, 0]), data.swap_index[test]
        rows = np.arange(len(i))
        # reach: no click on the i - 1 answers above the swap, which it leaves in place
        reach = np.cumprod(np.column_stack([np.ones(len(i)), 1.0 - attract]), axis=1)[rows, i - 1]
        promoted, demoted = attract[rows, i], attract[rows, i - 1]
        return promoted * reach, demoted * (reach * (1.0 - promoted))

    return predict


def _fit_logistic(data: SwapTable, train: np.ndarray):
    """The swap regression: one fractional logistic fit per label on the
    training rows, applied to the test rows.  The predictor carries the two
    weight vectors (L, R) as its weights attribute."""
    weights = tuple(
        fit_fractional_logreg(data.rows[train], targets[train], data.impressions[train, 1]).weights
        for targets in (data.target_l, data.target_r)
    )

    def predict(test):
        return tuple(_sigmoid(data.rows[test] @ w) for w in weights)

    predict.weights = weights
    return predict


CLICK_MODELS = {
    "best_possible": _fit_best_possible,
    "blind": _fit_blind,
    "no_bias": _fit_no_bias,
    "examination": _fit_examination,
    "cascade": _fit_cascade,
    "logistic": _fit_logistic,
}


@dataclass
class CeCell:
    mean: float
    std: float
    folds: int


@dataclass
class CeReport:
    """Cross entropy per model, overall and per answer count, with the mean
    and standard deviation taken over the evaluated cross-validation folds,
    plus the logistic model's weights per evaluated fold when it was among
    the models."""

    cells: dict[tuple[str, str], CeCell]  # (model, group) -> cell
    logreg: LogRegCvReport | None = None

    def mean(self, model: str) -> float:
        """The model's overall cross entropy."""
        return self.cells[(model, "overall")].mean


def evaluate_click_models(
    table: SwapTable,
    kinds: Sequence[str] = tuple(CLICK_MODELS),
    folds: int = 10,
) -> CeReport:
    """Fold-wise cross entropy between observed swapped-pane rates and each
    model's predictions.  Triples fall into folds by query; a fold is
    evaluated when it has both test and training triples, and every model
    is fit on its training triples only.  Raises ValueError when there are
    fewer triples than folds or no fold can be evaluated."""
    for kind in kinds:
        if kind not in CLICK_MODELS:
            raise ValueError(f"unknown click model kind {kind!r}")
    if folds < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {folds}")
    if len(table.triples) < folds:
        raise ValueError(f"need at least {folds} triples")
    # a query's triples share its fold, so each query is hashed once
    _, first, query_of = np.unique(table.query_ids, return_index=True, return_inverse=True)
    fold_ids = np.array([triple_fold(table.triples[j], folds) for j in first.tolist()])[query_of]
    # a fold holding triples has training triples when another one does
    evaluated = sorted(set(fold_ids.tolist()))
    if len(evaluated) < 2:
        raise ValueError(f"no fold has both training and test triples: all {len(table.triples)} fall in fold {evaluated[0]}")
    answer_counts = table.answer_count.astype(str)
    logreg = LogRegCvReport(FEATURE_NAMES, [], [], []) if "logistic" in kinds else None

    per_fold: dict[tuple[str, str], list[float]] = {}
    for fold in evaluated:
        test = fold_ids == fold
        truths = np.concatenate([table.target_l[test], table.target_r[test]])
        groups = np.concatenate([answer_counts[test]] * 2)
        for kind in kinds:
            predict = CLICK_MODELS[kind](table, ~test)
            if kind == "logistic":
                logreg.folds.append(fold)
                logreg.fold_weights_l.append(predict.weights[0])
                logreg.fold_weights_r.append(predict.weights[1])
            preds = np.clip(np.concatenate(predict(test)), _EPS, 1.0 - _EPS)
            per_fold.setdefault((kind, "overall"), []).append(cross_entropy(truths, preds))
            for group in sorted(set(groups.tolist())):
                sel = groups == group
                per_fold.setdefault((kind, group), []).append(cross_entropy(truths[sel], preds[sel]))

    cells = {key: CeCell(float(np.mean(vals)), float(np.std(vals)), len(vals)) for key, vals in per_fold.items()}
    return CeReport(cells, logreg)
