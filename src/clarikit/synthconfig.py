"""The synthetic generator's configuration: the user models of synthlog and
the corpus layout, each checked where it is built.  This module imports
nothing beyond the standard library, so the CLI reads these fields for its
defaults and flags without loading the generator."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

MODEL_KINDS = ("relevance_only", "examination", "cascade", "size_offset_logistic")

# the intent facets a query draws from, without replacement
_FACETS = (
    "car", "animal", "team", "software", "film", "hotel", "book", "city",
    "game", "plant", "band", "store", "phone", "league", "tool", "brand",
)


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
        if not 0.0 <= self.question_fraction <= 1.0:
            raise ValueError(f"question_fraction {self.question_fraction} not in [0, 1]")
        if not 1 <= self.intents_per_query <= len(_FACETS):
            raise ValueError(f"intents_per_query {self.intents_per_query} not in [1, {len(_FACETS)}]")
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
