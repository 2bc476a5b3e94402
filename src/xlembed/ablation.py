"""Ablation over identical-token classes: which part of the synthetic
dictionary carries the alignment signal."""

import warnings
from dataclasses import dataclass, field
from typing import Optional

from .config import COSINE, DEFAULT_KS, SelfLearnConfig
from .corpus import TokenClass
from .lexicon import BilingualDictionary, TestDictionary, filter_by_class
from .pipeline import (
    align,
    evaluate_sentiment,
    evaluate_translation,
    refine_space,
)
from .refine import CrossLingualSpace
from .sentiment import SentimentDataset

BASE = "base"
WEIGHTED = "weighted"
# Model columns of the grid and the refine mode each one runs.
MODELS = ((BASE, "none"), (WEIGHTED, "weighted"))

VARIANTS = (
    ("All", None),
    ("Numerals", {TokenClass.NUMERAL}),
    ("Emoji", {TokenClass.EMOJI}),   # emoticons grouped in by the filter
    ("Words", {TokenClass.WORD}),
)


@dataclass
class AblationCell:
    translation: Optional[object] = None
    sentiment: Optional[object] = None
    error: Optional[str] = None


@dataclass
class AblationRow:
    name: str
    n_pairs: int
    cells: dict = field(default_factory=dict)


@dataclass
class AblationTable:
    rows: list
    ks: tuple
    has_sentiment: bool
    models = tuple(name for name, _ in MODELS)   # report column order


def _mark_failed(row: AblationRow, models: list, exc: Exception) -> None:
    """Give each of the row's `models` cells the error, and warn once."""
    error = f"{type(exc).__name__}: {exc}"
    warnings.warn(
        f"ablation row {row.name}, model {' and '.join(models)}: {error}; "
        "reported as n/a"
    )
    for model_name in models:
        row.cells[model_name] = AblationCell(error=error)


def _run_cell(
    space: CrossLingualSpace,
    dictionary: BilingualDictionary,
    test: TestDictionary,
    refine_mode: str,
    ks: tuple,
    retrieval: str,
    sentiment_train: Optional[SentimentDataset],
    sentiment_test: Optional[SentimentDataset],
) -> AblationCell:
    if refine_mode != "none":
        # refine_space consumes the space it refines, and the grid reuses
        # this one: its target side is the shared normalized target
        space = space.copy()
    space = refine_space(space, dictionary, refine_mode)
    cell = AblationCell(translation=evaluate_translation(space, test, ks, retrieval))
    if sentiment_train is not None and sentiment_test is not None:
        _, cell.sentiment = evaluate_sentiment(space, sentiment_train, sentiment_test)
    return cell


def run_ablation(
    pair: CrossLingualSpace,
    dictionary: BilingualDictionary,
    test: TestDictionary,
    ks: tuple = DEFAULT_KS,
    retrieval: str = COSINE,
    sentiment_train: Optional[SentimentDataset] = None,
    sentiment_test: Optional[SentimentDataset] = None,
    self_learn_config: Optional[SelfLearnConfig] = None,
) -> AblationTable:
    """Run {All, Numerals, Emoji, Words} x {base, weighted} full pipelines
    on `pair`, the normalized CrossLingualSpace of load_pair.

    Each dictionary variant is aligned once, on a CrossLingualSpace of its
    own over the sides of `pair` (so `pair` is not consumed), and both
    cells of its row refine and evaluate that mapped space. Per-cell
    failures (for instance an empty class subset, which fails the
    alignment and so marks both cells) are recorded in the cell, warned
    once per failed row or cell, and do not abort the grid.
    """
    has_sentiment = sentiment_train is not None and sentiment_test is not None
    rows = []
    for name, keep in VARIANTS:
        variant = dictionary if keep is None else filter_by_class(dictionary, keep)
        row = AblationRow(name=name, n_pairs=len(variant))
        rows.append(row)
        try:
            own = CrossLingualSpace(pair.src, pair.tgt)  # align consumes it
            _, space = align(own, variant, self_learn_config)
        except Exception as exc:  # the whole row fails, the grid goes on
            _mark_failed(row, [model_name for model_name, _ in MODELS], exc)
            continue
        for model_name, refine_mode in MODELS:
            try:
                row.cells[model_name] = _run_cell(
                    space, variant, test, refine_mode, ks, retrieval,
                    sentiment_train, sentiment_test,
                )
            except Exception as exc:  # the cell fails, the row goes on
                _mark_failed(row, [model_name], exc)
    return AblationTable(rows=rows, ks=tuple(sorted(ks)), has_sentiment=has_sentiment)
