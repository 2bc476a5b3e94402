"""Word-translation evaluation: exhaustive top-k retrieval and P@k."""

from dataclasses import dataclass

import numpy as np

from .config import COSINE, CSLS, DEFAULT_KS
from .lexicon import TestDictionary
from .refine import CrossLingualSpace
from .scoring import (
    check_retrieval,
    neighbourhood_mean,
    topk,
    unit_rows,
)

# Read by perfbench/layertrace.py to size the largest score block. It is
# the row cap: against more than 5000 targets the byte budget
# (scoring.BLOCK_BYTES) makes the block smaller, e.g. 128 rows at 10000.
from .scoring import BLOCK_ROWS as _QUERY_CHUNK


@dataclass
class TranslationReport:
    p_at: dict                 # k -> percentage over covered entries, or None
    covered: int
    skipped: int
    total: int
    retrieval: str
    oov_as_wrong: bool


def _retrieve(
    space: CrossLingualSpace, query_idx: np.ndarray, k: int, retrieval: str
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k target indices and scores for the source rows at query_idx.
    CSLS r_S is taken over the whole source space, not just the queries.
    At most one unit matrix is alive at a time: r_S scales the target rows
    block by block, and the unit targets are built after the unit sources
    are freed."""
    r_src = None
    if retrieval == CSLS:
        r_src = neighbourhood_mean(
            space.tgt.matrix, unit_rows(space.src.matrix), unit_queries=True
        )
    tgt_unit = unit_rows(space.tgt.matrix)
    queries = space.src.matrix[query_idx]  # a gathered copy, normalized in place
    return topk(unit_rows(queries, out=queries), tgt_unit, k, r_src)


def translate_topk(
    space: CrossLingualSpace, query: str | list[str], k: int, retrieval: str = COSINE
) -> list:
    """Rank all target tokens for one source token, or for each token of a
    list in one pass (one CSLS r_S for all of them). A str query returns its
    [(tgt, score), ...]; a list returns one such list per token, in order.
    Every token is checked before any scoring."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_retrieval(retrieval)
    queries = [query] if isinstance(query, str) else list(query)
    for tok in queries:
        if tok not in space.src.vocab.index:
            raise KeyError(f"query token {tok!r} not in source vocabulary")
    if not queries:
        return []
    query_idx = [space.src.vocab.index[tok] for tok in queries]
    top, scores = _retrieve(space, query_idx, k, retrieval)
    ranked = [
        [(space.tgt.vocab.tokens[int(j)], float(v)) for j, v in zip(row, vals)]
        for row, vals in zip(top, scores)
    ]
    return ranked[0] if isinstance(query, str) else ranked


def precision_at_k(
    space: CrossLingualSpace,
    test: TestDictionary,
    ks: tuple = DEFAULT_KS,
    retrieval: str = COSINE,
    oov_as_wrong: bool = False,
) -> TranslationReport:
    """P@k over a gold dictionary.

    An entry counts correct at k iff any in-vocabulary gold target appears
    in the top-k candidates. Entries with out-of-vocabulary sources are
    skipped and reported unless oov_as_wrong, which counts them incorrect.
    """
    check_retrieval(retrieval)
    ks = tuple(sorted(ks))
    if not ks or ks[0] < 1:
        raise ValueError(f"ks must be non-empty and every k >= 1, got {ks}")
    src_vocab = space.src.vocab
    tgt_vocab = space.tgt.vocab

    covered_entries = [
        (s, golds) for s, golds in test.entries if s in src_vocab.index
    ]
    covered = len(covered_entries)

    # rank[i]: the position of covered entry i's first in-vocabulary gold
    # among its max(ks) candidates, or max(ks) when none is there
    kmax = ks[-1]
    rank = np.full(covered, kmax)
    if covered:
        query_idx = [src_vocab.index[s] for s, _ in covered_entries]
        top, _ = _retrieve(space, query_idx, kmax, retrieval)
        # (entry, target) pairs as one key each: entry * n_targets + target
        n_tgt = len(tgt_vocab)
        gold_keys = [
            i * n_tgt + tgt_vocab.index[t]
            for i, (_, golds) in enumerate(covered_entries)
            for t in golds
            if t in tgt_vocab.index
        ]
        hit = np.isin(top + n_tgt * np.arange(covered)[:, None], gold_keys)
        rank = np.where(hit, np.arange(top.shape[1]), kmax).min(
            axis=1, initial=kmax
        )

    denominator = len(test) if oov_as_wrong else covered
    return TranslationReport(
        p_at={
            k: 100.0 * int((rank < k).sum()) / denominator if denominator else None
            for k in ks
        },
        covered=covered,
        skipped=len(test) - covered,
        total=len(test),
        retrieval=retrieval,
        oov_as_wrong=oov_as_wrong,
    )
