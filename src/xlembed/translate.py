"""Word-translation evaluation: exhaustive top-k retrieval and P@k.

Retrieval scores the space's own matrices: translate_topk and
precision_at_k normalize the target matrix in place while they run (with
CSLS the source matrix too, but only while its r_S is computed), and
restore every bit before they return, also when they raise. So no other
thread may read the space while either runs. Query rows are gathered raw
and scaled one block at a time. Scratch above the space is one score
block with its sub-row copies, one block of query rows, the row norms
and the entries scoring.unit_in_place records: 12 bytes for about 2% of
the entries of a Procrustes-mapped side, and for at most about 15% of
any side. A space whose two sides share memory (one matrix for both
included) is scored against a unit copy of its targets.
"""

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .config import COSINE, CSLS, DEFAULT_KS
from .lexicon import TestDictionary
from .refine import CrossLingualSpace
from .scoring import (
    check_retrieval,
    neighbourhood_mean,
    topk,
    unit_in_place,
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
    space: CrossLingualSpace, query_idx: list, k: int, retrieval: str
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k target indices and scores for the source rows at query_idx.
    CSLS r_S is taken over the whole source space, not just the queries.

    The targets are normalized in place by unit_in_place until return,
    or copied to unit rows when they share memory with the sources (two
    sides on one matrix included). With CSLS the sources are normalized
    in place only while r_S is computed, and get their bits back before
    any query row is read. topk then gathers the raw query rows block by
    block and scales each block. A side that is read-only or not
    C-contiguous is scored as a unit copy instead; the bits are the same
    either way."""
    src, tgt = space.src.matrix, space.tgt.matrix
    with ExitStack() as stack:
        tgt_unit = _unit(tgt, stack, copy=np.may_share_memory(src, tgt))
        r_src = None
        if retrieval == CSLS:
            with ExitStack() as inner:
                r_src = neighbourhood_mean(tgt_unit, _unit(src, inner))
        index = np.asarray(query_idx, dtype=np.intp)
        return topk(src, tgt_unit, k, r_src, index=index)


def _unit(matrix: np.ndarray, stack: ExitStack, copy: bool = False) -> np.ndarray:
    """The unit rows of `matrix`: the matrix itself, normalized in place
    until `stack` closes, or a unit copy when `copy` is set or the matrix
    is not C-contiguous. Only C-contiguous rows reduce to the norms of a
    gathered query block, and a unit copy is C-contiguous, so the score
    GEMMs and the row norms see one layout in every case."""
    if copy or not matrix.flags.c_contiguous:
        return unit_rows(matrix)
    return stack.enter_context(unit_in_place(matrix))


def translate_topk(
    space: CrossLingualSpace, query: str | list[str], k: int, retrieval: str = COSINE
) -> list:
    """Rank all target tokens for one source token, or for each token of a
    list in one pass (one CSLS r_S for all of them). A str query returns its
    [(tgt, score), ...]; a list returns one such list per token, in order.
    Every token is checked before any scoring. The space's matrices are
    normalized in place while it runs and get every bit back (see the
    module docstring)."""
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
    The space's matrices are normalized in place while it runs and get
    every bit back (see the module docstring).
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
