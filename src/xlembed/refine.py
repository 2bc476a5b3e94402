"""Refinement of an aligned cross-lingual space.

Averaging replaces both members of every dictionary pair with one shared
vector (their plain or frequency-weighted mean), leaving all other rows
untouched, so paired tokens become exact cross-lingual anchors. A token
in several pairs becomes the mean of its own row and the rows of every
token it is paired with, all read before the update. The
regression transform instead fits one linear map per side onto the pair
midpoints and moves every row.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingSpace
from .lexicon import BilingualDictionary
from .scoring import BLOCK_ROWS, map_rows

RIDGE_LAMBDA = 1e-3


@dataclass
class CrossLingualSpace:
    """Source and target spaces of the same dimension, checked when the
    space is made: the pair to align, as pipeline.load_pair returns it and
    every stage up to pipeline.align takes it, or the two sides in shared
    coordinates.

    A refinement run with `consume`, and pipeline.align, consume the
    space: they set its src and tgt to None (a refinement after writing
    into their matrices), so a later use fails at once instead of reading
    changed numbers."""

    src: EmbeddingSpace
    tgt: EmbeddingSpace

    def __post_init__(self):
        if self.src.dim != self.tgt.dim:
            raise ValueError(
                f"the two spaces must share dimension: "
                f"src d={self.src.dim}, tgt d={self.tgt.dim}"
            )

    @property
    def dim(self) -> int:
        return self.src.dim

    def copy(self) -> "CrossLingualSpace":
        """The same space with copies of both matrices."""
        return CrossLingualSpace(
            src=replace(self.src, matrix=self.src.matrix.copy()),
            tgt=replace(self.tgt, matrix=self.tgt.matrix.copy()),
        )


def _neighbourhoods(s, t, n: int):
    """The pair neighbourhoods of ids 0..n-1, largest first. The
    neighbourhood of id i is i and every id paired with it in (s, t), each
    once, in ascending id order. Returns (order, start, size, member): the
    g-th neighbourhood is that of id order[g], and its members are
    member[start[g] : start[g] + size[g]]; each size's neighbourhoods are a
    prefix, so the r-th members of a block of them are a prefix too."""
    # (owner, member): each pair end with itself and with its other end, once
    owner, member = np.divmod(
        np.unique(np.concatenate([a * n + b for a in (s, t) for b in (s, t)])), n
    )
    size = np.bincount(owner, minlength=n)
    order = np.argsort(-size, kind="stable")
    start = (np.cumsum(size) - size)[order]
    return order, start, size[order], member


def _average(
    space: CrossLingualSpace,
    dictionary: BilingualDictionary,
    weighted: bool,
    relative: bool,
) -> CrossLingualSpace:
    """Average the pairs into the space's own matrices and consume it.
    Scratch is the weighted rows of the paired tokens plus one block."""
    # One id per paired token: sources by index, then targets by index.
    # A token's weight comes from the first pair holding it.
    (src_tok, src_first, s), (tgt_tok, tgt_first, t) = (
        np.unique(indices, return_index=True, return_inverse=True)
        for indices in (dictionary.src_indices, dictionary.tgt_indices)
    )
    k = len(src_tok)
    if k and not (
        0 <= src_tok[0] and src_tok[-1] < len(space.src.matrix)
        and 0 <= tgt_tok[0] and tgt_tok[-1] < len(space.tgt.matrix)
    ):
        raise ValueError("dictionary indices outside the vocabulary")
    w = np.ones(k + len(tgt_tok))
    if weighted:
        totals = [sum(s.vocab.freqs) if relative else 1 for s in (space.src, space.tgt)]
        if min(totals) <= 0:
            raise ValueError("relative weighting needs positive frequency totals")
        w = np.concatenate([
            dictionary.f_src[src_first] / totals[0],
            dictionary.f_tgt[tgt_first] / totals[1],
        ])

    # weighted input rows, all read before any row is written; "clip"
    # avoids a buffered copy (indices checked)
    terms = np.empty((len(w), space.dim))
    np.take(space.src.matrix, src_tok, axis=0, out=terms[:k], mode="clip")
    np.take(space.tgt.matrix, tgt_tok, axis=0, out=terms[k:], mode="clip")
    terms *= w[:, None]
    order, start, size, member = _neighbourhoods(s, t + k, len(w))
    # each neighbourhood's terms are added in member order, from the first
    total = w[member[start]]
    for r in range(1, size[0] if len(size) else 0):
        c = np.count_nonzero(size > r)
        total[:c] += w[member[start[:c] + r]]
    zero = order[total == 0.0]
    if zero.size:
        i = int(zero.min())
        where = (f"source token {space.src.vocab.tokens[src_tok[i]]!r}" if i < k
                 else f"target token {space.tgt.vocab.tokens[tgt_tok[i - k]]!r}")
        raise ValueError(f"zero total frequency in the pair neighbourhood of {where}")

    src, tgt = space.src.matrix, space.tgt.matrix
    buf = np.empty((min(BLOCK_ROWS, len(w)), space.dim))
    for lo in range(0, len(w), BLOCK_ROWS):
        blk = slice(lo, lo + BLOCK_ROWS)
        ids, first = order[blk], start[blk]
        acc = np.take(terms, member[first], axis=0, out=buf[: len(ids)], mode="clip")
        for r in range(1, size[lo]):  # the r-th term of every group
            c = np.count_nonzero(size[blk] > r)
            acc[:c] += np.take(terms, member[first[:c] + r], axis=0, mode="clip")
        acc /= total[blk, None]  # a token in one pair: (ws*a + wt*b) / (ws + wt)
        on_src = ids < k
        src[src_tok[ids[on_src]]] = acc[on_src]
        tgt[tgt_tok[ids[~on_src] - k]] = acc[~on_src]

    # new sides over the written matrices, whose rows are checked again
    refined = CrossLingualSpace(replace(space.src), replace(space.tgt))
    space.src = space.tgt = None
    return refined


def average_plain(
    space: CrossLingualSpace, dictionary: BilingualDictionary, *, consume=False
) -> CrossLingualSpace:
    """Replace both members of each pair by the midpoint of their vectors.
    Works on copies, or with `consume` on the space's own matrices (the
    space is then consumed, see CrossLingualSpace)."""
    if not consume:
        space = space.copy()
    return _average(space, dictionary, weighted=False, relative=False)


def average_weighted(
    space: CrossLingualSpace,
    dictionary: BilingualDictionary,
    relative: bool = False,
    *,
    consume=False,
) -> CrossLingualSpace:
    """Replace both members of each pair by the frequency-weighted mean
    (f1*v1 + f2*v2) / (f1 + f2); `relative` divides each frequency by the
    sum of its side's vocabulary frequencies first. `consume` as in
    average_plain."""
    if not consume:
        space = space.copy()
    return _average(space, dictionary, weighted=True, relative=relative)


def _fit_side(x: np.ndarray, targets: np.ndarray, d: int, side: str) -> np.ndarray:
    if len(x) < d:
        reason = f"{len(x)} pairs for dimension {d}; least squares underdetermined,"
    else:
        m, _, rank, _ = np.linalg.lstsq(x, targets, rcond=None)
        if rank == d:
            return m
        reason = f"rank-deficient pair matrix (rank {rank} < {d});"
    warnings.warn(f"{side}: {reason} using ridge (lambda={RIDGE_LAMBDA})")
    return np.linalg.solve(x.T @ x + RIDGE_LAMBDA * np.eye(d), x.T @ targets)


def meemi_transform(
    space: CrossLingualSpace, dictionary: BilingualDictionary, *, consume=False
) -> CrossLingualSpace:
    """Per-side least-squares map onto the pair midpoints, applied to all
    rows of that side (every vector moves, unlike averaging), BLOCK_ROWS
    rows per GEMM (scoring.map_rows). With `consume` the space is consumed
    (see CrossLingualSpace) and each side's old matrix is freed as soon as
    that side is mapped."""
    if len(dictionary) == 0:
        raise ValueError("dictionary is empty")
    d = space.dim
    x = space.src.matrix[dictionary.src_indices]
    y = space.tgt.matrix[dictionary.tgt_indices]
    mid = (x + y) / 2.0
    m_src = _fit_side(x, mid, d, "source side")
    m_tgt = _fit_side(y, mid, d, "target side")
    del x, y, mid
    src, tgt = space.src, space.tgt
    if consume:  # so each old matrix is freed as soon as its side is mapped
        space.src = space.tgt = None
    src = replace(src, matrix=map_rows(src.matrix, m_src))
    tgt = replace(tgt, matrix=map_rows(tgt.matrix, m_tgt))
    return CrossLingualSpace(src, tgt)
