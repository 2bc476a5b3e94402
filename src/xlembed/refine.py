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
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSpace
from .lexicon import BilingualDictionary
from .scoring import BLOCK_ROWS

RIDGE_LAMBDA = 1e-3


@dataclass
class CrossLingualSpace:
    """Source and target spaces in shared coordinates, same dimension."""

    src: EmbeddingSpace
    tgt: EmbeddingSpace
    provenance: list = field(default_factory=list)

    def __post_init__(self):
        if self.src.dim != self.tgt.dim:
            raise ValueError(
                f"aligned spaces must share dimension: "
                f"src d={self.src.dim}, tgt d={self.tgt.dim}"
            )

    @property
    def dim(self) -> int:
        return self.src.dim

    def _derive(self, src_matrix, tgt_matrix, record) -> "CrossLingualSpace":
        return CrossLingualSpace(
            src=EmbeddingSpace(vocab=self.src.vocab, matrix=src_matrix),
            tgt=EmbeddingSpace(vocab=self.tgt.vocab, matrix=tgt_matrix),
            provenance=self.provenance + [record],
        )


def _neighbourhood_sums(terms, w, s, t) -> np.ndarray:
    """Overwrite each row i of the weighted rows `terms` with its
    neighbourhood sum and return the neighbourhood's total weight w. The
    neighbourhood of id i is i and every id paired with it in (s, t), each
    once; its terms are added in ascending id order, from the first. Groups
    go BLOCK_ROWS at a time: scratch beyond the sums is one block."""
    n = len(terms)
    # (owner, member): each pair end with itself and with its other end, once
    owner, member = np.divmod(
        np.unique(np.concatenate([a * n + b for a in (s, t) for b in (s, t)])), n
    )
    size = np.bincount(owner, minlength=n)
    order = np.argsort(-size, kind="stable")  # so each rank's groups are a prefix
    start = (np.cumsum(size) - size)[order]
    size = size[order]
    total = w[member[start]]
    sums = np.empty_like(terms)
    for lo in range(0, n, BLOCK_ROWS):
        blk = slice(lo, lo + BLOCK_ROWS)
        acc = np.take(terms, member[start[blk]], axis=0, out=sums[blk], mode="clip")
        for r in range(1, size[lo]):  # the r-th term of every group
            c = np.count_nonzero(size[blk] > r)
            m = member[start[lo : lo + c] + r]
            total[lo : lo + c] += w[m]
            acc[:c] += np.take(terms, m, axis=0, mode="clip")
    terms[order] = sums
    return total[np.argsort(order)]


def _average(
    space: CrossLingualSpace,
    dictionary: BilingualDictionary,
    weighted: bool,
    relative: bool,
) -> CrossLingualSpace:
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
        totals = (space.src.vocab.total_tokens, space.tgt.vocab.total_tokens)
        if relative and min(totals) <= 0:
            raise ValueError("relative weighting needs positive corpus totals")
        src_total, tgt_total = totals if relative else (1, 1)
        w = np.concatenate([
            dictionary.f_src[src_first] / src_total,
            dictionary.f_tgt[tgt_first] / tgt_total,
        ])

    # weighted input rows; "clip" avoids a buffered copy (indices checked)
    rows = np.empty((len(w), space.dim))
    np.take(space.src.matrix, src_tok, axis=0, out=rows[:k], mode="clip")
    np.take(space.tgt.matrix, tgt_tok, axis=0, out=rows[k:], mode="clip")
    rows *= w[:, None]
    total = _neighbourhood_sums(rows, w, s, t + k)
    zero = np.flatnonzero(total == 0.0)
    if zero.size:
        i = int(zero[0])
        where = (f"source token {space.src.vocab.tokens[src_tok[i]]!r}" if i < k
                 else f"target token {space.tgt.vocab.tokens[tgt_tok[i - k]]!r}")
        raise ValueError(f"zero total frequency in the pair neighbourhood of {where}")
    rows /= total[:, None]  # a token in one pair: (ws*a + wt*b) / (ws + wt)
    new_src = space.src.matrix.copy()
    new_tgt = space.tgt.matrix.copy()
    new_src[src_tok] = rows[:k]
    new_tgt[tgt_tok] = rows[k:]

    record = {
        "transform": "average_weighted" if weighted else "average_plain",
        "pairs": len(dictionary),
    }
    if weighted:
        record["relative_frequencies"] = bool(relative)
    return space._derive(new_src, new_tgt, record)


def average_plain(
    space: CrossLingualSpace, dictionary: BilingualDictionary
) -> CrossLingualSpace:
    """Replace both members of each pair by the midpoint of their vectors."""
    return _average(space, dictionary, weighted=False, relative=False)


def average_weighted(
    space: CrossLingualSpace,
    dictionary: BilingualDictionary,
    relative: bool = False,
) -> CrossLingualSpace:
    """Replace both members of each pair by the frequency-weighted mean
    (f1*v1 + f2*v2) / (f1 + f2); `relative` divides each frequency by its
    side's corpus total first."""
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
    space: CrossLingualSpace, dictionary: BilingualDictionary
) -> CrossLingualSpace:
    """Per-side least-squares map onto the pair midpoints, applied to all
    rows of that side (every vector moves, unlike averaging)."""
    if len(dictionary) == 0:
        raise ValueError("dictionary is empty")
    d = space.dim
    x = space.src.matrix[dictionary.src_indices]
    y = space.tgt.matrix[dictionary.tgt_indices]
    mid = (x + y) / 2.0
    m_src = _fit_side(x, mid, d, "source side")
    m_tgt = _fit_side(y, mid, d, "target side")
    return space._derive(
        space.src.matrix @ m_src,
        space.tgt.matrix @ m_tgt,
        {"transform": "meemi", "pairs": int(len(dictionary))},
    )
