"""Refinement of an aligned cross-lingual space.

Averaging replaces both members of every dictionary pair with one shared
vector (their plain or frequency-weighted mean), leaving all other rows
untouched, so paired tokens become exact cross-lingual anchors. The
regression transform instead fits one linear map per side onto the pair
midpoints and moves every row.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSpace
from .lexicon import BilingualDictionary

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


def _pair_weights(
    dictionary: BilingualDictionary, weighted: bool, relative: bool,
    src_total: int, tgt_total: int,
) -> tuple[np.ndarray, np.ndarray]:
    if not weighted:
        n = len(dictionary)
        return np.ones(n), np.ones(n)
    f_src = dictionary.f_src.astype(np.float64)
    f_tgt = dictionary.f_tgt.astype(np.float64)
    if relative:
        if src_total <= 0 or tgt_total <= 0:
            raise ValueError("relative weighting needs positive corpus totals")
        f_src = f_src / src_total
        f_tgt = f_tgt / tgt_total
    return f_src, f_tgt


def _average(
    space: CrossLingualSpace,
    dictionary: BilingualDictionary,
    weighted: bool,
    relative: bool,
) -> CrossLingualSpace:
    n_pairs = len(dictionary)
    src_m = space.src.matrix
    tgt_m = space.tgt.matrix
    if n_pairs and (
        dictionary.src_indices.max() >= src_m.shape[0]
        or dictionary.tgt_indices.max() >= tgt_m.shape[0]
    ):
        raise ValueError("dictionary indices exceed vocabulary size")

    w_src, w_tgt = _pair_weights(
        dictionary, weighted, relative,
        space.src.vocab.total_tokens, space.tgt.vocab.total_tokens,
    )
    if weighted:
        zero = np.flatnonzero(w_src + w_tgt == 0.0)
        if zero.size:
            i = int(zero[0])
            raise ValueError(
                "zero total frequency for pair "
                f"({dictionary.src_tokens[i]!r}, {dictionary.tgt_tokens[i]!r})"
            )

    # Most tokens appear in exactly one pair; those are vectorized. Tokens
    # shared by several pairs get the full-neighborhood average below.
    src_count = np.bincount(dictionary.src_indices, minlength=src_m.shape[0])
    tgt_count = np.bincount(dictionary.tgt_indices, minlength=tgt_m.shape[0])
    simple = (src_count[dictionary.src_indices] == 1) & (
        tgt_count[dictionary.tgt_indices] == 1
    )

    new_src = src_m.copy()
    new_tgt = tgt_m.copy()

    si = dictionary.src_indices[simple]
    ti = dictionary.tgt_indices[simple]
    ws = w_src[simple][:, None]
    wt = w_tgt[simple][:, None]
    mu = (ws * src_m[si] + wt * tgt_m[ti]) / (ws + wt)
    new_src[si] = mu
    new_tgt[ti] = mu

    rest = np.flatnonzero(~simple)
    if rest.size:
        # neighborhood: own vector plus every paired counterpart, weights
        # taken from the dictionary, contributions in canonical order
        neigh: dict = {}
        weight_of: dict = {}
        for k in rest:
            a = (0, int(dictionary.src_indices[k]))
            b = (1, int(dictionary.tgt_indices[k]))
            neigh.setdefault(a, {a}).add(b)
            neigh.setdefault(b, {b}).add(a)
            weight_of.setdefault(a, float(w_src[k]))
            weight_of.setdefault(b, float(w_tgt[k]))
        for key in neigh:
            members = sorted(neigh[key])
            weights = np.array([weight_of[m] for m in members])
            if weights.sum() == 0.0:
                raise ValueError(
                    f"zero total frequency in the pair neighborhood of "
                    f"{'source' if key[0] == 0 else 'target'} index {key[1]}"
                )
            stacked = np.stack(
                [src_m[i] if side == 0 else tgt_m[i] for side, i in members]
            )
            vec = (weights[:, None] * stacked).sum(axis=0) / weights.sum()
            if key[0] == 0:
                new_src[key[1]] = vec
            else:
                new_tgt[key[1]] = vec

    record = {
        "transform": "average_weighted" if weighted else "average_plain",
        "pairs": int(n_pairs),
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
