"""Orthogonal mapping between embedding spaces.

solve_procrustes computes the closed-form minimizer of ||XW - Y||_F over
orthogonal W from the SVD of X^T Y; self_learn wraps it in the standard
induce-and-resolve loop; reweight rescales the shared space along the
correlation directions of the dictionary.
"""

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .config import CSLS, SelfLearnConfig
from .corpus import open_output
from .embeddings import EmbeddingSpace
from .lexicon import BilingualDictionary
from .scoring import (
    _blocks,
    check_retrieval,
    map_rows,
    neighbourhood_mean,
    score_blocks,
    unit_rows,
    unit_scale,
)


@dataclass
class AlignmentModel:
    """Two linear maps into the shared space: source rows map to
    x @ src_map, target rows to y @ tgt_map (None is the identity). s is
    the re-weighting exponent the maps were built with, 0 for none."""

    src_map: np.ndarray
    tgt_map: Optional[np.ndarray] = None
    s: float = 0.0
    iterations: int = 1
    dict_cosines: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.src_map.shape[0]


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray) -> None:
    # Resolve SVD sign ambiguity: largest-magnitude entry of each U column
    # made non-negative, V flipped to keep the product unchanged.
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]


def _svd_cross(m: np.ndarray):
    """Sign-fixed SVD of the d x d cross-covariance m = x.T @ y. Callers
    form m in the call's own expression, so the row gathers x and y are
    freed before the SVD allocates its workspace."""
    try:
        u, sig, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "SVD of the dictionary cross-covariance failed to converge "
            f"(matrix norm {np.linalg.norm(m):.3e}, shape {m.shape})"
        ) from exc
    _fix_svd_signs(u, vt)
    return u, sig, vt


def _check_pair(src: EmbeddingSpace, tgt: EmbeddingSpace, dictionary) -> None:
    if src.dim != tgt.dim:
        raise ValueError(
            f"dimension mismatch: source d={src.dim}, target d={tgt.dim}"
        )
    if len(dictionary) == 0:
        raise ValueError("seed dictionary is empty")


def _mean_pair_cosine(
    src: np.ndarray,
    tgt: np.ndarray,
    w: np.ndarray,
    src_idx: np.ndarray,
    tgt_idx: np.ndarray,
    tgt_map: Optional[np.ndarray] = None,
) -> float:
    """Mean cosine of the pairs (src[i] @ w, tgt[j]) over zip(src_idx,
    tgt_idx), or (src[i] @ w, tgt[j] @ tgt_map) when tgt_map is given.
    BLOCK_ROWS pairs at a time, each side's rows are gathered and mapped
    (scoring.map_rows, one GEMM per block), and their ratios go into one
    vector, so scratch is a few blocks of rows and the mean sums the
    ratios in one fixed order."""
    ratio = np.empty(len(src_idx))
    for rows in _blocks(len(ratio)):
        x = map_rows(src[src_idx[rows]], w)
        y = tgt[tgt_idx[rows]]
        if tgt_map is not None:
            y = map_rows(y, tgt_map)
        num = np.einsum("ij,ij->i", x, y)
        den = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        den[den == 0.0] = 1.0
        ratio[rows] = num / den
    return float(np.mean(ratio))


def solve_procrustes(
    src: EmbeddingSpace, tgt: EmbeddingSpace, dictionary: BilingualDictionary
) -> AlignmentModel:
    """Closed-form orthogonal alignment on the dictionary pairs.

    Every pair counts once: dictionary_from_pairs, which every dictionary
    builder and loader goes through, keeps one copy of each pair.
    """
    _check_pair(src, tgt, dictionary)
    s_idx, t_idx = dictionary.src_indices, dictionary.tgt_indices
    u, _, vt = _svd_cross(src.matrix[s_idx].T @ tgt.matrix[t_idx])
    w = u @ vt
    cos = _mean_pair_cosine(src.matrix, tgt.matrix, w, s_idx, t_idx)
    return AlignmentModel(src_map=w, iterations=1, dict_cosines=[cos])


def _merge_column_max(
    scores: np.ndarray, start: int, best: np.ndarray, bwd: np.ndarray
) -> None:
    """Fold one block of rows (row i is source start + i) into the running
    per-column max `best` and its source index `bwd`. A strict > keeps the
    earlier block on ties, and the first True of `scores == max` the lowest
    row within a block, as a column-wise argmax over the full matrix would.
    Only the improved columns are gathered, and none when every column
    improves (as in the first block, against -inf): no copy of the block."""
    val = scores.max(axis=0)
    better = np.flatnonzero(val > best)
    if better.size < best.size:
        scores = scores[:, better]
    best[better] = val[better]
    bwd[better] = np.argmax(scores == val[better], axis=0) + start


def _induce_pairs(
    src_unit: np.ndarray,
    tgt: np.ndarray,
    retrieval: str,
    seed_pairs: np.ndarray,
    inv_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Union of src->tgt and tgt->src nearest-neighbor pairs plus seeds,
    deduplicated and lexicographically sorted (deterministic). The
    targets are unit rows, or raw rows with their reciprocal norms
    (scoring.unit_scale).

    One blocked pass over the source rows gives each row's argmax and a
    running per-target max (_merge_column_max). CSLS first needs r_S, one
    more blocked pass with the roles swapped.
    """
    n_src = src_unit.shape[0]
    n_tgt = tgt.shape[0]
    r_src = None
    if retrieval == CSLS:
        r_src = neighbourhood_mean(tgt, src_unit, query_inv=inv_norms)
    fwd = np.empty(n_src, dtype=np.int64)
    bwd = np.zeros(n_tgt, dtype=np.int64)
    best = np.full(n_tgt, -np.inf)
    for rows, scores in score_blocks(src_unit, tgt, r_src, inv_norms=inv_norms):
        fwd[rows] = np.argmax(scores, axis=1)
        _merge_column_max(scores, rows.start, best, bwd)
    pairs = np.concatenate(
        [
            np.stack([np.arange(n_src), fwd], axis=1),
            np.stack([bwd, np.arange(n_tgt)], axis=1),
            seed_pairs,
        ]
    )
    return _unique_pairs(pairs, n_tgt)


def _unique_pairs(pairs: np.ndarray, n_tgt: int) -> np.ndarray:
    """The rows of np.unique(pairs, axis=0), found by sorting one key
    src * n_tgt + tgt per pair (every tgt is below n_tgt)."""
    keys = np.unique(pairs[:, 0] * n_tgt + pairs[:, 1])
    src = keys // n_tgt
    return np.stack([src, keys - src * n_tgt], axis=1)


def _most_frequent_rows(space: EmbeddingSpace, cutoff: int):
    """(rows, index): the matrix rows of the space's `cutoff` most frequent
    tokens, most frequent first, and their vocabulary indices. A stable
    descending sort of the frequencies orders them, so ties keep file
    order. When the frequencies already descend in file order (every file
    without a sidecar vocabulary), rows is the view matrix[:cutoff]."""
    freqs = np.asarray(space.vocab.freqs)
    if (freqs[1:] <= freqs[:-1]).all():
        return space.matrix[:cutoff], np.arange(cutoff)
    index = np.argsort(-freqs, kind="stable")[:cutoff]
    return space.matrix[index], index


def _positions(index: np.ndarray, n: int) -> np.ndarray:
    """For each of n vocabulary indices, its position in `index`, or
    len(index) when it is not there."""
    pos = np.full(n, len(index))
    pos[index] = np.arange(len(index))
    return pos


def self_learn(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    seed: BilingualDictionary,
    config: Optional[SelfLearnConfig] = None,
) -> AlignmentModel:
    """Iterative alignment: solve, induce a larger dictionary over the most
    frequent tokens of each side, repeat until the mean dictionary cosine
    stops improving. Deterministic; returns the best-scoring model.

    Induction scores the target's top `cutoff` rows raw, with their
    reciprocal norms taken once per call (scoring.unit_scale), so
    neither space is written and no unit copy of the target is held."""
    cfg = config or SelfLearnConfig()
    _check_pair(src, tgt, seed)
    check_retrieval(cfg.retrieval)
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not np.isfinite(cfg.tol):
        raise ValueError(f"tol must be finite, got {cfg.tol}")
    cutoff = min(cfg.induce_vocab_cutoff, len(src.vocab), len(tgt.vocab))
    # induction works on rows 0..cutoff-1 of src_top and tgt_top, the most
    # frequent tokens; src_index and tgt_index map them back to the vocabulary
    src_top, src_index = _most_frequent_rows(src, cutoff)
    tgt_top, tgt_index = _most_frequent_rows(tgt, cutoff)
    tgt_rows, tgt_inv = unit_scale(tgt_top)

    seed_pairs_all = np.stack([
        _positions(src_index, len(src.vocab))[seed.src_indices],
        _positions(tgt_index, len(tgt.vocab))[seed.tgt_indices],
    ], axis=1)
    seed_pairs = seed_pairs_all[(seed_pairs_all < cutoff).all(axis=1)]
    if len(seed_pairs) < len(seed_pairs_all):
        warnings.warn(
            f"{len(seed_pairs_all) - len(seed_pairs)} seed pairs fall outside "
            f"the induction cutoff ({cutoff}) and are not re-included"
        )

    cur_src = seed.src_indices
    cur_tgt = seed.tgt_indices
    history: list[float] = []
    best_w = None
    best_score = -np.inf
    for _ in range(cfg.max_iters):
        u, _, vt = _svd_cross(src.matrix[cur_src].T @ tgt.matrix[cur_tgt])
        w = u @ vt
        mapped = map_rows(src_top, w)
        unit_rows(mapped, out=mapped)
        induced = _induce_pairs(
            mapped, tgt_rows, cfg.retrieval, seed_pairs, tgt_inv
        )
        del mapped
        score = _mean_pair_cosine(
            src_top, tgt_top, w, induced[:, 0], induced[:, 1]
        )
        history.append(score)
        if score > best_score:
            best_score = score
            best_w = w
        if len(history) >= 2 and score - history[-2] < cfg.tol:
            break
        cur_src = src_index[induced[:, 0]]
        cur_tgt = tgt_index[induced[:, 1]]

    return AlignmentModel(
        src_map=best_w, iterations=len(history), dict_cosines=history
    )


def reweight(
    model: AlignmentModel,
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    dictionary: BilingualDictionary,
    s: float = 0.5,
) -> AlignmentModel:
    """A new model that also rescales both sides along the dictionary
    correlation directions; `model` is left unchanged.

    With U Sig V^T the SVD of the cross-covariance of the mapped
    dictionary rows, the maps become src_map @ U * sig**s and
    V * sig**s. s=0 adds a pure rotation (cross-space cosines unchanged);
    s=1 amplifies components in proportion to their singular value. The
    new model's dict_cosines holds one value: the mean cosine of the
    dictionary pairs with both sides mapped by the new maps.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"re-weighting exponent s={s} outside [0, 1]")
    if model.tgt_map is not None:
        raise ValueError("model is already re-weighted")
    _check_pair(src, tgt, dictionary)
    # the map goes on the d x d product, so no dictionary-sized GEMM operand
    # is packed by OpenBLAS into memory that stays resident
    u, sig, vt = _svd_cross(model.src_map.T @ (
        src.matrix[dictionary.src_indices].T @ tgt.matrix[dictionary.tgt_indices]
    ))
    scale = sig**s
    src_map, tgt_map = model.src_map @ (u * scale), vt.T * scale
    cos = _mean_pair_cosine(
        src.matrix, tgt.matrix, src_map, dictionary.src_indices,
        dictionary.tgt_indices, tgt_map,
    )
    return replace(
        model, src_map=src_map, tgt_map=tgt_map, s=s, dict_cosines=[cos]
    )


def apply_mapping(
    model: AlignmentModel, space: EmbeddingSpace, side: str = "src"
) -> EmbeddingSpace:
    """Map a whole space into the shared coordinates with the map of its
    side ("src" or "tgt"), BLOCK_ROWS rows per GEMM (scoring.map_rows), so
    scratch beyond the new matrix is one block. An identity map returns
    `space` itself."""
    if space.dim != model.dim:
        raise ValueError(
            f"dimension mismatch: space d={space.dim}, model d={model.dim}"
        )
    if side not in ("src", "tgt"):
        raise ValueError(f"side must be 'src' or 'tgt', got {side!r}")
    m = model.src_map if side == "src" else model.tgt_map
    if m is None:
        return space
    return EmbeddingSpace(vocab=space.vocab, matrix=map_rows(space.matrix, m))


def save_model(model: AlignmentModel, path) -> None:
    """Text format: header `d s`, the d rows of the source map, then the
    d rows of the target map unless it is the identity."""
    d = model.dim
    line = " ".join(["%.17g"] * d) + "\n"
    with open_output(path) as fh:
        fh.write(f"{d} {model.s:.17g}\n")
        for m in (model.src_map, model.tgt_map):
            if m is not None:
                for row in m:
                    fh.write(line % tuple(row.tolist()))
