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
from .corpus import undecodable_line
from .embeddings import EmbeddingSpace
from .lexicon import BilingualDictionary
from .scoring import (
    _blocks,
    check_retrieval,
    neighbourhood_mean,
    score_blocks,
    unit_rows,
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


def _svd_cross(x: np.ndarray, y: np.ndarray):
    m = x.T @ y
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
    Each side's mapped rows come from one product (row blocks of it may
    round differently); the unmapped target rows, norms and ratios are
    taken BLOCK_ROWS pairs at a time into one vector, so the mean sums the
    ratios in one fixed order."""
    x = src[src_idx] @ w
    mapped_tgt = None if tgt_map is None else tgt[tgt_idx] @ tgt_map
    ratio = np.empty(len(x))
    for rows in _blocks(len(x)):
        xb = x[rows]
        y = tgt[tgt_idx[rows]] if mapped_tgt is None else mapped_tgt[rows]
        num = np.einsum("ij,ij->i", xb, y)
        den = np.linalg.norm(xb, axis=1) * np.linalg.norm(y, axis=1)
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
    u, _, vt = _svd_cross(src.matrix[s_idx], tgt.matrix[t_idx])
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
    tgt_unit: np.ndarray,
    retrieval: str,
    seed_pairs: np.ndarray,
) -> np.ndarray:
    """Union of src->tgt and tgt->src nearest-neighbor pairs plus seeds,
    deduplicated and lexicographically sorted (deterministic).

    One blocked pass over the source rows gives each row's argmax and a
    running per-target max (_merge_column_max). CSLS first needs r_S, one
    more blocked pass with the roles swapped.
    """
    n_src = src_unit.shape[0]
    n_tgt = tgt_unit.shape[0]
    r_src = neighbourhood_mean(tgt_unit, src_unit) if retrieval == CSLS else None
    fwd = np.empty(n_src, dtype=np.int64)
    bwd = np.zeros(n_tgt, dtype=np.int64)
    best = np.full(n_tgt, -np.inf)
    for rows, scores in score_blocks(src_unit, tgt_unit, r_src):
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


def self_learn(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    seed: BilingualDictionary,
    config: Optional[SelfLearnConfig] = None,
) -> AlignmentModel:
    """Iterative alignment: solve, induce a larger dictionary over the most
    frequent tokens of each side, repeat until the mean dictionary cosine
    stops improving. Deterministic; returns the best-scoring model."""
    cfg = config or SelfLearnConfig()
    _check_pair(src, tgt, seed)
    check_retrieval(cfg.retrieval)
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not np.isfinite(cfg.tol):
        raise ValueError(f"tol must be finite, got {cfg.tol}")
    cutoff = min(cfg.induce_vocab_cutoff, len(src.vocab), len(tgt.vocab))
    src_top = src.matrix[:cutoff]
    tgt_top = tgt.matrix[:cutoff]
    tgt_unit = unit_rows(tgt_top)

    seed_pairs_all = np.stack([seed.src_indices, seed.tgt_indices], axis=1)
    in_range = (seed_pairs_all[:, 0] < cutoff) & (seed_pairs_all[:, 1] < cutoff)
    seed_pairs = seed_pairs_all[in_range]
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
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        u, _, vt = _svd_cross(src.matrix[cur_src], tgt.matrix[cur_tgt])
        w = u @ vt
        mapped = src_top @ w
        induced = _induce_pairs(
            unit_rows(mapped, out=mapped), tgt_unit, cfg.retrieval, seed_pairs
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
        cur_src = induced[:, 0]
        cur_tgt = induced[:, 1]

    return AlignmentModel(
        src_map=best_w, iterations=iterations, dict_cosines=history
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
    x = src.matrix[dictionary.src_indices] @ model.src_map
    y = tgt.matrix[dictionary.tgt_indices]
    u, sig, vt = _svd_cross(x, y)
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
    side ("src" or "tgt"). An identity map returns `space` itself."""
    if space.dim != model.dim:
        raise ValueError(
            f"dimension mismatch: space d={space.dim}, model d={model.dim}"
        )
    if side not in ("src", "tgt"):
        raise ValueError(f"side must be 'src' or 'tgt', got {side!r}")
    m = model.src_map if side == "src" else model.tgt_map
    if m is None:
        return space
    return EmbeddingSpace(vocab=space.vocab, matrix=space.matrix @ m)


def save_model(model: AlignmentModel, path) -> None:
    """Text format: header `d s`, the d rows of the source map, then the
    d rows of the target map unless it is the identity."""
    d = model.dim
    line = " ".join(["%.17g"] * d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{d} {model.s:.17g}\n")
        for m in (model.src_map, model.tgt_map):
            if m is not None:
                for row in m:
                    fh.write(line % tuple(row.tolist()))


def _read_map(path, lines: list, first: int, d: int) -> np.ndarray:
    """The d rows of d floats on lines first .. first + d - 1."""
    rows = []
    for lineno in range(first, first + d):
        fields = lines[lineno - 1].split() if lineno <= len(lines) else []
        if len(fields) != d:
            raise ValueError(
                f"{path}: line {lineno}: expected {d} floats, got {len(fields)}"
            )
        row = []
        for v in fields:
            try:
                row.append(float(v))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: bad float value {v!r}"
                ) from None
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def load_model(path) -> AlignmentModel:
    """Read a save_model file: d rows of the source map, then either only
    blank lines or the d rows of the target map. A malformed header, a row
    of the wrong length, a non-float value or a non-blank line after the
    maps is an error naming the file and the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(undecodable_line(path, exc)) from None
    header = lines[0].split()
    try:
        d, s = int(header[0]), float(header[1])
        ok = len(header) == 2 and d >= 1
    except (IndexError, ValueError):
        ok = False
    if not ok:
        raise ValueError(
            f"{path}: line 1: expected header `d s` with an integer d >= 1 "
            f"and a float s"
        )
    src_map = _read_map(path, lines, 2, d)
    tgt_map = None
    end = d + 2
    if end <= len(lines) and lines[end - 1].strip():
        tgt_map = _read_map(path, lines, end, d)
        end += d
    for lineno in range(end, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise ValueError(
                f"{path}: line {lineno}: unexpected content after the "
                f"{end - 2} rows of the model's maps"
            )
    return AlignmentModel(src_map, tgt_map, s=s)
