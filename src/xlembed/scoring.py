"""Blocked similarity kernels shared by dictionary induction and retrieval.

Queries are scored against every target a block of query rows at a time,
so no n_queries x n_targets matrix is ever allocated. A block has at most
BLOCK_ROWS rows and at most BLOCK_BYTES bytes of scores (at least one row),
so its size stays constant as the number of targets grows. Each pass
allocates its one block buffer once and reuses it for every block; the
only other scratch is a copy of SUB_ROWS rows of the block, which the
row-wise top-k steps partition. CSLS (Conneau et al. 2018) scores a pair
as 2*cos(x, y) - r_T(x) - r_S(y), where r_T(x) is the mean cosine of x's
CSLS_K nearest targets and r_S(y) the mean cosine of y's CSLS_K nearest
sources; both neighbourhood means are row-wise passes over blocks, and
the CSLS scores overwrite the cosine block in place.
"""

from typing import Iterator, Optional

import numpy as np

from .config import RETRIEVAL_MODES

CSLS_K = 10

BLOCK_ROWS = 256
# Score bytes per block: 256 rows up to 5000 targets, 128 rows at 10000.
BLOCK_BYTES = 256 * 5000 * 8
# Rows per partitioned copy inside a block.
SUB_ROWS = 16
# Row norms inside this range are exact enough from the plain sum of squares
# (no square overflows, and subnormal squares are negligible).
_SAFE_NORM = (1e-150, 1e150)


def check_retrieval(retrieval: str) -> None:
    if retrieval not in RETRIEVAL_MODES:
        raise ValueError(f"unknown retrieval mode {retrieval!r}")


def unit_rows(matrix: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows scaled to Euclidean norm 1, written to `out` (a new array when
    None; `matrix` itself works in place). All-zero rows stay zero, so they
    score 0 everywhere. Norms are taken BLOCK_ROWS rows at a time (each row
    reduces on its own, so the block size changes no bit); a row whose norm
    lies outside _SAFE_NORM is divided by its largest entry first."""
    if out is None:
        out = np.empty(matrix.shape)
    lo, hi = _SAFE_NORM
    for rows in _blocks(matrix.shape[0]):
        block = matrix[rows]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(block, axis=1)
        unsafe = np.flatnonzero(~((norms > lo) & (norms < hi)))
        norms[unsafe] = 1.0  # all-zero rows stay zero; the others are redone
        np.divide(block, norms[:, None], out=out[rows])
        if unsafe.size:
            x = out[rows][unsafe]  # divided by 1: the input rows
            scale = np.abs(x).max(axis=1)
            nonzero = np.flatnonzero(scale)
            x = x[nonzero] / scale[nonzero, None]
            out[rows][unsafe[nonzero]] = x / np.linalg.norm(x, axis=1)[:, None]
    return out


def topk_mean(scores: np.ndarray, k: int) -> np.ndarray:
    """Mean of the k largest entries of each row.

    The caller hands over a scratch block: its rows are partitioned in
    place, exactly as np.partition would partition a copy of them.
    """
    n = scores.shape[1]
    k = min(k, n)
    scores.partition(n - k, axis=1)
    return scores[:, n - k :].mean(axis=1)


def _blocks(n_rows: int, size: Optional[int] = None) -> Iterator[slice]:
    size = size or BLOCK_ROWS
    for start in range(0, n_rows, size):
        yield slice(start, min(start + size, n_rows))


def block_rows(n_targets: int) -> int:
    """Query rows per score block against n_targets targets: BLOCK_ROWS,
    or fewer when the block would exceed BLOCK_BYTES, but at least one."""
    return max(1, min(BLOCK_ROWS, BLOCK_BYTES // (8 * max(1, n_targets))))


def _row_copies(block: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, copy of block[rows]) for consecutive SUB_ROWS-row
    slices; every copy is a view of one reused buffer."""
    buf = np.empty((min(SUB_ROWS, block.shape[0]), block.shape[1]))
    for rows in _blocks(block.shape[0], SUB_ROWS):
        copy = buf[: rows.stop - rows.start]
        np.copyto(copy, block[rows])
        yield rows, copy


def neighbourhood_mean(
    queries: np.ndarray, targets: np.ndarray, *, unit_queries: bool = False
) -> np.ndarray:
    """For each unit query row, the mean cosine of its CSLS_K nearest unit
    target rows. With sources as targets this is CSLS's r_S of each
    target row. `unit_queries` as in score_blocks."""
    out = np.empty(queries.shape[0])
    for rows, cos in score_blocks(queries, targets, unit_queries=unit_queries):
        out[rows] = topk_mean(cos, CSLS_K)
    return out


def score_blocks(
    queries: np.ndarray,
    targets: np.ndarray,
    r_src: Optional[np.ndarray] = None,
    *,
    unit_queries: bool = False,
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, scores) for consecutive blocks of unit query rows
    against all unit target rows: cosine, or CSLS when r_src holds the
    targets' r_S (see neighbourhood_mean). With `unit_queries` the query
    rows may have any norm: each block is scaled by unit_rows into one
    reused buffer before it is scored, which gives the bits of scoring
    unit_rows(queries) without a unit copy of every query.

    A yielded block is a view of a buffer that the next block overwrites,
    so copy whatever is kept beyond the current iteration."""
    step = block_rows(targets.shape[0])
    buf = np.empty((min(step, queries.shape[0]), targets.shape[0]))
    if unit_queries:
        unit = np.empty((min(step, queries.shape[0]), queries.shape[1]))
    for rows in _blocks(queries.shape[0], step):
        m = rows.stop - rows.start
        block = queries[rows]
        if unit_queries:
            block = unit_rows(block, out=unit[:m])
        scores = np.matmul(block, targets.T, out=buf[:m])
        if r_src is not None:
            # 2*cos - r_T - r_S in place, SUB_ROWS rows at a time; r_T
            # partitions a copy of the rows, so cos is still in order.
            for sub, cos in _row_copies(scores):
                r_tgt = topk_mean(cos, CSLS_K)
                part = scores[sub]
                part *= 2.0
                part -= r_tgt[:, None]
                part -= r_src[None, :]
        yield rows, scores


def ranked_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k column indices per row: descending score, ties to the lower
    index. The k-th score of each row comes from partitioning a copy of
    SUB_ROWS rows at a time; every entry tied with it stays a candidate,
    so the exact (-score, index) sort of the candidates breaks ties at the
    boundary the same way a stable full sort would."""
    n_rows, n = scores.shape
    k = min(k, n)
    out = np.empty((n_rows, k), dtype=np.int64)
    for sub, part in _row_copies(scores):
        part.partition(n - k, axis=1)
        block = scores[sub]
        rows, cols = np.nonzero(block >= part[:, n - k, None])
        order = np.lexsort((cols, -block[rows, cols], rows))
        starts = np.searchsorted(rows[order], np.arange(len(part)))
        out[sub] = cols[order][starts[:, None] + np.arange(k)]
    return out


def topk(
    queries: np.ndarray,
    targets: np.ndarray,
    k: int,
    r_src: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k target indices and their scores for every unit query row,
    ranked as ranked_topk; cosine, or CSLS when r_src is given."""
    k = min(k, targets.shape[0])
    idx = np.empty((queries.shape[0], k), dtype=np.int64)
    val = np.empty((queries.shape[0], k))
    if k == 0:
        return idx, val
    for rows, scores in score_blocks(queries, targets, r_src):
        idx[rows] = ranked_topk(scores, k)
        val[rows] = np.take_along_axis(scores, idx[rows], axis=1)
    return idx, val
