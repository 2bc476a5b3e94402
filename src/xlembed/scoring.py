"""Blocked kernels shared by dictionary induction, retrieval and mapping.

Queries are scored against every target a block of query rows at a time,
so no n_queries x n_targets matrix is ever allocated. A block has at most
BLOCK_ROWS rows and at most BLOCK_BYTES bytes of scores (but at least two rows),
so its size stays constant as the number of targets grows. Each pass
allocates its one block buffer once and reuses it for every block; the
only other scratch is a copy of SUB_ROWS rows of the block, which the
row-wise top-k steps partition, and, when query rows are gathered and
scaled block by block, one buffer of query rows. unit_in_place
normalizes a matrix's own rows for the length of a `with` block and
restores every bit afterwards, so neither retrieval nor self-learning
needs a unit copy of the space it scores. map_rows applies a d x d map
the same way, BLOCK_ROWS rows per GEMM, so OpenBLAS never packs a copy of
a whole embedding matrix. CSLS (Conneau et al. 2018)
scores a pair as 2*cos(x, y) - r_T(x) - r_S(y), where r_T(x) is the mean
cosine of x's CSLS_K nearest targets and r_S(y) the mean cosine of y's
CSLS_K nearest sources; both neighbourhood means are row-wise passes over
blocks, and the CSLS scores overwrite the cosine block in place.
"""

from contextlib import contextmanager
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
    for rows in _blocks(matrix.shape[0]):
        _unit_block(matrix[rows], out[rows])
    return out


def map_rows(matrix: np.ndarray, m: np.ndarray) -> np.ndarray:
    """matrix @ m in a new array, one GEMM per BLOCK_ROWS rows written
    straight into it. OpenBLAS packs a copy of the left operand of each
    GEMM into a buffer that stays resident for the rest of the process, so
    a one-shot product of a whole embedding matrix would keep a second copy
    of it; a block keeps one block's worth. A row's bits are those of the
    product of its block, matrix[rows] @ m, which may differ in the last
    bits from the one-shot product. A lone last row is multiplied as two
    rows (the row twice), as in score_blocks, so no row goes through GEMV."""
    n = matrix.shape[0]
    out = np.empty((n, m.shape[1]))
    for rows in _blocks(n):
        if rows.stop - rows.start == 1:
            out[rows] = (np.repeat(matrix[rows], 2, axis=0) @ m)[:1]
        else:
            np.matmul(matrix[rows], m, out=out[rows])
    return out


def _unit_block(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """unit_rows of one block, written to `out`; returns the norm each row
    was divided by (1 for an all-zero row)."""
    lo, hi = _SAFE_NORM
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(block, axis=1)
    unsafe = np.flatnonzero(~((norms > lo) & (norms < hi)))
    norms[unsafe] = 1.0  # all-zero rows stay zero; the others are redone
    np.divide(block, norms[:, None], out=out)
    if unsafe.size:
        x = out[unsafe]  # divided by 1: the input rows
        scale = np.abs(x).max(axis=1)
        nonzero = np.flatnonzero(scale)
        x = x[nonzero] / scale[nonzero, None]
        x_norms = np.linalg.norm(x, axis=1)
        out[unsafe[nonzero]] = x / x_norms[:, None]
        with np.errstate(over="ignore"):  # a finite row's norm may be inf
            norms[unsafe[nonzero]] = scale[nonzero] * x_norms
    return norms


@contextmanager
def unit_in_place(matrix: np.ndarray) -> Iterator[np.ndarray]:
    """Yield `matrix` with its rows replaced by unit_rows(matrix), and give
    every entry its bits back when the block ends, also when it raises
    (or when normalizing raised part way).

    Entry works BLOCK_ROWS rows at a time: it builds the unit rows and
    their norms, and records the raw value and block position of each
    entry that unit * norm does not reproduce bit for bit (int64 views,
    so -0.0 counts). Exit multiplies each normalized block by its norms
    and writes the recorded raw values back. Scratch is the row norms
    plus the recorded entries, 12 bytes each: about 2% of the entries of
    a Procrustes-mapped space, 10-15% of Gaussian rows in general. Any
    strided view works; a read-only matrix yields a unit copy instead.
    Nothing else may read the matrix while the block runs."""
    if not matrix.flags.writeable:
        yield unit_rows(matrix)
        return
    n, d = matrix.shape
    norms = np.empty(n)
    records = []  # (rows, positions, raw values) of each normalized block
    unit = np.empty((min(BLOCK_ROWS, n), d))
    back = np.empty_like(unit)
    pos_type = np.int32 if unit.size < 2**31 else np.int64
    try:
        for rows in _blocks(n):
            block = matrix[rows]
            m = rows.stop - rows.start
            norms[rows] = _unit_block(block, unit[:m])
            # a finite row's norm may be inf, and 0 * inf is nan: such
            # entries are recorded, so the restore puts them back
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(unit[:m], norms[rows, None], out=back[:m])
            lost = back[:m].view(np.int64) != block.view(np.int64)
            positions = np.flatnonzero(lost).astype(pos_type)
            values = block.take(positions)  # flat C-order, any strides
            block[...] = unit[:m]
            records.append((rows, positions, values))
        del unit, back
        yield matrix
    finally:
        for rows, positions, values in records:
            block = matrix[rows]
            with np.errstate(over="ignore", invalid="ignore"):
                block *= norms[rows, None]
            block.put(positions, values)


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
    or fewer when the block would exceed BLOCK_BYTES, but at least two,
    so only a last block can be a lone row (see score_blocks)."""
    return max(2, min(BLOCK_ROWS, BLOCK_BYTES // (8 * max(1, n_targets))))


def _row_copies(block: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, copy of block[rows]) for consecutive SUB_ROWS-row
    slices; every copy is a view of one reused buffer."""
    buf = np.empty((min(SUB_ROWS, block.shape[0]), block.shape[1]))
    for rows in _blocks(block.shape[0], SUB_ROWS):
        copy = buf[: rows.stop - rows.start]
        np.copyto(copy, block[rows])
        yield rows, copy


def neighbourhood_mean(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each unit query row, the mean cosine of its CSLS_K nearest unit
    target rows. With sources as targets this is CSLS's r_S of each
    target row."""
    out = np.empty(queries.shape[0])
    for rows, cos in score_blocks(queries, targets):
        out[rows] = topk_mean(cos, CSLS_K)
    return out


def score_blocks(
    queries: np.ndarray,
    targets: np.ndarray,
    r_src: Optional[np.ndarray] = None,
    *,
    index: Optional[np.ndarray] = None,
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, scores) for consecutive blocks of query rows against
    all unit target rows: cosine, or CSLS when r_src holds the targets'
    r_S (see neighbourhood_mean). Without `index` the query rows are
    `queries` as given (unit rows). With `index` they are
    unit_rows(queries[index]) for rows of any norm: each block gathers
    its rows into one reused buffer and scales them there, so neither a
    copy nor a unit copy of every query row is made, and the bits are
    those of scoring unit_rows(queries[index]).

    A last block of one row is scored as two rows (the row twice): numpy
    multiplies a single row by GEMV, which OpenBLAS rounds differently
    from GEMM, so a row's scores would depend on the block it lands in.

    A yielded block is a view of a buffer that the next block overwrites,
    so copy whatever is kept beyond the current iteration."""
    n = queries.shape[0] if index is None else len(index)
    step = block_rows(targets.shape[0])
    size = max(2, min(step, n))  # a lone row is padded to two
    buf = np.empty((size, targets.shape[0]))
    if index is not None or n % step == 1:  # else no query copy
        staged = np.empty((size, queries.shape[1]))
    for rows in _blocks(n, step):
        m = rows.stop - rows.start
        if index is None:
            block = queries[rows]
        else:
            block = np.take(queries, index[rows], axis=0, out=staged[:m])
            unit_rows(block, out=block)
        if m == 1:
            staged[:2] = block
            scores = np.matmul(staged[:2], targets.T, out=buf[:2])[:1]
        else:
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
    *,
    index: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k target indices and their scores for every query row, ranked
    as ranked_topk; cosine, or CSLS when r_src is given. The query rows
    are `queries`, or unit_rows(queries[index]), as in score_blocks."""
    n = queries.shape[0] if index is None else len(index)
    k = min(k, targets.shape[0])
    idx = np.empty((n, k), dtype=np.int64)
    val = np.empty((n, k))
    if k == 0:
        return idx, val
    for rows, scores in score_blocks(queries, targets, r_src, index=index):
        idx[rows] = ranked_topk(scores, k)
        val[rows] = np.take_along_axis(scores, idx[rows], axis=1)
    return idx, val
