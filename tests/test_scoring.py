"""The blocked retrieval kernel against dense references.

The block size is shrunk to 7 rows so the small fixtures cross many block
boundaries, including a ragged last block.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import xlembed.mapper as mapper
import xlembed.scoring as scoring
from xlembed import (
    CrossLingualSpace,
    SelfLearnConfig,
    TestDictionary,
    build_identical_dictionary,
    dictionary_from_pairs,
    make_space,
    precision_at_k,
    self_learn,
    solve_procrustes,
    translate_topk,
)
from synthetic import rotation_benchmark
from test_embeddings import TINY_AND_HUGE_ROWS
from test_translate import _random_space, brute_force_topk, csls_oracle

MODES = ("cosine", "csls")


@pytest.fixture()
def small_blocks(monkeypatch):
    monkeypatch.setattr(scoring, "BLOCK_ROWS", 7)


def _cosine_oracle(space):
    a = space.src.matrix / np.linalg.norm(space.src.matrix, axis=1, keepdims=True)
    b = space.tgt.matrix / np.linalg.norm(space.tgt.matrix, axis=1, keepdims=True)
    return a @ b.T


def _oracle_ranking(space, retrieval, k):
    """Dense scores, then a stable (-score, index) order per query."""
    scores = csls_oracle(space) if retrieval == "csls" else _cosine_oracle(space)
    n_tgt = scores.shape[1]
    return scores, [
        np.lexsort((np.arange(n_tgt), -row))[:k] for row in scores
    ]


def _axis_space():
    """Rows drawn from {+-e1, +-e2, e3}: every cosine is exactly -1, 0 or
    1, and every CSLS neighbourhood mean is a sum of such integers over
    10, so scores tie exactly and the dense oracle reproduces them bit for
    bit. Source rows 6 and 7 (either side of the first 7-row block
    boundary) are equal."""
    basis = np.array(
        [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=float
    )
    src_rows = basis[[(3 * i) % 5 for i in range(23)]]
    src_rows[7] = src_rows[6]
    tgt_rows = basis[[(2 * j + j // 5) % 5 for j in range(19)]]
    return CrossLingualSpace(
        src=make_space([f"s{i:03d}" for i in range(23)], src_rows),
        tgt=make_space([f"t{j:03d}" for j in range(19)], tgt_rows),
    )


SPACES = {"random": lambda: _random_space(4), "exact-ties": _axis_space}
# one translate_topk call per token, or ("-batched") one call for all tokens
CALLS = [pytest.param(m, False, id=m) for m in MODES] + [
    pytest.param(m, True, id=f"{m}-batched") for m in MODES
]


# ------------------------------------------------------------ top-k

def test_ranked_topk_ties_at_kth_position_go_to_lower_index():
    scores = np.array(
        [
            [0.5, 0.9, 0.5, 0.1, 0.5, 0.9],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-0.0, 0.0, -1.0, 0.0, 1.0, -0.0],
        ]
    )
    for k in range(1, 8):
        want = np.array(
            [np.lexsort((np.arange(6), -row))[: min(k, 6)] for row in scores]
        )
        assert np.array_equal(scoring.ranked_topk(scores, k), want)


def _argpartition_ranked_topk(scores, k):
    """ranked_topk as it was before sub-blocking: the k-th score of each
    row from one argpartition of the whole block."""
    n_rows, n = scores.shape
    k = min(k, n)
    cand = np.argpartition(scores, n - k, axis=1)[:, n - k :]
    kth = np.take_along_axis(scores, cand, axis=1).min(axis=1)
    rows, cols = np.nonzero(scores >= kth[:, None])
    order = np.lexsort((cols, -scores[rows, cols], rows))
    starts = np.searchsorted(rows[order], np.arange(n_rows))
    return cols[order][starts[:, None] + np.arange(k)]


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
        elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
    ),
    st.integers(1, 15),
    st.integers(1, 5),
)
def test_sub_blocked_ranked_topk_matches_argpartition(scores, k, sub_rows):
    """Few distinct values, so rows tie at the k-th value within and
    across sub-blocks; k runs past the number of columns."""
    before = scores.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "SUB_ROWS", sub_rows)
        got = scoring.ranked_topk(scores, k)
    assert np.array_equal(got, _argpartition_ranked_topk(scores, k))
    assert np.array_equal(scores, before) and np.array_equal(
        np.signbit(scores), np.signbit(before)
    )


def test_ranked_topk_ties_at_kth_value_across_sub_blocks(monkeypatch):
    monkeypatch.setattr(scoring, "SUB_ROWS", 2)
    scores = np.array(
        [
            [0.5, 0.9, 0.5, 0.1, 0.5],
            [0.0, -0.0, 0.0, 1.0, -0.0],  # rows 1 and 2 straddle a boundary
            [0.0, -0.0, 0.0, 1.0, -0.0],
            [0.5, 0.5, 0.5, 0.5, 0.5],
            [-0.0, -0.0, -0.0, -0.0, 0.0],
        ]
    )
    for k in (1, 2, 3, 4, 5, 6):
        want = np.array(
            [np.lexsort((np.arange(5), -row))[: min(k, 5)] for row in scores]
        )
        assert np.array_equal(scoring.ranked_topk(scores, k), want)
        assert np.array_equal(_argpartition_ranked_topk(scores, k), want)


def test_cosine_topk_blocked_matches_brute_force(small_blocks):
    space = _random_space(0)
    for tok in space.src.vocab.tokens:
        got = translate_topk(space, tok, k=5)
        want = brute_force_topk(space, tok, k=5)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert abs(a - b) < 1e-12


@pytest.mark.parametrize("retrieval, batched", CALLS)
@pytest.mark.parametrize("space_name", SPACES)
def test_topk_blocked_matches_dense_oracle(
    small_blocks, retrieval, batched, space_name
):
    space = SPACES[space_name]()
    src_toks = space.src.vocab.tokens
    n_tgt = len(space.tgt.vocab)
    for k in (1, 3, 5, n_tgt, n_tgt + 5):
        scores, ranking = _oracle_ranking(space, retrieval, k)
        if batched:
            lists = translate_topk(space, src_toks, k=k, retrieval=retrieval)
        else:
            lists = [translate_topk(space, t, k, retrieval) for t in src_toks]
        for i, got in enumerate(lists):
            want = [space.tgt.vocab.tokens[int(j)] for j in ranking[i]]
            assert [t for t, _ in got] == want
            for (_, a), j in zip(got, ranking[i]):
                assert abs(a - scores[i, int(j)]) < 1e-10


@pytest.mark.parametrize("retrieval", MODES)
@pytest.mark.parametrize("space_name", SPACES)
def test_precision_at_k_blocked_matches_dense_oracle(
    small_blocks, retrieval, space_name
):
    space = SPACES[space_name]()
    src_toks, tgt_toks = space.src.vocab.tokens, space.tgt.vocab.tokens
    n_tgt = len(tgt_toks)
    entries = [
        (s, (tgt_toks[(5 * i) % n_tgt], tgt_toks[(5 * i + 3) % n_tgt]))
        for i, s in enumerate(src_toks)
    ]
    ks = (1, 3, 5, n_tgt + 2)
    report = precision_at_k(
        space, TestDictionary(entries=entries), ks=ks, retrieval=retrieval
    )
    # the same query list as P@k, so the same score blocks
    lists = translate_topk(space, src_toks, max(ks), retrieval)
    scores, ranking = _oracle_ranking(space, retrieval, max(ks))
    assert len(lists) == len(src_toks)
    for i, ranked in enumerate(lists):
        assert [t for t, _ in ranked] == [tgt_toks[int(j)] for j in ranking[i]]
    for k in ks:
        hits = sum(
            bool(set(golds) & {tgt_toks[int(j)] for j in ranking[i][:k]})
            for i, (_, golds) in enumerate(entries)
        )
        assert report.p_at[k] == 100.0 * hits / len(entries)


# ------------------------------------------ reused buffers, in place

def _copying_topk_mean(scores, k):
    """topk_mean as it was before partitioning in place: np.partition of a
    copy. The in-place kernel must reproduce it bit for bit."""
    n = scores.shape[1]
    k = min(k, n)
    part = np.partition(scores, n - k, axis=1)
    return part[:, n - k :].mean(axis=1)


def _copying_score_blocks(queries, targets, r_src=None, inv_norms=None):
    """score_blocks as it was before buffer reuse: fresh arrays per block
    and the CSLS score as one expression, with raw targets' scores
    scaled as a separate product."""
    for rows in scoring._blocks(queries.shape[0]):
        cos = queries[rows] @ targets.T
        if inv_norms is not None:
            cos = cos * inv_norms
        if r_src is None:
            yield rows, cos
        else:
            r_tgt = _copying_topk_mean(cos, scoring.CSLS_K)
            yield rows, 2.0 * cos - r_tgt[:, None] - r_src[None, :]


def _copying_neighbourhood_mean(queries, targets, inv_norms=None):
    out = np.empty(queries.shape[0])
    for rows, cos in _copying_score_blocks(queries, targets, None, inv_norms):
        out[rows] = _copying_topk_mean(cos, scoring.CSLS_K)
    return out


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=15),
        elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0]),
    ),
    st.integers(1, 20),
)
def test_topk_mean_in_place_matches_partitioned_copy(scores, k):
    block = scores.copy()
    got = scoring.topk_mean(block, k)
    assert np.array_equal(got, _copying_topk_mean(scores, k))
    n = scores.shape[1]
    assert np.array_equal(block, np.partition(scores, n - min(k, n), axis=1))


@pytest.mark.parametrize("retrieval", MODES)
@pytest.mark.parametrize("space_name", SPACES)
def test_reused_buffers_bit_identical_to_copying_kernel(
    small_blocks, retrieval, space_name
):
    """Unit targets, and raw targets (rows scaled 1/3 to 3) scored with
    their reciprocal norms: the CSLS block folds the scale into 2 * cos
    and into the copy r_T partitions, and keeps every bit of the
    copying kernel's separate product. A neighbourhood mean of raw query
    rows is the copying kernel's mean times the reciprocal norm."""
    space = SPACES[space_name]()
    src = scoring.unit_rows(space.src.matrix)
    tgt_unit = scoring.unit_rows(space.tgt.matrix)
    assert src.shape[0] % scoring.BLOCK_ROWS  # a ragged last block
    raw = tgt_unit * np.linspace(1 / 3, 3, tgt_unit.shape[0])[:, None]
    for tgt, inv in ((tgt_unit, None), scoring.unit_scale(raw)):
        r_src = None
        if retrieval == "csls":
            r_src = scoring.neighbourhood_mean(tgt_unit, src)
            assert np.array_equal(r_src, _copying_neighbourhood_mean(tgt_unit, src))
            if inv is not None:
                scaled = scoring.neighbourhood_mean(raw, src, query_inv=inv)
                assert np.array_equal(scaled, _copying_neighbourhood_mean(raw, src) * inv)
        got = [
            (rows, block.copy())
            for rows, block in scoring.score_blocks(src, tgt, r_src, inv_norms=inv)
        ]
        want = list(_copying_score_blocks(src, tgt, r_src, inv))
        assert [rows for rows, _ in got] == [rows for rows, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert np.array_equal(a, b)
        dense = np.concatenate([b for _, b in want])
        for k in (1, 5, tgt.shape[0], tgt.shape[0] + 3):
            idx, val = scoring.topk(src, tgt, k, r_src, inv_norms=inv)
            want_idx = np.concatenate(
                [scoring.ranked_topk(b, min(k, tgt.shape[0])) for _, b in want]
            )
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(val, np.take_along_axis(dense, want_idx, axis=1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_column_max_matches_argmax_and_running_merge(data):
    """Small integers and signed zeros tie often, within a block and
    across block boundaries."""
    full = data.draw(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
            elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]),
        )
    )
    n_rows, n_cols = full.shape
    cuts = data.draw(st.sets(st.integers(1, max(1, n_rows - 1)))) if n_rows > 1 else set()
    bounds = [0, *sorted(cuts), n_rows]
    best, bwd = np.full(n_cols, -np.inf), np.zeros(n_cols, dtype=np.int64)
    ref_best, ref_bwd = best.copy(), bwd.copy()
    cols = np.arange(n_cols)
    for lo, hi in zip(bounds, bounds[1:]):
        block = full[lo:hi]
        mapper._merge_column_max(block, lo, best, bwd)
        # the reference: a column-wise argmax of the block, merged with a
        # strict > into the running max
        arg = np.argmax(block, axis=0)
        val = block[arg, cols]
        better = val > ref_best
        ref_best[better] = val[better]
        ref_bwd[better] = arg[better] + lo
        assert np.array_equal(bwd, ref_bwd)
        assert np.array_equal(best, ref_best)
    assert np.array_equal(bwd, np.argmax(full, axis=0))


# ---------------------------------------------------- self-learning

def _dense_induce(src_unit, tgt_unit, retrieval, seed_pairs):
    """The whole score matrix at once; argmax along both axes."""
    cos = src_unit @ tgt_unit.T
    scores = cos
    if retrieval == "csls":
        k = scoring.CSLS_K
        r_t = np.array([np.mean(sorted(row, reverse=True)[:k]) for row in cos])
        r_s = np.array([np.mean(sorted(col, reverse=True)[:k]) for col in cos.T])
        scores = 2.0 * cos - r_t[:, None] - r_s[None, :]
    n_src, n_tgt = scores.shape
    pairs = np.concatenate(
        [
            np.stack([np.arange(n_src), scores.argmax(axis=1)], axis=1),
            np.stack([scores.argmax(axis=0), np.arange(n_tgt)], axis=1),
            seed_pairs,
        ]
    )
    return np.unique(pairs, axis=0)


@pytest.mark.parametrize("retrieval", MODES)
def test_induce_pairs_exact_ties_across_blocks(small_blocks, retrieval):
    space = _axis_space()
    seeds = np.array([[0, 1], [3, 2]])
    got = mapper._induce_pairs(space.src.matrix, space.tgt.matrix, retrieval, seeds)
    want = _dense_induce(space.src.matrix, space.tgt.matrix, retrieval, seeds)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("retrieval", MODES)
def test_self_learn_blocked_induced_pairs_match_dense(
    small_blocks, monkeypatch, retrieval
):
    src, tgt, _ = rotation_benchmark(n=60, d=6, noise=0.1, seed=3)
    full = build_identical_dictionary(src.vocab, tgt.vocab)
    seed = dictionary_from_pairs(full.pairs()[:8], src.vocab, tgt.vocab)
    calls = []
    blocked = mapper._induce_pairs

    def recording(src_unit, tgt, mode, seed_pairs, inv_norms):
        # self_learn hands over the raw target rows: the oracle scores
        # a unit copy of them
        got = blocked(src_unit, tgt, mode, seed_pairs, inv_norms)
        want = _dense_induce(src_unit, scoring.unit_rows(tgt), mode, seed_pairs)
        calls.append((got, want))
        return got

    monkeypatch.setattr(mapper, "_induce_pairs", recording)
    self_learn(
        src, tgt, seed,
        SelfLearnConfig(induce_vocab_cutoff=45, retrieval=retrieval, max_iters=4),
    )
    assert calls
    for got, want in calls:
        assert np.array_equal(got, want)


# ------------------------------------------------- block byte budget

# Score block rows against 600 targets, and the overrides that shrink the
# blocks below the 256-row default to them: ragged 5-row score blocks with
# 7-row pair blocks and 3-row sub-blocks, the 128 rows of a pass over 10000
# targets, and one-row blocks by the byte budget and by the row cap.
BUDGETS = {
    "ragged": (5, {"BLOCK_ROWS": 7, "BLOCK_BYTES": 5 * 600 * 8, "SUB_ROWS": 3}),
    "half": (128, {"BLOCK_ROWS": 128}),
    # a budget or cap of one row still gives blocks of two (block_rows)
    "one-row-budget": (2, {"BLOCK_BYTES": 1, "SUB_ROWS": 1}),
    "one-row-cap": (2, {"BLOCK_ROWS": 1}),
}


def _score_outputs(src_matrix, tgt_matrix, retrieval, seed_pairs):
    src_unit = scoring.unit_rows(src_matrix)
    tgt_unit = scoring.unit_rows(tgt_matrix)
    r_src = scoring.neighbourhood_mean(tgt_unit, src_unit)
    r = r_src if retrieval == "csls" else None
    idx, val = scoring.topk(src_unit, tgt_unit, 10, r)
    return {
        "neighbourhood_mean": r_src,
        "score_blocks": np.concatenate(
            [b.copy() for _, b in scoring.score_blocks(src_unit, tgt_unit, r)]
        ),
        "topk_idx": idx,
        "topk_val": val,
        "induce_pairs": mapper._induce_pairs(src_unit, tgt_unit, retrieval, seed_pairs),
    }


def _blocked_outputs(retrieval, two_rows):
    """Every blocked kernel on a 600 x 32 rotation benchmark (600 targets:
    two 256-row blocks and a ragged one by default), and the score kernels
    on the exact-valued _axis_space. With blocks of two rows, the fewest
    block_rows gives, every product is a 2-row GEMM, which OpenBLAS rounds
    like a full block only from about 2000 targets on, so there the
    benchmark's scores are compared by their indices only."""
    src, tgt, _ = rotation_benchmark(n=600, d=32, noise=0.1, seed=7)
    full = build_identical_dictionary(src.vocab, tgt.vocab)
    seed = dictionary_from_pairs(full.pairs()[:30], src.vocab, tgt.vocab)
    seed_pairs = np.stack([seed.src_indices, seed.tgt_indices], axis=1)
    model = self_learn(
        src, tgt, seed,
        SelfLearnConfig(induce_vocab_cutoff=512, retrieval=retrieval, max_iters=3),
    )
    out = {
        "self_learn_map": model.src_map,
        "self_learn_cosines": np.array(model.dict_cosines),
        "procrustes_cosines": np.array(solve_procrustes(src, tgt, seed).dict_cosines),
    }
    scores = _score_outputs(src.matrix, tgt.matrix, retrieval, seed_pairs)
    for key in ("topk_idx", "induce_pairs") if two_rows else scores:
        out[key] = scores[key]
    axis = _axis_space()
    exact = _score_outputs(
        axis.src.matrix, axis.tgt.matrix, retrieval, np.array([[0, 1], [3, 2]])
    )
    out.update({f"exact {key}": value for key, value in exact.items()})
    return out


@pytest.mark.parametrize("retrieval", MODES)
@pytest.mark.parametrize("budget", BUDGETS)
def test_block_budget_changes_no_bit(monkeypatch, retrieval, budget):
    """Row-blocked GEMMs need not be bit-equal under every BLAS; this
    checks every blocked kernel against its 256-row result."""
    rows, overrides = BUDGETS[budget]
    assert scoring.block_rows(600) == 256
    want = _blocked_outputs(retrieval, two_rows=rows == 2)
    for name, value in overrides.items():
        monkeypatch.setattr(scoring, name, value)
    assert scoring.block_rows(600) == rows
    got = _blocked_outputs(retrieval, two_rows=rows == 2)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def _one_product_pair_cosine(x, y):
    """The mean pair cosine as one expression over all mapped pairs (the
    source pairs mapped by map_rows, as _mean_pair_cosine maps them)."""
    num = np.einsum("ij,ij->i", x, y)
    den = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
    den[den == 0.0] = 1.0
    return float(np.mean(num / den))


@pytest.mark.parametrize("block_rows", [1, 7, 256])
def test_blocked_pair_cosine_equals_one_expression(monkeypatch, block_rows):
    monkeypatch.setattr(scoring, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(4)
    src = rng.normal(size=(90, 12))
    tgt = rng.normal(size=(80, 12))
    src[5] = 0.0  # a zero row scores 0
    w = np.linalg.qr(rng.normal(size=(12, 12)))[0]
    s_idx = rng.integers(0, 90, 300)
    t_idx = rng.integers(0, 80, 300)
    s_idx[:3] = 5
    got = mapper._mean_pair_cosine(src, tgt, w, s_idx, t_idx)
    want = _one_product_pair_cosine(scoring.map_rows(src[s_idx], w), tgt[t_idx])
    assert got == want


def test_block_rows_follow_the_byte_budget():
    assert scoring.block_rows(5000) == 256
    assert scoring.block_rows(10000) == 128
    assert scoring.block_rows(10**9) == 2  # never one: see score_blocks
    assert scoring.block_rows(1) == scoring.BLOCK_ROWS


# ----------------------------------------------------------- memory

V = 3000


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _csls_memory_case():
    src, tgt, _ = rotation_benchmark(n=V, d=16, noise=0.1, seed=5)
    space = CrossLingualSpace(src=src, tgt=tgt)
    test = TestDictionary(entries=[(t, (t,)) for t in src.vocab.tokens[:500]])
    full = build_identical_dictionary(src.vocab, tgt.vocab)
    seed = dictionary_from_pairs(full.pairs()[:50], src.vocab, tgt.vocab)
    cfg = SelfLearnConfig(induce_vocab_cutoff=V, retrieval="csls", max_iters=2)
    return (
        lambda: precision_at_k(space, test, ks=(1, 10), retrieval="csls"),
        lambda: self_learn(src, tgt, seed, cfg),
    )


def test_csls_peak_memory_below_one_vocab_square_matrix():
    square = V * V * 8
    run_p_at_k, run_self_learn = _csls_memory_case()
    peak = _peak_bytes(run_p_at_k)
    assert peak < square, f"CSLS P@k peaked at {peak} bytes"
    peak = _peak_bytes(run_self_learn)
    assert peak < square, f"CSLS self_learn peaked at {peak} bytes"


def test_csls_peak_memory_below_three_and_a_half_score_blocks():
    """Two reused block buffers plus per-block top-k scratch: a copy per
    partition, a transposed copy per argmax or a fresh CSLS block each
    pushes the peak past 3.5 blocks. Each run is made once untraced first,
    so one-time lazy imports inside numpy are not counted."""
    block = scoring.BLOCK_ROWS * V * 8
    run_p_at_k, run_self_learn = _csls_memory_case()
    for name, run in (("P@k", run_p_at_k), ("self_learn", run_self_learn)):
        run()
        peak = _peak_bytes(run)
        assert peak < 3.5 * block, (
            f"CSLS {name} peaked at {peak / block:.2f} score blocks"
        )


def test_csls_peak_memory_below_two_score_blocks():
    """One reused score block plus copies of SUB_ROWS of its rows: a
    second block buffer, an argpartition index block or a gather of a
    whole block in _merge_column_max each pushes the peak past 2 blocks.
    Each run is made once untraced first, as above."""
    block = scoring.block_rows(V) * V * 8
    run_p_at_k, run_self_learn = _csls_memory_case()
    for name, run in (("P@k", run_p_at_k), ("self_learn", run_self_learn)):
        run()
        peak = _peak_bytes(run)
        assert peak < 2.0 * block, (
            f"CSLS {name} peaked at {peak / block:.2f} score blocks"
        )


def _read_only(space):
    matrix = space.matrix.copy()
    matrix.flags.writeable = False
    return make_space(space.vocab.tokens, matrix, space.vocab.freqs)


def test_read_only_spaces_are_scored_without_a_copy():
    """A read-only side is only read, like a writeable one, so no call
    copies it: each peak stays within 0.1 matrix of the same call on
    writeable matrices. The induction cutoff covers every row, so a unit
    copy of the target's top rows would be a whole matrix. Each run is
    made once untraced first, as above."""
    src, tgt, _ = rotation_benchmark(n=V, d=100, noise=0.1, seed=6)
    test = TestDictionary(entries=[(t, (t,)) for t in src.vocab.tokens[:500]])
    full = build_identical_dictionary(src.vocab, tgt.vocab)
    seed = dictionary_from_pairs(full.pairs()[:50], src.vocab, tgt.vocab)
    queries = src.vocab.tokens[:300]

    def peaks(src, tgt):
        space = CrossLingualSpace(src=src, tgt=tgt)
        out = {}
        for r in MODES:
            cfg = SelfLearnConfig(induce_vocab_cutoff=V, retrieval=r, max_iters=2)
            runs = {
                "P@k": lambda: precision_at_k(space, test, (1, 10), r),
                "translate_topk": lambda: translate_topk(space, queries, 10, r),
                "self_learn": lambda: self_learn(src, tgt, seed, cfg),
            }
            for name, run in runs.items():
                run()
                out[f"{r} {name}"] = _peak_bytes(run)
        return out

    writeable = peaks(src, tgt)
    read_only = peaks(_read_only(src), _read_only(tgt))
    matrix = src.matrix.nbytes
    for name, peak in read_only.items():
        assert peak < writeable[name] + 0.1 * matrix, (
            f"{name} on read-only matrices peaked "
            f"{(peak - writeable[name]) / matrix:.2f} matrices higher"
        )


@pytest.mark.parametrize("seed", range(3))
def test_unique_pairs_equals_row_unique(seed):
    rng = np.random.default_rng(seed)
    n_src, n_tgt = 300, 200
    induced = np.stack(
        [rng.integers(0, n_src, 2000), rng.integers(0, n_tgt, 2000)], axis=1
    )
    seeds = induced[rng.choice(len(induced), 50)]  # seeds repeat induced pairs
    pairs = np.concatenate([induced, seeds, seeds[:10], [[n_src - 1, n_tgt - 1]]])
    got = mapper._unique_pairs(pairs, n_tgt)
    want = np.unique(pairs, axis=0)
    assert len(want) < len(pairs)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# ------------------------------------------------------------- unit rows

def _ragged_rows():
    """50 rows of norms from 1e-140 to 1e140: seven 7-row blocks and a
    ragged last block of one row."""
    rng = np.random.default_rng(8)
    return rng.normal(size=(50, 7)) * np.logspace(-140, 140, 50)[:, None]


def _per_block_products(x, m):
    """x @ m as one product per BLOCK_ROWS rows, concatenated; a lone last
    row is multiplied as two rows (the row twice)."""
    parts = []
    for start in range(0, len(x), scoring.BLOCK_ROWS):
        rows = x[start : start + scoring.BLOCK_ROWS]
        if len(rows) == 1:
            parts.append((np.vstack([rows, rows]) @ m)[:1])
        else:
            parts.append(rows @ m)
    return np.concatenate(parts)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513])
def test_map_rows_equals_the_per_block_products(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 300))
    m = np.linalg.qr(rng.normal(size=(300, 300)))[0]
    got = scoring.map_rows(x, m)
    want = _per_block_products(x, m)
    assert got.shape == (n, 300)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_unit_rows_blocked_matches_plain_division(small_blocks):
    matrix = _ragged_rows()
    assert matrix.shape[0] % scoring.BLOCK_ROWS
    plain = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    assert np.array_equal(scoring.unit_rows(matrix), plain)


def test_unit_rows_in_place_equals_copy(small_blocks):
    matrix = _ragged_rows()
    matrix[[3, 20]] = 0.0
    matrix[[10, 49]] = 1e200
    matrix[30, 0] = 5e-324
    matrix[30, 1:] = 0.0
    copy = scoring.unit_rows(matrix)
    assert scoring.unit_rows(matrix, out=matrix) is matrix
    assert np.array_equal(matrix, copy)


@pytest.mark.parametrize("in_place", [False, True])
def test_unit_rows_zero_rows_stay_zero(small_blocks, in_place):
    matrix = _ragged_rows()
    zero = [0, 6, 7, 49]  # either side of a block boundary, and the last row
    matrix[zero] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 RuntimeWarning
        out = scoring.unit_rows(matrix, out=matrix if in_place else None)
    assert not out[zero].any()
    assert np.allclose(np.linalg.norm(np.delete(out, zero, axis=0), axis=1), 1.0)


@pytest.mark.parametrize("row", TINY_AND_HUGE_ROWS)
def test_unit_rows_tiny_and_huge_rows(small_blocks, row):
    matrix = np.tile([3.0, 4.0], (9, 1))
    matrix[7] = row  # first row of the ragged second block
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning
        out = scoring.unit_rows(matrix)
    expected = np.sign(row) / math.sqrt(np.count_nonzero(row))
    assert np.allclose(out[7], expected, rtol=1e-15, atol=0)
    assert np.delete(out, 7, axis=0).tolist() == [[0.6, 0.8]] * 8


@pytest.mark.parametrize("row", TINY_AND_HUGE_ROWS)
def test_unit_scale_copies_a_side_with_a_nonzero_row_of_unsafe_norm(
    small_blocks, row
):
    # a row of tiny entries may have a norm of 0; it is scored as its
    # unit direction, through the unit copy, not as an all-zero row
    matrix = np.tile([3.0, 4.0], (9, 1))
    matrix[2] = 0.0
    matrix[7] = row  # first row of the ragged second block
    before = matrix.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning
        rows, inv = scoring.unit_scale(matrix)
    assert inv is None
    assert _same_bits(rows, scoring.unit_rows(matrix))
    assert _same_bits(matrix, before)


def test_unit_scale_keeps_a_side_of_safe_and_all_zero_rows(small_blocks):
    matrix = np.tile([3.0, 4.0], (9, 1))
    matrix[2] = 0.0
    matrix[3] = [-0.0, 0.0]
    matrix[7] *= 1e-140
    rows, inv = scoring.unit_scale(matrix)
    assert rows is matrix
    assert inv[2] == inv[3] == 1.0
    assert np.allclose(inv[7], 0.2e140, rtol=1e-15, atol=0)
    assert np.delete(inv, [2, 3, 7]).tolist() == [0.2] * 6


def _huge_row_space():
    """Source row c is (1e200, 1e200): its squared norm overflows, and a
    plain norm turned it into zeros, which scored 0 against every target
    and ranked x (index order) first instead of z."""
    src = make_space(["a", "b", "c"], [[0.0, 1.0], [1.0, 0.0], [1e200, 1e200]])
    tgt = make_space(["x", "y", "z"], [[0.0, 1.0], [1.0, 0.0], [0.7, 0.7]])
    return CrossLingualSpace(src=src, tgt=tgt)


@pytest.mark.parametrize("retrieval", MODES)
def test_huge_source_row_retrieves_its_direction(retrieval):
    space = _huge_row_space()
    test = TestDictionary(entries=[("a", ("x",)), ("b", ("y",)), ("c", ("z",))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = precision_at_k(space, test, ks=(1,), retrieval=retrieval)
        top = translate_topk(space, "c", 1, retrieval)
    assert report.p_at[1] == 100.0
    assert top[0][0] == "z"
    # retrieval never writes the rows it scores
    assert space.src.matrix[2].tolist() == [1e200, 1e200]


def test_r_s_of_raw_target_rows_equals_r_s_of_the_unit_copy():
    # CSLS r_S in translate scores the raw target rows against the raw
    # sources with the reciprocal norms of both (unit_scale): within
    # 1e-12 of scoring unit copies of both, also for a last block of one
    # row and a zero row; with target rows outside the safe norms the
    # targets are one unit copy. Neither matrix is written.
    rng = np.random.default_rng(12)
    n_src, d = 300, 20
    step = scoring.block_rows(n_src)
    n_tgt = 2 * step + 1
    src = rng.normal(size=(n_src, d)) * np.logspace(-3, 3, n_src)[:, None]
    for extreme in (False, True):
        tgt = rng.normal(size=(n_tgt, d)) * np.logspace(-3, 3, n_tgt)[:, None]
        tgt[5] = 0.0
        if extreme:
            tgt[7] *= 1e200
            tgt[-1] *= 1e-200
        unit_tgt, unit_src = scoring.unit_rows(tgt), scoring.unit_rows(src)
        want = scoring.neighbourhood_mean(unit_tgt, unit_src)
        raw_src, raw_tgt = src.copy(), tgt.copy()
        src_rows, inv = scoring.unit_scale(src)
        tgt_rows, tgt_inv = scoring.unit_scale(tgt)
        assert src_rows is src and (tgt_rows is tgt) != extreme
        got = scoring.neighbourhood_mean(tgt_rows, src, inv, query_inv=tgt_inv)
        assert np.abs(got - want).max() < 1e-12
        assert _same_bits(src, raw_src) and _same_bits(tgt, raw_tgt)


@pytest.mark.parametrize("retrieval", MODES)
def test_indexed_topk_scores_the_gathered_rows_as_unit_rows(retrieval):
    # topk(raw, ..., index=idx) gathers raw rows and scales each block;
    # every bit is that of scoring unit_rows(raw[idx]), also for rows
    # outside the safe norms, a zero row and a lone last block
    rng = np.random.default_rng(13)
    n_src, n_tgt, d = 400, 300, 20
    step = scoring.block_rows(n_tgt)
    raw = rng.normal(size=(n_src, d)) * np.logspace(-3, 3, n_src)[:, None]
    raw[5] = 0.0
    raw[7] *= 1e200
    raw[9] *= 1e-200
    idx = rng.integers(0, n_src, size=step + 1)
    idx[:3] = [5, 7, 9]
    idx[-1] = 7  # the lone row of the last block
    assert len(idx) % step == 1
    tgt_raw = rng.normal(size=(n_tgt, d))
    # unit targets, and raw targets with their reciprocal norms
    for tgt, inv in ((scoring.unit_rows(tgt_raw), None), scoring.unit_scale(tgt_raw)):
        r_src = None
        if retrieval == "csls":
            r_src = scoring.neighbourhood_mean(
                scoring.unit_rows(tgt_raw), scoring.unit_rows(raw)
            )
        before = raw.copy()
        want = scoring.topk(scoring.unit_rows(raw[idx]), tgt, 10, r_src, inv_norms=inv)
        got = scoring.topk(raw, tgt, 10, r_src, index=idx, inv_norms=inv)
        assert np.array_equal(got[0], want[0])
        assert _same_bits(got[1], want[1])
        assert _same_bits(raw, before)


def _same_bits(a, b):
    """Equal shapes and equal bits, so -0.0 and 0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
