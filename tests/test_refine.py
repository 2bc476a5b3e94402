import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    CrossLingualSpace,
    average_plain,
    average_weighted,
    build_identical_dictionary,
    dictionary_from_pairs,
    make_space,
    meemi_transform,
)
from xlembed.lexicon import BilingualDictionary
from xlembed.refine import RIDGE_LAMBDA
from synthetic import unit_gaussian_rows


# ---------------------------------------------------------------- oracle

def normal_equations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares fit via the explicit normal equations (X^T X)^-1 X^T Y."""
    return np.linalg.inv(x.T @ x) @ (x.T @ y)


def _space_pair(src_tokens, src_rows, tgt_tokens, tgt_rows, freqs=None):
    src = make_space(src_tokens, src_rows, freqs=freqs)
    tgt = make_space(tgt_tokens, tgt_rows, freqs=freqs)
    return CrossLingualSpace(src=src, tgt=tgt)


# --------------------------------------------------------------- plain

def test_plain_midpoint():
    space = _space_pair(["w"], [[1.0, 0.0]], ["w"], [[0.0, 1.0]])
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = average_plain(space, d)
    assert np.array_equal(out.src.matrix[0], [0.5, 0.5])
    assert np.array_equal(out.tgt.matrix[0], [0.5, 0.5])


def test_plain_fixed_point():
    v = [[0.3, -0.4]]
    space = _space_pair(["w"], v, ["w"], v)
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = average_plain(space, d)
    assert np.array_equal(out.src.matrix, space.src.matrix)
    assert np.array_equal(out.tgt.matrix, space.tgt.matrix)


def test_plain_leaves_other_rows_byte_identical():
    rng = np.random.default_rng(0)
    src_rows = rng.normal(size=(6, 4))
    tgt_rows = rng.normal(size=(6, 4))
    toks = ["shared0", "shared1", "a", "b", "c", "d"]
    tgt_toks = ["shared0", "shared1", "e", "f", "g", "h"]
    space = _space_pair(toks, src_rows, tgt_toks, tgt_rows)
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = average_plain(space, d)
    for i, tok in enumerate(toks):
        if not tok.startswith("shared"):
            assert out.src.matrix[i].tobytes() == src_rows[i].tobytes()
    for i, tok in enumerate(tgt_toks):
        if not tok.startswith("shared"):
            assert out.tgt.matrix[i].tobytes() == tgt_rows[i].tobytes()


def test_plain_idempotent():
    rng = np.random.default_rng(1)
    src_rows = rng.normal(size=(5, 3))
    tgt_rows = rng.normal(size=(5, 3))
    toks = [f"t{i}" for i in range(5)]
    space = _space_pair(toks, src_rows, toks, tgt_rows)
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    once = average_plain(space, d)
    twice = average_plain(once, d)
    assert np.array_equal(once.src.matrix, twice.src.matrix)
    assert np.array_equal(once.tgt.matrix, twice.tgt.matrix)


def test_anchored_pairs_bit_equal_across_sides():
    rng = np.random.default_rng(2)
    toks = [f"t{i}" for i in range(40)]
    space = _space_pair(
        toks, rng.normal(size=(40, 8)), toks, rng.normal(size=(40, 8))
    )
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = average_plain(space, d)
    for i in range(len(d)):
        si, ti = d.src_indices[i], d.tgt_indices[i]
        assert out.src.matrix[si].tobytes() == out.tgt.matrix[ti].tobytes()


# -------------------------------------------------------------- weighted

def test_weighted_three_to_one():
    space = _space_pair(
        ["w"], [[1.0, 0.0]], ["w"], [[0.0, 1.0]], freqs=[1]
    )
    d = dictionary_from_pairs([("w", "w")], space.src.vocab, space.tgt.vocab)
    d.f_src = np.array([3])
    d.f_tgt = np.array([1])
    out = average_weighted(space, d)
    assert np.allclose(out.src.matrix[0], [0.75, 0.25], atol=1e-15)
    assert np.array_equal(out.src.matrix[0], out.tgt.matrix[0])


def test_weighted_equal_frequencies_reduce_to_plain():
    rng = np.random.default_rng(3)
    toks = [f"t{i}" for i in range(10)]
    freqs = np.full(10, 7, dtype=np.int64)
    space = _space_pair(
        toks, rng.normal(size=(10, 4)), toks, rng.normal(size=(10, 4)),
        freqs=freqs,
    )
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    plain = average_plain(space, d)
    weighted = average_weighted(space, d)
    assert np.allclose(plain.src.matrix, weighted.src.matrix, atol=1e-15)


def test_weighted_matches_direct_formula():
    rng = np.random.default_rng(4)
    n = 1000
    toks = [f"t{i:04d}" for i in range(n)]
    freqs = rng.integers(1, 10_000, size=n).astype(np.int64)
    src_rows = unit_gaussian_rows(rng, n, 16)
    tgt_rows = unit_gaussian_rows(rng, n, 16)
    space = _space_pair(toks, src_rows, toks, tgt_rows, freqs=freqs)
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = average_weighted(space, d)
    for i in range(len(d)):
        si, ti = d.src_indices[i], d.tgt_indices[i]
        f1, f2 = float(d.f_src[i]), float(d.f_tgt[i])
        mu = (f1 * src_rows[si] + f2 * tgt_rows[ti]) / (f1 + f2)
        assert np.max(np.abs(out.src.matrix[si] - mu)) < 1e-12
        assert np.max(np.abs(out.tgt.matrix[ti] - mu)) < 1e-12


def test_weighted_dominant_side_bound():
    space = _space_pair(["w"], [[1.0, 0.0]], ["w"], [[0.0, 1.0]])
    d = dictionary_from_pairs([("w", "w")], space.src.vocab, space.tgt.vocab)
    d.f_src = np.array([10**6])
    d.f_tgt = np.array([1])
    out = average_weighted(space, d)
    assert np.max(np.abs(out.src.matrix[0] - [1.0, 0.0])) < 1e-5


def test_weighted_zero_total_frequency_names_pair():
    space = _space_pair(["w"], [[1.0, 0.0]], ["w"], [[0.0, 1.0]])
    d = dictionary_from_pairs([("w", "w")], space.src.vocab, space.tgt.vocab)
    d.f_src = np.array([0])
    d.f_tgt = np.array([0])
    with pytest.raises(ValueError) as err:
        average_weighted(space, d)
    assert "'w'" in str(err.value)


def test_weighted_relative_frequencies():
    # same absolute count, very different frequency totals: relative
    # weighting divides by the sum of each side's vocabulary frequencies,
    # and tilts the mean toward the side of the smaller total
    src = make_space(["w", "x"], [[1.0, 0.0], [0.0, 0.0]], freqs=[100, 999_900])
    tgt = make_space(["w", "y"], [[0.0, 1.0], [0.0, 0.0]], freqs=[100, 900])
    space = CrossLingualSpace(src=src, tgt=tgt)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    out_abs = average_weighted(space, d)
    out_rel = average_weighted(space, d, relative=True)
    assert np.allclose(out_abs.src.matrix[0], [0.5, 0.5])
    # relative: weights 1e-4 vs 1e-1 -> mean close to the target vector
    assert out_rel.src.matrix[0][1] > 0.99


def test_multi_pair_token_full_neighborhood():
    # source token paired with two targets: it averages over its whole
    # neighborhood; each target averages with its one counterpart, all from
    # the pre-update vectors (simultaneous semantics)
    src = make_space(["s"], [[1.0, 0.0]], freqs=[2])
    tgt = make_space(["t1", "t2"], [[0.0, 1.0], [0.0, -1.0]], freqs=[2, 2])
    space = CrossLingualSpace(src=src, tgt=tgt)
    d = dictionary_from_pairs([("s", "t1"), ("s", "t2")], src.vocab, tgt.vocab)
    out = average_plain(space, d)
    assert np.allclose(out.src.matrix[0], [1 / 3, 0.0])
    assert np.allclose(out.tgt.matrix[0], [0.5, 0.5])
    assert np.allclose(out.tgt.matrix[1], [0.5, -0.5])


def reference_average(space, dictionary, weighted, relative):
    """Per-token Python oracle: each paired token becomes the weighted mean
    of its neighbourhood (itself plus every token it is paired with, each
    once), weights from the first pair holding a token, terms summed one by
    one in (side, index) order starting from the first term."""
    src_total = sum(space.src.vocab.freqs) if relative else 1
    tgt_total = sum(space.tgt.vocab.freqs) if relative else 1
    neigh, weight = {}, {}
    for k in range(len(dictionary)):
        a = (0, int(dictionary.src_indices[k]))
        b = (1, int(dictionary.tgt_indices[k]))
        for key in (a, b):
            neigh.setdefault(key, {key}).update((a, b))
        weight.setdefault(a, float(dictionary.f_src[k]) / src_total if weighted else 1.0)
        weight.setdefault(b, float(dictionary.f_tgt[k]) / tgt_total if weighted else 1.0)
    matrices = (space.src.matrix, space.tgt.matrix)
    out = (space.src.matrix.copy(), space.tgt.matrix.copy())
    for (side, i), members in neigh.items():
        members = sorted(members)
        total = weight[members[0]]
        acc = [total * float(x) for x in matrices[members[0][0]][members[0][1]]]
        for m in members[1:]:
            total += weight[m]
            acc = [s + weight[m] * float(x) for s, x in zip(acc, matrices[m[0]][m[1]])]
        out[side][i] = [s / total for s in acc]
    return out


def _bit_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


ENTRIES = st.one_of(
    st.just(-0.0), st.just(0.0), st.floats(-1e3, 1e3, allow_subnormal=False)
)


@st.composite
def many_to_many(draw):
    dim = draw(st.sampled_from([1, 2, 7]))
    n_src = draw(st.integers(1, 10))
    n_tgt = draw(st.integers(1, 10))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_src - 1), st.integers(0, n_tgt - 1)),
        min_size=1, max_size=40,
    ))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # repeats
    rows = st.lists(ENTRIES, min_size=dim, max_size=dim)
    # the vocabulary frequencies give the relative weights' totals
    counts = st.integers(1, 10**8)
    src = make_space(
        [f"s{i}" for i in range(n_src)],
        draw(st.lists(rows, min_size=n_src, max_size=n_src)),
        freqs=draw(st.lists(counts, min_size=n_src, max_size=n_src)),
    )
    tgt = make_space(
        [f"t{j}" for j in range(n_tgt)],
        draw(st.lists(rows, min_size=n_tgt, max_size=n_tgt)),
        freqs=draw(st.lists(counts, min_size=n_tgt, max_size=n_tgt)),
    )
    freqs = st.lists(
        st.integers(1, 10**6), min_size=len(pairs), max_size=len(pairs)
    )
    dictionary = BilingualDictionary(
        src_tokens=[f"s{i}" for i, _ in pairs],
        tgt_tokens=[f"t{j}" for _, j in pairs],
        src_indices=[i for i, _ in pairs],
        tgt_indices=[j for _, j in pairs],
        f_src=draw(freqs),
        f_tgt=draw(freqs),
    )
    return CrossLingualSpace(src=src, tgt=tgt), dictionary


@settings(max_examples=150, deadline=None)
@given(many_to_many(), st.sampled_from(["plain", "weighted", "relative"]))
def test_average_matches_per_token_reference_bit_for_bit(case, weights):
    space, d = case
    if weights == "plain":
        out = average_plain(space, d)
    else:
        out = average_weighted(space, d, relative=weights == "relative")
    exp_src, exp_tgt = reference_average(
        space, d, weighted=weights != "plain", relative=weights == "relative"
    )
    # tobytes equality also pins the sign of every zero
    assert _bit_equal(out.src.matrix, exp_src)
    assert _bit_equal(out.tgt.matrix, exp_tgt)


def test_average_matches_reference_across_blocks():
    # more paired tokens than one block of groups, with hubs of every size
    rng = np.random.default_rng(12)
    n, dim, n_pairs = 400, 3, 1500
    src = make_space(
        [f"s{i}" for i in range(n)], rng.normal(size=(n, dim)),
        freqs=rng.integers(1, 100, size=n),
    )
    tgt = make_space(
        [f"t{i}" for i in range(n)], rng.normal(size=(n, dim)),
        freqs=rng.integers(1, 100, size=n),
    )
    space = CrossLingualSpace(src=src, tgt=tgt)
    si = rng.integers(0, n, size=n_pairs) ** 2 // n  # skewed: low indices are hubs
    ti = rng.integers(0, n, size=n_pairs)
    d = dictionary_from_pairs(
        [(f"s{i}", f"t{j}") for i, j in zip(si, ti)], src.vocab, tgt.vocab
    )
    out = average_weighted(space, d)
    exp_src, exp_tgt = reference_average(space, d, weighted=True, relative=False)
    assert _bit_equal(out.src.matrix, exp_src)
    assert _bit_equal(out.tgt.matrix, exp_tgt)


@pytest.mark.parametrize("weights", ["plain", "weighted", "relative"])
def test_one_to_one_is_the_pair_formula(weights):
    rng = np.random.default_rng(11)
    n, dim = 300, 5
    src = make_space(
        [f"s{i}" for i in range(n)], rng.normal(size=(n, dim)),
        freqs=rng.integers(1, 10_000, size=n),
    )
    tgt = make_space(
        [f"t{i}" for i in range(n)], rng.normal(size=(n, dim)),
        freqs=rng.integers(1, 10_000, size=n),
    )
    space = CrossLingualSpace(src=src, tgt=tgt)
    si, ti = rng.permutation(n)[:200], rng.permutation(n)[:200]
    src.matrix[si[0]] = -0.0
    tgt.matrix[ti[0]] = -0.0
    d = dictionary_from_pairs(
        [(f"s{i}", f"t{j}") for i, j in zip(si, ti)], src.vocab, tgt.vocab
    )
    if weights == "plain":
        out = average_plain(space, d)
        ws = wt = np.ones((len(d), 1))
    else:
        relative = weights == "relative"
        out = average_weighted(space, d, relative=relative)
        ws = d.f_src[:, None] / (sum(src.vocab.freqs) if relative else 1)
        wt = d.f_tgt[:, None] / (sum(tgt.vocab.freqs) if relative else 1)
    a = src.matrix[d.src_indices]
    b = tgt.matrix[d.tgt_indices]
    mu = (ws * a + wt * b) / (ws + wt)
    assert _bit_equal(out.src.matrix[d.src_indices], mu)
    assert _bit_equal(out.tgt.matrix[d.tgt_indices], mu)
    assert np.signbit(out.src.matrix[si[0]]).all()  # -0.0 survives


@pytest.mark.parametrize(
    "f_src, f_tgt, token",
    [([0, 0], [0, 0], "source token 's'"), ([0, 0], [5, 0], "target token 'u'")],
)
def test_multi_pair_zero_total_names_token(f_src, f_tgt, token):
    # s pairs with t and u; the first neighbourhood that weighs nothing is
    # named: that of s (all weights zero) or that of u (only t weighs)
    src = make_space(["s"], [[1.0, 0.0]])
    tgt = make_space(["t", "u"], [[0.0, 1.0], [1.0, 1.0]])
    space = CrossLingualSpace(src=src, tgt=tgt)
    d = dictionary_from_pairs([("s", "t"), ("s", "u")], src.vocab, tgt.vocab)
    d.f_src = np.array(f_src)
    d.f_tgt = np.array(f_tgt)
    with pytest.raises(ValueError) as err:
        average_weighted(space, d)
    assert token in str(err.value)


def test_average_invalid_index_rejected():
    space = _space_pair(["w"], [[1.0, 0.0]], ["w"], [[0.0, 1.0]])
    d = dictionary_from_pairs([("w", "w")], space.src.vocab, space.tgt.vocab)
    d.src_indices = np.array([5])
    with pytest.raises(ValueError):
        average_plain(space, d)


def test_average_negative_index_rejected():
    # a negative index would wrap to the last row instead of failing
    space = _space_pair(["w"], [[1.0, 0.0]], ["w"], [[0.0, 1.0]])
    d = dictionary_from_pairs([("w", "w")], space.src.vocab, space.tgt.vocab)
    d.tgt_indices = np.array([-1])
    with pytest.raises(ValueError, match="outside the vocabulary"):
        average_plain(space, d)


# ----------------------------------------------------------------- meemi

def test_meemi_identity_on_identical_spaces():
    rng = np.random.default_rng(5)
    toks = [f"t{i}" for i in range(30)]
    rows = rng.normal(size=(30, 6))
    space = _space_pair(toks, rows, toks, rows.copy())
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = meemi_transform(space, d)
    assert np.max(np.abs(out.src.matrix - rows)) < 1e-10
    assert np.max(np.abs(out.tgt.matrix - rows)) < 1e-10


def test_meemi_beats_identity_residual():
    rng = np.random.default_rng(6)
    toks = [f"t{i}" for i in range(50)]
    x = rng.normal(size=(50, 8))
    y = rng.normal(size=(50, 8))
    space = _space_pair(toks, x, toks, y)
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = meemi_transform(space, d)
    xs = x[d.src_indices]
    ys = y[d.tgt_indices]
    mid = (xs + ys) / 2
    res_before = np.linalg.norm(xs - mid) ** 2
    res_after = np.linalg.norm(out.src.matrix[d.src_indices] - mid) ** 2
    assert res_after <= res_before + 1e-12


def test_meemi_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    n, d_dim = 100, 20
    toks = [f"t{i:03d}" for i in range(n)]
    x = rng.normal(size=(n, d_dim))
    y = rng.normal(size=(n, d_dim))
    space = _space_pair(toks, x, toks, y)
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = meemi_transform(space, d)

    xs = x[d.src_indices]
    ys = y[d.tgt_indices]
    mid = (xs + ys) / 2
    m_src = normal_equations(xs, mid)
    expected = x @ m_src
    assert np.max(np.abs(out.src.matrix - expected)) < 1e-8


def test_meemi_moves_non_dictionary_rows():
    rng = np.random.default_rng(8)
    src_toks = ["shared0", "shared1", "shared2", "only-src"]
    tgt_toks = ["shared0", "shared1", "shared2", "only-tgt"]
    space = _space_pair(
        src_toks, rng.normal(size=(4, 2)), tgt_toks, rng.normal(size=(4, 2))
    )
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    out = meemi_transform(space, d)
    assert not np.array_equal(out.src.matrix[3], space.src.matrix[3])


def test_meemi_underdetermined_falls_back_to_ridge():
    rng = np.random.default_rng(9)
    toks = ["a", "b"]
    space = _space_pair(
        toks, rng.normal(size=(2, 5)), toks, rng.normal(size=(2, 5))
    )
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    with pytest.warns(UserWarning) as record:
        out = meemi_transform(space, d)
    assert np.isfinite(out.src.matrix).all()
    assert str(record[0].message) == (
        "source side: 2 pairs for dimension 5; least squares underdetermined, "
        f"using ridge (lambda={RIDGE_LAMBDA})"
    )


def test_meemi_rank_deficient_falls_back_to_ridge():
    rng = np.random.default_rng(10)
    n, d_dim = 30, 6
    toks = [f"t{i:02d}" for i in range(n)]
    x = rng.normal(size=(n, d_dim))
    x[:, 5] = x[:, 2]  # a repeated column: rank 5 with 30 >= 6 pairs
    y = rng.normal(size=(n, d_dim))
    space = _space_pair(toks, x, toks, y)
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    with pytest.warns(UserWarning) as record:
        out = meemi_transform(space, d)
    assert [str(w.message) for w in record] == [
        "source side: rank-deficient pair matrix (rank 5 < 6); "
        f"using ridge (lambda={RIDGE_LAMBDA})"
    ]

    xs = x[d.src_indices]
    mid = (xs + y[d.tgt_indices]) / 2
    ridge = np.linalg.solve(xs.T @ xs + RIDGE_LAMBDA * np.eye(d_dim), xs.T @ mid)
    assert np.array_equal(out.src.matrix, x @ ridge)


def test_meemi_empty_dictionary_rejected():
    space = _space_pair(["a"], [[1.0, 0.0]], ["b"], [[0.0, 1.0]])
    with pytest.warns(UserWarning):
        d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    with pytest.raises(ValueError):
        meemi_transform(space, d)


# ------------------------------------------------------------ space type

def test_cross_lingual_space_dim_mismatch():
    src = make_space(["a"], [[1.0, 0.0]])
    tgt = make_space(["b"], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        CrossLingualSpace(src=src, tgt=tgt)


# ----------------------------------------------------------- consumption

def _aligned_pair(seed=11):
    rng = np.random.default_rng(seed)
    src_toks = [f"t{i:02d}" for i in range(40)] + ["only-src"]
    tgt_toks = [f"t{i:02d}" for i in range(0, 40, 2)] + ["only-tgt"]
    return _space_pair(
        src_toks, rng.normal(size=(41, 6)), tgt_toks, rng.normal(size=(21, 6)),
    )


REFINERS = {
    "plain": average_plain,
    "weighted": average_weighted,
    "meemi": meemi_transform,
}


@pytest.mark.parametrize("mode", sorted(REFINERS))
def test_refine_space_consumes_its_input_and_equals_the_copying_refiner(mode):
    from xlembed.pipeline import refine_space

    space = _aligned_pair()
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    src_matrix, tgt_matrix = space.src.matrix, space.tgt.matrix
    want = REFINERS[mode](_aligned_pair(), d)
    out = refine_space(space, d, mode)
    assert space.src is None and space.tgt is None
    assert np.array_equal(out.src.matrix, want.src.matrix)
    assert np.array_equal(out.tgt.matrix, want.tgt.matrix)
    # averaging writes into the aligned matrices; MEEMI maps to new ones
    shared = mode != "meemi"
    assert (out.src.matrix is src_matrix) == shared
    assert (out.tgt.matrix is tgt_matrix) == shared


def test_refine_space_none_returns_its_input():
    from xlembed.pipeline import refine_space

    space = _aligned_pair()
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    assert refine_space(space, d, "none") is space
    assert space.src is not None and space.tgt is not None


@pytest.mark.parametrize("mode", ["weighted_relative", "relative", ""])
def test_refine_space_unknown_mode_is_an_error(mode):
    from xlembed.config import REFINE_MODES
    from xlembed.pipeline import refine_space

    space = _aligned_pair()
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    src, tgt = space.src, space.tgt
    before = src.matrix.copy(), tgt.matrix.copy()
    with pytest.raises(ValueError) as err:
        refine_space(space, d, mode)
    assert str(err.value) == (
        f"refine mode must be one of {REFINE_MODES}, got {mode!r}"
    )
    # raised before the space is consumed or written
    assert space.src is src and space.tgt is tgt
    assert np.array_equal(src.matrix, before[0])
    assert np.array_equal(tgt.matrix, before[1])


@pytest.mark.parametrize("mode", sorted(REFINERS))
def test_public_refiners_leave_their_input_unchanged(mode):
    space = _aligned_pair()
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    src, tgt = space.src, space.tgt
    before = src.matrix.copy(), tgt.matrix.copy()
    out = REFINERS[mode](space, d)
    assert space.src is src and space.tgt is tgt
    assert np.array_equal(src.matrix, before[0])
    assert np.array_equal(tgt.matrix, before[1])
    assert not np.shares_memory(out.src.matrix, src.matrix)
    assert not np.shares_memory(out.tgt.matrix, tgt.matrix)


def test_zero_total_error_leaves_the_consumed_space_unwritten():
    # the check runs before any row is written
    from xlembed.pipeline import refine_space

    space = _space_pair(["w", "v"], [[1.0, 0.0], [0.5, 0.5]],
                        ["w", "v"], [[0.0, 1.0], [0.5, -0.5]], freqs=[0, 3])
    d = dictionary_from_pairs([("w", "w"), ("v", "v")], space.src.vocab,
                              space.tgt.vocab)
    before = space.src.matrix.copy(), space.tgt.matrix.copy()
    with pytest.raises(ValueError, match="source token 'w'"):
        refine_space(space, d, "weighted")
    assert np.array_equal(space.src.matrix, before[0])
    assert np.array_equal(space.tgt.matrix, before[1])
