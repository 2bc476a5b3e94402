import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlembed.translate as translate
from xlembed import (
    CrossLingualSpace,
    TestDictionary,
    average_plain,
    build_identical_dictionary,
    make_space,
    precision_at_k,
    translate_topk,
)
from synthetic import rotation_benchmark, unit_gaussian_rows


# ---------------------------------------------------------------- oracles

def brute_force_topk(space, query, k):
    """Per-candidate python-loop cosine ranking; ties to the lower index."""
    q = space.src.matrix[space.src.vocab.index[query]]
    qn = math.sqrt(sum(v * v for v in q))
    scored = []
    for j, tok in enumerate(space.tgt.vocab.tokens):
        y = space.tgt.matrix[j]
        yn = math.sqrt(sum(v * v for v in y))
        cos = sum(a * b for a, b in zip(q, y)) / (qn * yn)
        scored.append((-cos, j, tok))
    best = heapq.nsmallest(k, scored)
    return [(tok, -negcos) for negcos, _, tok in best]


def csls_oracle(space, k_neighbors=10):
    """Full CSLS score matrix computed with explicit loops over means."""
    a = space.src.matrix / np.linalg.norm(space.src.matrix, axis=1, keepdims=True)
    b = space.tgt.matrix / np.linalg.norm(space.tgt.matrix, axis=1, keepdims=True)
    cos = a @ b.T
    n_src, n_tgt = cos.shape
    kk = min(k_neighbors, n_tgt)
    r_t = np.array([np.mean(sorted(cos[i], reverse=True)[:kk]) for i in range(n_src)])
    kk2 = min(k_neighbors, n_src)
    r_s = np.array([np.mean(sorted(cos[:, j], reverse=True)[:kk2]) for j in range(n_tgt)])
    return 2 * cos - r_t[:, None] - r_s[None, :]


def _p_at_k_oracle(space, test, ks, retrieval, oov_as_wrong):
    """P@k entry by entry: rank each covered source's targets, then count
    an entry at every k its first in-vocabulary gold falls under."""
    ks = sorted(ks)
    covered = [(s, g) for s, g in test.entries if s in space.src.vocab.index]
    ranked = translate_topk(space, [s for s, _ in covered], max(ks), retrieval)
    hits = {k: 0 for k in ks}
    for (_, golds), candidates in zip(covered, ranked):
        tokens = [t for t, _ in candidates]
        found = [i for i, t in enumerate(tokens) if t in golds]
        for k in ks:
            hits[k] += int(bool(found) and found[0] < k)
    denominator = len(test) if oov_as_wrong else len(covered)
    return {k: 100.0 * hits[k] / denominator if denominator else None for k in ks}


def _random_space(seed, n_src=30, n_tgt=40, d=8):
    rng = np.random.default_rng(seed)
    src = make_space([f"s{i:03d}" for i in range(n_src)], unit_gaussian_rows(rng, n_src, d))
    tgt = make_space([f"t{i:03d}" for i in range(n_tgt)], unit_gaussian_rows(rng, n_tgt, d))
    return CrossLingualSpace(src=src, tgt=tgt)


# ------------------------------------------------------------ translate

def test_topk_matches_brute_force_every_query():
    space = _random_space(0)
    for tok in space.src.vocab.tokens:
        got = translate_topk(space, tok, k=5)
        want = brute_force_topk(space, tok, k=5)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert abs(a - b) < 1e-12


def test_topk_toy_orthonormal_basis():
    src = make_space(["q"], [[1.0, 0.0]])
    tgt = make_space(["e1", "e2"], [[1.0, 0.0], [0.0, 1.0]])
    space = CrossLingualSpace(src=src, tgt=tgt)
    top = translate_topk(space, "q", k=2)
    assert top[0][0] == "e1"
    assert top[0][1] == pytest.approx(1.0, abs=1e-12)
    assert top[1][1] == pytest.approx(0.0, abs=1e-12)


def test_topk_after_anchoring_returns_counterpart():
    space = _random_space(1, n_src=20, n_tgt=20)
    # rename targets so ten tokens are shared
    shared = [f"s{i:03d}" for i in range(10)]
    tgt_tokens = shared + [f"t{i:03d}" for i in range(10)]
    tgt = make_space(tgt_tokens, space.tgt.matrix)
    space = CrossLingualSpace(src=space.src, tgt=tgt)
    d = build_identical_dictionary(space.src.vocab, space.tgt.vocab)
    anchored = average_plain(space, d)
    for tok in shared:
        top = translate_topk(anchored, tok, k=1)
        assert top[0][0] == tok
        assert top[0][1] == pytest.approx(1.0, abs=1e-9)


def test_topk_tie_broken_by_target_index():
    src = make_space(["q"], [[1.0, 0.0]])
    # identical target rows: exact score tie at every rank
    tgt = make_space(["first", "second", "third"], [[2.0, 0.0]] * 3)
    space = CrossLingualSpace(src=src, tgt=tgt)
    top = translate_topk(space, "q", k=3)
    assert [t for t, _ in top] == ["first", "second", "third"]


def test_topk_oov_query_and_bad_args():
    space = _random_space(2)
    with pytest.raises(KeyError):
        translate_topk(space, "missing", k=1)
    with pytest.raises(ValueError):
        translate_topk(space, "s000", k=0)
    with pytest.raises(ValueError):
        translate_topk(space, "s000", k=1, retrieval="dot")


def test_topk_list_unknown_token_raises_before_scoring(monkeypatch):
    space = _random_space(2)
    scored = []
    monkeypatch.setattr(translate, "_retrieve", lambda *a: scored.append(a))
    for queries in (["missing", "s000"], ["s000", "s001", "missing"]):
        with pytest.raises(KeyError, match="'missing'"):
            translate_topk(space, queries, k=1, retrieval="csls")
    assert scored == []


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_topk_list_matches_single_token_calls(retrieval):
    src, tgt, _ = rotation_benchmark(n=300, d=20, noise=0.2, seed=16)
    space = CrossLingualSpace(src=src, tgt=tgt)
    tokens = src.vocab.tokens
    lists = translate_topk(space, tokens, k=5, retrieval=retrieval)
    assert len(lists) == len(tokens)
    for tok, got in zip(tokens, lists):
        want = translate_topk(space, tok, k=5, retrieval=retrieval)
        assert [t for t, _ in got] == [t for t, _ in want]
        # a lone query row is scored by GEMV, a block by GEMM: the last
        # bits may differ, the ranking may not
        for (_, a), (_, b) in zip(got, want):
            assert abs(a - b) <= 1e-12


def test_topk_csls_list_takes_one_neighbourhood_pass(monkeypatch):
    space = _random_space(3, n_src=30, n_tgt=40)
    calls = []
    real = translate.neighbourhood_mean

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(translate, "neighbourhood_mean", spy)
    lists = translate_topk(space, space.src.vocab.tokens, k=3, retrieval="csls")
    assert len(lists) == 30 and len(calls) == 1


def test_topk_empty_list_runs_no_kernel(monkeypatch):
    space = _random_space(2)

    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran for no query")

    for name in ("neighbourhood_mean", "topk", "unit_rows"):
        monkeypatch.setattr(translate, name, kernel)
    for retrieval in ("cosine", "csls"):
        assert translate_topk(space, [], k=1, retrieval=retrieval) == []


def test_topk_k_larger_than_vocab():
    space = _random_space(3, n_tgt=4)
    top = translate_topk(space, "s000", k=50)
    assert len(top) == 4


def test_csls_matches_oracle():
    space = _random_space(4, n_src=25, n_tgt=30)
    scores = csls_oracle(space)
    for i, tok in enumerate(space.src.vocab.tokens):
        got = translate_topk(space, tok, k=3, retrieval="csls")
        order = np.lexsort((np.arange(len(scores[i])), -scores[i]))[:3]
        want = [space.tgt.vocab.tokens[int(j)] for j in order]
        assert [t for t, _ in got] == want
        for (_, a), j in zip(got, order):
            assert abs(a - scores[i, int(j)]) < 1e-10


def test_cosine_scale_invariance_of_ranking():
    space = _random_space(5)
    before = [t for t, _ in translate_topk(space, "s007", k=10)]
    scaled = space.src.matrix.copy()
    scaled[space.src.vocab.index["s007"]] *= 37.5
    space2 = CrossLingualSpace(
        src=make_space(space.src.vocab.tokens, scaled), tgt=space.tgt
    )
    after = [t for t, _ in translate_topk(space2, "s007", k=10)]
    assert before == after


# ---------------------------------------------------------------- P@k

def test_p_at_k_nested():
    space = _random_space(6, n_src=40, n_tgt=60)
    rng = np.random.default_rng(7)
    entries = [
        (f"s{i:03d}", (f"t{int(rng.integers(0, 60)):03d}",)) for i in range(40)
    ]
    report = precision_at_k(space, TestDictionary(entries=entries))
    assert 0.0 <= report.p_at[1] <= report.p_at[5] <= report.p_at[10] <= 100.0


def test_p_at_k_anchored_identical_pairs_perfect():
    src, tgt, _ = rotation_benchmark(n=60, d=10, noise=0.3, seed=8)
    space = CrossLingualSpace(src=src, tgt=tgt)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    anchored = average_plain(space, d)
    test = TestDictionary(entries=[(t, (t,)) for t in src.vocab.tokens[:30]])
    report = precision_at_k(anchored, test, ks=(1, 5, 10))
    assert report.p_at[1] == 100.0


def test_p_at_k_oov_handling():
    space = _random_space(9, n_src=10, n_tgt=10)
    entries = [("s000", ("t000",)), ("smissing", ("t001",))]
    skip = precision_at_k(space, TestDictionary(entries=entries), ks=(1,))
    assert skip.covered == 1 and skip.skipped == 1 and skip.total == 2
    wrong = precision_at_k(
        space, TestDictionary(entries=entries), ks=(1,), oov_as_wrong=True
    )
    # same hit count, denominator switches from covered to total
    assert wrong.covered == 1
    if skip.p_at[1] == 100.0:
        assert wrong.p_at[1] == 50.0


def test_p_at_k_empty_covered_set():
    space = _random_space(10, n_src=5, n_tgt=5)
    report = precision_at_k(
        space, TestDictionary(entries=[("nope", ("t000",))]), ks=(1, 5)
    )
    assert report.covered == 0
    assert report.p_at[1] is None and report.p_at[5] is None
    assert all(v is None for v in report.p_at.values())


def test_p_at_k_empty_test_dictionary():
    space = _random_space(11, n_src=5, n_tgt=5)
    report = precision_at_k(space, TestDictionary(entries=[]), ks=(1,))
    assert report.total == 0 and report.p_at[1] is None


def test_p_at_k_multiple_golds_any_counts():
    src = make_space(["q"], [[1.0, 0.0]])
    tgt = make_space(["far", "near"], [[0.0, 1.0], [1.0, 0.1]])
    space = CrossLingualSpace(src=src, tgt=tgt)
    test = TestDictionary(entries=[("q", ("far", "near"))])
    report = precision_at_k(space, test, ks=(1,))
    assert report.p_at[1] == 100.0  # "near" is top-1 even though "far" isn't


def test_p_at_k_gold_oov_not_counted():
    src = make_space(["q"], [[1.0, 0.0]])
    tgt = make_space(["x"], [[1.0, 0.0]])
    space = CrossLingualSpace(src=src, tgt=tgt)
    test = TestDictionary(entries=[("q", ("unseen",))])
    report = precision_at_k(space, test, ks=(1,))
    # source covered, but no in-vocab gold can be retrieved
    assert report.covered == 1
    assert report.p_at[1] == 0.0


def test_p_at_k_target_permutation_invariant():
    space = _random_space(12, n_src=25, n_tgt=35, d=6)
    entries = [(f"s{i:03d}", (f"t{(i * 3) % 35:03d}",)) for i in range(25)]
    base = precision_at_k(space, TestDictionary(entries=entries), ks=(1, 5, 10))

    rng = np.random.default_rng(13)
    perm = rng.permutation(35)
    tgt2 = make_space(
        [space.tgt.vocab.tokens[int(j)] for j in perm], space.tgt.matrix[perm]
    )
    space2 = CrossLingualSpace(src=space.src, tgt=tgt2)
    permuted = precision_at_k(space2, TestDictionary(entries=entries), ks=(1, 5, 10))
    assert base.p_at == permuted.p_at  # generic rows: no ties in play


def test_topk_list_returns_one_ranked_list_per_token():
    space = _random_space(14, n_src=6, n_tgt=8)
    lists = translate_topk(space, [f"s{i:03d}" for i in range(6)], k=5)
    assert len(lists) == 6
    ranked = lists[0]
    single = translate_topk(space, "s000", k=5)  # the list is s000's
    assert [t for t, _ in ranked] == [t for t, _ in single]
    assert len(ranked) == 5
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_p_at_k_monotone_under_random_instances(seed):
    rng = np.random.default_rng(seed)
    n_src, n_tgt = 12, 15
    space = CrossLingualSpace(
        src=make_space(
            [f"s{i}" for i in range(n_src)], rng.normal(size=(n_src, 4))
        ),
        tgt=make_space(
            [f"t{i}" for i in range(n_tgt)], rng.normal(size=(n_tgt, 4))
        ),
    )
    entries = [
        (f"s{i}", (f"t{int(rng.integers(0, n_tgt))}",)) for i in range(n_src)
    ]
    test = TestDictionary(entries=entries)
    for retrieval in ("cosine", "csls"):
        r = precision_at_k(space, test, ks=(1, 5, 10), retrieval=retrieval)
        assert r.p_at[1] <= r.p_at[5] <= r.p_at[10]
        assert r.p_at == _p_at_k_oracle(space, test, (1, 5, 10), retrieval, False)


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_p_at_k_all_sources_oov_runs_no_kernel(monkeypatch, retrieval):
    space = _random_space(15)

    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran with no covered source")

    for name in ("neighbourhood_mean", "topk", "unit_rows"):
        monkeypatch.setattr(translate, name, kernel)
    test = TestDictionary(entries=[("nope", ("t000",)), ("gone", ("t001",))])
    report = precision_at_k(
        space, test, ks=(1, 5), retrieval=retrieval, oov_as_wrong=True
    )
    assert report.p_at == {1: 0.0, 5: 0.0}
    assert (report.covered, report.skipped, report.total) == (0, 2, 2)


@pytest.mark.parametrize("oov_as_wrong", [False, True])
@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_p_at_k_matches_per_entry_oracle(retrieval, oov_as_wrong):
    # three targets under ks up to 10; golds all out of vocabulary;
    # repeated golds; an out-of-vocabulary source
    space = _random_space(16, n_src=8, n_tgt=3, d=4)
    entries = [(f"s{i:03d}", (f"t{i % 3:03d}",)) for i in range(6)]
    entries += [
        ("s006", ("unseen", "gone")),
        ("s007", ("t002", "t002", "t001", "t002")),
        ("s000", ("t001", "t001")),
        ("smissing", ("t000",)),
    ]
    test = TestDictionary(entries=entries)
    report = precision_at_k(
        space, test, ks=(10, 1, 5), retrieval=retrieval, oov_as_wrong=oov_as_wrong
    )
    want = _p_at_k_oracle(space, test, (1, 5, 10), retrieval, oov_as_wrong)
    assert report.p_at == want
    # the three targets are all candidates from k = 3 on: every covered
    # entry with an in-vocabulary gold (all but s006) is a hit
    assert report.p_at[5] == report.p_at[10] == 100.0 * 8 / (10 if oov_as_wrong else 9)
    assert (report.covered, report.skipped) == (9, 1)
