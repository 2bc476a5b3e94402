import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlembed import (
    TokenClass,
    build_identical_dictionary,
    build_vocabulary,
    dictionary_from_pairs,
    filter_by_class,
    load_test_dictionary,
    sample_seed,
)
from xlembed.lexicon import (
    TestDictionary,
    coverage_stats,
    exclude_identical_entries,
    load_dictionary,
    save_dictionary,
)


def _vocab(tokens_with_counts):
    stream = [t for t, c in tokens_with_counts for _ in range(c)]
    return build_vocabulary(stream, min_count=1)


# ------------------------------------------------- identical dictionary

def test_identical_dictionary_is_intersection():
    va = _vocab([("a", 3), ("b", 2)])
    vb = _vocab([("b", 5), ("c", 1)])
    d = build_identical_dictionary(va, vb)
    assert d.pairs() == [("b", "b")]
    assert d.f_src.tolist() == [2]
    assert d.f_tgt.tolist() == [5]


def test_identical_dictionary_indices_point_at_rows():
    va = _vocab([("x", 9), ("y", 4), ("z", 2)])
    vb = _vocab([("z", 7), ("y", 3)])
    d = build_identical_dictionary(va, vb)
    for i, (s, t) in enumerate(d.pairs()):
        assert va.tokens[d.src_indices[i]] == s
        assert vb.tokens[d.tgt_indices[i]] == t


def test_identical_dictionary_empty_intersection_warns():
    va = _vocab([("a", 1)])
    vb = _vocab([("b", 1)])
    with pytest.warns(UserWarning):
        d = build_identical_dictionary(va, vb)
    assert len(d) == 0


def test_identical_dictionary_order_by_min_frequency():
    va = _vocab([("low", 2), ("high", 50), ("mid", 10)])
    vb = _vocab([("low", 100), ("high", 40), ("mid", 10)])
    d = build_identical_dictionary(va, vb)
    # min-pair frequencies: high=40, mid=10, low=2
    assert [s for s, _ in d.pairs()] == ["high", "mid", "low"]


def test_dictionary_from_pairs_deduplicates():
    va = _vocab([("dog", 5)])
    vb = _vocab([("perro", 4), ("can", 2)])
    d = dictionary_from_pairs(
        [("dog", "perro"), ("dog", "can"), ("dog", "perro")], va, vb
    )
    assert len(d) == 2
    assert set(d.pairs()) == {("dog", "perro"), ("dog", "can")}


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.sampled_from([f"t{i}" for i in range(12)]), max_size=10),
    st.sets(st.sampled_from([f"t{i}" for i in range(12)]), max_size=10),
)
def test_identical_dictionary_matches_set_intersection(sa, sb):
    import warnings

    if not sa or not sb:
        return
    va = _vocab([(t, 1 + len(t)) for t in sorted(sa)])
    vb = _vocab([(t, 2) for t in sorted(sb)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        d = build_identical_dictionary(va, vb)
    assert {s for s, _ in d.pairs()} == sa & sb
    assert all(s == t for s, t in d.pairs())


# ----------------------------------------------------- class filtering

def _class_dictionary():
    va = _vocab([("5", 10), ("\U0001F602", 9), (":-)", 8), ("hola", 7)])
    vb = _vocab([("5", 6), ("\U0001F602", 5), (":-)", 4), ("hola", 3)])
    return build_identical_dictionary(va, vb)


def test_filter_numerals_only():
    d = filter_by_class(_class_dictionary(), {TokenClass.NUMERAL})
    assert d.pairs() == [("5", "5")]


def test_filter_emoji_includes_emoticons():
    d = filter_by_class(_class_dictionary(), {TokenClass.EMOJI})
    assert {s for s, _ in d.pairs()} == {"\U0001F602", ":-)"}


def test_filter_keeps_pairs_by_the_class_of_their_source_token():
    # a hand-built dictionary is filtered by its source strings
    va = _vocab([("5", 2), ("cinco", 1)])
    vb = _vocab([("five", 2), ("5", 1)])
    d = dictionary_from_pairs([("5", "five"), ("cinco", "5")], va, vb)
    assert filter_by_class(d, {TokenClass.NUMERAL}).pairs() == [("5", "five")]
    assert filter_by_class(d, {TokenClass.WORD}).pairs() == [("cinco", "5")]


def test_filter_partition_covers_dictionary():
    full = _class_dictionary()
    parts = [
        filter_by_class(full, {TokenClass.NUMERAL}),
        filter_by_class(full, {TokenClass.EMOJI}),
        filter_by_class(full, {TokenClass.WORD}),
    ]
    assert sum(len(p) for p in parts) == len(full)
    seen = set()
    for p in parts:
        for pair in p.pairs():
            assert pair not in seen
            seen.add(pair)


# ------------------------------------------------------- dictionary I/O

def test_dictionary_round_trip(tmp_path):
    d = _class_dictionary()
    path = tmp_path / "d.tsv"
    save_dictionary(d, path)
    va = _vocab([("5", 10), ("\U0001F602", 9), (":-)", 8), ("hola", 7)])
    vb = _vocab([("5", 6), ("\U0001F602", 5), (":-)", 4), ("hola", 3)])
    back = load_dictionary(path, va, vb)
    assert back.pairs() == d.pairs()


def test_load_dictionary_skips_oov_with_warning(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("hola hola\nmissing missing\n", encoding="utf-8")
    va = _vocab([("hola", 2)])
    vb = _vocab([("hola", 2)])
    with pytest.warns(UserWarning):
        d = load_dictionary(path, va, vb)
    assert d.pairs() == [("hola", "hola")]


def test_load_dictionary_warns_once_on_duplicate_pairs(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("hola hola\nhola hola\n5 5\n", encoding="utf-8")
    va = _vocab([("hola", 2), ("5", 1)])
    with pytest.warns(UserWarning) as record:
        d = load_dictionary(path, va, va)
    assert len(d) == 2 and set(d.pairs()) == {("hola", "hola"), ("5", "5")}
    assert [str(w.message) for w in record] == [
        f"{path}: dropped 1 duplicate `src tgt` line(s)"
    ]


@pytest.mark.parametrize("load", [load_dictionary, load_test_dictionary])
def test_dictionary_readers_reject_undecodable_bytes(tmp_path, load):
    # with errors="replace" both lines read as source `a\ufffd` and merged
    path = tmp_path / "d.txt"
    path.write_bytes(b"b b\na\xff b\na\xfe c\n")
    va = _vocab([("b", 1)])
    with pytest.raises(ValueError) as err:
        load(path, va, va)
    assert str(err.value) == (
        f"{path}: line 2: invalid UTF-8 byte 0xff at column 2"
    )


# ----------------------------------------------------- test dictionaries

def test_load_test_dictionary_merges_duplicates(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text("dog perro\ncat gato\ndog can\n", encoding="utf-8")
    va = _vocab([("dog", 5), ("cat", 4)])
    vb = _vocab([("perro", 4), ("gato", 3), ("can", 2)])
    test, stats = load_test_dictionary(path, va, vb)
    assert test.entries == [("dog", ("perro", "can")), ("cat", ("gato",))]
    assert stats.total_entries == 2
    assert stats.source_coverage == 1.0


def test_load_test_dictionary_warns_once_on_duplicate_pairs(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text(
        "dog perro\ncat gato\ndog perro\ndog can\ndog  perro\ncat gato\n",
        encoding="utf-8",
    )
    va = _vocab([("dog", 5), ("cat", 4)])
    vb = _vocab([("perro", 4), ("gato", 3), ("can", 2)])
    with pytest.warns(UserWarning) as record:
        test, _ = load_test_dictionary(path, va, vb)
    assert test.entries == [("dog", ("perro", "can")), ("cat", ("gato",))]
    assert [str(w.message) for w in record] == [
        f"{path}: dropped 3 duplicate `src tgt` line(s)"
    ]


def test_load_test_dictionary_rejects_bad_arity(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text("dog perro can\n", encoding="utf-8")
    va = _vocab([("dog", 1)])
    with pytest.raises(ValueError) as err:
        load_test_dictionary(path, va, va)
    assert "line 1" in str(err.value)


def test_coverage_stats_identical_rate_and_containment():
    test = TestDictionary(
        entries=[("5", ("5",)), ("dog", ("perro",)), ("sol", ("sol", "sun"))]
    )
    va = _vocab([("5", 3), ("sol", 2)])  # dog is OOV on the source side
    vb = _vocab([("5", 3), ("sol", 2), ("perro", 1)])
    synthetic = build_identical_dictionary(va, vb)
    stats = coverage_stats(test, va, vb, synthetic)
    assert stats.total_entries == 3
    assert stats.source_coverage == pytest.approx(2 / 3)
    assert stats.identical_rate == pytest.approx(2 / 3)
    # gold pairs: (5,5) in, (dog,perro) out, (sol,sol) in, (sol,sun) out
    assert stats.dictionary_containment == pytest.approx(2 / 4)


def test_exclude_identical_entries():
    test = TestDictionary(
        entries=[("5", ("5",)), ("dog", ("perro",)), ("sol", ("sol", "sun"))]
    )
    strict = exclude_identical_entries(test)
    assert [s for s, _ in strict.entries] == ["dog"]


# ----------------------------------------------------------- seed sampling

def _seed_fixture():
    va = _vocab([(f"s{i}", 50 - i) for i in range(20)])
    vb = _vocab([(f"t{i}", 50 - i) for i in range(20)])
    test = TestDictionary(
        entries=[(f"s{i}", (f"t{i}",)) for i in range(20)]
    )
    return test, va, vb


def test_sample_seed_deterministic():
    test, va, vb = _seed_fixture()
    a = sample_seed(test, 5, rng_seed=7, src_vocab=va, tgt_vocab=vb)
    b = sample_seed(test, 5, rng_seed=7, src_vocab=va, tgt_vocab=vb)
    c = sample_seed(test, 5, rng_seed=8, src_vocab=va, tgt_vocab=vb)
    assert a.pairs() == b.pairs()
    assert len(c) == 5
    # sampled pairs are genuine gold entries
    gold = dict(test.entries)
    assert all(t in gold[s] for s, t in a.pairs())


def test_sample_seed_k_zero():
    test, va, vb = _seed_fixture()
    d = sample_seed(test, 0, rng_seed=1, src_vocab=va, tgt_vocab=vb)
    assert len(d) == 0


def test_sample_seed_k_too_large():
    test, va, vb = _seed_fixture()
    with pytest.raises(ValueError) as err:
        sample_seed(test, 21, rng_seed=1, src_vocab=va, tgt_vocab=vb)
    assert "20" in str(err.value)


def test_sample_seed_skips_oov_entries():
    test, va, vb = _seed_fixture()
    test.entries.append(("missing", ("t0",)))
    test.entries.append(("s0", ("absent",)))  # merged source keeps t0 anyway
    d = sample_seed(test, 20, rng_seed=3, src_vocab=va, tgt_vocab=vb)
    assert len(d) == 20
    assert all(s in va.index and t in vb.index for s, t in d.pairs())


def test_sample_seed_picks_most_frequent_gold():
    va = _vocab([("w", 5)])
    vb = _vocab([("rare", 1), ("common", 9)])
    test = TestDictionary(entries=[("w", ("rare", "common"))])
    d = sample_seed(test, 1, rng_seed=0, src_vocab=va, tgt_vocab=vb)
    assert d.pairs() == [("w", "common")]


def test_sample_seed_picks_most_frequent_gold_of_a_file_order_vocabulary():
    # a sidecar vocabulary keeps file order: the most frequent target may
    # come later; of equally frequent ones the earlier is chosen
    from xlembed import Vocabulary

    va = _vocab([("w", 5)])
    vb = Vocabulary(tokens=["rare", "common", "tied"], freqs=[1, 9, 9])
    test = TestDictionary(entries=[("w", ("rare", "tied", "common"))])
    d = sample_seed(test, 1, rng_seed=0, src_vocab=va, tgt_vocab=vb)
    assert d.pairs() == [("w", "common")]



# --------------------------------------------------- pipeline dictionary

@pytest.mark.parametrize(
    "mode, message",
    [
        ("identicl", "dictionary mode must be one of ('identical', "
                     "'external-seed', 'file'), got 'identicl'"),
        ("file", "dictionary mode 'file' needs a file"),
        ("external-seed", "dictionary mode 'external-seed' needs a file"),
    ],
)
def test_build_dictionary_rejects_an_unknown_mode_or_a_missing_file(mode, message):
    from xlembed.pipeline import build_dictionary

    v = _vocab([("a", 2), ("b", 1)])
    with pytest.raises(ValueError) as err:
        build_dictionary(v, v, mode, k=1, seed=0)
    assert str(err.value) == message


def test_build_dictionary_keeps_every_class_only_without_a_class_list():
    from xlembed.pipeline import build_dictionary

    v = _vocab([("5", 2), ("hola", 1)])
    every = build_dictionary(v, v, "identical", classes=None)
    assert every.pairs() == [("5", "5"), ("hola", "hola")]
    assert build_dictionary(v, v, "identical", classes=["word"]).pairs() == [
        ("hola", "hola")
    ]
    with pytest.raises(ValueError) as err:
        build_dictionary(v, v, "identical", classes=[])
    assert str(err.value) == (
        "must name at least one token class, got []; "
        "valid names: numeral, emoji, emoticon, word"
    )
