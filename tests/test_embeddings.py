import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xlembed import (
    EmbeddingFormatError,
    EmbeddingSpace,
    load_embeddings,
    make_space,
    normalize,
    save_embeddings,
)
from xlembed import embeddings
from xlembed.corpus import write_vocab_tsv
from xlembed.embeddings import CENTER_COLUMNS, DEFAULT_NORMALIZE, UNIT_ROWS
from synthetic import write_pipeline_fixture


def _reference_parse(path):
    """Independent word2vec-text parser used as the round-trip oracle."""
    with open(path, encoding="utf-8") as fh:
        n, d = map(int, fh.readline().split())
        toks, rows = [], []
        for _ in range(n):
            fields = fh.readline().split(" ")
            toks.append(fields[0])
            rows.append([float(v) for v in fields[1 : d + 1]])
    return toks, np.array(rows)


# ------------------------------------------------------------- file I/O

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    space = make_space(["uno", "dos", "tres"], rng.normal(size=(3, 4)))
    path = tmp_path / "v.vec"
    save_embeddings(space, path)

    toks, ref = _reference_parse(path)
    back = load_embeddings(path)
    assert back.vocab.tokens == toks == ["uno", "dos", "tres"]
    assert np.array_equal(back.matrix, ref)
    # 6-decimal quantization
    assert np.max(np.abs(back.matrix - space.matrix)) <= 5e-7


def test_load_header_must_have_two_fields(tmp_path):
    p = tmp_path / "bad.vec"
    p.write_text("3\nfoo 1 2\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(p)
    assert "line 1" in str(err.value)


def test_load_rejects_wrong_arity(tmp_path):
    p = tmp_path / "bad.vec"
    p.write_text("1 3\nfoo 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(p)
    assert "line 2" in str(err.value)


def test_load_rejects_unparseable_float(tmp_path):
    p = tmp_path / "bad.vec"
    p.write_text("1 2\nfoo 1.0 abc\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(p)


def test_load_rejects_non_finite(tmp_path):
    p = tmp_path / "bad.vec"
    p.write_text("1 2\nfoo 1.0 nan\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(p)
    assert "foo" in str(err.value)


def test_load_rejects_truncated_file(tmp_path):
    p = tmp_path / "bad.vec"
    p.write_text("2 2\nfoo 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(p)


def test_load_rejects_a_header_too_large_to_allocate(tmp_path):
    p = tmp_path / "bad.vec"
    p.write_text(f"{2 ** 62} 2\nfoo 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(p)
    assert str(err.value) == (
        f"{p}: line 1: the header declares {2 ** 62} rows of 2 values, "
        f"more than can be allocated"
    )


def test_load_rejects_dim_mismatch(tmp_path):
    p = tmp_path / "v.vec"
    p.write_text("1 2\nfoo 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(p, expected_dim=5)
    assert load_embeddings(p, expected_dim=2).dim == 2


def test_load_duplicate_token_keeps_first(tmp_path):
    p = tmp_path / "v.vec"
    p.write_text("3 1\na 1.0\na 2.0\nb 3.0\n", encoding="utf-8")
    with pytest.warns(UserWarning):
        space = load_embeddings(p)
    assert space.vocab.tokens == ["a", "b"]
    assert space.row("a")[0] == 1.0


def test_load_duplicate_tokens_warn_once_per_file(tmp_path):
    p = tmp_path / "v.vec"
    p.write_text(
        "6 1\na 1.0\nb 2.0\na 3.0\nc 4.0\nb 5.0\na 6.0\n", encoding="utf-8"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        space = load_embeddings(p)
    assert [w.category for w in caught] == [UserWarning]
    assert str(caught[0].message) == (
        f"{p}: 3 duplicate token row(s), the first at line 4 ('a'); "
        f"kept the first occurrence of each"
    )
    assert space.vocab.tokens == ["a", "b", "c"]
    assert space.matrix[:, 0].tolist() == [1.0, 2.0, 4.0]


def test_load_rank_proxy_frequencies(tmp_path):
    p = tmp_path / "v.vec"
    p.write_text("3 1\nx 1.0\ny 2.0\nz 3.0\n", encoding="utf-8")
    space = load_embeddings(p)
    # first row is the most frequent; proxies stay positive
    assert space.vocab.freqs == [3, 2, 1]


def test_load_sidecar_vocab_frequencies(tmp_path):
    vec = tmp_path / "v.vec"
    vec.write_text("2 1\nhola 1.0\nadios 2.0\n", encoding="utf-8")
    side = make_space(["hola", "adios"], np.zeros((2, 1)), freqs=[700, 41]).vocab
    tsv = tmp_path / "v.tsv"
    write_vocab_tsv(side, tsv)
    space = load_embeddings(vec, vocab_tsv=tsv)
    assert space.vocab.freqs == [700, 41]


def test_load_sidecar_missing_tokens_warn_with_count(tmp_path):
    vec = tmp_path / "v.vec"
    vec.write_text("3 1\nhola 1.0\nnuevo 2.0\nadios 3.0\n", encoding="utf-8")
    side = make_space(["hola", "adios"], np.zeros((2, 1)), freqs=[700, 41]).vocab
    tsv = tmp_path / "v.tsv"
    write_vocab_tsv(side, tsv)
    with pytest.warns(UserWarning, match="1 of 3 embedding tokens") as rec:
        space = load_embeddings(vec, vocab_tsv=tsv)
    assert len(rec) == 1 and str(tsv) in str(rec[0].message)
    assert space.vocab.freqs == [700, 0, 41]


def test_load_sidecar_extra_tokens_warn_once_naming_both_files(tmp_path):
    # the pipeline fixture's target file without its 12 emoji rows; its
    # sidecar still lists all 120 tokens
    from xlembed.corpus import TokenClass, classify_token

    write_pipeline_fixture(tmp_path, n=120, d=10)
    vec, tsv = tmp_path / "tgt.vec", tmp_path / "tgt_vocab.tsv"
    header, *rows = vec.read_text(encoding="utf-8").splitlines()
    kept = [
        r for r in rows if classify_token(r.split(" ", 1)[0]) != TokenClass.EMOJI
    ]
    assert len(kept) == 108
    vec.write_text(
        f"{len(kept)} {header.split()[1]}\n" + "\n".join(kept) + "\n",
        encoding="utf-8",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        space = load_embeddings(vec, vocab_tsv=tsv)
    assert [str(w.message) for w in caught] == [
        f"{tsv}: 12 of 120 sidecar vocabulary tokens are missing from {vec}; "
        f"they are not in the space"
    ]
    assert len(space.vocab) == 108
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_embeddings(tmp_path / "src.vec", vocab_tsv=tmp_path / "src_vocab.tsv")


def _per_value_bytes(space):
    """The value-by-value writer `save_embeddings` replaced: the byte oracle."""
    n, d = space.matrix.shape
    out = [f"{n} {d}\n"]
    for tok, row in zip(space.vocab.tokens, space.matrix):
        out.append(tok + " " + " ".join(f"{v:.6f}" for v in row) + "\n")
    return "".join(out).encode("utf-8")


_EDGE_VALUES = [0.0, -0.0, 4.9999995e-7, -4.9999995e-7, 5e-7, -5e-7,
                1 / 128, 4.6e9, 1e15, -1e15, 1.7976931348623157e308]


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.lists(
            st.tuples(
                st.text(
                    st.characters(blacklist_categories=("Z", "C")), min_size=1
                ),
                st.lists(
                    st.one_of(
                        st.sampled_from(_EDGE_VALUES),
                        st.floats(allow_nan=False, allow_infinity=False),
                    ),
                    min_size=d, max_size=d,
                ),
            ),
            min_size=0, max_size=11, unique_by=lambda row: row[0],
        ).map(lambda rows: (rows, d))
    )
)
def test_blocked_save_bytes_equal_per_value_writer(tmp_path, monkeypatch, case):
    rows, d = case
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", 3)  # blocks break mid-file
    tokens = [tok for tok, _ in rows]
    space = make_space(tokens, np.array([v for _, v in rows]).reshape(len(rows), d))
    path = tmp_path / "v.vec"
    save_embeddings(space, path)
    assert path.read_bytes() == _per_value_bytes(space)

    toks, ref = _reference_parse(path)
    back = load_embeddings(path)
    assert back.vocab.tokens == toks == tokens
    assert np.array_equal(back.matrix, ref.reshape(len(rows), d))


# Rows of the byte-oracle file, two per block, and whether numpy formats the
# block. The others hold a value whose x * 1e6 is within an ulp of a
# half-integer: exact ties (1/128 -> 0.007812), products that round onto a
# tie (2.5e-6, 9.9999995, where rint would give 10.000000) and everything
# from 2**51 / 1e6 up, where x * 1e6 can be an ulp off the exact product
# (9100000000.123457 would print ...456), so they take the `%` path.
_ORACLE_BLOCKS = [
    ([[0.25, -0.5, 0.125], [-1e-9, -0.0, 0.0]], True),
    ([[1 / 128, 0.3, -0.7], [2.5e-6, -2.5e-6, 0.0]], False),
    ([[4.9999995e-7, -4.9999995e-7, 2.4999995e-6],
      [12.5, -123.456789, 98765.4321]], True),
    ([[-1 / 128, 1.0, 2.0], [9.9999995, 1.0000005, 5e-7]], False),
    ([[2.2e9, -1234567.000001, 1e-7], [5e-324, -5e-324, 2**51 / 1e6 - 0.25]],
     True),
    ([[4.5e9, 0.0, 0.0], [4.6e9, -4.6e9, 1e15]], False),
    ([[9100000000.123457, -1e10 - 0.3, 0.0], [1.0, 2.0, 3.0]], False),
    ([[0.1, 0.2, 0.3], [1.0, -2.0, 3.0]], True),
]


def test_save_bytes_equal_per_value_writer_across_fast_and_fallback_blocks(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", 2)
    format_block = embeddings._format_block
    fast = []

    def spy(block):
        formatted = format_block(block)
        fast.append(formatted is not None)
        return formatted

    monkeypatch.setattr(embeddings, "_format_block", spy)
    tokens = ["a", "-1e-9", "ñandú", "😀", "東京", "x", "Ω", "b", "c", "d",
              "ü", "🇪🇸", "e", "f", "g", "h"]
    matrix = np.array([row for rows, _ in _ORACLE_BLOCKS for row in rows])
    space = make_space(tokens, matrix)
    path = tmp_path / "v.vec"
    save_embeddings(space, path)
    assert path.read_bytes() == _per_value_bytes(space)
    assert fast == [kind for _, kind in _ORACLE_BLOCKS]


def test_save_float32_space_bytes_equal_per_value_writer(tmp_path, monkeypatch):
    # x * 1e6 in float32 drops digits once |x * 1e6| >= 2**22, so a float32
    # space must not take the numpy path; one-row blocks, as a block with a
    # product that lands on a half-integer would take the `%` path anyway
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", 1)
    rng = np.random.default_rng(2)
    matrix = rng.uniform(-100, 100, size=(300, 2)).astype(np.float32)
    space = make_space([f"w{i}" for i in range(300)], matrix)
    space = EmbeddingSpace(vocab=space.vocab, matrix=matrix)
    path = tmp_path / "v.vec"
    save_embeddings(space, path)
    assert path.read_bytes() == _per_value_bytes(space)


@pytest.mark.parametrize(
    "row, message",
    [
        ("c 1.0 2.0", "expected token plus 1 values"),
        ("c abc", "unparseable float value for token 'c'"),
        ("c 1_0", "unparseable float value for token 'c'"),
        ("c  ", "unparseable float value for token 'c'"),
        ("c inf", "non-finite value for token 'c'"),
    ],
)
def test_load_error_in_second_block_names_file_line(
    tmp_path, monkeypatch, row, message
):
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", 2)
    p = tmp_path / "bad.vec"
    p.write_text(f"4 1\na 1.0\nb 2.0\n{row}\nd 4.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(p)
    assert str(err.value).startswith(f"{p}: line 4: ")
    assert message in str(err.value)


@pytest.mark.parametrize("rows", [1, 2])
def test_load_all_blank_block_names_its_line(tmp_path, monkeypatch, rows):
    # a block whose payloads are all blank never reaches np.loadtxt, which
    # would warn that it read no data
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", rows)
    p = tmp_path / "bad.vec"
    p.write_text("3 1\na 1.0\nb  \nc  \n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings(p)
    assert str(err.value) == f"{p}: line 3: unparseable float value for token 'b'"


def test_load_duplicate_token_warning_meets_the_default_filter(tmp_path):
    # the parse blocks set no warning filter, so the once-per-place registry
    # survives them: under "default" two loads of one file warn once
    p = tmp_path / "v.vec"
    p.write_text("3 1\na 1.0\na 2.0\nb 3.0\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        warnings.simplefilter("default")
        load_embeddings(p)
        load_embeddings(p)
    assert [str(w.message) for w in caught] == [
        f"{p}: 1 duplicate token row(s), the first at line 3 ('a'); "
        f"kept the first occurrence of each"
    ]


def test_load_tolerates_one_trailing_space(tmp_path):
    p = tmp_path / "v.vec"
    p.write_text("2 2\na 1.0 2.0 \nb 3.0 4.0\n", encoding="utf-8")
    space = load_embeddings(p)
    assert space.vocab.tokens == ["a", "b"]
    assert space.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_rejects_undecodable_tokens(tmp_path):
    # with replacement both tokens became U+FFFD and the second was dropped
    # as a duplicate
    p = tmp_path / "bad.vec"
    p.write_bytes(b"2 1\n\xff 1.0\n\xfe 2.0\n")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(p)
    assert str(err.value).startswith(f"{p}: line 2: ")
    assert "0xff" in str(err.value)


def test_load_rejects_rows_beyond_header(tmp_path):
    # these surplus rows used to be ignored without a word
    p = tmp_path / "v.vec"
    p.write_text("1 1\na 1.0\nb 2.0\nc 3.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(p)
    assert str(err.value).startswith(f"{p}: line 3: ")
    assert "1 rows" in str(err.value)


def test_load_allows_blank_line_after_rows(tmp_path):
    p = tmp_path / "v.vec"
    p.write_text("1 1\na 1.0\n\n", encoding="utf-8")
    assert load_embeddings(p).vocab.tokens == ["a"]


def test_save_memory_is_bounded_by_block(tmp_path):
    rng = np.random.default_rng(5)
    space = make_space([f"w{i}" for i in range(5000)], rng.normal(size=(5000, 50)))
    path = tmp_path / "v.vec"
    tracemalloc.start()
    try:
        save_embeddings(space, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path)


def test_load_memory_is_the_matrix_plus_one_block(tmp_path):
    # the rows go straight into the result matrix; parsed blocks are not
    # held until a final concatenation (which peaked at two matrices)
    n, d = 20000, 50
    rng = np.random.default_rng(6)
    path = tmp_path / "v.vec"
    save_embeddings(make_space([f"w{i}" for i in range(n)], rng.normal(size=(n, d))), path)
    tracemalloc.start()
    try:
        space = load_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.matrix.shape == (n, d) and space.matrix.flags.owndata
    assert peak < space.matrix.nbytes * 2


# --------------------------------------------------------- constructors

def test_space_shape_validation():
    with pytest.raises(ValueError):
        make_space(["a", "b"], np.zeros((3, 2)))


def test_space_rejects_nan():
    m = np.zeros((1, 2))
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        make_space(["a"], m)


# --------------------------------------------------------- normalization

def test_unit_step_row():
    space = make_space(["a"], [[3.0, 4.0]])
    out = normalize(space, steps=(UNIT_ROWS,))
    assert np.allclose(out.matrix, [[0.6, 0.8]])


def test_center_step_symmetric_rows_unchanged():
    space = make_space(["a", "b"], [[1.0, 0.0], [-1.0, 0.0]])
    out = normalize(space, steps=(CENTER_COLUMNS,))
    assert np.allclose(out.matrix, space.matrix)


def test_default_pipeline_two_point_case():
    space = make_space(["a", "b"], [[2.0, 0.0], [0.0, 2.0]])
    out = normalize(space, steps=DEFAULT_NORMALIZE)
    r = math.sqrt(2) / 2
    assert np.allclose(out.matrix, [[r, -r], [-r, r]], atol=1e-12)


def test_unit_zero_row_error_names_token():
    space = make_space(["ok", "dead"], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError) as err:
        normalize(space, steps=(UNIT_ROWS,))
    assert "dead" in str(err.value)


TINY_AND_HUGE_ROWS = [
    [1.77e-161, 0.0],   # squared sum underflows: used to give norm 1.0033
    [1e-170, 0.0],      # squared sum is 0: used to be a false zero row
    [1e200, 1e200],     # squared sum overflows: used to become zeros
    [5e-324, -5e-324],  # subnormal entries
]


@pytest.mark.parametrize("row", TINY_AND_HUGE_ROWS)
def test_unit_step_tiny_and_huge_rows(row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning
        out = normalize(make_space(["a", "b"], [row, [3.0, 4.0]]), steps=(UNIT_ROWS,))
    expected = np.sign(row) / math.sqrt(np.count_nonzero(row))
    assert np.allclose(out.matrix[0], expected, rtol=1e-15, atol=0)
    assert out.matrix[1].tolist() == [0.6, 0.8]


def test_unit_step_keeps_ordinary_rows_bit_exact():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(50, 7)) * np.logspace(-140, 140, 50)[:, None]
    out = normalize(make_space([f"t{i}" for i in range(50)], matrix), steps=(UNIT_ROWS,))
    plain = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    assert np.array_equal(out.matrix, plain)


def test_normalize_peak_memory_is_one_copy():
    """normalize holds one copy of the matrix: the unit step takes norms per
    block and divides in place, and its zero-row check allocates no float
    matrix. The run is made once untraced first, so one-time lazy imports
    inside numpy are not counted."""
    rng = np.random.default_rng(3)
    space = make_space([f"t{i}" for i in range(5000)], rng.normal(size=(5000, 50)))
    normalize(space, DEFAULT_NORMALIZE)
    tracemalloc.start()
    try:
        normalize(space, DEFAULT_NORMALIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / space.matrix.nbytes
    assert ratio < 1.25, f"normalize peaked at {ratio:.2f} matrices"


def test_unknown_step_rejected():
    space = make_space(["a"], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        normalize(space, steps=("whiten",))


def test_normalize_does_not_mutate_input():
    space = make_space(["a", "b"], [[3.0, 4.0], [1.0, -2.0]])
    before = space.matrix.copy()
    normalize(space)
    assert np.array_equal(space.matrix, before)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 6)),
        elements=st.floats(-10, 10, allow_nan=False),
    )
)
def test_unit_step_idempotent(matrix):
    matrix = matrix.copy()
    norms = np.linalg.norm(matrix, axis=1)
    matrix[norms == 0.0, 0] = 1.0  # dodge zero rows; error path tested above
    tokens = [f"t{i}" for i in range(matrix.shape[0])]
    once = normalize(make_space(tokens, matrix), steps=(UNIT_ROWS,))
    twice = normalize(once, steps=(UNIT_ROWS,))
    assert np.allclose(once.matrix, twice.matrix, atol=1e-12)
    assert np.allclose(np.linalg.norm(once.matrix, axis=1), 1.0)


def test_row_lookup():
    space = make_space(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(space.row("b"), [3.0, 4.0])
    assert isinstance(space, EmbeddingSpace)
