import gc
import os
import pickle
import re
import sys
import threading
import unicodedata
import warnings
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xlembed
from xlembed import (
    CorpusStats,
    TokenClass,
    Vocabulary,
    build_vocabulary,
    classify_token,
    scan_corpus,
    tokenize,
)
from xlembed import corpus, workers
from xlembed.corpus import (
    iter_corpus_lines,
    read_lines,
    read_vocab_tsv,
    vocabulary_from_counts,
    write_vocab_tsv,
)


# ---------------------------------------------------------------- tokenize

def test_tokenize_basic_sentence():
    got = tokenize("Buenos Dias a todos, menos a mi :(")
    assert got == ["buenos", "dias", "a", "todos", ",", "menos", "a", "mi", ":("]


def test_tokenize_empty_line():
    assert tokenize("") == []
    assert tokenize("   \t ") == []


def test_tokenize_number_and_emoji_split():
    assert tokenize("5 \U0001F389\U0001F389") == ["5", "\U0001F389", "\U0001F389"]


def test_tokenize_adjacent_emoji_split_without_space():
    # consecutive independent pictographs are separate tokens
    assert tokenize("\U0001F600\U0001F601") == ["\U0001F600", "\U0001F601"]


def test_tokenize_zwj_sequence_single_token():
    fam = "\U0001F469‍\U0001F469‍\U0001F467"
    assert tokenize(f"hola {fam}") == ["hola", fam]


def test_tokenize_keycap_single_token():
    key = "5️⃣"
    assert tokenize(f"op {key} ya") == ["op", key, "ya"]
    assert classify_token(key) is TokenClass.EMOJI


def test_tokenize_flag_pairs():
    es, mx = "\U0001F1EA\U0001F1F8", "\U0001F1F2\U0001F1FD"
    assert tokenize(es + mx) == [es, mx]


def test_tokenize_skin_tone_stays_attached():
    tok = "\U0001F44D\U0001F3FD"
    assert tokenize(f"bien {tok}") == ["bien", tok]


def test_tokenize_emoticons_preserve_case():
    assert tokenize("Great xD") == ["great", "xD"]
    assert tokenize("jaja :-D si") == ["jaja", ":-D", "si"]


def test_tokenize_emoticon_not_inside_word():
    # "xD" guarded by word boundaries: no emoticon inside "xDado"
    assert "xD" not in tokenize("xDado")


def test_tokenize_urls_mentions_hashtags():
    got = tokenize("mira https://x.co/Ab3 @Juan #FelizLunes ya")
    assert got == ["mira", "https://x.co/ab3", "@juan", "#felizlunes", "ya"]


def test_tokenize_decimal_number_one_token():
    assert tokenize("son 3,5 euros") == ["son", "3,5", "euros"]
    assert tokenize("pi is 3.14") == ["pi", "is", "3.14"]


def test_tokenize_nfc_applied():
    # decomposed accent folds to the composed form
    decomposed = "día"
    assert tokenize(decomposed) == [unicodedata.normalize("NFC", decomposed)]


def test_tokenize_no_lowercase_config():
    assert tokenize("Buenos Dias", lowercase=False) == ["Buenos", "Dias"]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_tokenize_total_and_deterministic(line):
    a = tokenize(line)
    b = tokenize(line)
    assert a == b
    assert all(isinstance(t, str) and t for t in a)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=120))
def test_tokenize_no_whitespace_inside_tokens(line):
    for tok in tokenize(line):
        assert not any(ch.isspace() for ch in tok)


# ------------------------------------------------------------ classify

@pytest.mark.parametrize(
    "token,cls",
    [
        ("5", TokenClass.NUMERAL),
        ("2018", TokenClass.NUMERAL),
        ("3,5", TokenClass.NUMERAL),
        ("3.14", TokenClass.NUMERAL),
        (":-)", TokenClass.EMOTICON),
        ("xD", TokenClass.EMOTICON),
        ("<3", TokenClass.EMOTICON),
        ("\U0001F389", TokenClass.EMOJI),
        ("\U0001F1EA\U0001F1F8", TokenClass.EMOJI),
        ("5️⃣", TokenClass.EMOJI),
        ("nirvana", TokenClass.WORD),
        ("@juan", TokenClass.WORD),
        ("#tbt", TokenClass.WORD),
        (",", TokenClass.WORD),
        ("1.2.3", TokenClass.WORD),
    ],
)
def test_classify_token(token, cls):
    assert classify_token(token) is cls


def test_classify_every_tokenizer_output_has_a_class():
    line = "RT @ana: 24 horas!! \U0001F602\U0001F602 :-) http://t.co/x #feliz 3,5"
    for tok in tokenize(line):
        assert isinstance(classify_token(tok), TokenClass)


# ------------------------------------------------------- vocabulary

def test_build_vocabulary_counts_and_order():
    vocab = build_vocabulary(["a", "b", "a"], min_count=1)
    assert vocab.tokens == ["a", "b"]
    assert vocab.freqs == [2, 1]


def test_build_vocabulary_tie_broken_lexicographically():
    vocab = build_vocabulary(["b", "a", "b", "a"], min_count=1)
    assert vocab.tokens == ["a", "b"]


def test_build_vocabulary_min_count_drops_rare():
    stream = ["x"] * 5 + ["y"] * 4
    vocab = build_vocabulary(stream, min_count=5)
    assert vocab.tokens == ["x"]
    assert vocab.freqs == [5]


def test_build_vocabulary_empty_warns():
    with pytest.warns(UserWarning):
        vocab = build_vocabulary([], min_count=5)
    assert len(vocab) == 0


def test_vocabulary_lookup_and_contains():
    vocab = build_vocabulary(["uno", "dos", "uno"], min_count=1)
    assert "uno" in vocab
    assert "tres" not in vocab
    assert vocab.index["uno"] == 0


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary(
            tokens=["a", "a"],
            freqs=np.array([2, 1], dtype=np.int64),
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from(["a", "b", "c", "d", "e", "5", "\U0001F602"]),
        max_size=200,
    )
)
def test_vocabulary_counts_conserved(stream):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty-stream case
        vocab = build_vocabulary(stream, min_count=1)
    assert sum(vocab.freqs) == len(stream)
    # strictly sorted: freq desc, token asc on ties
    keys = list(zip([-f for f in vocab.freqs], vocab.tokens))
    assert keys == sorted(keys)


def test_shard_merge_equals_single_pass():
    from collections import Counter

    shard1 = ["a", "b", "c", "a"]
    shard2 = ["b", "a", "d"]
    merged = vocabulary_from_counts(Counter(shard1) + Counter(shard2), min_count=1)
    single = build_vocabulary(shard1 + shard2, min_count=1)
    assert merged.tokens == single.tokens
    assert merged.freqs == single.freqs


# ------------------------------------------------------ corpus scan

def test_scan_corpus_deduplicates(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("hola que tal\nhola que tal\nadios\n", encoding="utf-8")
    vocab, stats = scan_corpus(iter_corpus_lines(p), min_count=1)
    assert isinstance(stats, CorpusStats)
    assert stats.n_tweets == 2
    assert stats.n_duplicates == 1
    assert vocab.freqs[vocab.index["hola"]] == 1


def test_scan_corpus_empty_file(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("", encoding="utf-8")
    vocab, stats = scan_corpus(iter_corpus_lines(p), min_count=1)
    assert stats.n_tweets == 0
    assert stats.n_tokens == 0
    assert len(vocab) == 0


@pytest.mark.parametrize("min_count", [0, -3])
def test_scan_corpus_rejects_min_count_below_one_before_the_scan(min_count):
    def lines():
        raise AssertionError("the corpus was read")
        yield

    with pytest.raises(ValueError, match="min_count must be >= 1"):
        scan_corpus(lines(), min_count=min_count)


def test_scan_corpus_token_totals():
    _, stats = scan_corpus(["a b c", "d e"], min_count=1)
    assert stats.n_tokens == 5
    assert stats.n_unique == 5


def count_corpus_per_line(lines, lowercase=True):
    """The per-line count that tokenizes every kept tweet whole; the oracle
    for count_corpus, which tokenizes each distinct whitespace chunk once."""
    seen = set()
    counts = Counter()
    n_tweets = n_duplicates = n_tokens = 0
    for line in lines:
        key = line.strip()
        if key in seen:
            n_duplicates += 1
            continue
        seen.add(key)
        n_tweets += 1
        toks = tokenize(line, lowercase)
        n_tokens += len(toks)
        counts.update(toks)
    return counts, CorpusStats(n_tweets, n_duplicates, n_tokens, len(counts))


def scan_corpus_per_line(lines, lowercase=True, min_count=5):
    """The oracle for scan_corpus: count_corpus_per_line, then the
    vocabulary."""
    counts, stats = count_corpus_per_line(lines, lowercase)
    vocab = vocabulary_from_counts(counts, min_count) if counts else Vocabulary(
        tokens=[], freqs=[]
    )
    return vocab, stats


# Every oracle comparison runs on both count paths (the forked one where
# os.fork exists), inside one test.
COUNT_PATHS = ["forked", "inline"] if hasattr(os, "fork") else ["inline"]


@contextmanager
def count_path(path):
    """count_corpus in batches of 2 distinct tweets, the second half of the
    batches counted in a forked worker ("forked") or at job.result() in this
    process ("inline"). Yields the sizes of this process's _count_tokens
    calls, so the forked path shows one call and the inline path two; checks
    afterwards that no child process is left."""
    calls = []
    real = corpus._count_tokens

    def counted(tweets, config):
        calls.append(len(tweets))
        return real(tweets, config)

    with mock.patch.object(workers, "_two_cpus", lambda: path == "forked"), \
            mock.patch.object(corpus, "BATCH_LINES", 2), \
            mock.patch.object(corpus, "_count_tokens", counted):
        yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def expected_count_calls(path, n_distinct):
    """The sizes count_path yields for n_distinct tweets: one batch is
    counted whole; more are cut after half of the batches."""
    cut = -(-n_distinct // 2) // 2 * 2
    if not cut:
        return [n_distinct]
    return [cut] if path == "forked" else [cut, n_distinct - cut]


def _assert_same_scan(lines, lowercase, min_count):
    n_distinct = len({line.strip() for line in lines})
    for path in COUNT_PATHS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty after cutoff
            with count_path(path) as calls:
                got_vocab, got_stats = scan_corpus(lines, lowercase, min_count)
            want_vocab, want_stats = scan_corpus_per_line(lines, lowercase, min_count)
        assert calls == expected_count_calls(path, n_distinct)
        assert got_stats == want_stats
        assert got_vocab.tokens == want_vocab.tokens
        assert got_vocab.freqs == want_vocab.freqs


_SPACES = [" ", "\t", "\u2000", "\u2001", "\u3000", "\u0085", "\x1c", "\xa0"]
_MARKS = ["\u0301", "\u0308", "\u0327"]
_FRAGMENTS = (
    _SPACES
    + _MARKS
    + [sp + mark for sp in (" ", "\u3000") for mark in _MARKS]
    + ["a", "e", "x", "X", "D", "n", "É", "ß", "İ", "_", "e\u0301", "\u1100\u1161"]
    + ["\u200d", "\U0001F469", "\U0001F467", "\U0001F44D", "\U0001F3FD"]
    + ["\ufe0f", "\u20e3", "5\ufe0f\u20e3", "#\u20e3", "\U0001F1EA", "\U0001F1F8"]
    + ["xD", "D:", ":)", ":-(", "<3", "^_^"]
    + ["https://", "www.", "@", "#", "3.5", "3", ",", ".", "/"]
)
_LINE = st.lists(st.sampled_from(_FRAGMENTS), max_size=14).map("".join)
_PAD = st.lists(st.sampled_from(_SPACES), max_size=2).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans(), st.integers(1, 3))
def test_scan_corpus_equals_per_line_scan(data, lowercase, min_count):
    pool = data.draw(st.lists(_LINE, min_size=1, max_size=6))
    # duplicates that differ only in surrounding whitespace
    lines = data.draw(
        st.lists(
            st.tuples(_PAD, st.sampled_from(pool), _PAD).map("".join), max_size=12
        )
    )
    _assert_same_scan(lines, lowercase, min_count)


@pytest.mark.parametrize("lowercase", [True, False])
def test_scan_corpus_equals_per_line_scan_on_chunk_edges(lowercase):
    lines = [
        "xD\u3000D:\txDado aD: Dx",
        "\u0301a e\u0301\u00a0\u0308b \u1100\u1161",
        "\U0001F469\u200d\U0001F467 \u200d\U0001F467 \U0001F44D\U0001F3FD \U0001F3FD",
        "5\ufe0f\u20e3 \u20e3 \U0001F1EA\U0001F1F8\U0001F1EA \U0001F1F8",
        "https://x.co/A\u2000www.B @Ana#Tag 3.5 3,5. x:)",
        "  xD\u3000D:\txDado aD: Dx\x1c",
        "Hola\u0085hola\x1cHOLA",
    ]
    _assert_same_scan(lines, lowercase, 1)


# -------------------------------------------------------- corpus reading

def test_iter_corpus_lines_warns_on_replaced_bytes(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"hola \xff mundo\n\xfe\xfe ok\r\nfin \xe2\x82")
    with pytest.warns(UserWarning) as record:
        lines = list(iter_corpus_lines(p))
    # the lines are exactly what errors="replace" in text mode gives
    with open(p, encoding="utf-8", errors="replace") as fh:
        assert lines == [line.rstrip("\n") for line in fh]
    assert lines == ["hola \ufffd mundo", "\ufffd\ufffd ok", "fin \ufffd"]
    messages = [str(w.message) for w in record]
    assert len(messages) == 1
    assert str(p) in messages[0] and " 4 " in messages[0]


def test_iter_corpus_lines_counts_per_file_when_interleaved(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_bytes(b"\xff\nok\n")
    b.write_bytes(b"ok\n\xff\xff \xfe\n")
    with pytest.warns(UserWarning) as record:
        pairs = list(zip(iter_corpus_lines(a), iter_corpus_lines(b)))
    assert len(pairs) == 2
    messages = sorted(str(w.message) for w in record)
    assert messages == [
        f"{a}: 1 invalid UTF-8 byte sequence(s) replaced by U+FFFD",
        f"{b}: 3 invalid UTF-8 byte sequence(s) replaced by U+FFFD",
    ]


def test_iter_corpus_lines_clean_file_is_silent(tmp_path):
    p = tmp_path / "ok.txt"
    p.write_text("hola \ufffd literal\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(iter_corpus_lines(p)) == ["hola \ufffd literal"]


# Pieces of the byte strings the reader is checked on: every line ending,
# invalid and truncated sequences, an encoded surrogate, a 4-byte emoji and
# a literal U+FFFD.
_PIECES = [
    b"a", b"Z", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\xc3\xa9", b"\xe2\x82\xac",
    b"\xf0\x9f\x98\x82", b"\xef\xbf\xbd", b"\xff", b"\x80", b"\xe2\x82",
    b"\xf0\x9f", b"\xed\xa0\x80", b"\xc0\xaf",
]
_BYTES = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=40).map(b"".join),
    st.binary(max_size=40),
)


def _byte_lines(data: bytes) -> list:
    """The lines of `data` as universal newlines end them, as bytes."""
    return re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", data)


def _invalid_sequences(data: bytes) -> int:
    """The number of ill-formed sequences errors="replace" replaces."""
    count = 0
    while True:
        try:
            data.decode("utf-8")
            return count
        except UnicodeDecodeError as exc:
            count += 1
            data = data[exc.end :]


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_BYTES)
def test_read_lines_strict_is_text_mode_or_names_the_first_bad_byte(tmp_path, data):
    p = tmp_path / "f.txt"
    p.write_bytes(data)
    got = []
    try:
        with open(p, encoding="utf-8") as fh:
            want = list(fh)
    except UnicodeDecodeError:
        with pytest.raises(ValueError) as err:
            got.extend(read_lines(p))
        raw = _byte_lines(data)
        for n, line in enumerate(raw, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                column = exc.start
                break
        # the lines before the bad one come first, as text mode reads them
        assert got == [
            line.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            for line in raw[: n - 1]
        ]
        assert str(err.value) == (
            f"{p}: line {n}: invalid UTF-8 byte {raw[n - 1][column]:#04x} at "
            f"column {column + 1}"
        )
    else:
        assert list(read_lines(p)) == want


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_BYTES)
def test_read_lines_replace_is_text_mode_and_counts_its_replacements(
    tmp_path, data
):
    p = tmp_path / "f.txt"
    p.write_bytes(data)
    with open(p, encoding="utf-8", errors="replace") as fh:
        want = list(fh)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert list(read_lines(p, replace=True)) == want
        assert list(iter_corpus_lines(p)) == [line.rstrip("\n") for line in want]
    n = _invalid_sequences(data)
    message = f"{p}: {n} invalid UTF-8 byte sequence(s) replaced by U+FFFD"
    assert [str(w.message) for w in record] == [message] * 2 * (n > 0)


def test_read_lines_counts_each_file_when_threads_interleave(tmp_path):
    # with one count for the process, a clean file read while another
    # thread read a broken one was reported with hundreds of replacements
    clean, broken = tmp_path / "clean.txt", tmp_path / "broken.txt"
    clean.write_bytes(b"hola mundo\n" * 200_000)
    broken.write_bytes(b"\xff x\n" * 5000)

    def read_clean():
        for _ in iter_corpus_lines(clean):
            pass

    def read_broken():
        for _ in range(20):
            for _ in iter_corpus_lines(broken):
                pass
            if not reader.is_alive():
                break

    reader = threading.Thread(target=read_clean)
    other = threading.Thread(target=read_broken)
    interval = sys.getswitchinterval()
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            other.start()
            for thread in (reader, other):
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not reader.is_alive() and not other.is_alive()
    messages = {str(w.message) for w in record}
    assert messages == {
        f"{broken}: 5000 invalid UTF-8 byte sequence(s) replaced by U+FFFD"
    }


def test_read_lines_numbers_lines_as_it_yields_them(tmp_path):
    # "\r" ends a line: the bad byte is on the third line the reader
    # yields, not in the first "\n"-terminated run of bytes
    path = tmp_path / "v.tsv"
    path.write_bytes(b"a\t5\tword\rb\t4\tword\rc\xff\t3\tword\r")
    with pytest.raises(ValueError) as err:
        read_vocab_tsv(path)
    assert str(err.value) == f"{path}: line 3: invalid UTF-8 byte 0xff at column 2"


def test_read_lines_reports_errors_in_file_order(tmp_path):
    # text mode decodes a whole chunk before it yields a line of it, so the
    # bad byte on line 3 hid the duplicate token on line 2
    path = tmp_path / "v.tsv"
    path.write_bytes(b"a\t5\tword\na\t4\tword\nc\xff\t3\tword\n")
    with pytest.raises(ValueError) as err:
        read_vocab_tsv(path)
    assert str(err.value) == (
        f"{path}: line 2: duplicate token 'a' (first on line 1)"
    )


@pytest.mark.parametrize(
    "reader, content",
    [
        ("read_vocab_tsv", b"a\t5\tword\na\t4\tword\n" + b"b\t1\tword\n" * 5000),
        ("load_test_dictionary", b"a b\nc\n" + b"d e\n" * 5000),
        ("load_embeddings", b"3 1\na\nb 1.0\n" + b"c 1.0\n" * 5000),
        ("load_sentiment_tsv", b"positive\tbien \xff\nno tab\n" + b"x\ty\n" * 5000),
        ("read_lines", b"ok\n\xff\n" + b"ok\n" * 5000),
    ],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_a_reader_stopped_by_an_error_has_closed_its_file(
    tmp_path, monkeypatch, reader, content
):
    # the file is closed when the error leaves the reader, while the
    # traceback still holds the reader's frames, not when the garbage
    # collector finalizes a suspended generator: so no ResourceWarning,
    # whatever order the collector takes
    path = tmp_path / "in.txt"
    path.write_bytes(content)
    vocab = Vocabulary(["a"], [1])
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(corpus, "open", spy, raising=False)
    call = {
        "read_vocab_tsv": lambda: read_vocab_tsv(path),
        "load_test_dictionary": lambda: xlembed.load_test_dictionary(path, vocab, vocab),
        "load_embeddings": lambda: xlembed.load_embeddings(path),
        "load_sentiment_tsv": lambda: xlembed.load_sentiment_tsv(path),
        "read_lines": lambda: list(read_lines(path)),
    }[reader]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{path}: line 2: ") as err:
            call()
        assert len(opened) == 1 and opened[0].closed
        del err, opened[:]
        gc.collect()
    assert not [w for w in record if issubclass(w.category, ResourceWarning)]


# ------------------------------------------------------ output files

@pytest.mark.parametrize(
    "error, filename",
    [
        (OSError(28, "No space left on device"), "{path}"),
        (OSError(28, "No space left on device", "other.txt"), "other.txt"),
        (OSError("no errno"), None),
    ],
    ids=["errno", "named", "no-errno"],
)
def test_open_output_names_the_file_of_an_unnamed_errno_error(
    tmp_path, error, filename
):
    # an error without an errno keeps its message: a filename would print
    # "[Errno None] None: '<path>'"
    path = tmp_path / "out.txt"
    message = str(error)
    with pytest.raises(OSError) as got:
        with corpus.open_output(path) as fh:
            fh.write("x")
            raise error
    assert got.value is error
    assert error.filename == (filename and filename.format(path=path))
    if filename is None:
        assert str(error) == message
    # the filename survives the pickle that brings a worker's error back
    back = pickle.loads(pickle.dumps(error))
    assert (back.errno, back.filename, str(back)) == (
        error.errno, error.filename, str(error)
    )


# ------------------------------------------------------- vocab TSV

def test_vocab_tsv_round_trip(tmp_path):
    vocab = build_vocabulary(["si", "no", "si", "5", "\U0001F602"], min_count=1)
    path = tmp_path / "v.tsv"
    write_vocab_tsv(vocab, path)
    back = read_vocab_tsv(path)
    assert back.tokens == vocab.tokens
    assert back.freqs == vocab.freqs
    rows = [line.split("\t") for line in path.read_text("utf-8").splitlines()]
    assert [cls for _, _, cls in rows] == [
        classify_token(tok).value for tok in vocab.tokens
    ]


def test_read_vocab_tsv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("si\t3\nno\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_vocab_tsv(path)
    assert "2" in str(err.value)  # names the offending line


def test_read_vocab_tsv_rejects_undecodable_bytes(tmp_path):
    # with replacement decoding both tokens became U+FFFD and the error was
    # a bare "duplicate tokens"
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"ok\t3\tword\n\xff\t2\tword\n\xfe\t1\tword\n")
    with pytest.raises(ValueError) as err:
        read_vocab_tsv(path)
    msg = str(err.value)
    assert str(path) in msg and "line 2" in msg and "0xff" in msg


def test_read_vocab_tsv_duplicate_names_file_and_lines(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("si\t3\tword\nno\t2\tword\nsi\t1\tword\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_vocab_tsv(path)
    msg = str(err.value)
    assert str(path) in msg and "line 3" in msg and "line 1" in msg
    assert "'si'" in msg


def test_read_vocab_tsv_rejects_negative_count_keeps_zero(tmp_path):
    # a negative count would become a negative averaging weight through a
    # sidecar and a negative corpus total
    path = tmp_path / "neg.tsv"
    path.write_text("mundo\t3\tword\nhola\t-5\tword\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_vocab_tsv(path)
    assert str(err.value) == f"{path}: line 2: negative count field '-5'"
    path.write_text("mundo\t3\tword\nhola\t0\tword\n", encoding="utf-8")
    vocab = read_vocab_tsv(path)
    assert vocab.freqs == [3, 0]


def test_read_vocab_tsv_rejects_an_unknown_class_name(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_text("mundo\t3\tword\nhola\t2\tverb\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_vocab_tsv(path)
    assert str(err.value) == f"{path}: line 2: unknown token class 'verb'"


def test_read_vocab_tsv_warns_once_on_classes_other_than_the_tokens(tmp_path):
    # the class column is checked, not kept: one warning per file gives the
    # count and the first row whose class is not classify_token's
    path = tmp_path / "v.tsv"
    path.write_text(
        "si\t3\tword\n5\t2\temoji\n\U0001F602\t1\tword\n", encoding="utf-8"
    )
    with pytest.warns(UserWarning) as caught:
        vocab = read_vocab_tsv(path)
    assert [str(w.message) for w in caught] == [
        f"{path}: 2 of 3 rows list a class other than their token's (first on "
        f"line 2: '5' listed as 'emoji', classified 'numeral'); the class "
        f"comes from the token, not from this column"
    ]
    assert vocab.tokens == ["si", "5", "\U0001F602"]
    assert vocab.freqs == [3, 2, 1]
