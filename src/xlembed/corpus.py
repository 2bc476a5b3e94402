"""Tweet corpus processing: tokenization, token classing, vocabularies.

Input corpora are plain text, one tweet per line, UTF-8. Tokens fall into
four classes (numeral, emoji, emoticon, word), which classify_token decides
from the token string alone; the class drives how the synthetic bilingual
dictionaries are filtered later on.
"""

import io
import os
import re
import unicodedata
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator

from .emoji_data import (
    EMOJI_CLUSTER_PATTERN,
    EMOTICON_PATTERN,
    EMOTICON_SET,
    is_emoji_token,
)


class TokenClass(Enum):
    NUMERAL = "numeral"
    EMOJI = "emoji"
    EMOTICON = "emoticon"
    WORD = "word"


CLASS_BY_NAME = {c.value: c for c in TokenClass}


def parse_classes(names) -> set:
    """Token classes for the given names. No name at all, or an unknown
    name, raises a ValueError that lists the valid ones."""
    valid = f"valid names: {', '.join(CLASS_BY_NAME)}"
    if not names:
        raise ValueError(f"must name at least one token class, got []; {valid}")
    unknown = [n for n in names if n not in CLASS_BY_NAME]
    if unknown:
        raise ValueError(f"unknown token class(es) {unknown}; {valid}")
    return {CLASS_BY_NAME[n] for n in names}


# Alternation order defines precedence: URLs, mentions and hashtags stay
# whole; emoticons beat single punctuation; emoji clusters beat the
# catch-all; numbers beat words so "3.5" stays one token.
_TOKEN_RE = re.compile(
    r"(?P<url>(?:https?://|www\.)\S+)"
    r"|(?P<mention>@\w+)"
    r"|(?P<hashtag>#\w+)"
    rf"|(?P<emoticon>{EMOTICON_PATTERN})"
    rf"|(?P<emoji>{EMOJI_CLUSTER_PATTERN})"
    r"|(?P<number>[0-9]+(?:[.,][0-9]+)?)"
    r"|(?P<word>\w+)"
    r"|(?P<punct>\S)"
)

_CASED_GROUPS = {"url", "mention", "hashtag", "word", "number", "punct"}

_NUMERAL_RE = re.compile(r"[0-9]+(?:[.,][0-9]+)?\Z")


def tokenize(line: str, lowercase: bool = True) -> list[str]:
    """Split one tweet into tokens.

    Emoji grapheme clusters and lexicon emoticons are kept whole and never
    case-folded; URLs, @-mentions and #-hashtags are single tokens; all
    other tokens are NFC-normalized, and lowercased when `lowercase`.
    """
    text = unicodedata.normalize("NFC", line)
    out = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        if lowercase and m.lastgroup in _CASED_GROUPS:
            tok = tok.lower()
        out.append(tok)
    return out


def classify_token(token: str) -> TokenClass:
    """Assign the token class; precedence numeral > emoji > emoticon > word."""
    if _NUMERAL_RE.match(token):
        return TokenClass.NUMERAL
    if is_emoji_token(token):
        return TokenClass.EMOJI
    if token in EMOTICON_SET:
        return TokenClass.EMOTICON
    return TokenClass.WORD


@dataclass
class Vocabulary:
    """Ordered token list with per-token frequency. A token's class is not
    stored: classify_token gives it from the token string.

    Row indices of embedding matrices refer to positions in `tokens`.
    Vocabularies built by build_vocabulary are ordered by descending
    frequency with lexicographic tie-breaking; vocabularies read back from
    files keep the file order.
    """

    tokens: list[str]
    freqs: list[int]
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.tokens) != len(self.freqs):
            raise ValueError("vocabulary fields have mismatched lengths")
        self.freqs = list(map(int, self.freqs))
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


@dataclass(frozen=True)
class CorpusStats:
    n_tweets: int
    n_duplicates: int
    n_tokens: int
    n_unique: int


def build_vocabulary(tokens: Iterable[str], min_count: int = 5) -> Vocabulary:
    """Count a token stream into a Vocabulary, dropping rare tokens."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    return vocabulary_from_counts(Counter(tokens), min_count)


def vocabulary_from_counts(counts: Counter, min_count: int = 5) -> Vocabulary:
    """The Vocabulary of the tokens counted at least min_count times, by
    descending count, ties in token order."""
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    if not kept:
        warnings.warn("vocabulary is empty after min-count cutoff")
    return Vocabulary(tokens=kept, freqs=[counts[t] for t in kept])


def read_lines(path, replace: bool = False, error=ValueError) -> Iterator[str]:
    """The lines of the UTF-8 file at `path`, as open(path, encoding="utf-8")
    yields them: "\\n", "\\r" and "\\r\\n" each end a line and read as "\\n";
    only an unterminated last line lacks it. Every input file is decoded
    here.

    An undecodable byte raises `error` (ValueError, or a subclass of it),
    naming the line and the byte's column, when the iteration reaches that
    line; the lines before it come first, so the errors of a reader show in
    file order. With `replace`, each ill-formed sequence reads as one
    U+FFFD, as errors="replace" gives it, and one warning gives the file
    and their count when the iteration ends.
    """
    errors = "replace" if replace else "strict"
    replaced = 0
    try:
        with open(path, "rb") as fh:
            added = 0  # lines that a "\r" inside a byte line added
            for lineno, raw in enumerate(fh, start=1):
                try:
                    text = raw.decode("utf-8", errors)
                except UnicodeDecodeError as exc:
                    head = raw[: exc.start]
                    start = head.rfind(b"\r") + 1
                    yield from io.StringIO(head[:start].decode("utf-8"), newline=None)
                    lineno += added + head.count(b"\r")
                    raise error(
                        f"{path}: line {lineno}: invalid UTF-8 byte "
                        f"{raw[exc.start]:#04x} at column {exc.start - start + 1}"
                    ) from None
                if replace and "\ufffd" in text:
                    # a U+FFFD already in the file is not a replacement
                    replaced += text.count("\ufffd") - raw.count(b"\xef\xbf\xbd")
                if "\r" in text:
                    lines = io.StringIO(text, newline=None).readlines()
                    added += len(lines) - 1
                    yield from lines
                else:
                    yield text
    finally:
        if replaced:
            warnings.warn(
                f"{path}: {replaced} invalid UTF-8 byte sequence(s) replaced "
                f"by U+FFFD"
            )


def iter_corpus_lines(path: str) -> Iterator[str]:
    """The lines of a corpus without their "\\n", read by read_lines with
    `replace`: each undecodable byte sequence becomes one U+FFFD, and one
    warning names the file and the number of sequences replaced. Lines end
    at "\\n", "\\r" and "\\r\\n"."""
    for line in read_lines(path, replace=True):
        yield line.rstrip("\n")


# Lines read and deduplicated, and distinct tweets counted, per batch.
BATCH_LINES = 4096


def count_corpus(
    lines: Iterable[str], lowercase: bool = True
) -> tuple[Counter, CorpusStats]:
    """Deduplicate tweets, tokenize, and count: the token counts and the
    corpus statistics.

    Duplicate tweet lines (exact match after trimming surrounding
    whitespace) are dropped before counting; the first occurrence is kept.
    When the distinct tweets fill more than one batch of BATCH_LINES, the
    second half of the batches is counted in a forked worker while this
    process counts the first half (workers.in_worker), and the two counts are
    added; the result is the same either way.
    """
    # imported before the first line is read: on Python >= 3.12 the import
    # adds a warning filter, and adding one clears every once-per-place
    # warning registry, so a warning issued earlier would show again
    from .workers import in_worker

    distinct: dict = {}
    n_lines = 0
    it = iter(lines)
    while block := list(islice(it, BATCH_LINES)):
        n_lines += len(block)
        distinct.update(dict.fromkeys(map(str.strip, block)))
    kept = list(distinct)
    del distinct
    cut = -(-len(kept) // BATCH_LINES) // 2 * BATCH_LINES
    if cut:
        with in_worker(
            _count_tokens, kept[cut:], lowercase,
            what="count_corpus (second half of the distinct tweets)",
        ) as job:
            counts, n_tokens = _count_tokens(kept[:cut], lowercase)
            more, n_more = job.result()
        counts.update(more)
        n_tokens += n_more
    else:
        counts, n_tokens = _count_tokens(kept, lowercase)
    stats = CorpusStats(
        n_tweets=len(kept),
        n_duplicates=n_lines - len(kept),
        n_tokens=n_tokens,
        n_unique=len(counts),
    )
    return counts, stats


def _count_tokens(tweets: list, lowercase: bool) -> tuple[Counter, int]:
    """The token counts and the token total of the given tweets.

    No token spans whitespace, and NFC never composes across it, so the
    tweets of a batch are joined by newlines and split into whitespace-
    delimited chunks (str.strip, which trims the tweets, and str.split share
    one definition of whitespace); each distinct chunk is tokenized once and
    its tokens counted once per occurrence.
    """
    chunks: Counter = Counter()
    for start in range(0, len(tweets), BATCH_LINES):
        batch = "\n".join(tweets[start : start + BATCH_LINES])
        chunks.update(unicodedata.normalize("NFC", batch).split())
    counts: Counter = Counter()
    n_tokens = 0
    for chunk, count in chunks.items():
        toks = tokenize(chunk, lowercase)
        n_tokens += len(toks) * count
        for tok in toks:
            counts[tok] += count
    return counts, n_tokens


def scan_corpus(
    lines: Iterable[str], lowercase: bool = True, min_count: int = 5
) -> tuple[Vocabulary, CorpusStats]:
    """count_corpus, then the Vocabulary of the tokens seen at least
    min_count times."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts, stats = count_corpus(lines, lowercase)
    vocab = vocabulary_from_counts(counts, min_count) if counts else Vocabulary(
        tokens=[], freqs=[]
    )
    return vocab, stats


@contextmanager
def open_output(path, binary: bool = False):
    """The file at `path`, opened for writing: UTF-8 text, or bytes with
    `binary`. Every output file is opened here. An OSError with an errno
    but no filename, raised while the file is open (a full disk fails a
    write or the close), gets `path` as its filename, so its message names
    the file."""
    try:
        with open(path, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
    except OSError as exc:
        if exc.errno is not None and exc.filename is None:
            exc.filename = os.fspath(path)
        raise


def write_text(text: str, path) -> None:
    with open_output(path) as fh:
        fh.write(text)


def write_vocab_tsv(vocab: Vocabulary, path: str) -> None:
    """Write `token<TAB>count<TAB>class` lines; classify_token gives the
    class."""
    with open_output(path) as fh:
        for tok, freq in zip(vocab.tokens, vocab.freqs):
            fh.write(f"{tok}\t{freq}\t{classify_token(tok).value}\n")


def read_vocab_tsv(path: str) -> Vocabulary:
    """Read a UTF-8 vocabulary TSV (token, count, class), preserving file
    order. Undecodable bytes (read_lines, strict), duplicate tokens and
    unknown class names are errors naming the line; the first in file order
    is the one raised. The class column is not kept: rows whose class
    differs from classify_token(token) get one warning giving their count
    and the first one."""
    tokens: list[str] = []
    freqs: list[int] = []
    first_line: dict[str, int] = {}
    differ = []  # (line, token, listed class) of rows classify_token contradicts
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(
                f"{path}: line {lineno}: expected 3 tab-separated "
                f"fields, got {len(parts)}"
            )
        tok = parts[0]
        if tok in first_line:
            raise ValueError(
                f"{path}: line {lineno}: duplicate token {tok!r} "
                f"(first on line {first_line[tok]})"
            )
        first_line[tok] = lineno
        tokens.append(tok)
        try:
            count = int(parts[1])
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: bad count field {parts[1]!r}"
            ) from None
        if count < 0:
            raise ValueError(
                f"{path}: line {lineno}: negative count field {parts[1]!r}"
            )
        freqs.append(count)
        if parts[2] not in CLASS_BY_NAME:
            raise ValueError(
                f"{path}: line {lineno}: unknown token class {parts[2]!r}"
            )
        if CLASS_BY_NAME[parts[2]] is not classify_token(tok):
            differ.append((lineno, tok, parts[2]))
    if differ:
        lineno, tok, listed = differ[0]
        warnings.warn(
            f"{path}: {len(differ)} of {len(tokens)} rows list a class other "
            f"than their token's (first on line {lineno}: {tok!r} listed as "
            f"{listed!r}, classified {classify_token(tok).value!r}); the class "
            f"comes from the token, not from this column"
        )
    return Vocabulary(tokens=tokens, freqs=freqs)
