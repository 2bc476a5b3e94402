"""Tweet corpus processing: tokenization, token classing, vocabularies.

Input corpora are plain text, one tweet per line, UTF-8. Tokens fall into
four classes (numeral, emoji, emoticon, word); the class drives how the
synthetic bilingual dictionaries are filtered later on.
"""

import codecs
import re
import unicodedata
import warnings
from collections import Counter
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
    """Token classes for the given names; unknown names raise a ValueError
    that lists the valid ones."""
    unknown = [n for n in names if n not in CLASS_BY_NAME]
    if unknown:
        raise ValueError(
            f"unknown token class(es) {unknown}; "
            f"valid names: {', '.join(CLASS_BY_NAME)}"
        )
    return {CLASS_BY_NAME[n] for n in names}


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True


DEFAULT_TOKENIZER = TokenizerConfig()

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


def tokenize(line: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Split one tweet into tokens.

    Emoji grapheme clusters and lexicon emoticons are kept whole and never
    case-folded; URLs, @-mentions and #-hashtags are single tokens; all
    other tokens are NFC-normalized and lowercased when config.lowercase.
    """
    text = unicodedata.normalize("NFC", line)
    out = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        if config.lowercase and m.lastgroup in _CASED_GROUPS:
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
    """Ordered token list with per-token frequency and class label.

    Row indices of embedding matrices refer to positions in `tokens`.
    Vocabularies built by build_vocabulary are ordered by descending
    frequency with lexicographic tie-breaking; vocabularies read back from
    files keep the file order.
    """

    tokens: list[str]
    freqs: list[int]
    classes: list[TokenClass]
    total_tokens: int = 0   # stream total before any min-count cutoff
    n_unique: int = 0       # distinct tokens before the cutoff
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not (len(self.tokens) == len(self.freqs) == len(self.classes)):
            raise ValueError("vocabulary fields have mismatched lengths")
        self.freqs = list(map(int, self.freqs))
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        if self.total_tokens == 0:
            self.total_tokens = sum(self.freqs)
        if self.n_unique == 0:
            self.n_unique = len(self.tokens)

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
    """Build a Vocabulary from merged counts (shard merging is Counter +)."""
    total = sum(counts.values())
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    if not kept:
        warnings.warn("vocabulary is empty after min-count cutoff")
    return Vocabulary(
        tokens=kept,
        freqs=[counts[t] for t in kept],
        classes=[classify_token(t) for t in kept],
        total_tokens=total,
        n_unique=len(counts),
    )


# Replacement characters inserted by the corpus decoder in this process. A
# reader adds only the increments made between its resume and its yield,
# while no other reader in the thread can decode, so readers advanced in
# turn (e.g. zipped) each count their own file.
_replaced = [0]


def _count_replace(exc: UnicodeDecodeError):
    _replaced[0] += 1
    return "\ufffd", exc.end


codecs.register_error("xlembed.corpus.replace", _count_replace)


def iter_corpus_lines(path: str) -> Iterator[str]:
    """Yield raw tweet lines; invalid UTF-8 becomes the replacement char.

    Each undecodable byte sequence becomes one U+FFFD, and one warning names
    the file and the number of sequences replaced.
    """
    replaced = 0
    try:
        with open(path, encoding="utf-8", errors="xlembed.corpus.replace") as fh:
            before = _replaced[0]
            for line in fh:
                replaced += _replaced[0] - before
                yield line.rstrip("\n")
                before = _replaced[0]
            replaced += _replaced[0] - before
    finally:
        if replaced:
            warnings.warn(
                f"{path}: {replaced} invalid UTF-8 byte sequence(s) replaced "
                f"by U+FFFD"
            )


# Lines read and deduplicated, and distinct tweets counted, per batch.
BATCH_LINES = 4096


def count_corpus(
    lines: Iterable[str], config: TokenizerConfig = DEFAULT_TOKENIZER
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
            _count_tokens, kept[cut:], config,
            what="count_corpus (second half of the distinct tweets)",
        ) as job:
            counts, n_tokens = _count_tokens(kept[:cut], config)
            more, n_more = job.result()
        counts.update(more)
        n_tokens += n_more
    else:
        counts, n_tokens = _count_tokens(kept, config)
    stats = CorpusStats(
        n_tweets=len(kept),
        n_duplicates=n_lines - len(kept),
        n_tokens=n_tokens,
        n_unique=len(counts),
    )
    return counts, stats


def _count_tokens(tweets: list, config: TokenizerConfig) -> tuple[Counter, int]:
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
        toks = tokenize(chunk, config)
        n_tokens += len(toks) * count
        for tok in toks:
            counts[tok] += count
    return counts, n_tokens


def scan_corpus(
    lines: Iterable[str],
    config: TokenizerConfig = DEFAULT_TOKENIZER,
    min_count: int = 5,
) -> tuple[Vocabulary, CorpusStats]:
    """count_corpus, then the Vocabulary of the tokens seen at least
    min_count times."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts, stats = count_corpus(lines, config)
    vocab = vocabulary_from_counts(counts, min_count) if counts else Vocabulary(
        tokens=[], freqs=[], classes=[]
    )
    return vocab, stats


def write_vocab_tsv(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok, freq, cls in zip(vocab.tokens, vocab.freqs, vocab.classes):
            fh.write(f"{tok}\t{freq}\t{cls.value}\n")


def read_vocab_tsv(path: str) -> Vocabulary:
    """Read a UTF-8 vocabulary TSV (token, count, class), preserving file
    order. Undecodable bytes and duplicate tokens are errors naming the line."""
    tokens: list[str] = []
    freqs: list[int] = []
    classes: list[TokenClass] = []
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
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
                try:
                    classes.append(TokenClass(parts[2]))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: unknown token class {parts[2]!r}"
                    ) from None
    except UnicodeDecodeError as exc:
        raise ValueError(undecodable_line(path, exc)) from None
    return Vocabulary(tokens=tokens, freqs=freqs, classes=classes)


def undecodable_line(path, exc: UnicodeDecodeError) -> str:
    """Error text naming the first line of `path` that is not valid UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return (
                    f"{path}: line {lineno}: invalid UTF-8 byte "
                    f"{raw[bad.start]:#04x} at column {bad.start + 1}"
                )
    return f"{path}: invalid UTF-8: {exc}"
