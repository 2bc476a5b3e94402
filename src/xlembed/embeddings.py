"""Dense embedding spaces: word2vec-text I/O and normalization.

All arithmetic is float64; files carry 6 decimal places. A space couples a
Vocabulary with a row-per-token matrix, so vocabulary index i always
addresses matrix row i.
"""

import warnings
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .config import CENTER_COLUMNS, DEFAULT_NORMALIZE, UNIT_ROWS
from .corpus import Vocabulary, classify_token, read_vocab_tsv, undecodable_line
from .scoring import unit_rows

# Rows per parse or format block of the word2vec-text reader and writer.
BLOCK_ROWS = 512


def _three_digit_words(point: bool) -> np.ndarray:
    """The ASCII digits of 0..999 as one 4-byte word each: "." + "ddd" when
    `point` is set, else "ddd" + NUL."""
    digits = np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")
    if point:
        columns = [np.full((1000, 1), ord(".")), digits]
    else:
        columns = [digits, np.zeros((1000, 1), dtype=digits.dtype)]
    return np.hstack(columns).astype(np.uint8).view(np.uint32).ravel()


# The six fraction digits of a value are one gather from each table.
_POINT_DIGITS3 = _three_digit_words(point=True)
_DIGITS3 = _three_digit_words(point=False)


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files; message names the line."""


@dataclass(frozen=True)
class EmbeddingSpace:
    vocab: Vocabulary
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError("embedding matrix must be 2-dimensional")
        if self.matrix.shape[0] != len(self.vocab):
            raise ValueError(
                f"matrix has {self.matrix.shape[0]} rows for "
                f"{len(self.vocab)} vocabulary tokens"
            )
        if not np.isfinite(self.matrix).all():
            raise ValueError("embedding matrix contains non-finite values")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def row(self, token: str) -> np.ndarray:
        return self.matrix[self.vocab.index[token]]


def make_space(tokens, matrix, freqs=None) -> EmbeddingSpace:
    """Convenience constructor; frequencies default to a descending proxy."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if freqs is None:
        freqs = range(len(tokens), 0, -1)
    vocab = Vocabulary(
        tokens=list(tokens),
        freqs=freqs,
        classes=[classify_token(t) for t in tokens],
    )
    return EmbeddingSpace(vocab=vocab, matrix=matrix)


def load_embeddings(path, expected_dim=None, vocab_tsv=None) -> EmbeddingSpace:
    """Parse a word2vec text file (header `n d`, rows `token v1 .. vd`).

    The file must be UTF-8. Rows are parsed BLOCK_ROWS lines at a time into
    a matrix allocated for the n rows the header declares, so scratch memory
    does not grow with the file (a header declaring more than can be
    allocated is an error naming line 1). Frequencies come from the
    sidecar vocabulary TSV when given (tokens it lacks get frequency 0, with
    one warning; sidecar tokens the file lacks are left out, with another);
    without a sidecar the file rank serves as a proxy
    (frequency := n - rank, so the first row gets n). Duplicate tokens keep
    the first occurrence, with one warning per file giving their count and
    the first duplicate's line and token. A non-blank line after the n
    declared rows is an error.
    """
    try:
        tokens, matrix = _read_word2vec(path, expected_dim)
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError(undecodable_line(path, exc)) from None
    if vocab_tsv is not None:
        side = read_vocab_tsv(vocab_tsv)
        missing = sum(t not in side.index for t in tokens)
        if missing:
            warnings.warn(
                f"{vocab_tsv}: {missing} of {len(tokens)} embedding tokens are "
                f"missing from the sidecar vocabulary; their frequency is 0"
            )
        # both token lists are free of duplicates
        absent = len(side.tokens) - (len(tokens) - missing)
        if absent:
            warnings.warn(
                f"{vocab_tsv}: {absent} of {len(side.tokens)} sidecar vocabulary "
                f"tokens are missing from {path}; they are not in the space"
            )
        freqs = [side.freqs[side.index[t]] if t in side.index else 0 for t in tokens]
        classes = [
            side.classes[side.index[t]] if t in side.index else classify_token(t)
            for t in tokens
        ]
    else:
        freqs = range(len(tokens), 0, -1)
        classes = [classify_token(t) for t in tokens]
    vocab = Vocabulary(tokens=tokens, freqs=freqs, classes=classes)
    return EmbeddingSpace(vocab=vocab, matrix=matrix)


def _read_word2vec(path, expected_dim):
    """Tokens and float64 matrix of a word2vec text file, duplicates dropped."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError(
                f"{path}: line 1: expected header 'n d', got {header.strip()!r}"
            )
        try:
            n, d = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(
                f"{path}: line 1: non-integer header fields {header.strip()!r}"
            ) from None
        if d < 1 or n < 0:
            raise EmbeddingFormatError(f"{path}: line 1: invalid header n={n} d={d}")
        if expected_dim is not None and d != expected_dim:
            raise EmbeddingFormatError(
                f"{path}: line 1: dimension {d} does not match expected {expected_dim}"
            )
        try:
            # filled block by block, so parse scratch stays one block: held
            # blocks would leave a matrix-sized hole in the malloc heap
            matrix = np.empty((n, d))
        except (MemoryError, ValueError):
            raise EmbeddingFormatError(
                f"{path}: line 1: the header declares {n} rows of {d} values, "
                f"more than can be allocated"
            ) from None
        tokens: list[str] = []
        kept = 0
        seen = set()
        duplicates = 0
        for start in range(0, n, BLOCK_ROWS):
            first = start + 2  # file line of the block's first row
            rows = min(BLOCK_ROWS, n - start)
            lines = list(islice(fh, rows))
            if len(lines) < rows:
                raise EmbeddingFormatError(
                    f"{path}: line {first + len(lines)}: "
                    f"file ends before {n} rows were read"
                )
            block_tokens, payloads = [], []
            for lineno, line in enumerate(lines, start=first):
                body = line.rstrip("\n")
                # tolerate a trailing space, common in the wild
                if body.endswith(" "):
                    body = body[:-1]
                spaces = body.count(" ")
                if spaces != d:
                    raise EmbeddingFormatError(
                        f"{path}: line {lineno}: expected token plus {d} values, "
                        f"got {spaces + 1 if body else 0} fields"
                    )
                tok, _, payload = body.partition(" ")
                block_tokens.append(tok)
                payloads.append(payload)
            block = _parse_rows(path, first, block_tokens, payloads, d)
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                i = int(np.argmin(finite))
                raise EmbeddingFormatError(
                    f"{path}: line {first + i}: non-finite value for token "
                    f"{block_tokens[i]!r}"
                )
            keep = []
            for i, tok in enumerate(block_tokens):
                if tok in seen:
                    if not duplicates:
                        first_duplicate = (first + i, tok)
                    duplicates += 1
                    continue
                seen.add(tok)
                keep.append(i)
            if len(keep) < len(block_tokens):
                block = block[keep]
                block_tokens = [block_tokens[i] for i in keep]
            tokens.extend(block_tokens)
            matrix[kept : kept + len(block)] = block
            kept += len(block)
        if duplicates:
            lineno, tok = first_duplicate
            warnings.warn(
                f"{path}: {duplicates} duplicate token row(s), the first at "
                f"line {lineno} ({tok!r}); kept the first occurrence of each"
            )
        if fh.readline().strip():
            raise EmbeddingFormatError(
                f"{path}: line {n + 2}: unexpected row after the {n} rows "
                f"the header declares"
            )
    return tokens, matrix if kept == n else matrix[:kept]


def _parse_rows(path, first, tokens, payloads, d) -> np.ndarray:
    """Parse `d` space-separated floats per payload into a (rows, d) block."""
    block = _loadtxt(payloads)
    if block is not None and block.shape == (len(payloads), d):
        return block
    # loadtxt skips blank payloads and its error rows are not file lines, so
    # parse row by row to name the first bad line
    for i, payload in enumerate(payloads):
        row = _loadtxt([payload])
        if row is None or row.shape != (1, d):
            raise EmbeddingFormatError(
                f"{path}: line {first + i}: unparseable float value for token "
                f"{tokens[i]!r}"
            )
    raise EmbeddingFormatError(
        f"{path}: lines {first}-{first + len(payloads) - 1}: unparseable float values"
    )


def _loadtxt(payloads):
    """np.loadtxt over space-separated rows, or None if a value is invalid
    or every row is blank (np.loadtxt would warn that it read no data; the
    caller's shape check names the line)."""
    if not any(p.strip() for p in payloads):
        return None
    try:
        return np.loadtxt(
            payloads, dtype=np.float64, delimiter=" ", comments=None, ndmin=2
        )
    except ValueError:
        return None


def save_embeddings(space: EmbeddingSpace, path) -> None:
    """Write word2vec text format with 6 decimal places.

    The bytes are those of `f"{v:.6f}"` for every value (`-0.000000` kept).
    Each block of BLOCK_ROWS rows is formatted by numpy (_format_block); a
    block it cannot round exactly (a value on a rounding boundary, or a
    matrix that is not float64) goes through one `%` operation, the same C
    formatter as `f"{v:.6f}"`, instead. Either way a block goes to the file
    in one write.
    """
    n, d = space.matrix.shape
    row_format = "%s " + " ".join(["%.6f"] * d) + "\n"
    tokens = space.vocab.tokens
    with open(path, "wb") as fh:
        fh.write(f"{n} {d}\n".encode())
        for start in range(0, n, BLOCK_ROWS):
            block = space.matrix[start : start + BLOCK_ROWS]
            block_tokens = tokens[start : start + len(block)]
            formatted = _format_block(block)
            if formatted is None:
                values = []
                for tok, row in zip(block_tokens, block.tolist()):
                    values.append(tok)
                    values += row
                text = row_format * len(block) % tuple(values)
                fh.write(text.encode("utf-8"))
                continue
            body, ends = formatted
            rows, begin = [], 0
            for tok, end in zip(block_tokens, ends.tolist()):
                rows += (f"{tok} ".encode("utf-8"), body[begin:end])
                begin = end
            fh.write(b"".join(rows))


def _format_block(block: np.ndarray):
    """The `%.6f` text of a (rows, d) block after each row's `token `, or None.

    Returns the bytes of all rows (values joined by spaces, each row ended by
    a newline) as one memoryview, plus the offset where each row ends; None
    when _micros cannot round some value.
    """
    micros = _micros(block)
    if micros is None:
        return None
    whole = micros // 10**6
    micros -= whole * 10**6
    frac = micros.astype(np.int32)
    del micros
    width = len(str(int(whole.max())))
    # one fixed-width cell per value: sign, integer digits, NUL pads up to a
    # 4-byte boundary, then the words ".ddd" and "ddd" + separator; the pads
    # are deleted at the end
    rows, d = block.shape
    cells = np.zeros((rows, d, -(-(width + 1) // 4) * 4 + 8), dtype=np.uint8)
    cells[..., 0] = np.signbit(block).view(np.uint8) * np.uint8(ord("-"))
    rest = whole
    for col in range(width, 0, -1):
        higher = rest // 10
        digit = rest - higher * 10 + ord("0")
        if col < width:
            digit *= rest > 0  # no leading zeros
        cells[..., col] = digit
        rest = higher
    del whole, rest, higher, digit
    words = cells.view(np.uint32)
    high = frac // 1000
    words[..., -2] = np.take(_POINT_DIGITS3, high)
    frac -= high * 1000
    words[..., -1] = np.take(_DIGITS3, frac)
    cells[:, :-1, -1] = ord(" ")
    cells[:, -1, -1] = ord("\n")
    text = cells.tobytes().translate(None, b"\0")
    ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n")) + 1
    return memoryview(text), ends


def _micros(block: np.ndarray):
    """|x| * 10**6 rounded to the integer `%.6f` prints, as int64; None if
    the block is empty, not float64, or holds a value this cannot round.

    p = x * 1e6 is within half an ulp of the exact product, so rint(p) is
    that integer unless p lies within an ulp of a half-integer (|p| * 2**-52
    bounds the ulp from above). The test catches exact binary ties
    (1/128 -> 0.007812), products that round onto a tie, every
    |p| >= 2**51 and p = inf.
    """
    if block.dtype != np.float64 or not block.size:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = block * 1e6
        rounded = np.rint(scaled)
        ulp = np.abs(scaled)
        ulp *= 2.0**-52
        scaled -= rounded
        np.abs(scaled, out=scaled)
        # distance to the nearest half-integer; NaN (p = inf) fails the test
        np.subtract(0.5, scaled, out=scaled)
        if not (scaled > ulp).all():
            return None
    return np.abs(rounded, out=rounded).astype(np.int64)


def normalize(space: EmbeddingSpace, steps=DEFAULT_NORMALIZE) -> EmbeddingSpace:
    """Apply normalization steps in order to one copy; returns a new space.

    Steps: "unit" scales every row to Euclidean norm 1 in place with
    scoring.unit_rows (an all-zero row is an error naming the token);
    "center" subtracts the column means.
    """
    matrix = space.matrix.copy()
    for step in steps:
        if step == UNIT_ROWS:
            zero = np.flatnonzero(~matrix.any(axis=1))
            if zero.size:
                raise ValueError(
                    f"cannot unit-normalize: zero-norm row for token "
                    f"{space.vocab.tokens[int(zero[0])]!r}"
                )
            unit_rows(matrix, out=matrix)
        elif step == CENTER_COLUMNS:
            matrix -= matrix.mean(axis=0)
        else:
            raise ValueError(f"unknown normalization step {step!r}")
    return replace(space, matrix=matrix)
