"""Seeded input generator for the benchmark workloads (numpy only).

Everything here runs untimed, before any measured command starts. The same
seed gives byte-identical inputs. xlembed is deliberately not imported: the
inputs must not change when the library under test changes.

Embedding pairs follow the partial-overlap construction of the test suite's
`overlap_benchmark`: identical token strings (numerals, emoji, shared
words) plus language-specific tokens `sa#####` / `sb#####` whose gold
translations are row-aligned; the target space is the source space under a
random orthogonal map plus Gaussian noise, rows re-normalized.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np

# Embedding-pair sizes shared by both 10k workloads.
N_SHARED = 2000
N_UNIQUE = 8000
DIM = 300
# At 10k x 300, noise 0.10 saturates Procrustes P@1 at 100, so the P@k
# figures could not show an accuracy loss; 0.15 gives P@1 near 75-80.
NOISE = 0.15
N_TEST = 2000
N_SENT_TRAIN = 2000
N_SENT_TEST = 500

# Corpus sizes for the vocabulary workload.
N_TWEETS = 200_000
DUPLICATE_FRACTION = 0.10
N_WORD_TYPES = 60_000
ZIPF_EXPONENT = 1.1

_EMOTICONS = (":)", ":-)", ":(", ";)", ":D", ":P", "<3", "^_^", "-_-", ":'(", "xD", ":/")
_SKIN_TONES = [chr(c) for c in range(0x1F3FB, 0x1F400)]
_ZWJ_SEQUENCES = (
    "\U0001F468\u200d\U0001F469\u200d\U0001F467",  # family
    "\U0001F469\u200d\U0001F4BB",                    # woman technologist
    "\U0001F3F3\ufe0f\u200d\U0001F308",             # rainbow flag
    "\U0001F441\ufe0f\u200d\U0001F5E8\ufe0f",      # eye in speech bubble
)
_FLAGS = ("\U0001F1E9\U0001F1EA", "\U0001F1EC\U0001F1E7", "\U0001F1EA\U0001F1F8",
          "\U0001F1EB\U0001F1F7", "\U0001F1EF\U0001F1F5", "\U0001F1E7\U0001F1F7")
_SYLLABLES = ("ka", "lo", "mi", "ne", "su", "ta", "ri", "po", "de", "an", "el",
              "or", "ba", "gu", "zi", "ve", "sh", "th", "qu", "ex")


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def describe_inputs(root: Path) -> dict:
    """Size and SHA-256 of every generated input file under root.

    Each file is also flushed to disk, so that write-back of the inputs
    does not overlap the timed runs."""
    for p in root.iterdir():
        with open(p, "rb") as fh:
            os.fsync(fh.fileno())
    return {
        p.name: {"bytes": p.stat().st_size, "sha256": _digest(p)}
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def _unit_gaussian_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _shared_tokens(n_shared):
    n_num = n_shared // 5
    n_emo = n_shared // 5
    numerals = [str(1000 + i) for i in range(n_num)]
    emoji = [chr(0x1F400 + i) for i in range(n_emo)]
    words = [f"w{i:05d}" for i in range(n_shared - n_num - n_emo)]
    classes = ["numeral"] * n_num + ["emoji"] * n_emo + ["word"] * len(words)
    return numerals + emoji + words, classes


def _write_vec(path: Path, tokens, matrix) -> None:
    n, d = matrix.shape
    row_fmt = " ".join(["%.6f"] * d)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {d}\n")
        for tok, row in zip(tokens, matrix):
            fh.write(tok + " " + row_fmt % tuple(row) + "\n")


def _write_vocab(path: Path, tokens, freqs, classes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok, f, c in zip(tokens, freqs, classes):
            fh.write(f"{tok}\t{int(f)}\t{c}\n")


def _write_sentences(path, rows, tokens, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idx, label in zip(rows, labels):
            fh.write(label + "\t" + " ".join(tokens[i] for i in idx) + "\n")


def embedding_pair(root: Path, seed: int, with_sentiment: bool) -> dict:
    """Write src/tgt spaces, sidecar vocabularies, a held-out gold test
    dictionary and, optionally, a sentiment train/test pair.

    Sentiment polarity is a hidden direction in the *source* space; the
    probe trains on source-token sentences and is tested on target-token
    sentences, so test accuracy measures how well the aligned target space
    matches the source space.
    """
    rng = np.random.default_rng(seed)
    shared, shared_classes = _shared_tokens(N_SHARED)
    src_tokens = shared + [f"sa{i:05d}" for i in range(N_UNIQUE)]
    tgt_tokens = shared + [f"sb{i:05d}" for i in range(N_UNIQUE)]
    classes = shared_classes + ["word"] * N_UNIQUE
    n = N_SHARED + N_UNIQUE
    x = _unit_gaussian_rows(rng, n, DIM)
    y = x @ _random_orthogonal(rng, DIM) + NOISE * rng.normal(size=(n, DIM))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    freqs = np.arange(n, 0, -1, dtype=np.int64)

    _write_vec(root / "src.vec", src_tokens, x)
    _write_vec(root / "tgt.vec", tgt_tokens, y)
    _write_vocab(root / "src_vocab.tsv", src_tokens, freqs, classes)
    _write_vocab(root / "tgt_vocab.tsv", tgt_tokens, freqs, classes)

    held = np.sort(rng.choice(N_UNIQUE, size=N_TEST, replace=False)) + N_SHARED
    with open(root / "gold.txt", "w", encoding="utf-8") as fh:
        for i in held:
            fh.write(f"{src_tokens[i]} {tgt_tokens[i]}\n")

    if with_sentiment:
        # Polar tokens lie in the top and bottom decile of the source rows'
        # projection on a hidden direction; each sentence carries three
        # tokens of its label's polarity among neutral fillers, and labels
        # alternate so both classes are exactly balanced.
        proj = x @ _unit_gaussian_rows(rng, 1, DIM)[0]
        order = np.argsort(proj, kind="stable")
        decile = n // 10
        polar = {"negative": order[:decile], "positive": order[-decile:]}
        for name, count, tokens in (
            ("sent_train.tsv", N_SENT_TRAIN, src_tokens),
            ("sent_test.tsv", N_SENT_TEST, tgt_tokens),
        ):
            labels = ["positive", "negative"] * (count // 2)
            rows = [
                rng.permutation(np.concatenate([
                    rng.choice(polar[label], size=3),
                    rng.integers(0, n, size=int(rng.integers(2, 8))),
                ]))
                for label in labels
            ]
            _write_sentences(root / name, rows, tokens, labels)
    return {"n": n, "dim": DIM, "noise": NOISE, "test_entries": N_TEST}


def _zipf_words(n_types):
    """Distinct pseudo-words from syllables; each word is unique by index."""
    words = []
    n_syl = len(_SYLLABLES)
    for i in range(n_types):
        parts, v = [], i
        while True:
            parts.append(_SYLLABLES[v % n_syl])
            v //= n_syl
            if v == 0:
                break
        words.append("".join(parts))
    return words


def tweet_corpus(root: Path, seed: int) -> dict:
    """Write a tweet corpus of N_TWEETS lines, about DUPLICATE_FRACTION of
    them exact copies of earlier lines. Words follow a Zipf law; tweets
    mix in mentions, hashtags, URLs, numerals, emoticons and emoji
    (single, skin-tone, ZWJ sequences and flags). Returns the number of
    distinct lines, which `xlembed vocab` must report as its tweet count.
    """
    rng = np.random.default_rng(seed)
    words = _zipf_words(N_WORD_TYPES)
    ranks = np.arange(1, N_WORD_TYPES + 1, dtype=np.float64)
    p = ranks ** -ZIPF_EXPONENT
    p /= p.sum()

    n_dup = int(N_TWEETS * DUPLICATE_FRACTION)
    n_base = N_TWEETS - n_dup
    lengths = rng.integers(4, 13, size=n_base)
    word_ids = rng.choice(N_WORD_TYPES, size=int(lengths.sum()), p=p)
    extras = rng.integers(0, 16, size=(n_base, 3))
    extra_vals = rng.integers(0, 100_000, size=(n_base, 3))
    capital = rng.random(size=n_base) < 0.2

    base = []
    pos = 0
    for i in range(n_base):
        m = int(lengths[i])
        toks = [words[j] for j in word_ids[pos : pos + m]]
        pos += m
        if capital[i]:
            toks[0] = toks[0].capitalize()
        for slot in range(3):
            kind, v = int(extras[i, slot]), int(extra_vals[i, slot])
            if kind == 0:
                toks.append(f"@user{v % 5000}")
            elif kind == 1:
                toks.append(f"#tag{v % 2000}")
            elif kind == 2:
                toks.append(f"https://t.co/{v:05x}")
            elif kind == 3:
                toks.append(str(v % 3000))
            elif kind == 4:
                toks.append(_EMOTICONS[v % len(_EMOTICONS)])
            elif kind == 5:
                toks.append(chr(0x1F600 + v % 80))
            elif kind == 6:
                toks.append("\U0001F44D" + _SKIN_TONES[v % len(_SKIN_TONES)])
            elif kind == 7:
                toks.append(_ZWJ_SEQUENCES[v % len(_ZWJ_SEQUENCES)])
            elif kind == 8:
                toks.append(_FLAGS[v % len(_FLAGS)])
        base.append(" ".join(toks))

    dup_src = rng.integers(0, n_base, size=n_dup)
    lines = base + [base[int(j)] for j in dup_src]
    order = rng.permutation(len(lines))
    with open(root / "corpus.txt", "w", encoding="utf-8") as fh:
        for j in order:
            fh.write(lines[j] + "\n")
    distinct = len({line.strip() for line in lines})
    return {"tweets": len(lines), "distinct_tweets": distinct}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
