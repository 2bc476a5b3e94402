"""Bilingual dictionaries: synthetic identical-token pairs and gold test sets.

The synthetic dictionary pairs every token string that occurs in both
vocabularies, on the distant-supervision assumption that identical strings
(numerals, emoji, emoticons, shared words) translate to themselves. No
target-language knowledge beyond string equality is consulted.
"""

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .corpus import TokenClass, Vocabulary, classify_token, open_output, read_lines


@dataclass
class BilingualDictionary:
    src_tokens: list[str]
    tgt_tokens: list[str]
    src_indices: np.ndarray
    tgt_indices: np.ndarray
    f_src: np.ndarray
    f_tgt: np.ndarray

    def __post_init__(self):
        self.src_indices = np.asarray(self.src_indices, dtype=np.int64)
        self.tgt_indices = np.asarray(self.tgt_indices, dtype=np.int64)
        self.f_src = np.asarray(self.f_src, dtype=np.int64)
        self.f_tgt = np.asarray(self.f_tgt, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.src_tokens)

    def pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.src_tokens, self.tgt_tokens))


def dictionary_from_pairs(
    token_pairs: Iterable[tuple[str, str]],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
) -> BilingualDictionary:
    """Build a dictionary from (src token, tgt token) pairs.

    Duplicate pairs are dropped; ordering is by descending min pair
    frequency with token tie-breaking, so construction is deterministic.
    """
    uniq = list(dict.fromkeys((s, t) for s, t in token_pairs))
    uniq.sort(
        key=lambda p: (
            -min(
                src_vocab.freqs[src_vocab.index[p[0]]],
                tgt_vocab.freqs[tgt_vocab.index[p[1]]],
            ),
            p[0],
            p[1],
        )
    )
    src_tokens = [s for s, _ in uniq]
    tgt_tokens = [t for _, t in uniq]
    src_idx = [src_vocab.index[s] for s in src_tokens]
    tgt_idx = [tgt_vocab.index[t] for t in tgt_tokens]
    return BilingualDictionary(
        src_tokens=src_tokens,
        tgt_tokens=tgt_tokens,
        src_indices=src_idx,
        tgt_indices=tgt_idx,
        f_src=[src_vocab.freqs[i] for i in src_idx],
        f_tgt=[tgt_vocab.freqs[i] for i in tgt_idx],
    )


def build_identical_dictionary(
    src_vocab: Vocabulary, tgt_vocab: Vocabulary
) -> BilingualDictionary:
    """Pair every token string present in both vocabularies with itself."""
    shared = set(src_vocab.index) & set(tgt_vocab.index)
    if not shared:
        warnings.warn("no shared tokens between vocabularies; empty dictionary")
    return dictionary_from_pairs(
        ((t, t) for t in shared), src_vocab, tgt_vocab
    )


# Emoticons ride with emoji in every class-based ablation.
_CLASS_GROUPS = {
    TokenClass.EMOJI: {TokenClass.EMOJI, TokenClass.EMOTICON},
    TokenClass.EMOTICON: {TokenClass.EMOJI, TokenClass.EMOTICON},
}


def filter_by_class(
    dictionary: BilingualDictionary, keep: set
) -> BilingualDictionary:
    """Retain pairs whose source token's class (classify_token) is in
    `keep` (emoji and emoticon grouped)."""
    effective = set()
    for cls in keep:
        effective |= _CLASS_GROUPS.get(cls, {cls})
    mask = [classify_token(s) in effective for s in dictionary.src_tokens]
    idx = np.flatnonzero(mask)
    return BilingualDictionary(
        src_tokens=[dictionary.src_tokens[i] for i in idx],
        tgt_tokens=[dictionary.tgt_tokens[i] for i in idx],
        src_indices=dictionary.src_indices[idx],
        tgt_indices=dictionary.tgt_indices[idx],
        f_src=dictionary.f_src[idx],
        f_tgt=dictionary.f_tgt[idx],
    )


def save_dictionary(dictionary: BilingualDictionary, path) -> None:
    """Write `src<TAB>tgt<TAB>class<TAB>f_src<TAB>f_tgt` lines, the class
    of src by classify_token."""
    with open_output(path) as fh:
        for i in range(len(dictionary)):
            fh.write(
                f"{dictionary.src_tokens[i]}\t{dictionary.tgt_tokens[i]}\t"
                f"{classify_token(dictionary.src_tokens[i]).value}\t"
                f"{int(dictionary.f_src[i])}\t{int(dictionary.f_tgt[i])}\n"
            )


def _read_pairs(path, exact: bool) -> list[tuple[str, str]]:
    """The distinct `src tgt` pairs of a UTF-8 file of whitespace-separated
    fields, in file order. A non-blank line has exactly two fields, or with
    `exact` false at least two (the rest are ignored). Repeated pairs are
    dropped with one warning giving their count; an undecodable byte is an
    error naming the line."""
    pairs: dict = {}
    duplicates = 0
    for lineno, line in enumerate(read_lines(path), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 2 or (exact and len(fields) != 2):
            raise ValueError(
                f"{path}: line {lineno}: expected "
                f"{'' if exact else 'at least '}two fields `src tgt`, "
                f"got {len(fields)}"
            )
        pair = (fields[0], fields[1])
        if pair in pairs:
            duplicates += 1
        pairs[pair] = None
    if duplicates:
        warnings.warn(f"{path}: dropped {duplicates} duplicate `src tgt` line(s)")
    return list(pairs)


def load_dictionary(
    path, src_vocab: Vocabulary, tgt_vocab: Vocabulary
) -> BilingualDictionary:
    """Read the pairs of a dictionary file (_read_pairs; fields after the
    first two are ignored). Pairs with out-of-vocabulary tokens are skipped
    with a warning."""
    pairs = _read_pairs(path, exact=False)
    kept = [(s, t) for s, t in pairs if s in src_vocab.index and t in tgt_vocab.index]
    if len(kept) < len(pairs):
        warnings.warn(
            f"{path}: skipped {len(pairs) - len(kept)} out-of-vocabulary pairs"
        )
    return dictionary_from_pairs(kept, src_vocab, tgt_vocab)


@dataclass
class TestDictionary:
    """Gold translations: one entry per source token, merged target set."""

    __test__ = False  # not a pytest class, despite the name

    entries: list  # list of (src token, tuple of acceptable tgt tokens)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CoverageStats:
    total_entries: int
    source_coverage: float      # fraction of entries with in-vocab source
    identical_rate: float       # fraction of entries with a gold == source
    dictionary_containment: Optional[float] = None  # fraction of gold pairs in a synthetic dict


def load_test_dictionary(
    path,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    synthetic: Optional[BilingualDictionary] = None,
) -> tuple[TestDictionary, CoverageStats]:
    """Read the pairs of a gold file (_read_pairs, exactly two fields a
    line), merging the targets of each source into one entry."""
    golds: dict = {}
    for s, t in _read_pairs(path, exact=True):
        golds.setdefault(s, []).append(t)
    test = TestDictionary(entries=[(s, tuple(ts)) for s, ts in golds.items()])
    stats = coverage_stats(test, src_vocab, tgt_vocab, synthetic)
    return test, stats


def coverage_stats(
    test: TestDictionary,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    synthetic: Optional[BilingualDictionary] = None,
) -> CoverageStats:
    total = len(test)
    if total == 0:
        return CoverageStats(0, 0.0, 0.0, None)
    covered = sum(1 for s, _ in test.entries if s in src_vocab.index)
    identical = sum(1 for s, golds in test.entries if s in golds)
    containment = None
    if synthetic is not None:
        pair_set = set(zip(synthetic.src_tokens, synthetic.tgt_tokens))
        n_pairs = 0
        n_in = 0
        for s, golds in test.entries:
            for t in golds:
                n_pairs += 1
                if (s, t) in pair_set:
                    n_in += 1
        containment = n_in / n_pairs if n_pairs else 0.0
    return CoverageStats(
        total_entries=total,
        source_coverage=covered / total,
        identical_rate=identical / total,
        dictionary_containment=containment,
    )


def exclude_identical_entries(test: TestDictionary) -> TestDictionary:
    """Drop test entries whose gold set contains the source string itself
    (the stricter evaluation protocol)."""
    return TestDictionary(
        entries=[(s, g) for s, g in test.entries if s not in g]
    )


def sample_seed(
    test: TestDictionary,
    k: int,
    rng_seed: int,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
) -> BilingualDictionary:
    """Uniform sample of k supervision pairs from a gold dictionary.

    Only entries with an in-vocabulary source and at least one
    in-vocabulary target are eligible; the chosen gold target is the most
    frequent in-vocabulary one, the one with the lowest target-vocabulary
    index among equally frequent ones.
    """
    def rank(t):
        i = tgt_vocab.index[t]
        return -tgt_vocab.freqs[i], i

    eligible = []
    for s, golds in test.entries:
        if s not in src_vocab.index:
            continue
        in_vocab = [t for t in golds if t in tgt_vocab.index]
        if not in_vocab:
            continue
        best = min(in_vocab, key=rank)
        eligible.append((s, best))
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(eligible):
        raise ValueError(
            f"requested {k} seed pairs but only {len(eligible)} test entries "
            f"have both sides in vocabulary"
        )
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(len(eligible), size=k, replace=False) if k else []
    return dictionary_from_pairs(
        (eligible[int(i)] for i in chosen), src_vocab, tgt_vocab
    )
