"""Synthetic benchmark constructions shared across the test suite.

Ground truth is the construction itself: the target space is the source
space under a random orthogonal map (plus optional Gaussian noise), with
token strings shared between the two sides so identical-token supervision
applies.
"""

import numpy as np

from xlembed import EmbeddingSpace, TestDictionary, Vocabulary


def unit_gaussian_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _space(tokens, matrix, freqs) -> EmbeddingSpace:
    vocab = Vocabulary(tokens=list(tokens), freqs=np.asarray(freqs, dtype=np.int64))
    return EmbeddingSpace(vocab=vocab, matrix=matrix)


def class_tokens(n_numeral: int, n_emoji: int, n_word: int) -> list:
    """Token strings that classify as numeral / emoji / word."""
    numerals = [str(1000 + i) for i in range(n_numeral)]
    emoji = [chr(0x1F400 + i) for i in range(n_emoji)]  # pictographic block
    words = [f"w{i:05d}" for i in range(n_word)]
    return numerals + emoji + words


def rotation_benchmark(
    n: int = 5000,
    d: int = 50,
    noise: float = 0.0,
    seed: int = 0,
    with_classes: bool = False,
):
    """Shared-vocabulary rotation task.

    Both sides hold the same token strings; target rows are the source rows
    under a random orthogonal map plus optional Gaussian noise, then re-
    normalized. Gold translation of every token is itself.
    """
    rng = np.random.default_rng(seed)
    if with_classes:
        n_num = min(300, n // 10)
        n_emo = min(300, n // 10)
        tokens = class_tokens(n_num, n_emo, n - n_num - n_emo)
    else:
        tokens = [f"t{i:05d}" for i in range(n)]
    x = unit_gaussian_rows(rng, n, d)
    q = random_orthogonal(rng, d)
    y = x @ q
    if noise:
        y = y + noise * rng.normal(size=(n, d))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    freqs = np.arange(n, 0, -1, dtype=np.int64)
    return _space(tokens, x, freqs), _space(tokens, y, freqs), q


def overlap_benchmark(
    n_shared: int = 1000,
    n_unique: int = 1500,
    d: int = 50,
    noise: float = 0.05,
    seed: int = 0,
):
    """Partial-overlap task: n_shared identical token strings plus n_unique
    language-specific tokens per side (sa#### <-> sb#### are mutual gold
    translations row-for-row)."""
    rng = np.random.default_rng(seed)
    n_num = n_shared // 5
    n_emo = n_shared // 5
    shared = class_tokens(n_num, n_emo, n_shared - n_num - n_emo)
    src_tokens = shared + [f"sa{i:05d}" for i in range(n_unique)]
    tgt_tokens = shared + [f"sb{i:05d}" for i in range(n_unique)]
    n = n_shared + n_unique
    x = unit_gaussian_rows(rng, n, d)
    q = random_orthogonal(rng, d)
    y = x @ q
    if noise:
        y = y + noise * rng.normal(size=(n, d))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    freqs = np.arange(n, 0, -1, dtype=np.int64)
    src = _space(src_tokens, x, freqs)
    tgt = _space(tgt_tokens, y, freqs)
    gold = {s: t for s, t in zip(src_tokens, tgt_tokens)}
    return src, tgt, gold


def held_out_test(tokens, start: int, count: int) -> TestDictionary:
    """Identity-gold test dictionary over tokens[start : start+count]."""
    return TestDictionary(
        entries=[(t, (t,)) for t in tokens[start : start + count]]
    )


def write_pipeline_fixture(root, n=120, d=10, noise=0.02, seed=0):
    """Materialize a complete small run fixture on disk.

    Writes src/tgt embeddings (word2vec text) with sidecar vocab TSVs, a
    gold test dictionary over held-out shared tokens, a two-class sentiment
    train/test pair, and a pipeline config. Returns the config path.
    """
    import json
    from pathlib import Path

    from xlembed import save_embeddings
    from xlembed.corpus import write_vocab_tsv

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    src, tgt, gold = overlap_benchmark(
        n_shared=n // 2, n_unique=n - n // 2, d=d, noise=noise, seed=seed
    )
    save_embeddings(src, root / "src.vec")
    save_embeddings(tgt, root / "tgt.vec")
    write_vocab_tsv(src.vocab, root / "src_vocab.tsv")
    write_vocab_tsv(tgt.vocab, root / "tgt_vocab.tsv")

    shared = [t for t in src.vocab.tokens if t in tgt.vocab.index]
    held = shared[len(shared) // 2 :]
    with open(root / "gold.txt", "w", encoding="utf-8") as fh:
        for t in held:
            fh.write(f"{t} {gold[t]}\n")

    words = [t for t in shared if t.startswith("w")]
    with open(root / "sent_train.tsv", "w", encoding="utf-8") as fh:
        for i in range(8):
            fh.write(f"positive\t{words[i]} {words[i + 1]}\n")
            fh.write(f"negative\t{words[i + 20]} {words[i + 21]}\n")
    with open(root / "sent_test.tsv", "w", encoding="utf-8") as fh:
        for i in range(4):
            fh.write(f"positive\t{words[i + 2]}\n")
            fh.write(f"negative\t{words[i + 22]}\n")

    config = {
        "seed": 13,
        "src": {"embeddings": "src.vec", "vocab": "src_vocab.tsv"},
        "tgt": {"embeddings": "tgt.vec", "vocab": "tgt_vocab.tsv"},
        "normalize": ["unit", "center", "unit"],
        "dictionary": {"mode": "identical"},
        "mapper": {"method": "procrustes"},
        "refine": {"mode": "weighted"},
        "eval": {
            "translation": {"test_dictionary": "gold.txt", "ks": [1, 5, 10]},
            "sentiment": {"train": "sent_train.tsv", "test": "sent_test.tsv"},
        },
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path
