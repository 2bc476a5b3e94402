"""Cross-lingual word embedding alignment for social-media text.

Builds a synthetic bilingual dictionary from tokens shared verbatim by two
corpora (numerals, emoji, emoticons, spelling-identical words), learns an
orthogonal map between the two embedding spaces, optionally refines the
shared space by frequency-weighted averaging of the paired vectors, and
evaluates via word translation (P@k) and a frozen-embedding sentiment
transfer probe.
"""

__version__ = "0.1.0"

# The public names, by defining module. Each loads on first use (PEP 562),
# so `import xlembed` imports no numpy: only the numeric modules do.
_EXPORTS = {
    "config": (
        "DEFAULT_NORMALIZE",
        "PipelineConfig",
        "PipelineError",
        "SelfLearnConfig",
    ),
    "corpus": (
        "CorpusStats",
        "TokenClass",
        "Vocabulary",
        "build_vocabulary",
        "classify_token",
        "scan_corpus",
        "tokenize",
    ),
    "embeddings": (
        "EmbeddingFormatError",
        "EmbeddingSpace",
        "load_embeddings",
        "make_space",
        "normalize",
        "save_embeddings",
    ),
    "lexicon": (
        "BilingualDictionary",
        "CoverageStats",
        "TestDictionary",
        "build_identical_dictionary",
        "dictionary_from_pairs",
        "filter_by_class",
        "load_test_dictionary",
        "sample_seed",
    ),
    "mapper": (
        "AlignmentModel",
        "apply_mapping",
        "reweight",
        "self_learn",
        "solve_procrustes",
    ),
    "refine": (
        "CrossLingualSpace",
        "average_plain",
        "average_weighted",
        "meemi_transform",
    ),
    "translate": ("TranslationReport", "precision_at_k", "translate_topk"),
    "sentiment": (
        "ProbeModel",
        "SentimentDataset",
        "SentimentReport",
        "embed_sentence",
        "eval_majority",
        "eval_probe",
        "load_sentiment_tsv",
        "train_probe",
    ),
    "ablation": ("AblationTable", "run_ablation"),
    "pipeline": ("run_pipeline",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # also lets `from xlembed import pipeline` load the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_MODULE_OF})
