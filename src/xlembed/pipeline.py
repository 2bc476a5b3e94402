"""Declarative end-to-end runs: load, normalize, dictionary, align,
refine, evaluate, with a provenance trail.

A run is driven by one JSON config; identical config plus identical input
bytes must reproduce identical report bytes, so nothing time- or
path-dependent is ever written into an artifact. Run directories are
write-once: the runner refuses a non-empty directory.
"""

import json
from dataclasses import fields
from pathlib import Path
from typing import Optional

from . import __version__
from .config import (  # noqa: F401  (the schema names stay importable here)
    COSINE,
    DEFAULT_KS,
    DEFAULT_NORMALIZE,
    DICT_MODES,
    MAPPER_METHODS,
    NORMALIZE_STEPS,
    REFINE_MODES,
    REQUIRED,
    RETRIEVAL_MODES,
    SCHEMA,
    SCHEME_LABELS,
    SECTIONS,
    PipelineConfig,
    PipelineError,
    SelfLearnConfig,
    check_value,
)
from .corpus import TokenizerConfig, parse_classes
from .embeddings import load_embeddings, normalize, save_embeddings
from .lexicon import (
    build_identical_dictionary,
    exclude_identical_entries,
    filter_by_class,
    load_dictionary,
    load_test_dictionary,
    sample_seed,
    save_dictionary,
)
from .mapper import apply_mapping, reweight, save_model, self_learn, solve_procrustes
from .refine import (
    CrossLingualSpace,
    average_plain,
    average_weighted,
    meemi_transform,
)
from .reports import (
    provenance_header,
    sentiment_markdown,
    sentiment_tsv,
    translation_markdown,
    translation_tsv,
)
from .sentiment import eval_probe, load_sentiment_tsv, train_probe
from .translate import precision_at_k
from .workers import in_worker


# -- the stages, shared by run_pipeline, the CLI and the ablation grid ------

def load_pair(src, tgt):
    """Load the two spaces of a pair; each side is an (embeddings path,
    sidecar vocab path or None) pair.

    When the process can fork and may use at least 2 CPUs, a forked worker
    loads the target side while this process loads the source side
    (workers.in_worker); otherwise the two loads run in order. Either way the
    result is that of two load_embeddings calls in order: the same spaces
    (the target matrix comes back as the worker parsed it, byte for byte),
    the same warnings (the source side's first), and the source side's error
    if both fail.
    """
    with in_worker(_load, tgt, what=str(tgt[0])) as job:
        src_space = _load(src)
        tgt_space = job.result()
    return src_space, tgt_space


def _load(side):
    path, vocab_tsv = side
    return load_embeddings(path, vocab_tsv=vocab_tsv)


def normalize_pair(src, tgt, steps):
    """Apply the same normalization steps to both spaces."""
    return (normalize(src, steps), normalize(tgt, steps)) if steps else (src, tgt)


def build_dictionary(
    src_vocab, tgt_vocab, mode, file=None, classes=None, k=None, seed=None
):
    """The seed dictionary of one of DICT_MODES, optionally restricted to
    the named token classes."""
    if mode == "identical":
        dictionary = build_identical_dictionary(src_vocab, tgt_vocab)
    elif mode == "file":
        dictionary = load_dictionary(file, src_vocab, tgt_vocab)
    else:  # external-seed
        gold, _ = load_test_dictionary(file, src_vocab, tgt_vocab)
        dictionary = sample_seed(gold, k, seed, src_vocab, tgt_vocab)
    if classes:
        dictionary = filter_by_class(dictionary, parse_classes(classes))
    return dictionary


def align(src, tgt, dictionary, self_learn_config=None, reweight_s=None):
    """Procrustes, or self-learning when a config is given, then the
    optional re-weighting. Returns the model and the mapped space."""
    if self_learn_config is not None:
        model = self_learn(src, tgt, dictionary, self_learn_config)
    else:
        model = solve_procrustes(src, tgt, dictionary)
    if reweight_s is not None:
        model = reweight(model, src, tgt, dictionary, reweight_s)
    src_mapped = apply_mapping(model, src, side="src")
    tgt_mapped = apply_mapping(model, tgt, side="tgt")
    return model, CrossLingualSpace(src=src_mapped, tgt=tgt_mapped)


def refine_space(space, dictionary, mode, relative=False):
    """Apply one of REFINE_MODES to an aligned space."""
    if mode == "plain":
        return average_plain(space, dictionary)
    if mode == "weighted":
        return average_weighted(space, dictionary, relative=relative)
    if mode == "meemi":
        return meemi_transform(space, dictionary)
    return space


def evaluate_translation(
    space, test, ks, retrieval, exclude_identical=False, oov_as_wrong=False
):
    """P@k of a space on a test dictionary."""
    if exclude_identical:
        test = exclude_identical_entries(test)
    return precision_at_k(
        space, test, ks=ks, retrieval=retrieval, oov_as_wrong=oov_as_wrong
    )


def load_sentiment_pair(train, test, tokenizer, scheme=None):
    """Train and test sets; the test set takes the train set's scheme."""
    train_set = load_sentiment_tsv(train, tokenizer, scheme)
    return train_set, load_sentiment_tsv(test, tokenizer, train_set.scheme)


def evaluate_sentiment(space, train_set, test_set):
    """Train the probe on the source side, evaluate it on the target side.
    Returns the probe and its report."""
    probe = train_probe(train_set, space.src)
    return probe, eval_probe(probe, test_set, space.tgt)


def run_pipeline(config: PipelineConfig, out_dir) -> dict:
    """Execute all configured stages, writing artifacts into out_dir.

    Returns the manifest. Raises PipelineError carrying the failing stage
    and the artifacts written so far.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise ValueError(f"run directory {out} is not empty; runs are write-once")

    chash = config.config_hash()
    seed = config.get("seed")
    artifacts: list[str] = []
    prov_records: list[dict] = []

    def record(stage: str, outputs: list, **details) -> None:
        prov_records.append(
            {
                "stage": stage,
                "config_hash": chash,
                "seed": seed,
                "version": __version__,
                "outputs": outputs,
                "details": details,
            }
        )

    def write_text(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8")
        artifacts.append(name)

    def header(stage: str) -> str:
        return provenance_header(stage, chash, seed, __version__).rstrip("\n")

    stage = "config"
    try:
        write_text(
            "config.json",
            json.dumps(config.raw, sort_keys=True, indent=2) + "\n",
        )
        record(stage, ["config.json"])

        stage = "load-embeddings"
        src, tgt = load_pair(
            (config.path("src.embeddings"), config.path("src.vocab")),
            (config.path("tgt.embeddings"), config.path("tgt.vocab")),
        )
        record(
            stage, [],
            src_tokens=len(src.vocab), tgt_tokens=len(tgt.vocab), dim=src.dim,
        )

        stage = "normalize"
        steps = tuple(config.get("normalize"))
        src, tgt = normalize_pair(src, tgt, steps)
        record(stage, [], steps=list(steps))

        stage = "dictionary"
        mode = config.get("dictionary.mode")
        dictionary = build_dictionary(
            src.vocab, tgt.vocab, mode,
            file=config.path("dictionary.file"),
            classes=config.get("dictionary.classes"),
            k=config.get("dictionary.k"),
            seed=seed,
        )
        save_dictionary(dictionary, out / "dictionary.tsv")
        artifacts.append("dictionary.tsv")
        record(stage, ["dictionary.tsv"], mode=mode, pairs=len(dictionary))

        stage = "align"
        method = config.get("mapper.method")
        slc = None
        if method == "self-learn":  # each SelfLearnConfig field is a mapper key
            slc = SelfLearnConfig(**{
                f.name: config.get(f"mapper.{f.name}")
                for f in fields(SelfLearnConfig)
            })
        s = config.get("mapper.reweight_s")
        s = None if s is None else float(s)  # provenance records 1 as 1.0
        model, space = align(src, tgt, dictionary, slc, s)
        src_vocab, tgt_vocab = src.vocab, tgt.vocab
        del src, tgt  # refine and evaluation need only the vocabularies
        save_model(model, out / "model.txt")
        artifacts.append("model.txt")
        record(
            stage, ["model.txt"],
            method=method,
            iterations=model.iterations,
            dict_cosines=[round(c, 6) for c in model.dict_cosines],
            reweight_s=s,
        )

        stage = "refine"
        rmode = config.get("refine.mode")
        space = refine_space(
            space, dictionary, rmode,
            relative=config.get("refine.relative_frequencies"),
        )
        outputs = []
        if config.get("save_aligned_embeddings"):
            save_embeddings(space.src, out / "src_aligned.vec")
            save_embeddings(space.tgt, out / "tgt_aligned.vec")
            outputs = ["src_aligned.vec", "tgt_aligned.vec"]
            artifacts.extend(outputs)
        record(stage, outputs, mode=rmode, provenance=space.provenance)

        stage = "eval-translate"
        if config.has("eval.translation"):
            test, coverage = load_test_dictionary(
                config.path("eval.translation.test_dictionary"),
                src_vocab, tgt_vocab, synthetic=dictionary,
            )
            report = evaluate_translation(
                space, test,
                config.get("eval.translation.ks"),
                config.get("eval.translation.retrieval"),
                exclude_identical=config.get("eval.translation.exclude_identical"),
                oov_as_wrong=config.get("eval.translation.oov_as_wrong"),
            )
            write_text(
                "translation_report.tsv",
                translation_tsv(report, header=header(stage)),
            )
            write_text("translation_report.md", translation_markdown(report))
            record(
                stage,
                ["translation_report.tsv", "translation_report.md"],
                p_at={str(k): report.p_at[k] for k in sorted(report.p_at)},
                covered=report.covered,
                skipped=report.skipped,
                identical_rate=round(coverage.identical_rate, 6),
                containment=(
                    None if coverage.dictionary_containment is None
                    else round(coverage.dictionary_containment, 6)
                ),
            )

        stage = "eval-sentiment"
        if config.has("eval.sentiment"):
            train_set, test_set = load_sentiment_pair(
                config.path("eval.sentiment.train"),
                config.path("eval.sentiment.test"),
                TokenizerConfig(lowercase=config.get("tokenizer.lowercase")),
                config.get("eval.sentiment.scheme"),
            )
            probe, sreport = evaluate_sentiment(space, train_set, test_set)
            write_text(
                "sentiment_report.tsv",
                sentiment_tsv(sreport, header=header(stage)),
            )
            write_text("sentiment_report.md", sentiment_markdown(sreport))
            record(
                stage,
                ["sentiment_report.tsv", "sentiment_report.md"],
                accuracy=round(sreport.accuracy, 4),
                macro_f1=round(sreport.macro_f1, 4),
                final_loss=round(probe.loss_history[-1], 8),
            )
    except Exception as exc:
        _write_provenance(out, prov_records, artifacts)
        _write_manifest(out, chash, artifacts, status="error",
                        error={"stage": stage, "message": str(exc)})
        raise PipelineError(stage, exc, artifacts) from exc

    _write_provenance(out, prov_records, artifacts)
    manifest = _write_manifest(out, chash, artifacts, status="ok", error=None)
    return manifest


def _write_provenance(out: Path, records: list, artifacts: list) -> None:
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    (out / "provenance.jsonl").write_text(text, encoding="utf-8")
    artifacts.append("provenance.jsonl")


def _write_manifest(
    out: Path, chash: str, artifacts: list, status: str, error: Optional[dict]
) -> dict:
    manifest = {
        "config_hash": chash,
        "status": status,
        "error": error,
        "artifacts": sorted(set(artifacts)) + ["manifest.json"],
        "version": __version__,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest
