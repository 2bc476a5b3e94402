"""Declarative end-to-end runs: load, normalize, dictionary, align,
refine, evaluate, with a provenance trail.

A run is driven by one JSON config; identical config plus identical input
bytes must reproduce identical report bytes, so nothing time- or
path-dependent is ever written into an artifact. Run directories are
write-once: the runner refuses a non-empty directory.
"""

import json
from contextlib import contextmanager, suppress
from dataclasses import fields
from pathlib import Path
from typing import Optional

from . import __version__
from .config import (
    DICT_MODES, REFINE_MODES, PipelineConfig, PipelineError, SelfLearnConfig,
)
from .corpus import parse_classes, write_text
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
    """Load the pair to align: a CrossLingualSpace of the two spaces, whose
    dimensions are checked once, when both loads have ended. Each side is
    an (embeddings path, sidecar vocab path or None) pair.

    When the process can fork and may use at least 2 CPUs, a forked worker
    loads the target side while this process loads the source side
    (workers.in_worker); otherwise the two loads run in order. Either way the
    result is that of two load_embeddings calls in order: the same spaces
    (the target matrix comes back as the worker parsed it, byte for byte),
    the same warnings (the source side's first), and the source side's error
    if both fail.
    """
    with in_worker(load_embeddings, *tgt, what=str(tgt[0])) as job:
        src_space = load_embeddings(*src)
        tgt_space = job.result()
    return CrossLingualSpace(src=src_space, tgt=tgt_space)


def save_pair(space, src_path, tgt_path, saved=lambda path: None):
    """Save the two sides of a CrossLingualSpace; the mirror of load_pair.

    When the process can fork and may use at least 2 CPUs, a forked worker
    writes the target file while this process writes the source file
    (workers.in_worker); otherwise the two saves run in order. No BLAS work
    runs meanwhile, so the two processes do not compete for the CPUs. Either
    way the bytes are those of two save_embeddings calls, and both saves
    run to the end: the worker is collected, never killed in the middle of
    its file. saved(path) is called, the source first, for each file its
    save left on disk, also when that save failed part way. If both saves
    fail, the source side's error is raised; a worker that dies raises a
    RuntimeError naming tgt_path. Two paths to one file are a ValueError,
    raised before either file is opened.
    """
    if Path(src_path).resolve() == Path(tgt_path).resolve():
        raise ValueError(
            f"{tgt_path}: the source and target embeddings would be saved to "
            f"the same file"
        )
    errors = []
    with in_worker(save_embeddings, space.tgt, tgt_path, what=str(tgt_path)) as job:
        for path, save in (
            (src_path, lambda: save_embeddings(space.src, src_path)),
            (tgt_path, job.result),
        ):
            try:
                save()
            except Exception as exc:
                errors.append(exc)
            if Path(path).exists():
                saved(path)
    if errors:
        raise errors[0]


def normalize_pair(pair, steps):
    """Apply the same normalization steps to both sides of `pair`, in place:
    each side keeps its matrix, which then holds the normalized values."""
    if steps:
        pair.src = normalize(pair.src, steps, in_place=True)
        pair.tgt = normalize(pair.tgt, steps, in_place=True)


def build_dictionary(
    src_vocab, tgt_vocab, mode, file=None, classes=None, k=None, seed=None
):
    """The seed dictionary of one of DICT_MODES, restricted to the named
    token classes unless `classes` is None (an empty list is an error).
    Modes "file" and "external-seed" read `file`."""
    if mode not in DICT_MODES:
        raise ValueError(f"dictionary mode must be one of {DICT_MODES}, got {mode!r}")
    if mode == "identical":
        dictionary = build_identical_dictionary(src_vocab, tgt_vocab)
    elif file is None:
        raise ValueError(f"dictionary mode {mode!r} needs a file")
    elif mode == "file":
        dictionary = load_dictionary(file, src_vocab, tgt_vocab)
    else:  # external-seed
        gold, _ = load_test_dictionary(file, src_vocab, tgt_vocab)
        dictionary = sample_seed(gold, k, seed, src_vocab, tgt_vocab)
    if classes is not None:
        dictionary = filter_by_class(dictionary, parse_classes(classes))
    return dictionary


def align(pair, dictionary, self_learn_config=None, reweight_s=None):
    """Procrustes, or self-learning when a config is given, then the
    optional re-weighting, of `pair` (the CrossLingualSpace of load_pair,
    normalized). Returns the model and the mapped space. align consumes
    the pair: its src and tgt become None (see CrossLingualSpace). The
    source side is mapped first and dropped before the target side is
    mapped, so when the caller holds no other reference to the normalized
    source it is freed then, and a re-weighted model, which maps both
    sides, holds at most three matrices."""
    src, tgt = pair.src, pair.tgt
    pair.src = pair.tgt = None
    if self_learn_config is not None:
        model = self_learn(src, tgt, dictionary, self_learn_config)
    else:
        model = solve_procrustes(src, tgt, dictionary)
    if reweight_s is not None:
        model = reweight(model, src, tgt, dictionary, reweight_s)
    src = apply_mapping(model, src, side="src")
    tgt = apply_mapping(model, tgt, side="tgt")
    return model, CrossLingualSpace(src=src, tgt=tgt)


# The refine stage's record of the transform each mode but "none" applies;
# the stage adds the number of dictionary pairs.
_REFINE_RECORDS = {
    "plain": dict(transform="average_plain"),
    "weighted": dict(transform="average_weighted", relative_frequencies=False),
    "weighted-relative": dict(transform="average_weighted", relative_frequencies=True),
    "meemi": dict(transform="meemi"),
}


def refine_space(space, dictionary, mode):
    """Apply one of REFINE_MODES to an aligned space. Every mode but "none"
    refines the space's own matrices and consumes it (its src and tgt
    become None), so a run holds no second pair of matrices; "none" returns
    `space` itself. Any other mode is a ValueError, raised before the space
    is touched."""
    if mode not in REFINE_MODES:
        raise ValueError(f"refine mode must be one of {REFINE_MODES}, got {mode!r}")
    if mode == "plain":
        return average_plain(space, dictionary, consume=True)
    if mode in ("weighted", "weighted-relative"):
        relative = mode == "weighted-relative"
        return average_weighted(space, dictionary, relative=relative, consume=True)
    if mode == "meemi":
        return meemi_transform(space, dictionary, consume=True)
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


def load_sentiment_pair(train, test, lowercase=True, scheme=None):
    """Train and test sets; the test set takes the train set's scheme."""
    train_set = load_sentiment_tsv(train, lowercase, scheme)
    return train_set, load_sentiment_tsv(test, lowercase, train_set.scheme)


def evaluate_sentiment(space, train_set, test_set):
    """Train the probe on the source side, evaluate it on the target side.
    Returns the probe and its report."""
    probe = train_probe(train_set, space.src)
    return probe, eval_probe(probe, test_set, space.tgt)


def run_pipeline(config: PipelineConfig, out_dir) -> dict:
    """Execute all configured stages, writing artifacts into out_dir.

    Returns the manifest. Raises PipelineError carrying the failing stage
    and the artifacts written so far. A KeyboardInterrupt or SystemExit in
    a stage is re-raised as it is, after the manifest records the run as
    "interrupted".
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        message = f"run directory {out} is not empty; runs are write-once"
        with suppress(OSError, ValueError, KeyError, TypeError):  # no readable manifest
            earlier = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            message += f"; its manifest.json has status {earlier['status']!r}"
        raise ValueError(message)
    seed = config.get("seed")
    run = _Run(out, config.config_hash(), seed)

    with run.stage("config") as st:
        text = json.dumps(config.raw, sort_keys=True, indent=2) + "\n"
        st.write("config.json", write_text, text)

    with run.stage("load-embeddings") as st:
        pair = load_pair(
            (config.path("src.embeddings"), config.path("src.vocab")),
            (config.path("tgt.embeddings"), config.path("tgt.vocab")),
        )
        st.details = dict(
            src_tokens=len(pair.src.vocab), tgt_tokens=len(pair.tgt.vocab),
            dim=pair.dim,
        )

    with run.stage("normalize") as st:
        steps = tuple(config.get("normalize"))
        normalize_pair(pair, steps)
        st.details = dict(steps=list(steps))

    with run.stage("dictionary") as st:
        mode = config.get("dictionary.mode")
        dictionary = build_dictionary(
            pair.src.vocab, pair.tgt.vocab, mode,
            file=config.path("dictionary.file"),
            classes=config.get("dictionary.classes"),
            k=config.get("dictionary.k"),
            seed=seed,
        )
        st.write("dictionary.tsv", save_dictionary, dictionary)
        st.details = dict(mode=mode, pairs=len(dictionary))

    with run.stage("align") as st:
        method = config.get("mapper.method")
        slc = None
        if method == "self-learn":  # each SelfLearnConfig field is a mapper key
            slc = SelfLearnConfig(**{
                f.name: config.get(f"mapper.{f.name}")
                for f in fields(SelfLearnConfig)
            })
        s = config.get("mapper.reweight_s")
        s = None if s is None else float(s)  # provenance records 1 as 1.0
        model, space = align(pair, dictionary, slc, s)
        st.write("model.txt", save_model, model)
        st.details = dict(
            method=method,
            iterations=model.iterations,
            dict_cosines=[round(c, 6) for c in model.dict_cosines],
            reweight_s=s,
        )

    with run.stage("refine") as st:
        rmode = config.get("refine.mode")
        space = refine_space(space, dictionary, rmode)
        if config.get("save_aligned_embeddings"):
            save_pair(
                space, out / "src_aligned.vec", out / "tgt_aligned.vec", st.saved
            )
        record = _REFINE_RECORDS.get(rmode)
        provenance = [dict(record, pairs=len(dictionary))] if record else []
        st.details = dict(mode=rmode, provenance=provenance)

    if config.has("eval.translation"):
        with run.stage("eval-translate") as st:
            test, coverage = load_test_dictionary(
                config.path("eval.translation.test_dictionary"),
                space.src.vocab, space.tgt.vocab, synthetic=dictionary,
            )
            report = evaluate_translation(
                space, test,
                config.get("eval.translation.ks"),
                config.get("eval.translation.retrieval"),
                exclude_identical=config.get("eval.translation.exclude_identical"),
                oov_as_wrong=config.get("eval.translation.oov_as_wrong"),
            )
            st.write("translation_report.tsv", write_text,
                     translation_tsv(report, header=st.header))
            st.write("translation_report.md", write_text,
                     translation_markdown(report))
            st.details = dict(
                p_at={str(k): report.p_at[k] for k in sorted(report.p_at)},
                covered=report.covered,
                skipped=report.skipped,
                identical_rate=round(coverage.identical_rate, 6),
                containment=(
                    None if coverage.dictionary_containment is None
                    else round(coverage.dictionary_containment, 6)
                ),
            )

    if config.has("eval.sentiment"):
        with run.stage("eval-sentiment") as st:
            train_set, test_set = load_sentiment_pair(
                config.path("eval.sentiment.train"),
                config.path("eval.sentiment.test"),
                config.get("tokenizer.lowercase"),
                config.get("eval.sentiment.scheme"),
            )
            probe, sreport = evaluate_sentiment(space, train_set, test_set)
            st.write("sentiment_report.tsv", write_text,
                     sentiment_tsv(sreport, header=st.header))
            st.write("sentiment_report.md", write_text,
                     sentiment_markdown(sreport))
            st.details = dict(
                accuracy=round(sreport.accuracy, 4),
                macro_f1=round(sreport.macro_f1, 4),
                final_loss=round(probe.loss_history[-1], 8),
            )

    return run.finish()


class _Run:
    """A run directory's provenance: each artifact is listed as soon as its
    writer ends, and each stage that ends appends one record."""

    def __init__(self, out: Path, config_hash: str, seed):
        self.out, self.config_hash, self.seed = out, config_hash, seed
        self.artifacts: list[str] = []
        self.records: list[dict] = []

    @contextmanager
    def stage(self, name: str):
        """The block of one stage. When it ends, the stage's record (outputs
        in write order, details) goes to provenance.jsonl; when it raises,
        the run finishes as an error and PipelineError names the stage. An
        interrupt (KeyboardInterrupt, SystemExit) finishes the run as
        "interrupted" and goes on as it is, so no `except Exception`
        stops it."""
        st = _Stage(self, name)
        try:
            yield st
        except Exception as exc:
            self.finish("error", {"stage": name, "message": str(exc)})
            raise PipelineError(name, exc, self.artifacts) from exc
        except (KeyboardInterrupt, SystemExit) as exc:
            self.finish("interrupted", {"stage": name, "message": type(exc).__name__})
            raise
        self.records.append({
            "stage": name,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": __version__,
            "outputs": st.outputs,
            "details": st.details,
        })

    def finish(self, status: str = "ok", error: Optional[dict] = None) -> dict:
        """Write provenance.jsonl, then manifest.json; return the manifest."""
        records = "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)
        write_text(records, self.out / "provenance.jsonl")
        self.artifacts.append("provenance.jsonl")
        manifest = {
            "config_hash": self.config_hash,
            "status": status,
            "error": error,
            "artifacts": sorted(self.artifacts) + ["manifest.json"],
            "version": __version__,
        }
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        write_text(text, self.out / "manifest.json")
        return manifest


class _Stage:
    """What a stage block writes and records: st.write(name, writer, value)
    calls writer(value, path) for one artifact, st.saved(path) lists one
    that another writer saved, st.details is the record's details, and
    st.header the "# stage=..." line of its TSV reports."""

    def __init__(self, run: _Run, name: str):
        self._run = run
        self.outputs: list[str] = []
        self.details: dict = {}
        self.header = (
            f"# stage={name} config_hash={run.config_hash} seed={run.seed} "
            f"tool=xlembed/{__version__}"
        )

    def write(self, name: str, writer, value) -> None:
        """writer(value, path); the file is listed when it is on disk, also
        when the writer failed part way."""
        path = self._run.out / name
        try:
            writer(value, path)
        finally:
            if path.exists():
                self.saved(path)

    def saved(self, path: Path) -> None:
        """List the artifact at `path`, which a writer left on disk."""
        self._run.artifacts.append(path.name)
        self.outputs.append(path.name)
