"""Declarative end-to-end runs: load, normalize, dictionary, align,
refine, evaluate, with a provenance trail.

A run is driven by one JSON config; identical config plus identical input
bytes must reproduce identical report bytes, so nothing time- or
path-dependent is ever written into an artifact. Run directories are
write-once: the runner refuses a non-empty directory.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import __version__
from .corpus import TokenizerConfig, parse_classes
from .embeddings import (
    DEFAULT_NORMALIZE,
    load_embeddings,
    normalize,
    save_embeddings,
)
from .lexicon import (
    build_identical_dictionary,
    exclude_identical_entries,
    filter_by_class,
    load_dictionary,
    load_test_dictionary,
    sample_seed,
    save_dictionary,
)
from .mapper import (
    SelfLearnConfig,
    apply_mapping,
    reweight,
    save_model,
    self_learn,
    solve_procrustes,
)
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
from .scoring import COSINE, RETRIEVAL_MODES
from .sentiment import eval_probe, load_sentiment_tsv, train_probe
from .translate import precision_at_k

DICT_MODES = ("identical", "external-seed", "file")
MAPPER_METHODS = ("procrustes", "self-learn")
REFINE_MODES = ("none", "plain", "weighted", "meemi")


class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception, artifacts: list):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.artifacts = list(artifacts)


@dataclass
class PipelineConfig:
    raw: dict
    base_dir: Path = field(default_factory=Path)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = cls(raw=raw, base_dir=path.parent)
        cfg.validate()
        return cfg

    def _path(self, value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else self.base_dir / p

    # -- typed accessors with defaults --------------------------------
    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    @property
    def normalize_steps(self) -> tuple:
        return tuple(self.raw.get("normalize", list(DEFAULT_NORMALIZE)))

    @property
    def tokenizer(self) -> TokenizerConfig:
        t = self.raw.get("tokenizer", {})
        return TokenizerConfig(lowercase=bool(t.get("lowercase", True)))

    @property
    def dictionary(self) -> dict:
        return self.raw.get("dictionary", {"mode": "identical"})

    @property
    def mapper(self) -> dict:
        return self.raw.get("mapper", {})

    @property
    def refine(self) -> dict:
        return self.raw.get("refine", {"mode": "none"})

    @property
    def eval(self) -> dict:
        return self.raw.get("eval", {})

    @property
    def save_aligned(self) -> bool:
        return bool(self.raw.get("save_aligned_embeddings", True))

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def validate(self) -> None:
        problems = []

        def require_positive_int(name: str, value) -> None:
            try:
                ok = int(value) >= 1
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{name} must be an integer >= 1, got {value!r}")

        def require_number(name: str, value, low=-math.inf, high=math.inf) -> None:
            try:
                number = float(value)
            except (TypeError, ValueError):
                number = math.nan
            if isinstance(value, bool) or not (
                math.isfinite(number) and low <= number <= high
            ):
                span = "" if math.isinf(low) else f" in [{low:g}, {high:g}]"
                problems.append(f"{name} must be a finite number{span}, got {value!r}")

        def require_retrieval(name: str, value) -> None:
            if value not in RETRIEVAL_MODES:
                problems.append(
                    f"{name} must be one of {RETRIEVAL_MODES}, got {value!r}"
                )

        for side in ("src", "tgt"):
            block = self.raw.get(side)
            if not isinstance(block, dict) or "embeddings" not in block:
                problems.append(f"missing required section {side}.embeddings")
                continue
            if not self._path(block["embeddings"]).exists():
                problems.append(
                    f"{side}.embeddings: no such file {block['embeddings']!r}"
                )
            vocab = block.get("vocab")
            if vocab and not self._path(vocab).exists():
                problems.append(f"{side}.vocab: no such file {vocab!r}")
        d = self.dictionary
        mode = d.get("mode")
        if mode not in DICT_MODES:
            problems.append(f"dictionary.mode must be one of {DICT_MODES}")
        if mode in ("external-seed", "file"):
            if "file" not in d:
                problems.append(f"dictionary mode {mode!r} requires a file")
            elif not self._path(d["file"]).exists():
                problems.append(f"dictionary.file: no such file {d['file']!r}")
        if "k" in d:
            require_positive_int("dictionary.k", d["k"])
        try:
            parse_classes(d.get("classes") or [])
        except ValueError as exc:
            problems.append(f"dictionary.classes: {exc}")
        m = self.mapper
        method = m.get("method", "procrustes")
        if method not in MAPPER_METHODS:
            problems.append(f"mapper.method must be one of {MAPPER_METHODS}")
        require_retrieval("mapper.retrieval", m.get("retrieval", COSINE))
        for key in ("max_iters", "induce_vocab_cutoff"):
            if key in m:
                require_positive_int(f"mapper.{key}", m[key])
        if "tol" in m:
            require_number("mapper.tol", m["tol"])
        if m.get("reweight_s") is not None:
            require_number("mapper.reweight_s", m["reweight_s"], 0.0, 1.0)
        r = self.refine
        if r.get("mode", "none") not in REFINE_MODES:
            problems.append(f"refine.mode must be one of {REFINE_MODES}")
        rel = r.get("relative_frequencies", False)
        if not isinstance(rel, bool):
            problems.append(
                f"refine.relative_frequencies must be true or false, got {rel!r}"
            )
        ev = self.eval
        tr = ev.get("translation")
        if tr is not None:
            if "test_dictionary" not in tr:
                problems.append("eval.translation requires test_dictionary")
            elif not self._path(tr["test_dictionary"]).exists():
                problems.append(
                    f"eval.translation.test_dictionary: no such file "
                    f"{tr['test_dictionary']!r}"
                )
            ks = tr.get("ks", [1])
            if not ks:
                problems.append("eval.translation.ks must not be empty")
            for k in ks:
                require_positive_int("eval.translation.ks entries", k)
            require_retrieval(
                "eval.translation.retrieval", tr.get("retrieval", COSINE)
            )
        se = ev.get("sentiment")
        if se is not None:
            for key in ("train", "test"):
                if key not in se:
                    problems.append(f"eval.sentiment requires {key}")
                elif not self._path(se[key]).exists():
                    problems.append(
                        f"eval.sentiment.{key}: no such file {se[key]!r}"
                    )
        if problems:
            raise ValueError(
                "invalid pipeline config:\n  " + "\n  ".join(problems)
            )


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
    seed = config.seed
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
        src_block = config.raw["src"]
        tgt_block = config.raw["tgt"]
        src = load_embeddings(
            config._path(src_block["embeddings"]),
            vocab_tsv=(
                config._path(src_block["vocab"]) if src_block.get("vocab") else None
            ),
        )
        tgt = load_embeddings(
            config._path(tgt_block["embeddings"]),
            vocab_tsv=(
                config._path(tgt_block["vocab"]) if tgt_block.get("vocab") else None
            ),
        )
        record(
            stage, [],
            src_tokens=len(src.vocab), tgt_tokens=len(tgt.vocab), dim=src.dim,
        )

        stage = "normalize"
        steps = config.normalize_steps
        if steps:
            src = normalize(src, steps)
            tgt = normalize(tgt, steps)
        record(stage, [], steps=list(steps))

        stage = "dictionary"
        d = config.dictionary
        mode = d["mode"] if "mode" in d else "identical"
        if mode == "identical":
            dictionary = build_identical_dictionary(src.vocab, tgt.vocab)
        elif mode == "file":
            dictionary = load_dictionary(
                config._path(d["file"]), src.vocab, tgt.vocab
            )
        else:  # external-seed
            gold, _ = load_test_dictionary(
                config._path(d["file"]), src.vocab, tgt.vocab
            )
            dictionary = sample_seed(
                gold, int(d.get("k", 100)), seed, src.vocab, tgt.vocab
            )
        class_names = d.get("classes")
        if class_names:
            dictionary = filter_by_class(dictionary, parse_classes(class_names))
        save_dictionary(dictionary, out / "dictionary.tsv")
        artifacts.append("dictionary.tsv")
        record(stage, ["dictionary.tsv"], mode=mode, pairs=len(dictionary))

        stage = "align"
        m = config.mapper
        method = m.get("method", "procrustes")
        if method == "self-learn":
            slc = SelfLearnConfig(
                induce_vocab_cutoff=int(m.get("induce_vocab_cutoff", 20000)),
                retrieval=m.get("retrieval", COSINE),
                max_iters=int(m.get("max_iters", 50)),
                tol=float(m.get("tol", 1e-6)),
            )
            model = self_learn(src, tgt, dictionary, slc)
        else:
            model = solve_procrustes(src, tgt, dictionary)
        s = m.get("reweight_s")
        if s is not None:
            src_aligned, tgt_aligned = reweight(
                model, src, tgt, dictionary, float(s)
            )
        else:
            src_aligned = apply_mapping(model, src, side="src")
            tgt_aligned = apply_mapping(model, tgt, side="tgt")
        save_model(model, out / "model.txt")
        artifacts.append("model.txt")
        record(
            stage, ["model.txt"],
            method=method,
            iterations=model.iterations,
            dict_cosines=[round(c, 6) for c in model.dict_cosines],
            reweight_s=(None if s is None else float(s)),
        )

        stage = "refine"
        space = CrossLingualSpace(src=src_aligned, tgt=tgt_aligned)
        rmode = config.refine.get("mode", "none")
        if rmode == "plain":
            space = average_plain(space, dictionary)
        elif rmode == "weighted":
            space = average_weighted(
                space,
                dictionary,
                relative=bool(config.refine.get("relative_frequencies", False)),
            )
        elif rmode == "meemi":
            space = meemi_transform(space, dictionary)
        outputs = []
        if config.save_aligned:
            save_embeddings(space.src, out / "src_aligned.vec")
            save_embeddings(space.tgt, out / "tgt_aligned.vec")
            outputs = ["src_aligned.vec", "tgt_aligned.vec"]
            artifacts.extend(outputs)
        record(stage, outputs, mode=rmode, provenance=space.provenance)

        stage = "eval-translate"
        tr = config.eval.get("translation")
        if tr is not None:
            test, coverage = load_test_dictionary(
                config._path(tr["test_dictionary"]), src.vocab, tgt.vocab,
                synthetic=dictionary,
            )
            if tr.get("exclude_identical", False):
                test = exclude_identical_entries(test)
            report = precision_at_k(
                space,
                test,
                ks=tuple(tr.get("ks", [1, 5, 10])),
                retrieval=tr.get("retrieval", COSINE),
                oov_as_wrong=bool(tr.get("oov_as_wrong", False)),
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
        se = config.eval.get("sentiment")
        if se is not None:
            scheme = se.get("scheme")
            train_set = load_sentiment_tsv(
                config._path(se["train"]), config.tokenizer, scheme
            )
            test_set = load_sentiment_tsv(
                config._path(se["test"]), config.tokenizer, train_set.scheme
            )
            probe = train_probe(train_set, space.src)
            sreport = eval_probe(probe, test_set, space.tgt)
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
    except PipelineError:
        raise
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
