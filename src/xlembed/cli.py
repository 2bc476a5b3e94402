"""Command-line interface.

Subcommands: stats, vocab, dict, align, refine, eval-translate,
eval-sentiment, ablation, pipeline. Exit code 0 on success; on failure a
machine-readable JSON error object goes to stderr and the exit code is
nonzero. Thread count is controlled only by the BLAS environment variable
(OMP_NUM_THREADS); the tool reads no other environment.
"""

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .ablation import run_ablation
from .corpus import (
    TokenizerConfig,
    iter_corpus_lines,
    parse_classes,
    read_vocab_tsv,
    scan_corpus,
    write_vocab_tsv,
)
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
)
from .mapper import (
    SelfLearnConfig,
    apply_mapping,
    load_model,
    reweight,
    save_model,
    self_learn,
    solve_procrustes,
)
from .pipeline import PipelineConfig, PipelineError, run_pipeline
from .refine import (
    CrossLingualSpace,
    average_plain,
    average_weighted,
    meemi_transform,
)
from .reports import (
    ablation_markdown,
    ablation_tsv,
    sentiment_tsv,
    translation_tsv,
)
from .scoring import COSINE, RETRIEVAL_MODES
from .sentiment import eval_majority, eval_probe, load_sentiment_tsv, train_probe
from .translate import precision_at_k

def _tok_config(args) -> TokenizerConfig:
    return TokenizerConfig(lowercase=not args.no_lowercase)


def _load_pair(args):
    src = load_embeddings(args.src_emb, vocab_tsv=args.src_vocab)
    tgt = load_embeddings(args.tgt_emb, vocab_tsv=args.tgt_vocab)
    return src, tgt


def _add_pair_args(p) -> None:
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--src-vocab", default=None)
    p.add_argument("--tgt-vocab", default=None)


def cmd_stats(args) -> int:
    cfg = _tok_config(args)
    print("corpus\ttweets\tduplicates\ttokens\tunique")
    for path in args.corpus:
        _, stats = scan_corpus(iter_corpus_lines(path), cfg, min_count=1)
        print(
            f"{path}\t{stats.n_tweets}\t{stats.n_duplicates}"
            f"\t{stats.n_tokens}\t{stats.n_unique}"
        )
    return 0


def cmd_vocab(args) -> int:
    cfg = _tok_config(args)
    vocab, stats = scan_corpus(
        iter_corpus_lines(args.corpus), cfg, min_count=args.min_count
    )
    write_vocab_tsv(vocab, args.out)
    print(
        f"{stats.n_tweets} tweets, {stats.n_tokens} tokens, "
        f"{stats.n_unique} unique; kept {len(vocab)} (min_count={args.min_count})"
    )
    return 0


def cmd_dict(args) -> int:
    src = read_vocab_tsv(args.src_vocab)
    tgt = read_vocab_tsv(args.tgt_vocab)
    dictionary = build_identical_dictionary(src, tgt)
    if args.classes:
        dictionary = filter_by_class(
            dictionary, parse_classes(args.classes.split(","))
        )
    from .lexicon import save_dictionary

    save_dictionary(dictionary, args.out)
    print(f"{len(dictionary)} pairs -> {args.out}")
    return 0


def cmd_align(args) -> int:
    src, tgt = _load_pair(args)
    steps = tuple(args.normalize.split(",")) if args.normalize else ()
    if steps:
        src = normalize(src, steps)
        tgt = normalize(tgt, steps)
    dictionary = load_dictionary(args.dict, src.vocab, tgt.vocab)
    if args.self_learn:
        cfg = SelfLearnConfig(
            induce_vocab_cutoff=args.cutoff,
            retrieval=args.retrieval,
            max_iters=args.max_iters,
            tol=args.tol,
        )
        model = self_learn(src, tgt, dictionary, cfg)
    else:
        model = solve_procrustes(src, tgt, dictionary)
    if args.reweight_s is not None:
        src_out, tgt_out = reweight(model, src, tgt, dictionary, args.reweight_s)
    else:
        src_out = apply_mapping(model, src, side="src")
        tgt_out = apply_mapping(model, tgt, side="tgt")
    save_model(model, args.out_model)
    if args.out_src:
        save_embeddings(src_out, args.out_src)
    if args.out_tgt:
        save_embeddings(tgt_out, args.out_tgt)
    cos = model.dict_cosines[-1] if model.dict_cosines else float("nan")
    print(
        f"aligned in {model.iterations} iteration(s), "
        f"mean dictionary cosine {cos:.6f}"
    )
    return 0


def cmd_refine(args) -> int:
    src, tgt = _load_pair(args)
    dictionary = load_dictionary(args.dict, src.vocab, tgt.vocab)
    space = CrossLingualSpace(src=src, tgt=tgt)
    if args.mode == "plain":
        space = average_plain(space, dictionary)
    elif args.mode == "weighted":
        space = average_weighted(space, dictionary, relative=args.relative)
    elif args.mode == "meemi":
        space = meemi_transform(space, dictionary)
    save_embeddings(space.src, args.out_src)
    save_embeddings(space.tgt, args.out_tgt)
    print(f"refine mode {args.mode}: {len(dictionary)} pairs applied")
    return 0


def cmd_eval_translate(args) -> int:
    src, tgt = _load_pair(args)
    space = CrossLingualSpace(src=src, tgt=tgt)
    test, coverage = load_test_dictionary(args.test, src.vocab, tgt.vocab)
    if args.exclude_identical_test_pairs:
        test = exclude_identical_entries(test)
    report = precision_at_k(
        space,
        test,
        ks=tuple(int(k) for k in args.ks.split(",")),
        retrieval=args.retrieval,
        oov_as_wrong=args.oov_as_wrong,
    )
    text = translation_tsv(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    sys.stderr.write(
        f"identical-pair rate {100 * coverage.identical_rate:.1f}%\n"
    )
    return 0


def cmd_eval_sentiment(args) -> int:
    src, tgt = _load_pair(args)
    cfg = _tok_config(args)
    train_set = load_sentiment_tsv(args.train, cfg)
    test_set = load_sentiment_tsv(args.test, cfg, train_set.scheme)
    if args.majority_baseline:
        report = eval_majority(train_set, test_set)
    else:
        probe = train_probe(train_set, src)
        report = eval_probe(probe, test_set, tgt)
    text = sentiment_tsv(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_ablation(args) -> int:
    src, tgt = _load_pair(args)
    steps = tuple(args.normalize.split(",")) if args.normalize else ()
    if steps:
        src = normalize(src, steps)
        tgt = normalize(tgt, steps)
    dictionary = build_identical_dictionary(src.vocab, tgt.vocab)
    test, _ = load_test_dictionary(args.test, src.vocab, tgt.vocab)
    cfg = _tok_config(args)
    sentiment_train = (
        load_sentiment_tsv(args.sentiment_train, cfg)
        if args.sentiment_train
        else None
    )
    sentiment_test = (
        load_sentiment_tsv(args.sentiment_test, cfg, getattr(sentiment_train, "scheme", None))
        if args.sentiment_test
        else None
    )
    table = run_ablation(
        src,
        tgt,
        dictionary,
        test,
        ks=tuple(int(k) for k in args.ks.split(",")),
        retrieval=args.retrieval,
        sentiment_train=sentiment_train,
        sentiment_test=sentiment_test,
        self_learn_config=(
            SelfLearnConfig(
                induce_vocab_cutoff=args.cutoff, retrieval=args.retrieval
            )
            if args.self_learn
            else None
        ),
    )
    if args.markdown:
        sys.stdout.write(ablation_markdown(table))
    else:
        sys.stdout.write(ablation_tsv(table))
    return 0


def cmd_pipeline(args) -> int:
    config = PipelineConfig.from_file(args.config)
    if args.out:
        out_dir = Path(args.out)
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        out_dir = Path(args.runs_dir) / f"run-{stamp}-{config.config_hash()}"
    manifest = run_pipeline(config, out_dir)
    print(f"run directory: {out_dir}")
    for name in manifest["artifacts"]:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlembed",
        description="Cross-lingual embedding alignment from identical tokens",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics (tweets/tokens/unique)")
    p.add_argument("corpus", nargs="+")
    p.add_argument("--no-lowercase", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("vocab", help="build a vocabulary TSV from a corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--no-lowercase", action="store_true")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("dict", help="build the identical-token dictionary")
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", default=None,
                   help="comma list of numeral,emoji,emoticon,word")
    p.set_defaults(func=cmd_dict)

    p = sub.add_parser("align", help="learn the orthogonal mapping")
    _add_pair_args(p)
    p.add_argument("--dict", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-src", default=None)
    p.add_argument("--out-tgt", default=None)
    p.add_argument("--normalize", default=",".join(DEFAULT_NORMALIZE))
    p.add_argument("--self-learn", action="store_true")
    p.add_argument("--cutoff", type=int, default=20000)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--retrieval", choices=RETRIEVAL_MODES, default=COSINE)
    p.add_argument("--reweight-s", type=float, default=None)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("refine", help="averaging / regression refinement")
    _add_pair_args(p)
    p.add_argument("--dict", required=True)
    p.add_argument("--mode", choices=["plain", "weighted", "meemi"],
                   required=True)
    p.add_argument("--relative", action="store_true",
                   help="weight by relative corpus frequencies")
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval-translate", help="word translation P@k")
    _add_pair_args(p)
    p.add_argument("--test", required=True)
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--retrieval", choices=RETRIEVAL_MODES, default=COSINE)
    p.add_argument("--oov-as-wrong", action="store_true")
    p.add_argument("--exclude-identical-test-pairs", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_translate)

    p = sub.add_parser("eval-sentiment", help="sentiment transfer probe")
    _add_pair_args(p)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--majority-baseline", action="store_true")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_sentiment)

    p = sub.add_parser("ablation", help="token-class ablation grid")
    _add_pair_args(p)
    p.add_argument("--test", required=True)
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--retrieval", choices=RETRIEVAL_MODES, default=COSINE)
    p.add_argument("--normalize", default=",".join(DEFAULT_NORMALIZE))
    p.add_argument("--self-learn", action="store_true")
    p.add_argument("--cutoff", type=int, default=20000)
    p.add_argument("--sentiment-train", default=None)
    p.add_argument("--sentiment-test", default=None)
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("pipeline", help="run a declarative config end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None,
                   help="run directory (must not exist or be empty)")
    p.add_argument("--runs-dir", default="runs")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        error = {
            "error": str(exc.cause),
            "stage": exc.stage,
            "type": type(exc.cause).__name__,
            "partial_artifacts": exc.artifacts,
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1
    except Exception as exc:
        error = {"error": str(exc), "type": type(exc).__name__}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
