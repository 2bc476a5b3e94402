"""Command-line interface.

Subcommands: stats, vocab, dict, align, refine, eval-translate,
eval-sentiment, ablation, pipeline. Exit code 0 on success. A usage error
(a bad flag or value, checked before any file is read) exits 2 with
argparse's message; any other failure writes a machine-readable JSON error
object to stderr and exits 1. Thread count is controlled only by the BLAS
environment variable (OMP_NUM_THREADS); the tool reads no other
environment.
"""

import argparse
import ctypes
import json
import sys
import warnings
from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import (
    REFINE_MODES,
    SCHEMA,
    PipelineConfig,
    PipelineError,
    SelfLearnConfig,
    check_value,
)
from .corpus import (
    TokenizerConfig,
    count_corpus,
    iter_corpus_lines,
    read_vocab_tsv,
    scan_corpus,
    write_vocab_tsv,
)


def _tok_config(args) -> TokenizerConfig:
    return TokenizerConfig(lowercase=not args.no_lowercase)


def _load_pair(args, normalized=False):
    from .pipeline import load_pair, normalize_pair

    src, tgt = load_pair(
        (args.src_emb, args.src_vocab), (args.tgt_emb, args.tgt_vocab)
    )
    if normalized:
        return normalize_pair(src, tgt, args.normalize)
    return src, tgt


def _space(args):
    from .refine import CrossLingualSpace

    return CrossLingualSpace(*_load_pair(args))


def _self_learn_config(args):
    if not args.self_learn:
        return None
    return SelfLearnConfig(
        induce_vocab_cutoff=args.cutoff,
        retrieval=args.retrieval,
        max_iters=args.max_iters,
        tol=args.tol,
    )


def _positive_int(text: str) -> int:
    """`--min-count`, which sets no config key: an integer >= 1."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return k


def _add_schema_flag(p, flag: str, key: str) -> None:
    """Add `flag`, which sets the config key `key`: it takes the key's
    default, and its value is parsed to the key's SCHEMA kind and checked
    by check_value, so a bad value exits 2 before any file is read. A list
    is comma-separated; empty text is the empty list."""
    kind, default, _ = SCHEMA[key]
    parse = {"integer": int, "number": float, "list of integers": int}.get(kind, str)

    def item(text: str):
        try:
            return parse(text)
        except ValueError:
            return text  # check_value names the expected kind

    def value(text: str):
        if kind.startswith("list"):
            v = [item(t) for t in text.split(",")] if text else []
        else:
            v = item(text)
        try:
            check_value(key, v)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return v

    shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
    p.add_argument(flag, type=value, default=default,
                   help=f"config key {key} (default {shown})")


def _write(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _add_pair_args(p) -> None:
    p.add_argument("--src-emb", required=True)
    p.add_argument("--tgt-emb", required=True)
    p.add_argument("--src-vocab", default=None)
    p.add_argument("--tgt-vocab", default=None)


def _add_self_learn_args(p) -> None:
    _add_schema_flag(p, "--normalize", "normalize")
    p.add_argument("--self-learn", action="store_true")
    _add_schema_flag(p, "--cutoff", "mapper.induce_vocab_cutoff")


def cmd_stats(args) -> int:
    cfg = _tok_config(args)
    print("corpus\ttweets\tduplicates\ttokens\tunique")
    for path in args.corpus:
        _, stats = count_corpus(iter_corpus_lines(path), cfg)
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
    from .lexicon import save_dictionary
    from .pipeline import build_dictionary

    dictionary = build_dictionary(
        read_vocab_tsv(args.src_vocab),
        read_vocab_tsv(args.tgt_vocab),
        "identical",
        classes=args.classes,
    )
    save_dictionary(dictionary, args.out)
    print(f"{len(dictionary)} pairs -> {args.out}")
    return 0


def cmd_align(args) -> int:
    from .embeddings import save_embeddings
    from .mapper import save_model
    from .pipeline import align, build_dictionary, save_pair

    src, tgt = _load_pair(args, normalized=True)
    dictionary = build_dictionary(src.vocab, tgt.vocab, "file", file=args.dict)
    model, space = align(
        src, tgt, dictionary, _self_learn_config(args), args.reweight_s
    )
    del src, tgt  # the saves need only the mapped space
    save_model(model, args.out_model)
    if args.out_src and args.out_tgt:
        save_pair(space, args.out_src, args.out_tgt)
    elif args.out_src:
        save_embeddings(space.src, args.out_src)
    elif args.out_tgt:
        save_embeddings(space.tgt, args.out_tgt)
    print(  # self_learn keeps its best-scoring iteration, not its last
        f"aligned in {model.iterations} iteration(s), "
        f"mean dictionary cosine {max(model.dict_cosines):.6f}"
    )
    return 0


def cmd_refine(args) -> int:
    from .pipeline import build_dictionary, refine_space, save_pair

    space = _space(args)
    dictionary = build_dictionary(
        space.src.vocab, space.tgt.vocab, "file", file=args.dict
    )
    space = refine_space(space, dictionary, args.mode, relative=args.relative)
    save_pair(space, args.out_src, args.out_tgt)
    print(f"refine mode {args.mode}: {len(dictionary)} pairs applied")
    return 0


def cmd_eval_translate(args) -> int:
    from .lexicon import load_test_dictionary
    from .pipeline import evaluate_translation
    from .reports import translation_tsv

    space = _space(args)
    test, coverage = load_test_dictionary(
        args.test, space.src.vocab, space.tgt.vocab
    )
    report = evaluate_translation(
        space, test, args.ks, args.retrieval,
        exclude_identical=args.exclude_identical_test_pairs,
        oov_as_wrong=args.oov_as_wrong,
    )
    _write(translation_tsv(report), args.out)
    sys.stderr.write(
        f"identical-pair rate {100 * coverage.identical_rate:.1f}%\n"
    )
    return 0


def cmd_eval_sentiment(args) -> int:
    from .pipeline import evaluate_sentiment, load_sentiment_pair
    from .reports import sentiment_tsv
    from .sentiment import eval_majority

    # the majority baseline reads no embeddings
    space = None if args.majority_baseline else _space(args)
    train_set, test_set = load_sentiment_pair(
        args.train, args.test, _tok_config(args)
    )
    if space is None:
        report = eval_majority(train_set, test_set)
    else:
        _, report = evaluate_sentiment(space, train_set, test_set)
    _write(sentiment_tsv(report), args.out)
    return 0


def cmd_ablation(args) -> int:
    from .ablation import run_ablation
    from .lexicon import load_test_dictionary
    from .pipeline import build_dictionary, load_sentiment_pair
    from .reports import ablation_markdown, ablation_tsv

    if bool(args.sentiment_train) != bool(args.sentiment_test):
        raise ValueError(
            "--sentiment-train and --sentiment-test must be given together"
        )
    # src and tgt stay alive: the grid aligns each of its variants
    src, tgt = _load_pair(args, normalized=True)
    dictionary = build_dictionary(src.vocab, tgt.vocab, "identical")
    test, _ = load_test_dictionary(args.test, src.vocab, tgt.vocab)
    sentiment_train = sentiment_test = None
    if args.sentiment_train:
        sentiment_train, sentiment_test = load_sentiment_pair(
            args.sentiment_train, args.sentiment_test, _tok_config(args)
        )
    table = run_ablation(
        src, tgt, dictionary, test,
        ks=args.ks,
        retrieval=args.retrieval,
        sentiment_train=sentiment_train,
        sentiment_test=sentiment_test,
        self_learn_config=_self_learn_config(args),
    )
    sys.stdout.write(ablation_markdown(table) if args.markdown else ablation_tsv(table))
    return 0


def cmd_pipeline(args) -> int:
    from .pipeline import run_pipeline

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
    p.add_argument("--min-count", type=_positive_int, default=5)
    p.add_argument("--no-lowercase", action="store_true")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("dict", help="build the identical-token dictionary")
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--out", required=True)
    _add_schema_flag(p, "--classes", "dictionary.classes")
    p.set_defaults(func=cmd_dict)

    p = sub.add_parser("align", help="learn the orthogonal mapping")
    _add_pair_args(p)
    p.add_argument("--dict", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-src", default=None)
    p.add_argument("--out-tgt", default=None)
    _add_self_learn_args(p)
    _add_schema_flag(p, "--max-iters", "mapper.max_iters")
    _add_schema_flag(p, "--tol", "mapper.tol")
    _add_schema_flag(p, "--retrieval", "mapper.retrieval")
    _add_schema_flag(p, "--reweight-s", "mapper.reweight_s")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("refine", help="averaging / regression refinement")
    _add_pair_args(p)
    p.add_argument("--dict", required=True)
    p.add_argument("--mode", choices=REFINE_MODES[1:], required=True)
    p.add_argument("--relative", action="store_true",
                   help="weight by relative corpus frequencies")
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("eval-translate", help="word translation P@k")
    _add_pair_args(p)
    p.add_argument("--test", required=True)
    _add_schema_flag(p, "--ks", "eval.translation.ks")
    _add_schema_flag(p, "--retrieval", "eval.translation.retrieval")
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
    _add_schema_flag(p, "--ks", "eval.translation.ks")
    _add_schema_flag(p, "--retrieval", "eval.translation.retrieval")
    _add_self_learn_args(p)
    p.add_argument("--sentiment-train", default=None)
    p.add_argument("--sentiment-test", default=None)
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--markdown", action="store_true")
    # self-learning runs with the library's max_iters and tol
    p.set_defaults(
        func=cmd_ablation, max_iters=SelfLearnConfig.max_iters, tol=SelfLearnConfig.tol
    )

    p = sub.add_parser("pipeline", help="run a declarative config end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None,
                   help="run directory (must not exist or be empty)")
    p.add_argument("--runs-dir", default="runs")
    p.set_defaults(func=cmd_pipeline)

    return parser


# Commands that do no arithmetic: they run without numpy.
_TEXT_COMMANDS = (cmd_stats, cmd_vocab)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func not in _TEXT_COMMANDS:
        # numpy and the numeric modules load here, before the mmap threshold
        # is fixed, so their import-time allocations are placed under
        # glibc's default threshold.
        from . import ablation  # noqa: F401  (imports every numeric module)
    # Fix glibc's mmap threshold (-3 is M_MMAP_THRESHOLD) at 4 MiB: left to
    # itself it rises after the first large free, and peak RSS then moves
    # with the layout of the heap.
    with suppress(AttributeError, OSError, TypeError):  # not glibc
        ctypes.CDLL(None).mallopt(-3, 4 << 20)
    # Warnings print as `<Category>: <message>`, without the library's source
    # path and line, so a run's stderr is the same from any checkout.
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda msg, category, *_: f"{category.__name__}: {msg}\n"
    try:
        return args.func(args)
    except Exception as exc:
        cause = exc.cause if isinstance(exc, PipelineError) else exc
        error = {"error": str(cause), "type": type(cause).__name__}
        if isinstance(exc, PipelineError):
            error.update(stage=exc.stage, partial_artifacts=exc.artifacts)
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
