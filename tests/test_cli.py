import ctypes
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from xlembed.cli import main
from synthetic import write_pipeline_fixture


def child_env(**extra) -> dict:
    """The environment for a `python` child that imports xlembed from this
    checkout: its src directory is put first on PYTHONPATH, so the child
    needs neither an installed package nor a PYTHONPATH from the caller."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- stats

def test_cli_warning_prints_category_and_message_only(tmp_path):
    corpus = tmp_path / "bad.txt"
    corpus.write_bytes(b"hola \xff mundo\n")
    res = subprocess.run(
        [sys.executable, "-m", "xlembed.cli", "stats", str(corpus)],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines() == [
        f"UserWarning: {corpus}: 1 invalid UTF-8 byte sequence(s) replaced by U+FFFD"
    ]
    assert ".py:" not in res.stderr
    # in-process, the warning is still raised, and library callers get
    # Python's default format back once main returns
    default_format = warnings.formatwarning
    with pytest.warns(UserWarning, match="invalid UTF-8"):
        assert main(["stats", str(corpus)]) == 0
    assert warnings.formatwarning is default_format


def test_stats_empty_corpus(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("", encoding="utf-8")
    code, out, _ = _run(capsys, ["stats", str(p)])
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[1:] == ["0", "0", "0", "0"]


def test_stats_dedup_fixture(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("hola mundo\nhola mundo\nbuenas\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["stats", str(p)])
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[1] == "2"  # tweets after dedup
    assert row[2] == "1"  # duplicates


def test_stats_builds_no_vocabulary(tmp_path, capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("stats built a vocabulary")

    monkeypatch.setattr("xlembed.corpus.vocabulary_from_counts", build)
    p = tmp_path / "c.txt"
    p.write_text("hola mundo\nhola mundo\nbuenas\n", encoding="utf-8")
    code, out, err = _run(capsys, ["stats", str(p)])
    assert code == 0, err
    assert out.splitlines()[1].split("\t")[1:] == ["2", "1", "3", "3"]


# ---------------------------------------------------------------- vocab

def test_vocab_roundtrip(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("si si si no no 5 \U0001F602\n", encoding="utf-8")
    out_tsv = tmp_path / "v.tsv"
    code, out, _ = _run(
        capsys, ["vocab", str(corpus), "--out", str(out_tsv), "--min-count", "1"]
    )
    assert code == 0
    lines = out_tsv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("si\t3\t")
    assert any("\temoji" in ln for ln in lines)


@pytest.mark.parametrize("lowercase", [True, False])
def test_vocab_and_stats_match_per_line_scan(tmp_path, capsys, monkeypatch, lowercase):
    from test_corpus import (
        COUNT_PATHS,
        count_corpus_per_line,
        count_path,
        expected_count_calls,
        scan_corpus_per_line,
    )

    corpus = tmp_path / "c.txt"
    corpus.write_text(
        "Hola xD\u3000D: @Ana #Tag https://x.co/A 3.5 \U0001F44D\U0001F3FD\n"
        "  Hola xD\u3000D: @Ana #Tag https://x.co/A 3.5 \U0001F44D\U0001F3FD\t\n"
        "e\u0301 \u0301a 5\ufe0f\u20e3 \U0001F1EA\U0001F1F8\U0001F1EA hola\xa0HOLA\n"
        "xDado aD: \U0001F469\u200d\U0001F467 :) :-( <3 hola\n",
        encoding="utf-8",
    )
    flags = [] if lowercase else ["--no-lowercase"]
    out_tsv = tmp_path / "v.tsv"

    def outputs():
        code, vocab_out, err = _run(
            capsys, ["vocab", str(corpus), "--out", str(out_tsv), "--min-count", "1"] + flags
        )
        assert code == 0, err
        code, stats_out, err = _run(capsys, ["stats", str(corpus)] + flags)
        assert code == 0, err
        return vocab_out, out_tsv.read_bytes(), stats_out

    chunked = outputs()
    for path in COUNT_PATHS:  # 3 distinct tweets in batches of 2
        with count_path(path) as calls:
            assert outputs() == chunked
        assert calls == expected_count_calls(path, 3) * 2
    monkeypatch.setattr("xlembed.cli.scan_corpus", scan_corpus_per_line)
    monkeypatch.setattr("xlembed.cli.count_corpus", count_corpus_per_line)
    assert outputs() == chunked


# ----------------------------------------------------------------- dict

def test_dict_with_class_filter(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("hola 5 \U0001F602 hola 5 \U0001F602\n", encoding="utf-8")
    b.write_text("5 \U0001F602 adios 5 \U0001F602 adios\n", encoding="utf-8")
    va, vb = tmp_path / "va.tsv", tmp_path / "vb.tsv"
    assert main(["vocab", str(a), "--out", str(va), "--min-count", "1"]) == 0
    assert main(["vocab", str(b), "--out", str(vb), "--min-count", "1"]) == 0
    capsys.readouterr()

    full = tmp_path / "full.tsv"
    code, out, _ = _run(
        capsys,
        ["dict", "--src-vocab", str(va), "--tgt-vocab", str(vb), "--out", str(full)],
    )
    assert code == 0 and "2 pairs" in out

    numerals = tmp_path / "num.tsv"
    code, out, _ = _run(
        capsys,
        [
            "dict", "--src-vocab", str(va), "--tgt-vocab", str(vb),
            "--out", str(numerals), "--classes", "numeral",
        ],
    )
    assert code == 0 and "1 pairs" in out
    assert numerals.read_text(encoding="utf-8").startswith("5\t5\t")

    bad = tmp_path / "bad.tsv"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "dict", "--src-vocab", str(va), "--tgt-vocab", str(vb),
            "--out", str(bad), "--classes", "numeral,emojii",
        ])
    assert exit_info.value.code == 2 and not bad.exists()
    err = capsys.readouterr().err
    assert "argument --classes: unknown token class(es) ['emojii']" in err
    assert "numeral, emoji, emoticon, word" in err


def test_dict_bad_class_fails_before_the_vocabularies_are_read(tmp_path, capsys):
    missing = str(tmp_path / "nope.tsv")
    with pytest.raises(SystemExit) as exit_info:
        main(["dict", "--src-vocab", missing, "--tgt-vocab", missing,
              "--out", str(tmp_path / "d.tsv"), "--classes", "numeral,emojii"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "emojii" in err and "numeral, emoji, emoticon, word" in err
    assert "nope.tsv" not in err


# ------------------------------------------------- align/refine/eval chain

@pytest.fixture()
def fixture_dir(tmp_path):
    write_pipeline_fixture(tmp_path / "fx", n=100, d=8, noise=0.02, seed=1)
    return tmp_path / "fx"


def _overlap_align_inputs(tmp_path, capsys):
    """overlap_benchmark(n_shared=60, n_unique=600, d=20, noise=0.3) on
    disk with its identical-token dictionary from `xlembed dict`; returns
    the `align` input arguments and the normalized spaces and dictionary
    as the command sees them."""
    from xlembed import save_embeddings
    from xlembed.config import DEFAULT_NORMALIZE
    from xlembed.corpus import write_vocab_tsv
    from xlembed.pipeline import build_dictionary, load_pair, normalize_pair

    from synthetic import overlap_benchmark

    src, tgt, _ = overlap_benchmark(
        n_shared=60, n_unique=600, d=20, noise=0.3, seed=0
    )
    save_embeddings(src, tmp_path / "s.vec")
    save_embeddings(tgt, tmp_path / "t.vec")
    write_vocab_tsv(src.vocab, tmp_path / "sv.tsv")
    write_vocab_tsv(tgt.vocab, tmp_path / "tv.tsv")
    vocabs = ["--src-vocab", str(tmp_path / "sv.tsv"),
              "--tgt-vocab", str(tmp_path / "tv.tsv")]
    d = tmp_path / "d.tsv"
    assert _run(capsys, ["dict", *vocabs, "--out", str(d)])[0] == 0
    args = ["--src-emb", str(tmp_path / "s.vec"),
            "--tgt-emb", str(tmp_path / "t.vec"), *vocabs, "--dict", str(d)]
    src, tgt = normalize_pair(
        *load_pair((tmp_path / "s.vec", tmp_path / "sv.tsv"),
                   (tmp_path / "t.vec", tmp_path / "tv.tsv")),
        DEFAULT_NORMALIZE,
    )
    return args, src, tgt, build_dictionary(src.vocab, tgt.vocab, "file", file=d)


def test_align_self_learn_prints_the_saved_iterations_cosine(tmp_path, capsys):
    # self-learning stops when the score falls and keeps its best
    # iteration: the printed cosine is that one's, not the last one's
    from xlembed.config import SelfLearnConfig
    from xlembed.mapper import load_model
    from xlembed.pipeline import align

    args, src, tgt, dictionary = _overlap_align_inputs(tmp_path, capsys)
    m = tmp_path / "m.txt"
    code, out, _ = _run(
        capsys,
        ["align", *args, "--out-model", str(m), "--self-learn",
         "--retrieval", "cosine"],
    )
    assert code == 0
    model, _ = align(src, tgt, dictionary, SelfLearnConfig(retrieval="cosine"))
    assert np.array_equal(load_model(m).src_map, model.src_map)
    best = max(model.dict_cosines)
    assert f"{model.dict_cosines[-1]:.6f}" != f"{best:.6f}"  # the run ended on a drop
    assert out.split()[-1] == f"{best:.6f}"


@pytest.mark.parametrize("s", ["0", "0.5", "1"])
def test_align_reweight_prints_and_records_the_saved_maps_cosine(
    tmp_path, capsys, s
):
    # the mean cosine of the dictionary pairs with both sides mapped by the
    # saved model, not that of the orthogonal map it was re-weighted from
    from xlembed.mapper import apply_mapping, load_model, solve_procrustes

    args, src, tgt, dictionary = _overlap_align_inputs(tmp_path, capsys)
    m = tmp_path / "m.txt"
    code, out, _ = _run(capsys, ["align", *args, "--out-model", str(m), "--reweight-s", s])
    assert code == 0
    model = load_model(m)
    x = apply_mapping(model, src).matrix[dictionary.src_indices]
    y = apply_mapping(model, tgt, side="tgt").matrix[dictionary.tgt_indices]
    cos = np.mean(
        (x * y).sum(axis=1) / (np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
    )
    printed = float(out.split()[-1])
    assert printed == pytest.approx(cos, abs=2e-6)
    orthogonal = solve_procrustes(src, tgt, dictionary).dict_cosines[0]
    assert (printed > orthogonal + 0.05) == (s != "0")

    cfg = {
        "src": {"embeddings": "s.vec", "vocab": "sv.tsv"},
        "tgt": {"embeddings": "t.vec", "vocab": "tv.tsv"},
        "dictionary": {"mode": "file", "file": "d.tsv"},
        "mapper": {"method": "procrustes", "reweight_s": float(s)},
        "refine": {"mode": "none"},
    }
    (tmp_path / "rw.json").write_text(json.dumps(cfg), encoding="utf-8")
    run_dir = tmp_path / "run"
    argv = ["pipeline", "--config", str(tmp_path / "rw.json"), "--out", str(run_dir)]
    assert _run(capsys, argv)[0] == 0
    assert (run_dir / "model.txt").read_bytes() == m.read_bytes()
    records = [
        json.loads(line)
        for line in (run_dir / "provenance.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    align_rec = next(r for r in records if r["stage"] == "align")
    assert [f"{c:.6f}" for c in align_rec["details"]["dict_cosines"]] == [out.split()[-1]]


def test_align_refine_eval_chain(fixture_dir, tmp_path, capsys):
    fx = fixture_dir
    dict_out = tmp_path / "d.tsv"
    code, _, _ = _run(
        capsys,
        [
            "dict",
            "--src-vocab", str(fx / "src_vocab.tsv"),
            "--tgt-vocab", str(fx / "tgt_vocab.tsv"),
            "--out", str(dict_out),
        ],
    )
    assert code == 0

    model = tmp_path / "model.txt"
    src_al, tgt_al = tmp_path / "src_al.vec", tmp_path / "tgt_al.vec"
    code, out, _ = _run(
        capsys,
        [
            "align",
            "--src-emb", str(fx / "src.vec"), "--tgt-emb", str(fx / "tgt.vec"),
            "--src-vocab", str(fx / "src_vocab.tsv"),
            "--tgt-vocab", str(fx / "tgt_vocab.tsv"),
            "--dict", str(dict_out),
            "--out-model", str(model),
            "--out-src", str(src_al), "--out-tgt", str(tgt_al),
        ],
    )
    assert code == 0 and "mean dictionary cosine" in out
    assert model.exists() and src_al.exists() and tgt_al.exists()

    ref_src, ref_tgt = tmp_path / "rs.vec", tmp_path / "rt.vec"
    code, out, _ = _run(
        capsys,
        [
            "refine",
            "--src-emb", str(src_al), "--tgt-emb", str(tgt_al),
            "--src-vocab", str(fx / "src_vocab.tsv"),
            "--tgt-vocab", str(fx / "tgt_vocab.tsv"),
            "--dict", str(dict_out), "--mode", "weighted",
            "--out-src", str(ref_src), "--out-tgt", str(ref_tgt),
        ],
    )
    assert code == 0

    report = tmp_path / "report.tsv"
    code, out, err = _run(
        capsys,
        [
            "eval-translate",
            "--src-emb", str(ref_src), "--tgt-emb", str(ref_tgt),
            "--src-vocab", str(fx / "src_vocab.tsv"),
            "--tgt-vocab", str(fx / "tgt_vocab.tsv"),
            "--test", str(fx / "gold.txt"), "--out", str(report),
        ],
    )
    assert code == 0
    text = report.read_text(encoding="utf-8")
    assert "P@1\t" in text and "P@10\t" in text
    assert "identical-pair rate" in err


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_eval_translate_huge_row_ranks_by_direction(tmp_path, capsys, retrieval):
    # the squared norm of c overflows; a plain norm zeroed the row, so it
    # ranked x (index order) first and P@1 read 66.67
    (tmp_path / "src.vec").write_text("3 2\na 0 1\nb 1 0\nc 1e200 1e200\n")
    (tmp_path / "tgt.vec").write_text("3 2\nx 0 1\ny 1 0\nz 0.7 0.7\n")
    (tmp_path / "gold.txt").write_text("a x\nb y\nc z\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run(capsys, [
            "eval-translate",
            "--src-emb", str(tmp_path / "src.vec"),
            "--tgt-emb", str(tmp_path / "tgt.vec"),
            "--test", str(tmp_path / "gold.txt"),
            "--retrieval", retrieval,
        ])
    assert code == 0, err
    assert "P@1\t100.00" in out.splitlines()


def test_eval_sentiment_and_majority(fixture_dir, capsys):
    fx = fixture_dir
    base = [
        "eval-sentiment",
        "--src-emb", str(fx / "src.vec"), "--tgt-emb", str(fx / "tgt.vec"),
        "--src-vocab", str(fx / "src_vocab.tsv"),
        "--tgt-vocab", str(fx / "tgt_vocab.tsv"),
        "--train", str(fx / "sent_train.tsv"),
        "--test", str(fx / "sent_test.tsv"),
    ]
    code, out, _ = _run(capsys, base)
    assert code == 0 and "macro_f1\t" in out
    code, out, _ = _run(capsys, base + ["--majority-baseline"])
    assert code == 0
    acc = float(next(l for l in out.splitlines() if l.startswith("accuracy\t")).split("\t")[1])
    assert acc == pytest.approx(50.0)  # balanced two-class test fixture


def test_majority_baseline_reads_no_embeddings(fixture_dir, capsys):
    fx = fixture_dir
    code, out, err = _run(
        capsys,
        [
            "eval-sentiment", "--majority-baseline",
            "--src-emb", "nope.vec", "--tgt-emb", "nope.vec",
            "--train", str(fx / "sent_train.tsv"),
            "--test", str(fx / "sent_test.tsv"),
        ],
    )
    assert code == 0, err
    assert "accuracy\t50.0" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["align", "--dict", "d.tsv", "--out-model", "m.txt",
          "--normalize", "unit,centre"],
         "argument --normalize: 'centre' is not one of unit, center"),
        (["ablation", "--test", "gold.txt", "--normalize", "unit,"],
         "argument --normalize: '' is not one of unit, center"),
        (["eval-translate", "--test", "gold.txt", "--ks", "1,x"],
         "argument --ks: 'x' is not an integer >= 1"),
        (["ablation", "--test", "gold.txt", "--ks", "5,0"],
         "argument --ks: '0' is not an integer >= 1"),
        (["align", "--dict", "d.tsv", "--out-model", "m.txt", "--self-learn",
          "--max-iters", "0"],
         "argument --max-iters: must be >= 1, got 0"),
        (["align", "--dict", "d.tsv", "--out-model", "m.txt", "--self-learn",
          "--max-iters", "2.7"],
         "argument --max-iters: expected integer, got '2.7'"),
        (["align", "--dict", "d.tsv", "--out-model", "m.txt", "--self-learn",
          "--reweight-s", "2"],
         "argument --reweight-s: must be in [0, 1], got 2.0"),
        (["align", "--dict", "d.tsv", "--out-model", "m.txt", "--self-learn",
          "--cutoff", "0"],
         "argument --cutoff: must be >= 1, got 0"),
        (["align", "--dict", "d.tsv", "--out-model", "m.txt", "--self-learn",
          "--tol", "nan"],
         "argument --tol: expected number, got nan"),
        (["ablation", "--test", "gold.txt", "--self-learn", "--cutoff", "-1"],
         "argument --cutoff: must be >= 1, got -1"),
        (["align", "--dict", "d.tsv", "--out-model", "m.txt", "--self-learn",
          "--retrieval", "dot"],
         "argument --retrieval: must be one of ('cosine', 'csls'), got 'dot'"),
        (["eval-translate", "--test", "gold.txt", "--retrieval", "dot"],
         "argument --retrieval: must be one of ('cosine', 'csls'), got 'dot'"),
        (["ablation", "--test", "gold.txt", "--retrieval", "dot"],
         "argument --retrieval: must be one of ('cosine', 'csls'), got 'dot'"),
    ],
    ids=["align-normalize", "ablation-empty-step", "eval-translate-ks",
         "ablation-ks", "align-max-iters", "align-max-iters-float",
         "align-reweight-s", "align-cutoff", "align-tol-nan", "ablation-cutoff",
         "align-retrieval", "eval-translate-retrieval", "ablation-retrieval"],
)
def test_bad_normalize_and_ks_fail_before_any_file_is_read(
    tmp_path, capsys, argv, message
):
    # the embedding files do not exist: a check made after loading would
    # report the missing file instead
    missing = ["--src-emb", str(tmp_path / "nope.vec"),
               "--tgt-emb", str(tmp_path / "nope.vec")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + missing)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "nope.vec" not in err


@pytest.mark.parametrize(
    "command",
    ["stats", "vocab", "dict", "align", "refine", "eval-translate",
     "eval-sentiment", "ablation", "pipeline"],
)
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    if command == "align":
        assert ("--retrieval RETRIEVAL config key mapper.retrieval "
                "(default cosine)") in out
        assert "config key normalize (default unit,center,unit)" in out


@pytest.mark.parametrize("value", ["-3", "0"])
def test_vocab_min_count_below_one_fails_before_the_corpus_is_read(
    tmp_path, capsys, value
):
    corpus = str(tmp_path / "nope.txt")
    with pytest.raises(SystemExit) as exit_info:
        main(["vocab", corpus, "--out", str(tmp_path / "v.tsv"),
              "--min-count", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --min-count: '{value}' is not an integer >= 1" in err
    assert "nope.txt" not in err


def test_ablation_table_shape(fixture_dir, capsys):
    fx = fixture_dir
    code, out, _ = _run(
        capsys,
        [
            "ablation",
            "--src-emb", str(fx / "src.vec"), "--tgt-emb", str(fx / "tgt.vec"),
            "--src-vocab", str(fx / "src_vocab.tsv"),
            "--tgt-vocab", str(fx / "tgt_vocab.tsv"),
            "--test", str(fx / "gold.txt"),
        ],
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    names = [l.split("\t")[0] for l in lines[1:]]
    assert names == ["All", "Numerals", "Emoji", "Words"]


def test_ablation_failed_row_warns_on_stderr(tmp_path):
    # no emoji in the target embeddings: the load warns that the sidecar's
    # emoji are missing, the Emoji row's dictionary is empty, its alignment
    # fails, it prints n/a and warns once
    from xlembed.corpus import TokenClass, classify_token

    fx = tmp_path / "fx"
    write_pipeline_fixture(fx, n=120, d=10)
    header, *rows = (fx / "tgt.vec").read_text(encoding="utf-8").splitlines()
    kept = [
        r for r in rows if classify_token(r.split(" ", 1)[0]) != TokenClass.EMOJI
    ]
    assert len(kept) < len(rows)
    (fx / "tgt.vec").write_text(
        f"{len(kept)} {header.split()[1]}\n" + "\n".join(kept) + "\n",
        encoding="utf-8",
    )
    res = subprocess.run(
        [
            sys.executable, "-m", "xlembed.cli", "ablation",
            "--src-emb", "src.vec", "--tgt-emb", "tgt.vec",
            "--src-vocab", "src_vocab.tsv", "--tgt-vocab", "tgt_vocab.tsv",
            "--test", "gold.txt",
        ],
        cwd=fx, env=child_env(), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines() == [
        "UserWarning: tgt_vocab.tsv: 12 of 120 sidecar vocabulary tokens are "
        "missing from tgt.vec; they are not in the space",
        "UserWarning: ablation row Emoji, model base and weighted: "
        "ValueError: seed dictionary is empty; reported as n/a"
    ]
    emoji = res.stdout.splitlines()[3].split("\t")
    assert emoji[:2] == ["Emoji", "0"] and set(emoji[2:]) == {"n/a"}


def test_ablation_markdown_mode(fixture_dir, capsys):
    fx = fixture_dir
    code, out, _ = _run(
        capsys,
        [
            "ablation",
            "--src-emb", str(fx / "src.vec"), "--tgt-emb", str(fx / "tgt.vec"),
            "--src-vocab", str(fx / "src_vocab.tsv"),
            "--tgt-vocab", str(fx / "tgt_vocab.tsv"),
            "--test", str(fx / "gold.txt"), "--markdown",
        ],
    )
    assert code == 0
    assert out.lstrip().startswith("|")


# ------------------------------------------------------------- pipeline

def test_pipeline_smoke_and_manifest(fixture_dir, tmp_path, capsys):
    run_dir = tmp_path / "run1"
    code, out, _ = _run(
        capsys,
        ["pipeline", "--config", str(fixture_dir / "config.json"), "--out", str(run_dir)],
    )
    assert code == 0
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "ok"
    for name in (
        "config.json", "dictionary.tsv", "model.txt",
        "src_aligned.vec", "tgt_aligned.vec",
        "translation_report.tsv", "sentiment_report.tsv",
        "provenance.jsonl", "manifest.json",
    ):
        assert name in manifest["artifacts"]
        assert (run_dir / name).exists()
    report = (run_dir / "translation_report.tsv").read_text(encoding="utf-8")
    assert report.startswith("#")  # provenance header
    assert "P@5\t" in report


def test_pipeline_rerun_is_byte_identical(fixture_dir, tmp_path, capsys):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    for r in (r1, r2):
        code = main(["pipeline", "--config", str(fixture_dir / "config.json"), "--out", str(r)])
        assert code == 0
    capsys.readouterr()
    for name in (
        "config.json", "dictionary.tsv", "model.txt", "src_aligned.vec",
        "tgt_aligned.vec", "translation_report.tsv", "sentiment_report.tsv",
        "translation_report.md", "sentiment_report.md",
        "provenance.jsonl", "manifest.json",
    ):
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name


@pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs fork and CPU affinity with 2 CPUs",
)
def test_pipeline_forked_load_matches_one_cpu_run(fixture_dir, tmp_path):
    # with 2 CPUs the target file is parsed in a forked worker while BLAS
    # threads run; Python >= 3.12 warns about such a fork, and that warning
    # must not fail the run. With one CPU the loads run in order.
    one_cpu = (
        "import os, sys; os.sched_setaffinity(0, [min(os.sched_getaffinity(0))]); "
        "from xlembed.cli import main; sys.exit(main())"
    )
    results = {}
    for name, head in (("forked", ["-m", "xlembed.cli"]), ("one", ["-c", one_cpu])):
        res = subprocess.run(
            [sys.executable, *head, "pipeline",
             "--config", str(fixture_dir / "config.json"),
             "--out", str(tmp_path / name)],
            env=child_env(
                OPENBLAS_NUM_THREADS="2", PYTHONWARNINGS="error::DeprecationWarning"
            ),
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        results[name] = res.stderr
    assert results["forked"] == results["one"]
    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
    for name in manifest["artifacts"]:
        forked = (tmp_path / "forked" / name).read_bytes()
        assert forked == (tmp_path / "one" / name).read_bytes(), name


@pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs fork and CPU affinity with 2 CPUs",
)
def test_vocab_and_stats_forked_count_match_one_cpu_run(tmp_path):
    # more distinct tweets than one batch: with 2 CPUs the second half is
    # counted in a forked worker, with one CPU in this process
    from xlembed.corpus import BATCH_LINES

    corpus = tmp_path / "c.txt"
    with open(corpus, "wb") as fh:
        for i in range(BATCH_LINES * 3):
            j = i % 5000  # 5001 distinct tweets: line 5 has a byte replaced
            tweet = f" Hola{j % 97} mundo {j % 1300} xD \U0001F44D\U0001F3FD #t{j % 7}"
            fh.write(tweet.encode() + (b" \xff" if i == 5 else b"") + b"\n")
    one_cpu = (
        "import os, sys; os.sched_setaffinity(0, [min(os.sched_getaffinity(0))]); "
        "from xlembed.cli import main; sys.exit(main())"
    )
    results = {}
    for name, head in (("forked", ["-m", "xlembed.cli"]), ("one", ["-c", one_cpu])):
        out = tmp_path / f"{name}.tsv"
        runs = [
            subprocess.run(
                [sys.executable, *head, *argv], env=child_env(),
                capture_output=True, text=True,
            )
            for argv in (["vocab", str(corpus), "--out", str(out)],
                         ["stats", str(corpus), str(corpus)])
        ]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr + runs[1].stderr
        results[name] = [(r.stdout, r.stderr) for r in runs], out.read_bytes()
    assert results["forked"] == results["one"]
    (vocab_run, stats_run), _ = results["one"]
    assert vocab_run[1].count("U+FFFD") == stats_run[1].count("U+FFFD") == 1
    assert stats_run[0].splitlines()[1].split("\t")[1:3] == ["5001", "7287"]


def test_pipeline_refuses_non_empty_run_dir(fixture_dir, tmp_path, capsys):
    run_dir = tmp_path / "occupied"
    run_dir.mkdir()
    (run_dir / "junk.txt").write_text("x", encoding="utf-8")
    code, _, err = _run(
        capsys,
        ["pipeline", "--config", str(fixture_dir / "config.json"), "--out", str(run_dir)],
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert "write-once" in payload["error"]


def test_pipeline_external_seed_pairs_logged(fixture_dir, tmp_path, capsys):
    cfg = json.loads((fixture_dir / "config.json").read_text(encoding="utf-8"))
    cfg["dictionary"] = {"mode": "external-seed", "file": "gold.txt", "k": 25}
    cfg.pop("eval")
    cfg_path = fixture_dir / "config_seed.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    run_dir = tmp_path / "seedrun"
    code, _, _ = _run(capsys, ["pipeline", "--config", str(cfg_path), "--out", str(run_dir)])
    assert code == 0
    records = [
        json.loads(line)
        for line in (run_dir / "provenance.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    dict_rec = next(r for r in records if r["stage"] == "dictionary")
    assert dict_rec["details"]["pairs"] == 25
    assert dict_rec["details"]["mode"] == "external-seed"
    # dictionary artifact itself carries exactly 25 lines
    lines = (run_dir / "dictionary.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 25


def test_pipeline_stage_error_reports_stage(tmp_path, capsys):
    # two corpora with disjoint vocabularies: the align stage must fail on
    # the empty dictionary and say so
    import warnings

    from xlembed import save_embeddings
    from xlembed.corpus import write_vocab_tsv

    from synthetic import _space, unit_gaussian_rows

    rng = np.random.default_rng(0)
    fx = tmp_path / "fx"
    fx.mkdir()
    a = _space([f"a{i}" for i in range(12)], unit_gaussian_rows(rng, 12, 4),
               np.arange(12, 0, -1))
    b = _space([f"b{i}" for i in range(12)], unit_gaussian_rows(rng, 12, 4),
               np.arange(12, 0, -1))
    save_embeddings(a, fx / "src.vec")
    save_embeddings(b, fx / "tgt.vec")
    write_vocab_tsv(a.vocab, fx / "sv.tsv")
    write_vocab_tsv(b.vocab, fx / "tv.tsv")
    cfg = {
        "src": {"embeddings": "src.vec", "vocab": "sv.tsv"},
        "tgt": {"embeddings": "tgt.vec", "vocab": "tv.tsv"},
        "dictionary": {"mode": "identical"},
    }
    (fx / "c.json").write_text(json.dumps(cfg), encoding="utf-8")
    run_dir = tmp_path / "failrun"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code, _, err = _run(
            capsys, ["pipeline", "--config", str(fx / "c.json"), "--out", str(run_dir)]
        )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["stage"] == "align"
    assert "config.json" in payload["partial_artifacts"]
    # manifest records the failure too
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "error"
    assert manifest["error"]["stage"] == "align"


STAGES = [
    "config", "load-embeddings", "normalize", "dictionary", "align", "refine",
    "eval-translate", "eval-sentiment",
]


def _bad_header(fx, cfg, monkeypatch):
    (fx / "bad.vec").write_text("three 8\n", encoding="utf-8")
    cfg["src"]["embeddings"] = "bad.vec"


def _zero_row(fx, cfg, monkeypatch):
    lines = (fx / "src.vec").read_text(encoding="utf-8").splitlines(keepends=True)
    token, *values = lines[1].split()
    lines[1] = " ".join([token] + ["0.000000"] * len(values)) + "\n"
    (fx / "zero.vec").write_text("".join(lines), encoding="utf-8")
    cfg["src"]["embeddings"] = "zero.vec"


def _one_field_dictionary_line(fx, cfg, monkeypatch):
    (fx / "one.txt").write_text("w0001\n", encoding="utf-8")
    cfg["dictionary"] = {"mode": "file", "file": "one.txt"}


def _oov_dictionary(fx, cfg, monkeypatch):
    # the one pair is out of vocabulary: align gets an empty dictionary
    (fx / "oov.txt").write_text("nosuch nosuch\n", encoding="utf-8")
    cfg["dictionary"] = {"mode": "file", "file": "oov.txt"}


def _save_fails(name, cfg, monkeypatch):
    # by path, not by call count: the target side may be saved in a worker
    from xlembed import pipeline

    save = pipeline.save_embeddings

    def fail(space, path):
        if Path(path).name == name:
            raise OSError(f"{path}: no space left on device")
        save(space, path)

    monkeypatch.setattr(pipeline, "save_embeddings", fail)
    cfg["save_aligned_embeddings"] = True


def _first_save_fails(fx, cfg, monkeypatch):
    _save_fails("src_aligned.vec", cfg, monkeypatch)


def _second_save_fails(fx, cfg, monkeypatch):
    _save_fails("tgt_aligned.vec", cfg, monkeypatch)


def _three_field_gold_line(fx, cfg, monkeypatch):
    (fx / "gold3.txt").write_text("w0001 w0001 w0002\n", encoding="utf-8")
    cfg["eval"]["translation"]["test_dictionary"] = "gold3.txt"


def _bad_label(fx, cfg, monkeypatch):
    (fx / "labels.tsv").write_text("maybe\tw0001\n", encoding="utf-8")
    cfg["eval"]["sentiment"]["test"] = "labels.tsv"


@pytest.mark.parametrize(
    "stage, trigger",
    [
        ("load-embeddings", _bad_header),
        ("normalize", _zero_row),
        ("dictionary", _one_field_dictionary_line),
        ("align", _oov_dictionary),
        ("refine", _first_save_fails),
        ("refine", _second_save_fails),
        ("eval-translate", _three_field_gold_line),
        ("eval-sentiment", _bad_label),
    ],
)
def test_pipeline_failure_names_its_stage_and_lists_every_file(
    fixture_dir, tmp_path, capsys, monkeypatch, stage, trigger
):
    # the JSON error and the manifest name the failing stage, provenance
    # holds exactly the stages before it, and every file left is listed
    cfg = json.loads((fixture_dir / "config.json").read_text(encoding="utf-8"))
    trigger(fixture_dir, cfg, monkeypatch)
    path = fixture_dir / "fail.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    run_dir = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code, _, err = _run(
            capsys, ["pipeline", "--config", str(path), "--out", str(run_dir)]
        )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert payload["stage"] == manifest["error"]["stage"] == stage
    records = (run_dir / "provenance.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(r)["stage"] for r in records] == STAGES[: STAGES.index(stage)]
    on_disk = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
    assert sorted(payload["partial_artifacts"]) == on_disk
    assert manifest["artifacts"] == on_disk + ["manifest.json"]


def test_pipeline_bad_config_path_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps({"src": {"embeddings": "missing.vec"}, "tgt": {}}),
        encoding="utf-8",
    )
    code, _, err = _run(capsys, ["pipeline", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert "missing.vec" in payload["error"]


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"src":\n  {"embeddings": },\n}\n',
         "line 2: Expecting value at column 18"),
        (b'{"seed": 1,\n "x": "ab\xffc"}\n',
         "line 2: invalid UTF-8 byte 0xff at column 10"),
    ],
    ids=["malformed-json", "not-utf-8"],
)
def test_pipeline_unreadable_config_names_file_and_line(
    tmp_path, capsys, content, message
):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(content)
    runs = tmp_path / "runs"
    code, _, err = _run(
        capsys, ["pipeline", "--config", str(cfg), "--runs-dir", str(runs)]
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == f"{cfg}: {message}"
    assert not runs.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("dictionary", "classes", ["numeral", "emojii"]),
        ("translation", "ks", [0, 1, 5]),
        ("translation", "retrieval", "dot"),
        ("mapper", "retrieval", "dot"),
        ("mapper", "max_iters", 0),
        ("mapper", "induce_vocab_cutoff", 0),
        ("mapper", "reweight_s", "abc"),
        ("mapper", "tol", "x"),
        ("dictionary", "k", "abc"),
        ("refine", "relative_frequencies", "no"),
        (None, "save_aligned_embeddings", "false"),
        ("mapper", "max_iters", 2.7),
        ("mapper", "max_iter", 5),
        (None, "normalize", ["centre"]),
        ("sentiment", "scheme", 4),
        ("translation", "ks", [True]),
        (None, "evaluation", {"translation": {}}),
    ],
)
def test_pipeline_bad_value_fails_before_any_stage(
    fixture_dir, tmp_path, capsys, section, key, value
):
    cfg = json.loads((fixture_dir / "config.json").read_text(encoding="utf-8"))
    cfg["mapper"] = {"method": "self-learn"}
    # a second bad value: both must be reported in the one error
    cfg["refine"] = {"mode": "averaged"}
    # section None is the top level; translation and sentiment live in eval
    prefix = f"eval.{section}" if section in ("translation", "sentiment") else section
    block = cfg
    for part in prefix.split(".") if prefix else ():
        block = block[part]
    block[key] = value
    path = fixture_dir / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    run_dir = tmp_path / "run"
    code, _, err = _run(
        capsys, ["pipeline", "--config", str(path), "--out", str(run_dir)]
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert "stage" not in payload
    assert (f"{prefix}.{key}" if prefix else key) in payload["error"]
    assert "refine.mode" in payload["error"]
    if key == "max_iter":
        assert "did you mean 'max_iters'" in payload["error"]
    assert not run_dir.exists()


def test_pipeline_config_is_validated_when_built(fixture_dir, tmp_path):
    from xlembed import PipelineConfig, run_pipeline

    raw = json.loads((fixture_dir / "config.json").read_text(encoding="utf-8"))
    raw["mapper"] = {"method": "selflearn"}
    raw["refine"] = {"mode": "weigthed"}
    run_dir = tmp_path / "run"
    with pytest.raises(ValueError) as err:
        run_pipeline(PipelineConfig(raw=raw, base_dir=fixture_dir), run_dir)
    assert "mapper.method" in str(err.value)
    assert "refine.mode" in str(err.value)
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "align_args, mapper",
    [
        ([], {"method": "procrustes"}),
        (
            ["--self-learn", "--reweight-s", "0.5"],
            {"method": "self-learn", "reweight_s": 0.5},
        ),
    ],
)
def test_cli_align_matches_pipeline_bytes(
    fixture_dir, tmp_path, capsys, align_args, mapper
):
    # `xlembed dict` + `xlembed align` and a pipeline run on the same
    # dictionary file go through the same stage code: identical bytes
    fx = fixture_dir
    d = tmp_path / "d.tsv"
    vocabs = ["--src-vocab", str(fx / "src_vocab.tsv"),
              "--tgt-vocab", str(fx / "tgt_vocab.tsv")]
    assert _run(capsys, ["dict", *vocabs, "--out", str(d)])[0] == 0
    cli = tmp_path / "cli"
    cli.mkdir()
    code, _, _ = _run(
        capsys,
        [
            "align", "--src-emb", str(fx / "src.vec"),
            "--tgt-emb", str(fx / "tgt.vec"), *vocabs, "--dict", str(d),
            "--out-model", str(cli / "model.txt"),
            "--out-src", str(cli / "src_aligned.vec"),
            "--out-tgt", str(cli / "tgt_aligned.vec"),
            *align_args,
        ],
    )
    assert code == 0
    cfg = json.loads((fx / "config.json").read_text(encoding="utf-8"))
    cfg.pop("eval")
    cfg["dictionary"] = {"mode": "file", "file": str(d)}
    cfg["mapper"] = mapper
    cfg["refine"] = {"mode": "none"}
    path = fx / "agree.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    run_dir = tmp_path / "run"
    code, _, _ = _run(capsys, ["pipeline", "--config", str(path), "--out", str(run_dir)])
    assert code == 0
    for name in ("model.txt", "src_aligned.vec", "tgt_aligned.vec"):
        assert (cli / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_readme_config_reference_matches_schema(fixture_dir):
    # the README's example validates, and its key table names every key
    from pathlib import Path

    from xlembed.config import SCHEMA, PipelineConfig

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Pipeline config", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    PipelineConfig(raw=example, base_dir=fixture_dir).validate()
    missing = [key for key in SCHEMA if f"| `{key}` |" not in section]
    assert not missing


# -------------------------------------------------------------- startup

_START = """
import sys
from xlembed.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version, --help and usage errors
    code = exc.code
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, code, numpy_loaded",
    [
        (["--version"], 0, False),
        (["--help"], 0, False),
        (["align", "--help"], 0, False),
        (["stats"], 2, False),  # no corpus
        (["eval-translate", "--src-emb", "a", "--tgt-emb", "b", "--test", "t",
          "--ks", "0"], 2, False),
        (["vocab", "{corpus}", "--out", "{out}", "--min-count", "1"], 0, False),
        (["stats", "{corpus}"], 0, False),
        # a numeric command loads numpy before it runs, even if it then fails
        (["dict", "--src-vocab", "{missing}", "--tgt-vocab", "{missing}",
          "--out", "{out}"], 1, True),
    ],
)
def test_commands_without_arithmetic_start_without_numpy(
    tmp_path, argv, code, numpy_loaded
):
    corpus = tmp_path / "c.txt"
    corpus.write_text("hola mundo \U0001F602 5\n", encoding="utf-8")
    paths = {
        "corpus": corpus, "out": tmp_path / "out.tsv", "missing": tmp_path / "no.tsv"
    }
    res = subprocess.run(
        [sys.executable, "-c", _START, *(a.format(**paths) for a in argv)],
        env=child_env(), capture_output=True, text=True,
    )
    assert res.stdout.split()[-2:] == [str(code), str(numpy_loaded)], res.stderr


def test_version_imports_neither_the_worker_helper_nor_pickle():
    code = (
        "import sys\nfrom xlembed.cli import main\ntry:\n    main(['--version'])\n"
        "except SystemExit:\n    pass\n"
        "print(*(m in sys.modules for m in ('xlembed.workers', 'pickle')))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert res.stdout.split()[-2:] == ["False", "False"], res.stderr


def test_count_corpus_imports_the_worker_helper_before_reading():
    # on Python >= 3.12 importing xlembed.workers adds a warning filter, which
    # clears every once-per-place registry; imported after a corpus warning,
    # `xlembed stats c c` would show that warning again for the second file
    code = (
        "import sys\nfrom xlembed.cli import count_corpus\nseen = []\n"
        "def lines():\n    seen.append('xlembed.workers' in sys.modules)\n"
        "    yield 'hola'\n"
        "before = 'xlembed.workers' in sys.modules\n"
        "count_corpus(lines())\nprint(before, *seen)"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert res.stdout.split() == ["False", "True"], res.stderr


def test_lazy_package_exports_are_the_module_definitions():
    import importlib

    import xlembed

    for module, names in xlembed._EXPORTS.items():
        defined = importlib.import_module(f"xlembed.{module}")
        for name in names:
            assert getattr(xlembed, name) is getattr(defined, name), name
            assert name in dir(xlembed)
    with pytest.raises(AttributeError):
        xlembed.no_such_name


# --------------------------------------------------------------- memory

_MMAP_PROBE = """
import ctypes, sys
import numpy as np
import xlembed
from xlembed.cli import main

class MallInfo2(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in (
        "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks "
        "fordblks keepcost").split()]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
np.ones(2 << 20).sum()  # freeing a 16 MiB block raises glibc's threshold
assert main(["stats", sys.argv[1]]) == 0
before = libc.mallinfo2().hblkhd
block = np.ones(1 << 20)  # 8 MiB
print(libc.mallinfo2().hblkhd - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or not hasattr(ctypes.CDLL(None), "mallinfo2"),
    reason="needs glibc >= 2.33",
)
def test_main_maps_large_blocks_after_a_large_free(tmp_path):
    # after main, an 8 MiB array is a mapping of its own even though a
    # freed 16 MiB block had raised glibc's mmap threshold above 8 MiB:
    # otherwise such blocks share the heap and peak RSS moves with its layout
    corpus = tmp_path / "c.txt"
    corpus.write_text("hola mundo\n", encoding="utf-8")
    res = subprocess.run(
        [sys.executable, "-c", _MMAP_PROBE, str(corpus)],
        env=child_env(), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert int(res.stdout.split()[-1]) >= 8 << 20
