"""pipeline.load_pair: the two embedding files of a pair, the target side
parsed in a forked worker when fork and a second CPU are available.

Every test runs on both paths (the CPU check is patched), and each ends
with no child process left behind.
"""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from xlembed import EmbeddingFormatError, load_embeddings, make_space, save_embeddings
from xlembed import pipeline, workers
from xlembed.corpus import write_vocab_tsv
from xlembed.pipeline import load_pair

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture(params=["forked", "sequential"])
def path(request, monkeypatch):
    """The load path under test; the parent's load_embeddings calls are
    counted, so the forked path shows one and the sequential path two."""
    if request.param == "forked" and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(workers, "_two_cpus", lambda: request.param == "forked")
    calls = []
    real = pipeline.load_embeddings

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_embeddings", counted)
    yield request.param, calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _write_side(root, name, n=700, d=5, seed=0, duplicate=False, sidecar=False):
    """An embeddings file of n rows (more than one parse block), optionally
    with a duplicate token row and a sidecar vocabulary lacking one token."""
    rng = np.random.default_rng(seed)
    tokens = [f"{name}{i}" for i in range(n)]
    vec = root / f"{name}.vec"
    save_embeddings(make_space(tokens, rng.standard_normal((n, d))), vec)
    if duplicate:
        with open(vec, "r+", encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
            lines[0] = f"{n + 1} {d}\n"
            lines.append(lines[3])
            fh.seek(0)
            fh.write("".join(lines))
    tsv = None
    if sidecar:
        tsv = root / f"{name}.tsv"
        kept = tokens[:-1]
        write_vocab_tsv(make_space(kept, np.zeros((len(kept), 1))).vocab, tsv)
    return vec, tsv


def _recorded(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_same_space(a, b):
    assert a.matrix.dtype == b.matrix.dtype == np.float64
    assert a.matrix.shape == b.matrix.shape
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.vocab.tokens == b.vocab.tokens
    assert a.vocab.freqs == b.vocab.freqs


@pytest.mark.parametrize("sidecar", [False, True])
def test_load_pair_equals_two_loads(tmp_path, path, sidecar):
    mode, calls = path
    src = _write_side(tmp_path, "s", seed=1, sidecar=sidecar)
    tgt = _write_side(tmp_path, "t", n=600, seed=2, sidecar=sidecar)
    pair, _ = _recorded(lambda: load_pair(src, tgt))
    assert calls == ([src[0]] if mode == "forked" else [src[0], tgt[0]])
    for got, (vec, tsv) in zip((pair.src, pair.tgt), (src, tgt)):
        expected, _ = _recorded(lambda: load_embeddings(vec, vocab_tsv=tsv))
        _assert_same_space(got, expected)


def test_load_pair_empty_target(tmp_path, path):
    src = _write_side(tmp_path, "s")
    tgt = tmp_path / "empty.vec"
    tgt.write_text("0 5\n", encoding="utf-8")
    got = load_pair(src, (tgt, None)).tgt
    assert got.matrix.shape == (0, 5) and got.vocab.tokens == []


def test_load_pair_warnings_in_order(tmp_path, path):
    src = _write_side(tmp_path, "s", seed=1, duplicate=True, sidecar=True)
    tgt = _write_side(tmp_path, "t", seed=2, duplicate=True, sidecar=True)
    expected = _recorded(
        lambda: [load_embeddings(v, vocab_tsv=t) for v, t in (src, tgt)]
    )[1]
    assert [str(tmp_path / "s") in m for _, m in expected] == [True] * 2 + [False] * 2
    _, got = _recorded(lambda: load_pair(src, tgt))
    assert got == expected


@pytest.mark.parametrize("action", ["default", "module-ignore"])
def test_load_pair_filters_see_the_worker_warnings_in_place(tmp_path, path, action):
    # the same file on both sides gives the same message from the same place
    # twice; the filters (once-per-place, or one naming the module) decide as
    # in two loads, which show it once under "default"
    side = _write_side(tmp_path, "s", duplicate=True)

    def shown(load):
        with warnings.catch_warnings(record=True) as caught:
            warnings.resetwarnings()
            warnings.simplefilter("default")
            if action == "module-ignore":
                warnings.filterwarnings("ignore", module="xlembed.embeddings")
            load()
        return [str(w.message) for w in caught]

    expected = shown(lambda: [load_embeddings(side[0]) for _ in range(2)])
    assert len(expected) == (1 if action == "default" else 0)
    assert shown(lambda: load_pair(side, side)) == expected


def test_load_pair_warning_as_error(tmp_path, path):
    src = _write_side(tmp_path, "s")
    tgt = _write_side(tmp_path, "t", duplicate=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="duplicate token"):
            load_pair(src, tgt)


def _bad(root, name, line):
    p = root / f"{name}.vec"
    p.write_text("2 2\na 1.0 2.0\nb 3.0\n" if line == 3 else "x\n", encoding="utf-8")
    return p


def test_load_pair_source_error_wins(tmp_path, path):
    src, tgt = _bad(tmp_path, "s", 1), _bad(tmp_path, "t", 3)
    with pytest.raises(EmbeddingFormatError, match=f"^{src}: line 1: "):
        load_pair((src, None), (tgt, None))


def test_load_pair_target_error(tmp_path, path):
    tgt = _bad(tmp_path, "t", 3)
    with pytest.raises(EmbeddingFormatError) as expected:
        load_embeddings(tgt)
    with pytest.raises(EmbeddingFormatError) as err:
        load_pair(_write_side(tmp_path, "s"), (tgt, None))
    assert str(err.value) == str(expected.value)
    assert str(err.value).startswith(f"{tgt}: line 3: ")
    with pytest.raises(FileNotFoundError, match="nope.vec"):
        load_pair(_write_side(tmp_path, "s"), (tmp_path / "nope.vec", None))


def test_load_pair_target_warns_then_fails(tmp_path, path):
    # the duplicate-token warning comes before the surplus-row error
    tgt = tmp_path / "t.vec"
    tgt.write_text("2 1\na 1.0\na 2.0\nb 3.0\n", encoding="utf-8")

    def outcome(load):
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            with pytest.raises(EmbeddingFormatError) as err:
                load()
        return str(err.value), [str(w.message) for w in shown]

    expected = outcome(lambda: load_embeddings(tgt))
    assert len(expected[1]) == 1 and "line 4" in expected[0]
    assert outcome(lambda: load_pair(_write_side(tmp_path, "s"), (tgt, None))) == expected


def _in_worker(monkeypatch, action):
    """Make pipeline.load_embeddings run `action` first when called in a
    forked worker; the parent's calls load as usual."""
    parent = os.getpid()
    real = pipeline.load_embeddings

    def load(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_embeddings", load)


@needs_fork
def test_load_pair_worker_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(workers, "_two_cpus", lambda: True)
    _in_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    src, tgt = _write_side(tmp_path, "s"), _write_side(tmp_path, "t")
    with pytest.raises(RuntimeError) as err:
        load_pair(src, tgt)
    assert str(err.value).startswith(f"{tgt[0]}: ")
    assert f"killed by signal {signal.SIGKILL.value}" in str(err.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_load_pair_source_error_kills_a_loading_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(workers, "_two_cpus", lambda: True)
    _in_worker(monkeypatch, lambda: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(EmbeddingFormatError):
        load_pair((_bad(tmp_path, "s", 1), None), _write_side(tmp_path, "t"))
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
