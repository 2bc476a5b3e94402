"""pipeline.save_pair: the two embedding files of an aligned space, the
target side written in a forked worker when fork and a second CPU are
available.

Every test of the `path` fixture runs on both paths (the CPU check is
patched), and each ends with no child process left behind.
"""

import os
import signal

import numpy as np
import pytest

from xlembed import make_space, save_embeddings
from xlembed import pipeline, workers
from xlembed.pipeline import save_pair
from xlembed.refine import CrossLingualSpace


@pytest.fixture(params=["forked", "sequential"])
def path(request, monkeypatch):
    """The save path under test; the paths of this process's save_embeddings
    calls are recorded, so the forked path shows one and the sequential
    path two."""
    if request.param == "forked" and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(workers, "_two_cpus", lambda: request.param == "forked")
    calls = []
    real = pipeline.save_embeddings
    parent = os.getpid()

    def recorded(space, path):
        if os.getpid() == parent:
            calls.append(path)
        real(space, path)

    monkeypatch.setattr(pipeline, "save_embeddings", recorded)
    yield request.param, calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _space(n_src=700, n_tgt=600, d=5):
    """More than one write block per side; one value on a rounding tie, so
    the target side also takes the `%` fallback."""
    rng = np.random.default_rng(0)
    src = rng.standard_normal((n_src, d))
    tgt = rng.standard_normal((n_tgt, d))
    tgt[550, 2] = 1 / 128
    return CrossLingualSpace(
        src=make_space([f"s{i}" for i in range(n_src)], src),
        tgt=make_space([f"t{i}" for i in range(n_tgt)], tgt),
    )


def _fail_on(monkeypatch, failing, action=None):
    """Make pipeline.save_embeddings raise OSError for the path `failing`,
    after calling `action` when one is given; other paths save as usual."""
    real = pipeline.save_embeddings

    def save(space, path):
        if path == failing:
            if action is not None:
                action()
            raise OSError(f"{path}: no space left on device")
        real(space, path)

    monkeypatch.setattr(pipeline, "save_embeddings", save)


def test_save_pair_equals_two_saves(tmp_path, path):
    mode, calls = path
    space = _space()
    src, tgt = tmp_path / "s.vec", tmp_path / "t.vec"
    saved = []
    save_pair(space, src, tgt, saved.append)
    assert saved == [src, tgt]
    assert calls == ([src] if mode == "forked" else [src, tgt])
    save_embeddings(space.src, tmp_path / "s2.vec")
    save_embeddings(space.tgt, tmp_path / "t2.vec")
    assert src.read_bytes() == (tmp_path / "s2.vec").read_bytes()
    assert tgt.read_bytes() == (tmp_path / "t2.vec").read_bytes()


def test_save_pair_target_error_is_raised(tmp_path, path):
    src, tgt = tmp_path / "s.vec", tmp_path / "nope" / "t.vec"
    saved = []
    with pytest.raises(FileNotFoundError) as err:
        save_pair(_space(), src, tgt, saved.append)
    assert err.value.filename == str(tgt)
    assert saved == [src] and src.exists()


def test_save_pair_source_error_wins(tmp_path, path):
    src, tgt = tmp_path / "nope" / "s.vec", tmp_path / "nope" / "t.vec"
    with pytest.raises(FileNotFoundError) as err:
        save_pair(_space(), src, tgt)
    assert err.value.filename == str(src)


def test_save_pair_target_written_after_a_source_error_is_listed(
    tmp_path, monkeypatch, path
):
    src, tgt = tmp_path / "s.vec", tmp_path / "t.vec"
    _fail_on(monkeypatch, src)
    saved = []
    with pytest.raises(OSError, match=f"^{src}: "):
        save_pair(_space(), src, tgt, saved.append)
    assert saved == [tgt] and not src.exists()
    save_embeddings(_space().tgt, tmp_path / "t2.vec")
    assert tgt.read_bytes() == (tmp_path / "t2.vec").read_bytes()


def test_save_pair_same_file_is_an_error(tmp_path, path):
    # two writers of one file at once would interleave their bytes
    mode, calls = path
    (tmp_path / "link").symlink_to(tmp_path)
    with pytest.raises(ValueError, match="same file"):
        save_pair(_space(), tmp_path / "x.vec", tmp_path / "link" / "x.vec")
    assert calls == [] and not (tmp_path / "x.vec").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_save_pair_worker_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(workers, "_two_cpus", lambda: True)
    src, tgt = tmp_path / "s.vec", tmp_path / "t.vec"
    _fail_on(monkeypatch, tgt, lambda: os.kill(os.getpid(), signal.SIGKILL))
    saved = []
    with pytest.raises(RuntimeError) as err:
        save_pair(_space(), src, tgt, saved.append)
    assert str(err.value) == (
        f"{tgt}: the worker ended without a result "
        f"(killed by signal {signal.SIGKILL.value})"
    )
    assert saved == [src]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
