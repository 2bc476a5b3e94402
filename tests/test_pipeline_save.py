"""pipeline.save_pair: the two embedding files of an aligned space, the
target side written in a forked worker when fork and a second CPU are
available.

Every test of the `path` fixture runs on both paths (the CPU check is
patched), and each ends with no child process left behind.
"""

import json
import os
import signal

import numpy as np
import pytest

from xlembed import make_space, save_embeddings
from xlembed import embeddings, pipeline, workers
from xlembed.pipeline import PipelineConfig, PipelineError, run_pipeline, save_pair
from xlembed.refine import CrossLingualSpace
from synthetic import write_pipeline_fixture


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


def _run_config(tmp_path):
    """The n=1200 pipeline fixture with save_aligned_embeddings."""
    config_path = write_pipeline_fixture(tmp_path / "fx", n=1200, d=10)
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    raw["save_aligned_embeddings"] = True
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    return config_path


def _failed_run(config_path, run):
    """Run a config that fails; returns the PipelineError, the files left in
    the run directory (the manifest aside) and the manifest."""
    with pytest.raises(PipelineError) as err:
        run_pipeline(PipelineConfig.from_file(config_path), run)
    on_disk = sorted(p.name for p in run.iterdir() if p.name != "manifest.json")
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    return err.value, on_disk, manifest


def test_save_failing_mid_file_lists_the_partial_file(tmp_path, monkeypatch, path):
    # each process's second formatted block fails: the source file stops
    # after its first block; the target file too when a worker writes it,
    # and in one process the target save (blocks 3 to 5) completes
    mode, _ = path
    config_path = _run_config(tmp_path)
    real = embeddings._format_block
    blocks = []

    def format_block(block):
        blocks.append(len(block))
        if len(blocks) == 2:
            raise OSError("no space left on device")
        return real(block)

    monkeypatch.setattr(embeddings, "_format_block", format_block)
    run = tmp_path / "run"
    error, on_disk, manifest = _failed_run(config_path, run)
    assert error.stage == "refine"
    assert str(error.cause) == "no space left on device"
    assert {"src_aligned.vec", "tgt_aligned.vec"} <= set(on_disk)
    assert sorted(error.artifacts) == on_disk
    assert manifest["artifacts"] == on_disk + ["manifest.json"]
    rows = {
        name: len((run / name).read_text(encoding="utf-8").splitlines()) - 1
        for name in ("src_aligned.vec", "tgt_aligned.vec")
    }
    first = embeddings.BLOCK_ROWS
    assert rows == {
        "src_aligned.vec": first,
        "tgt_aligned.vec": first if mode == "forked" else 1200,
    }


def test_stage_writer_failing_mid_file_lists_the_partial_file(
    tmp_path, monkeypatch
):
    def save_part(dictionary, path):
        path.write_text("a\ta\n", encoding="utf-8")
        raise OSError("no space left on device")

    config_path = _run_config(tmp_path)
    monkeypatch.setattr(pipeline, "save_dictionary", save_part)
    error, on_disk, manifest = _failed_run(config_path, tmp_path / "run")
    assert error.stage == "dictionary"
    assert on_disk == ["config.json", "dictionary.tsv", "provenance.jsonl"]
    assert sorted(error.artifacts) == on_disk
    assert manifest["artifacts"] == on_disk + ["manifest.json"]
