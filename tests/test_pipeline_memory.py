"""Whole-run memory of run_pipeline: peak = live set + O(score block).

tracemalloc traces numpy's buffers, so the peak is counted in matrices
(one side's V x d float64 embeddings) and score blocks (the rows of one
scoring pass against every target). It misses BLAS buffers: OpenBLAS packs
the left operand of a product into memory of its own, which stays resident
for the rest of the process. The subprocess tests at the end read the
process's resident set from /proc instead, so they see those buffers.
"""

import ctypes
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import xlembed.pipeline as pipeline
import xlembed.scoring as scoring
from xlembed import CrossLingualSpace, build_identical_dictionary, make_space
from xlembed.mapper import apply_mapping
from xlembed.pipeline import PipelineConfig, run_pipeline
from synthetic import write_pipeline_fixture
from test_cli import child_env

N, D = 2000, 100


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_pipeline_peak_below_five_matrices_and_a_block_and_a_quarter(
    tmp_path, retrieval
):
    """The peak is P@k: the two aligned matrices, which it only reads,
    their reciprocal row norms, and one score block with its sub-block
    copies. A second block buffer or an argpartition
    index block pushes CSLS past the bound; so does keeping the
    normalized inputs past align. The run is made once untraced first,
    so one-time lazy imports inside numpy are not counted."""
    config_path = write_pipeline_fixture(tmp_path / "fx", n=N, d=D)
    raw = json.loads(config_path.read_text())
    raw["eval"]["translation"]["retrieval"] = retrieval
    config_path.write_text(json.dumps(raw))
    config = PipelineConfig.from_file(config_path)
    run_pipeline(config, tmp_path / "warm")
    tracemalloc.start()
    try:
        run_pipeline(config, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = N * D * 8
    block = scoring.block_rows(N) * N * 8
    assert peak < 5 * matrix + 1.25 * block, (
        f"run_pipeline ({retrieval}) peaked at {peak / matrix:.2f} matrices "
        f"= 5 matrices + {(peak - 5 * matrix) / block:.2f} score blocks"
    )


@pytest.fixture(scope="module")
def large_fixture(tmp_path_factory):
    """A pipeline fixture where one matrix (5000 x 300, 12 MB) exceeds one
    score block (256 x 5000, 10.2 MB), so a matrix saved shows."""
    return write_pipeline_fixture(tmp_path_factory.mktemp("fx"), n=5000, d=300)


@pytest.mark.parametrize("case", ["cosine", "csls", "meemi", "reweight"])
def test_pipeline_peak_below_three_matrices_and_scratch(
    tmp_path, large_fixture, case
):
    """Every stage holds at most three matrices: the two loaded sides,
    normalized in place, and apply_mapping's output (align maps the
    target side of a re-weighted model after it drops the normalized
    source); refine works in place on the aligned pair (MEEMI frees each
    side once it is mapped) and P@k only reads the aligned pair, holding
    no unit matrix. Scratch on top is _average's weighted rows of
    the paired tokens, or one score block with its sub-block copies. A
    normalized copy, a refined copy or two unit matrices in P@k each push
    the run past the bound."""
    raw = json.loads(large_fixture.read_text())
    if case == "meemi":
        raw["refine"]["mode"] = "meemi"
    elif case == "reweight":
        raw["mapper"]["reweight_s"] = 0.5
    else:
        raw["eval"]["translation"]["retrieval"] = case
    config_path = large_fixture.parent / f"{case}.json"
    config_path.write_text(json.dumps(raw))
    config = PipelineConfig.from_file(config_path)
    run_pipeline(config, tmp_path / "warm")
    tracemalloc.start()
    try:
        run_pipeline(config, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, d = 5000, 300
    matrix = n * d * 8
    block = scoring.block_rows(n) * n * 8
    lines = (tmp_path / "run" / "dictionary.tsv").read_text(encoding="utf-8")
    pairs = [line.split("\t")[:2] for line in lines.splitlines()]
    paired = len({s for s, _ in pairs}) + len({t for _, t in pairs})
    scratch = paired * d * 8
    bound = 3 * matrix + scratch + 1.25 * block
    assert peak < bound, (
        f"run_pipeline ({case}) peaked at {peak / matrix:.2f} matrices, "
        f"over the bound of {bound / matrix:.2f}"
    )


def test_align_drops_the_normalized_source_before_the_target_is_mapped(
    monkeypatch,
):
    """A re-weighted model maps both sides. align consumes the pair, so
    when the target side is mapped only the normalized target and the
    mapped source are alive (plus the two vocabularies), unless the caller
    holds its own reference to the normalized source: a third matrix."""
    n, d = 2000, 100
    matrix = n * d * 8
    rng = np.random.default_rng(3)
    tokens = [f"w{i}" for i in range(n)]
    vocab = make_space(tokens, np.zeros((n, 1))).vocab
    dictionary = build_identical_dictionary(vocab, vocab)
    live = []

    def spy(model, space, side="src"):
        if side == "tgt":
            live.append(tracemalloc.get_traced_memory()[0])
        return apply_mapping(model, space, side=side)

    monkeypatch.setattr(pipeline, "apply_mapping", spy)
    for keep_source in (False, True):
        tracemalloc.start()
        try:
            pair = CrossLingualSpace(
                src=make_space(tokens, rng.normal(size=(n, d))),
                tgt=make_space(tokens, rng.normal(size=(n, d))),
            )
            kept = pair.src if keep_source else None
            _, space = pipeline.align(pair, dictionary, reweight_s=0.5)
        finally:
            tracemalloc.stop()
        assert pair.src is None and pair.tgt is None
        assert space.src.matrix.shape == space.tgt.matrix.shape == (n, d)
        del kept
    dropped, kept = live
    assert dropped < 2.75 * matrix, f"{dropped / matrix:.2f} matrices"
    assert kept - dropped > 0.9 * matrix


# One call on a fresh 5000 x 300 Gaussian pair, measured from inside the
# child. mallopt fixes glibc's mmap threshold at 4 MiB as cli.main does, and
# a 512-row product first starts OpenBLAS's threads and buffers. Freed heap
# chunks below a live one stay resident, so malloc_trim(0) returns them
# before each reading: what is left is live arrays and BLAS buffers. The
# caller keeps the input matrices, so no freed input offsets what the call
# adds.
_RSS_CHILD = """
import ctypes, json, sys
import numpy as np
from xlembed import (
    AlignmentModel, CrossLingualSpace, SelfLearnConfig, apply_mapping,
    dictionary_from_pairs, make_space, meemi_transform, reweight, self_learn,
)

libc = ctypes.CDLL(None)
libc.mallopt(-3, 4 << 20)

def rss():
    libc.malloc_trim(0)
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith("VmRSS:"))

n, d = 5000, 300
rng = np.random.default_rng(0)
tokens = [f"w{i}" for i in range(n)]
src = make_space(tokens, rng.normal(size=(n, d)))
tgt = make_space(tokens, rng.normal(size=(n, d)))
inputs = (src.matrix, tgt.matrix)
pairs = dictionary_from_pairs([(t, t) for t in tokens[:500]], src.vocab, tgt.vocab)
w = np.linalg.qr(rng.normal(size=(d, d)))[0]
# every token: a 500-pair dictionary is too small to show a packed copy
every = dictionary_from_pairs([(t, t) for t in tokens], src.vocab, tgt.vocab)
rng.normal(size=(512, d)) @ w
before = rss()
if sys.argv[1] == "apply_mapping":
    out = [apply_mapping(AlignmentModel(src_map=w), src).matrix]
elif sys.argv[1] == "meemi_transform":
    space = meemi_transform(CrossLingualSpace(src, tgt), pairs, consume=True)
    out = [space.src.matrix, space.tgt.matrix]
elif sys.argv[1] == "reweight":
    model = reweight(AlignmentModel(src_map=w), src, tgt, every)
    out = [model.src_map, model.tgt_map]
else:
    out = [self_learn(src, tgt, pairs, SelfLearnConfig(max_iters=1)).src_map]
print(json.dumps({"grew": rss() - before, "outputs": sum(a.nbytes for a in out)}))
"""


def _glibc_on_linux() -> bool:
    if not os.path.exists("/proc/self/status"):
        return False
    libc = ctypes.CDLL(None)
    return hasattr(libc, "mallopt") and hasattr(libc, "malloc_trim")


@pytest.mark.skipif(not _glibc_on_linux(), reason="needs /proc and glibc malloc")
@pytest.mark.parametrize(
    "call", ["apply_mapping", "meemi_transform", "self_learn", "reweight"]
)
def test_map_holds_no_blas_copy_of_the_matrix(call):
    """A d x d map applied to a whole matrix in one product makes OpenBLAS
    pack a copy of the matrix that stays resident, which tracemalloc does
    not see: each call grew VmRSS by 10-21 MiB above its outputs on a
    2-core x86-64 host (numpy 2.4, OpenBLAS 0.3.31). Applied in row blocks
    (scoring.map_rows), each call grows it by its outputs and at most
    about 3 MiB more. reweight mapped its 5000 dictionary rows in one
    product (12.3 MiB grown) until the map moved onto the d x d
    cross-covariance."""
    res = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, call],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    mib = 1 << 20
    assert got["grew"] < got["outputs"] + 4 * mib, (
        f"{call} grew VmRSS by {got['grew'] / mib:.1f} MiB for "
        f"{got['outputs'] / mib:.1f} MiB of outputs"
    )
