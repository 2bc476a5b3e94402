"""Whole-run memory of run_pipeline: peak = live set + O(score block).

tracemalloc traces numpy's buffers, so the peak is counted in matrices
(one side's V x d float64 embeddings) and score blocks (the rows of one
scoring pass against every target).
"""

import json
import tracemalloc

import pytest

import xlembed.scoring as scoring
from xlembed.pipeline import PipelineConfig, run_pipeline
from synthetic import write_pipeline_fixture

N, D = 2000, 100


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_pipeline_peak_below_five_matrices_and_a_block_and_a_quarter(
    tmp_path, retrieval
):
    """The two loaded inputs, two unit copies inside P@k and one score
    block with its sub-block copies. A second block buffer or an
    argpartition index block pushes CSLS past the bound; so does keeping
    the normalized inputs past align. The run is made once untraced
    first, so one-time lazy imports inside numpy are not counted."""
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
