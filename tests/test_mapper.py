import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xlembed import (
    CrossLingualSpace,
    SelfLearnConfig,
    apply_mapping,
    build_identical_dictionary,
    make_space,
    normalize,
    precision_at_k,
    self_learn,
    solve_procrustes,
)
from xlembed import mapper, scoring
from xlembed.mapper import AlignmentModel, reweight, save_model
from synthetic import (
    held_out_test,
    overlap_benchmark,
    rotation_benchmark,
    unit_gaussian_rows,
)


# ------------------------------------------------------------- oracles
#
# Written before the assertions that use them; they do not share the SVD
# code path under test.

def rot(theta_deg: float) -> np.ndarray:
    """Row-vector rotation: (1,0) @ rot(t) = (cos t, sin t)."""
    t = math.radians(theta_deg)
    return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])


def refl(theta_deg: float) -> np.ndarray:
    t = math.radians(theta_deg)
    return np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])


def grid_oracle(x: np.ndarray, y: np.ndarray, step_deg: float = 0.01):
    """Exhaustive search over 2-D rotations and reflections.

    Returns (best Frobenius error, best angle in degrees, is_reflection).
    Uses the expansion |XR-Y|^2 = |X|^2 + |Y|^2 - 2 tr(R^T M), M = X^T Y;
    the expansion itself is cross-checked against a materialized product.
    """
    m = x.T @ y
    theta = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    c, s = np.cos(theta), np.sin(theta)
    base = float((x * x).sum() + (y * y).sum())
    rot_sq = base - 2.0 * ((m[0, 0] + m[1, 1]) * c + (m[0, 1] - m[1, 0]) * s)
    ref_sq = base - 2.0 * ((m[0, 0] - m[1, 1]) * c + (m[0, 1] + m[1, 0]) * s)
    i_rot = int(np.argmin(rot_sq))
    i_ref = int(np.argmin(ref_sq))
    if rot_sq[i_rot] <= ref_sq[i_ref]:
        best_sq, angle, is_ref = rot_sq[i_rot], float(np.degrees(theta[i_rot])), False
    else:
        best_sq, angle, is_ref = ref_sq[i_ref], float(np.degrees(theta[i_ref])), True
    mat = refl(angle) if is_ref else rot(angle)
    direct = np.linalg.norm(x @ mat - y) ** 2
    assert abs(direct - best_sq) < 1e-8 * (1.0 + abs(best_sq))
    return math.sqrt(max(best_sq, 0.0)), angle, is_ref


def polar_oracle(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of m via symmetric eigendecomposition:
    the closed-form optimum W = m (m^T m)^(-1/2)."""
    vals, vecs = np.linalg.eigh(m.T @ m)
    return m @ (vecs @ np.diag(vals**-0.5) @ vecs.T)


def angle_of(w: np.ndarray) -> float:
    """Angle in degrees of a 2-D rotation matrix (row convention)."""
    return math.degrees(math.atan2(w[0, 1], w[0, 0])) % 360.0


def circ_diff(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _pair_spaces(x, y, prefix="p"):
    tokens = [f"{prefix}{i:04d}" for i in range(x.shape[0])]
    src = make_space(tokens, x)
    tgt = make_space(tokens, y)
    return src, tgt, build_identical_dictionary(src.vocab, tgt.vocab)


# ---------------------------------------------------------- procrustes

def test_identity_dictionary_gives_identity():
    rng = np.random.default_rng(0)
    x = unit_gaussian_rows(rng, 40, 6)
    src, tgt, d = _pair_spaces(x, x.copy())
    model = solve_procrustes(src, tgt, d)
    assert np.max(np.abs(model.src_map - np.eye(6))) < 1e-6


def test_recovers_30_degree_rotation():
    rng = np.random.default_rng(1)
    x = unit_gaussian_rows(rng, 50, 2)
    y = x @ rot(30.0)
    src, tgt, d = _pair_spaces(x, y)
    model = solve_procrustes(src, tgt, d)

    assert np.linalg.norm(x @ model.src_map - y) < 1e-8
    assert np.max(np.abs(model.src_map - rot(30.0))) < 1e-10

    best_err, best_angle, is_ref = grid_oracle(x, y)
    assert not is_ref
    assert circ_diff(best_angle, 30.0) <= 0.01
    # the closed-form solve is at least as good as the exhaustive grid
    assert np.linalg.norm(x @ model.src_map - y) <= best_err + 1e-8


def test_noisy_rotation_angle_within_half_degree():
    rng = np.random.default_rng(2)
    theta = 137.25
    x = unit_gaussian_rows(rng, 200, 2)
    y = x @ rot(theta) + 0.01 * rng.normal(size=(200, 2))
    src, tgt, d = _pair_spaces(x, y)
    model = solve_procrustes(src, tgt, d)

    _, oracle_angle, is_ref = grid_oracle(x, y)
    assert not is_ref
    assert circ_diff(oracle_angle, theta) <= 0.5
    assert circ_diff(angle_of(model.src_map), theta) <= 0.5
    # solver agrees with the grid winner to within the grid resolution
    assert circ_diff(angle_of(model.src_map), oracle_angle) <= 0.02


@pytest.mark.parametrize("seed", range(5))
def test_procrustes_optimal_on_2d_grid(seed):
    rng = np.random.default_rng(100 + seed)
    x = unit_gaussian_rows(rng, 60, 2)
    y = unit_gaussian_rows(rng, 60, 2)  # unrelated: reflections can win
    src, tgt, d = _pair_spaces(x, y)
    model = solve_procrustes(src, tgt, d)
    best_err, _, _ = grid_oracle(x, y)
    assert np.linalg.norm(x @ model.src_map - y) <= best_err + 1e-8


def test_procrustes_matches_polar_oracle():
    rng = np.random.default_rng(3)
    x = unit_gaussian_rows(rng, 80, 7)
    y = unit_gaussian_rows(rng, 80, 7)
    src, tgt, d = _pair_spaces(x, y)
    model = solve_procrustes(src, tgt, d)
    assert np.max(np.abs(model.src_map - polar_oracle(x.T @ y))) < 1e-10


def test_multi_pair_sources_weight_by_occurrence():
    from xlembed import dictionary_from_pairs

    rng = np.random.default_rng(4)
    src = make_space([f"s{i}" for i in range(10)], unit_gaussian_rows(rng, 10, 5))
    tgt = make_space([f"t{i}" for i in range(20)], unit_gaussian_rows(rng, 20, 5))
    pairs = [(f"s{i}", f"t{2 * i}") for i in range(10)] + [
        (f"s{i}", f"t{2 * i + 1}") for i in range(10)
    ]
    d = dictionary_from_pairs(pairs, src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)
    # per-occurrence stacking: each source row appears twice in X
    x = src.matrix[d.src_indices]
    y = tgt.matrix[d.tgt_indices]
    assert x.shape[0] == 20
    assert np.max(np.abs(model.src_map - polar_oracle(x.T @ y))) < 1e-10


def test_orthogonality_over_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(20, 200))
        d = int(rng.choice([2, 5, 20]))
        x = unit_gaussian_rows(rng, n, d)
        y = unit_gaussian_rows(rng, n, d)
        src, tgt, dct = _pair_spaces(x, y)
        w = solve_procrustes(src, tgt, dct).src_map
        assert np.max(np.abs(w.T @ w - np.eye(d))) < 1e-6


def test_procrustes_deterministic():
    src, tgt, _ = rotation_benchmark(n=100, d=8, seed=6)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    w1 = solve_procrustes(src, tgt, d).src_map
    w2 = solve_procrustes(src, tgt, d).src_map
    assert np.array_equal(w1, w2)


def test_procrustes_errors():
    rng = np.random.default_rng(7)
    x = unit_gaussian_rows(rng, 10, 3)
    src, tgt, d = _pair_spaces(x, x.copy())
    with pytest.warns(UserWarning):
        empty = build_identical_dictionary(
            make_space(["only"], [[1.0, 0.0, 0.0]]).vocab,
            make_space(["other"], [[1.0, 0.0, 0.0]]).vocab,
        )
    with pytest.raises(ValueError):
        solve_procrustes(src, tgt, empty)
    wrong = make_space(["p0000"], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        solve_procrustes(src, wrong, d)


# --------------------------------------------------------- self-learning

def test_self_learn_full_gold_converges_fast():
    src, tgt, _ = rotation_benchmark(n=400, d=10, seed=8)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    one_shot = solve_procrustes(src, tgt, d)
    model = self_learn(src, tgt, d)
    assert model.iterations <= 2
    assert model.dict_cosines[-1] >= one_shot.dict_cosines[-1] - 1e-9


def test_self_learn_empty_seed_rejected():
    src, tgt, _ = rotation_benchmark(n=50, d=4, seed=9)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        empty = build_identical_dictionary(
            make_space(["a"], [[1.0] * 4]).vocab,
            make_space(["b"], [[1.0] * 4]).vocab,
        )
    with pytest.raises(ValueError):
        self_learn(src, tgt, empty)


def test_self_learn_history_monotone_until_stop():
    src, tgt, _ = rotation_benchmark(n=600, d=20, noise=0.05, seed=10)
    full = build_identical_dictionary(src.vocab, tgt.vocab)
    seed_d = _take_pairs(full, src, tgt, 25)
    model = self_learn(src, tgt, seed_d)
    accepted = model.dict_cosines[:-1]  # last entry may trigger the stop
    for a, b in zip(accepted, accepted[1:]):
        assert b >= a - 1e-9


def test_self_learn_from_25_seeds_matches_or_beats_one_shot():
    # 25 seeds in d=50 leave the one-shot solve underdetermined, so the
    # iterative dictionary growth has real headroom here
    wins = 0
    for trial in range(5):
        src, tgt, _ = rotation_benchmark(n=800, d=50, noise=0.05, seed=20 + trial)
        full = build_identical_dictionary(src.vocab, tgt.vocab)
        seed_d = _take_pairs(full, src, tgt, 25)
        held = held_out_test(src.vocab.tokens, 400, 200)

        one_shot = solve_procrustes(src, tgt, seed_d)
        learned = self_learn(src, tgt, seed_d)

        p_one = _p1(one_shot, src, tgt, held)
        p_self = _p1(learned, src, tgt, held)
        assert p_self >= p_one - 1e-9
        if p_self > p_one:
            wins += 1
    assert wins >= 1  # improvement shows up somewhere across the five trials


def _take_pairs(full, src, tgt, k):
    from xlembed import dictionary_from_pairs

    return dictionary_from_pairs(full.pairs()[:k], src.vocab, tgt.vocab)


def _p1(model, src, tgt, test):
    space = CrossLingualSpace(src=apply_mapping(model, src), tgt=tgt)
    return precision_at_k(space, test, ks=(1,)).p_at[1]


def test_self_learn_respects_max_iters():
    src, tgt, _ = rotation_benchmark(n=200, d=10, noise=0.1, seed=30)
    full = build_identical_dictionary(src.vocab, tgt.vocab)
    seed_d = _take_pairs(full, src, tgt, 15)
    model = self_learn(src, tgt, seed_d, SelfLearnConfig(max_iters=3))
    assert model.iterations <= 3
    with pytest.raises(ValueError):
        self_learn(src, tgt, seed_d, SelfLearnConfig(max_iters=0))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
def test_self_learn_rejects_non_finite_tol(tol):
    src, tgt, _ = rotation_benchmark(n=40, d=4, seed=32)
    seed_d = build_identical_dictionary(src.vocab, tgt.vocab)
    with pytest.raises(ValueError, match="tol must be finite"):
        self_learn(src, tgt, seed_d, SelfLearnConfig(tol=tol))


def test_self_learn_csls_mode_runs():
    src, tgt, _ = rotation_benchmark(n=150, d=8, noise=0.05, seed=31)
    full = build_identical_dictionary(src.vocab, tgt.vocab)
    seed_d = _take_pairs(full, src, tgt, 10)
    model = self_learn(src, tgt, seed_d, SelfLearnConfig(retrieval="csls"))
    assert np.max(np.abs(model.src_map.T @ model.src_map - np.eye(8))) < 1e-6


# ----------------------------------------------------------- reweighting

def test_reweight_s0_preserves_cross_cosines():
    src, tgt, _ = rotation_benchmark(n=120, d=10, noise=0.05, seed=40)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)

    mapped = apply_mapping(model, src)
    before = _cross_cosines(mapped.matrix, tgt.matrix)
    src2, tgt2 = _reweighted(model, src, tgt, d, s=0.0)
    after = _cross_cosines(src2.matrix, tgt2.matrix)
    assert np.max(np.abs(before - after)) < 1e-9


def _reweighted(model, src, tgt, dictionary, s):
    """Both spaces mapped by the re-weighted model."""
    model = reweight(model, src, tgt, dictionary, s=s)
    return apply_mapping(model, src), apply_mapping(model, tgt, side="tgt")


def _cross_cosines(a, b):
    an = a / np.linalg.norm(a, axis=1, keepdims=True)
    bn = b / np.linalg.norm(b, axis=1, keepdims=True)
    return an @ bn.T


def test_reweight_s1_identical_orthonormal_spaces_uniform():
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    src = make_space([f"p{i:04d}" for i in range(8)], q)
    tgt = make_space([f"p{i:04d}" for i in range(8)], q.copy())
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)
    src2, tgt2 = _reweighted(model, src, tgt, d, s=1.0)
    # orthonormal rows: all singular values equal, so cosines survive
    before = _cross_cosines(q, q)
    after = _cross_cosines(src2.matrix, tgt2.matrix)
    assert np.max(np.abs(before - after)) < 1e-9
    norms = np.linalg.norm(src2.matrix, axis=1)
    assert np.max(np.abs(norms - norms[0])) < 1e-9  # uniform scaling


def test_reweight_s_out_of_range():
    src, tgt, _ = rotation_benchmark(n=30, d=4, seed=42)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            reweight(model, src, tgt, d, s=bad)


def test_reweight_returns_new_model_and_leaves_input_unchanged():
    src, tgt, _ = rotation_benchmark(n=50, d=6, noise=0.05, seed=43)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)
    w = model.src_map.copy()
    out = reweight(model, src, tgt, d, s=0.5)
    assert out is not model
    assert np.array_equal(model.src_map, w) and model.src_map is not out.src_map
    assert model.tgt_map is None and model.s == 0.0
    assert out.tgt_map.shape == (6, 6) and out.s == 0.5
    assert out.iterations == model.iterations
    assert len(out.dict_cosines) == 1  # the new maps' cosine, see below
    with pytest.raises(ValueError, match="already re-weighted"):
        reweight(out, src, tgt, d, s=0.5)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_reweighted_model_reports_the_cosine_of_its_own_maps(s):
    # the mean dictionary cosine with both sides mapped by the saved maps;
    # re-weighting with s > 0 raises it above the orthogonal map's
    src, tgt, _ = overlap_benchmark(n_shared=60, n_unique=600, d=20, noise=0.3, seed=0)
    src, tgt = normalize(src), normalize(tgt)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)
    out = reweight(model, src, tgt, d, s=s)
    x = apply_mapping(out, src).matrix[d.src_indices]
    y = apply_mapping(out, tgt, side="tgt").matrix[d.tgt_indices]
    want = np.mean(
        (x * y).sum(axis=1) / (np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
    )
    assert out.dict_cosines == [pytest.approx(want, abs=1e-12)]
    gain = out.dict_cosines[0] - model.dict_cosines[0]
    assert abs(gain) < 1e-9 if s == 0.0 else gain > 0.05


def test_reweight_half_close_to_plain_p1():
    """P@1(s=0.5) must stay within 1 point of P@1(s=0) across 5 seeds."""
    for trial in range(5):
        src, tgt, _ = rotation_benchmark(n=600, d=20, noise=0.05, seed=50 + trial)
        full = build_identical_dictionary(src.vocab, tgt.vocab)
        seed_d = _take_pairs(full, src, tgt, 300)
        held = held_out_test(src.vocab.tokens, 350, 200)

        model = solve_procrustes(src, tgt, seed_d)
        s0_src, s0_tgt = _reweighted(model, src, tgt, seed_d, s=0.0)
        p0 = precision_at_k(
            CrossLingualSpace(src=s0_src, tgt=s0_tgt), held, ks=(1,)
        ).p_at[1]

        s5_src, s5_tgt = _reweighted(model, src, tgt, seed_d, s=0.5)
        p5 = precision_at_k(
            CrossLingualSpace(src=s5_src, tgt=s5_tgt), held, ks=(1,)
        ).p_at[1]

        assert p5 >= p0 - 1.0, f"trial {trial}: s=0.5 gave {p5}, s=0 gave {p0}"


# -------------------------------------------------------------- apply

def test_apply_identity_model():
    src, _, _ = rotation_benchmark(n=20, d=5, seed=60)
    from xlembed.mapper import AlignmentModel

    model = AlignmentModel(np.eye(5))
    out = apply_mapping(model, src)
    assert np.allclose(out.matrix, src.matrix)


def test_apply_preserves_cosines_and_nn_ranking():
    src, tgt, _ = rotation_benchmark(n=80, d=10, seed=61)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)
    out = apply_mapping(model, src)
    before = _cross_cosines(src.matrix, src.matrix)
    after = _cross_cosines(out.matrix, out.matrix)
    assert np.max(np.abs(before - after)) < 1e-9
    np.fill_diagonal(before, -np.inf)
    np.fill_diagonal(after, -np.inf)
    assert np.array_equal(np.argmax(before, axis=1), np.argmax(after, axis=1))


def test_apply_rotation_trig_check():
    rng = np.random.default_rng(62)
    x = unit_gaussian_rows(rng, 25, 2)
    src = make_space([f"p{i:04d}" for i in range(25)], x)
    from xlembed.mapper import AlignmentModel

    theta = 73.0
    model = AlignmentModel(rot(theta))
    out = apply_mapping(model, src)
    t = math.radians(theta)
    expected = np.stack(
        [
            x[:, 0] * math.cos(t) - x[:, 1] * math.sin(t),
            x[:, 0] * math.sin(t) + x[:, 1] * math.cos(t),
        ],
        axis=1,
    )
    assert np.max(np.abs(out.matrix - expected)) < 1e-12


def test_apply_dim_mismatch():
    from xlembed.mapper import AlignmentModel

    src, _, _ = rotation_benchmark(n=10, d=4, seed=63)
    with pytest.raises(ValueError):
        apply_mapping(AlignmentModel(np.eye(3)), src)


def test_apply_tgt_side_identity_for_plain_model():
    src, tgt, _ = rotation_benchmark(n=15, d=4, seed=64)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)
    out = apply_mapping(model, tgt, side="tgt")
    assert np.array_equal(out.matrix, tgt.matrix)


# ---------------------------------------------------------- persistence

def _read_model_file(path):
    """A save_model file read with numpy alone: the header's d and s, and
    the rows below it (d rows, or 2d for a re-weighted model)."""
    with open(path, encoding="utf-8") as fh:
        d, s = fh.readline().split()
    return int(d), float(s), np.loadtxt(path, skiprows=1, ndmin=2)


def test_model_save_load_round_trip(tmp_path):
    src, tgt, _ = rotation_benchmark(n=50, d=6, seed=70)
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    model = solve_procrustes(src, tgt, d)
    path = tmp_path / "model.txt"
    save_model(model, path)
    dim, s, rows = _read_model_file(path)
    assert (dim, s) == (6, 0.0)
    assert np.array_equal(rows, model.src_map)  # %.17g round-trips float64


def _per_value_model_bytes(model):
    """save_model as it was before whole-matrix formatting: one f-string
    per value. The bytes of a plain model file must not change."""
    out = [f"{model.dim} {model.s:.17g}\n"]
    for row in model.src_map:
        out.append(" ".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(out).encode("utf-8")


def _two_map_model_bytes(model):
    """A re-weighted model file: the plain layout, then the rows of the
    target map written the same way."""
    rows = [" ".join(f"{v:.17g}" for v in row) + "\n" for row in model.tgt_map]
    return _per_value_model_bytes(model) + "".join(rows).encode("utf-8")


_MODEL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e16, 0.1, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            hnp.arrays(np.float64, (d, d), elements=_MODEL_FLOATS),
            st.none() | hnp.arrays(np.float64, (d, d), elements=_MODEL_FLOATS),
            _MODEL_FLOATS,
        )
    )
)
def test_save_model_bytes_equal_per_value_writer(tmp_path_factory, case):
    src_map, tgt_map, s = case
    model = AlignmentModel(src_map, tgt_map, s=s)
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(model, path)
    if tgt_map is None:
        assert path.read_bytes() == _per_value_model_bytes(model)
    else:
        assert path.read_bytes() == _two_map_model_bytes(model)
    # numpy reads the maps and s back bit for bit
    dim, back_s, rows = _read_model_file(path)
    maps = src_map if tgt_map is None else np.vstack([src_map, tgt_map])
    assert dim == model.dim
    assert rows.tobytes() == maps.tobytes()
    assert back_s.hex() == s.hex()


def test_self_learn_induces_over_the_most_frequent_tokens_of_a_sidecar_vocabulary(
    tmp_path, monkeypatch
):
    # a sidecar vocabulary keeps the file's row order; the same rows in
    # reversed frequency order must induce the same dictionary, as token
    # pairs, as the file sorted by frequency
    from xlembed import dictionary_from_pairs, load_embeddings, save_embeddings
    from xlembed.corpus import write_vocab_tsv

    pair = rotation_benchmark(n=200, d=10, noise=0.3, seed=21)[:2]
    real = mapper._induce_pairs
    induced, models = {}, {}
    for name, order in (("sorted", slice(None)), ("reversed", slice(None, None, -1))):
        loaded = []
        for side, space in zip(("src", "tgt"), pair):
            vec, tsv = tmp_path / f"{name}-{side}.vec", tmp_path / f"{name}-{side}.tsv"
            flipped = make_space(
                space.vocab.tokens[order], space.matrix[order], space.vocab.freqs[order]
            )
            save_embeddings(flipped, vec)
            write_vocab_tsv(flipped.vocab, tsv)
            loaded.append(load_embeddings(vec, vocab_tsv=tsv))
        src, tgt = loaded
        # induction rows in frequency order (a stable sort), as tokens
        src_top, tgt_top = (
            [v.tokens[i] for i in sorted(range(len(v)), key=lambda i: -v.freqs[i])]
            for v in (src.vocab, tgt.vocab)
        )
        calls = []

        def recording(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(mapper, "_induce_pairs", recording)
        seed = dictionary_from_pairs(
            [(f"t{i:05d}", f"t{i:05d}") for i in range(50, 70)], src.vocab, tgt.vocab
        )
        models[name] = self_learn(
            src, tgt, seed, SelfLearnConfig(induce_vocab_cutoff=100, max_iters=3)
        )
        induced[name] = [
            [(src_top[i], tgt_top[j]) for i, j in pairs.tolist()] for pairs in calls
        ]
    assert len(induced["sorted"]) >= 2
    assert induced["reversed"] == induced["sorted"]
    assert np.array_equal(models["reversed"].src_map, models["sorted"].src_map)


def test_self_learn_warns_of_seed_pairs_outside_the_induction_cutoff():
    # rows 30..39 are not among the 30 most frequent tokens, so their seed
    # pairs cannot be re-included in the induced dictionaries
    src, tgt, _ = rotation_benchmark(n=40, d=4, seed=72)
    seed = build_identical_dictionary(src.vocab, tgt.vocab)
    with pytest.warns(UserWarning) as caught:
        self_learn(src, tgt, seed, SelfLearnConfig(induce_vocab_cutoff=30, max_iters=2))
    assert [str(w.message) for w in caught] == [
        "10 seed pairs fall outside the induction cutoff (30) and are not re-included"
    ]


# ------------------------------------------ self-learning target, read only
#
# Each induction scores the target's raw top rows with their reciprocal
# norms; nothing in the loop writes the target.

_CUTOFF = 500


def _learning_pair(layout="plain"):
    """800 tokens per side, frequencies descending in file order. layout:
    "plain"; "readonly" (the target matrix is not writeable); "reversed"
    (the target rows in reversed frequency order, as a sidecar vocabulary
    leaves them); "shared" (both sides on one matrix)."""
    src, tgt, _ = overlap_benchmark(
        n_shared=200, n_unique=600, d=30, noise=0.15, seed=3
    )
    if layout == "readonly":
        tgt.matrix.flags.writeable = False
    elif layout == "reversed":
        back = slice(None, None, -1)
        tgt = make_space(
            tgt.vocab.tokens[back], tgt.matrix[back].copy(), tgt.vocab.freqs[back]
        )
    elif layout == "shared":
        tgt = make_space(tgt.vocab.tokens, src.matrix, tgt.vocab.freqs)
    return src, tgt, build_identical_dictionary(src.vocab, tgt.vocab)


def _learn(src, tgt, seed, retrieval):
    return self_learn(src, tgt, seed, SelfLearnConfig(
        induce_vocab_cutoff=_CUTOFF, max_iters=4, retrieval=retrieval
    ))


def _raw(matrix):
    return matrix.copy().view(np.int64)


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_self_learn_gives_the_target_back_bit_for_bit(retrieval):
    src, tgt, seed = _learning_pair()
    tgt.matrix[3, :4] = [-0.0, 5e-324, 1e-300, 0.0]  # hard to restore
    before = _raw(tgt.matrix)
    model = _learn(src, tgt, seed, retrieval)
    assert model.iterations >= 2
    assert np.array_equal(_raw(tgt.matrix), before)


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_self_learn_restores_the_target_when_induction_raises(
    monkeypatch, retrieval
):
    src, tgt, seed = _learning_pair()
    before = _raw(tgt.matrix)
    real, calls = mapper._induce_pairs, []

    def failing_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError("no room for the induction")
        return real(*args)

    monkeypatch.setattr(mapper, "_induce_pairs", failing_second)
    with pytest.raises(MemoryError):
        _learn(src, tgt, seed, retrieval)
    assert len(calls) == 2
    assert np.array_equal(_raw(tgt.matrix), before)


@pytest.mark.parametrize("layout", ["plain", "reversed"])
def test_self_learn_induces_on_unit_top_rows_and_never_writes_the_rest(
    monkeypatch, layout
):
    # induction scores the raw top rows scaled by their reciprocal norms:
    # in frequency order a view of the target matrix, in reversed order a
    # gathered copy; the target matrix is never written
    src, tgt, seed = _learning_pair(layout)
    tgt.matrix[:] *= np.linspace(0.5, 2.0, len(tgt.matrix))[:, None]
    before = _raw(tgt.matrix)
    real, seen = mapper._induce_pairs, []

    def checking(src_unit, tgt_rows, retrieval, seed_pairs, inv_norms):
        norms = np.linalg.norm(tgt_rows, axis=1)
        seen.append(np.allclose(norms * inv_norms, 1.0) and not np.allclose(norms, 1.0))
        assert np.shares_memory(tgt_rows, tgt.matrix) == (layout == "plain")
        assert np.array_equal(_raw(tgt.matrix), before)
        return real(src_unit, tgt_rows, retrieval, seed_pairs, inv_norms)

    monkeypatch.setattr(mapper, "_induce_pairs", checking)
    model = _learn(src, tgt, seed, "csls")
    assert seen == [True] * model.iterations


def test_self_learn_solves_and_scores_on_the_raw_target(monkeypatch):
    src, tgt, seed = _learning_pair()
    before = _raw(tgt.matrix)
    real_svd, real_cos, calls = mapper._svd_cross, mapper._mean_pair_cosine, []

    def svd_spy(cross):
        calls.append("svd")
        assert np.array_equal(_raw(tgt.matrix), before)
        return real_svd(cross)

    def cos_spy(src_rows, tgt_rows, *rest):
        calls.append("cos")
        assert np.array_equal(_raw(tgt.matrix), before)
        assert np.array_equal(_raw(tgt_rows), before[: len(tgt_rows)])
        return real_cos(src_rows, tgt_rows, *rest)

    monkeypatch.setattr(mapper, "_svd_cross", svd_spy)
    monkeypatch.setattr(mapper, "_mean_pair_cosine", cos_spy)
    model = _learn(src, tgt, seed, "csls")
    assert calls == ["svd", "cos"] * model.iterations


def _unit_copy(matrix):
    """unit_scale's answer for a matrix it cannot scale: a unit copy."""
    return scoring.unit_rows(matrix), None


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
@pytest.mark.parametrize("layout", ["plain", "readonly", "reversed", "shared"])
def test_self_learn_in_place_matches_a_unit_copy_oracle(
    monkeypatch, layout, retrieval
):
    got = _learn(*_learning_pair(layout), retrieval)
    monkeypatch.setattr(mapper, "unit_scale", _unit_copy)
    want = _learn(*_learning_pair(layout), retrieval)
    assert got.iterations == want.iterations >= 2
    assert got.dict_cosines == want.dict_cosines
    assert np.array_equal(got.src_map.view(np.int64), want.src_map.view(np.int64))


@pytest.mark.parametrize("retrieval", ["cosine", "csls"])
def test_self_learn_holds_no_unit_copy_of_the_target(retrieval):
    """self_learn alone at 5000 x 300, cutoff 2500, holds above its inputs
    the two dictionary gathers of each Procrustes solve and the scratch of
    one induction (the mapped top source rows, one score block, the
    target's reciprocal row norms): about 1.6-1.7 matrices. A unit copy
    of the target's top rows, half a matrix here, held across the solve,
    pushes it past 1.9 (2.1-2.2). The run is made once untraced first, so
    one-time lazy imports inside numpy are not counted."""
    src, tgt, _ = overlap_benchmark(
        n_shared=1000, n_unique=4000, d=300, noise=0.15, seed=1
    )
    seed = build_identical_dictionary(src.vocab, tgt.vocab)
    cfg = SelfLearnConfig(induce_vocab_cutoff=2500, max_iters=3, retrieval=retrieval)
    self_learn(src, tgt, seed, cfg)
    tracemalloc.start()
    try:
        self_learn(src, tgt, seed, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = src.matrix.nbytes
    assert peak < 1.9 * matrix, (
        f"self_learn ({retrieval}) peaked at {peak / matrix:.2f} matrices"
    )
