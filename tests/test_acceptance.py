"""End-to-end acceptance gate.

One test per release criterion; each prints a single
``ACCEPTANCE <n> PASS/FAIL`` line with the measured numbers (run with
``pytest tests/test_acceptance.py -s`` to see them live) and asserts the
same condition. Thresholds are fixed here and must not be loosened.
"""

import json
import subprocess
import sys
import time

import numpy as np

from synthetic import (
    _space,
    class_tokens,
    held_out_test,
    overlap_benchmark,
    random_orthogonal,
    rotation_benchmark,
    unit_gaussian_rows,
    write_pipeline_fixture,
)
from test_cli import child_env
from test_mapper import grid_oracle
from test_sentiment import finite_difference_grads

from xlembed import TestDictionary, make_space
from xlembed.corpus import TokenClass
from xlembed.lexicon import (
    build_identical_dictionary,
    dictionary_from_pairs,
    filter_by_class,
)
from xlembed.mapper import (
    SelfLearnConfig,
    apply_mapping,
    self_learn,
    solve_procrustes,
)
from xlembed.refine import CrossLingualSpace, average_plain, average_weighted
from xlembed.sentiment import (
    SentimentDataset,
    eval_majority,
    eval_probe,
    probe_loss_grad,
    train_probe,
)
from xlembed.translate import precision_at_k


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _aligned(src, tgt, dictionary) -> CrossLingualSpace:
    model = solve_procrustes(src, tgt, dictionary)
    return CrossLingualSpace(
        src=apply_mapping(model, src, side="src"),
        tgt=apply_mapping(model, tgt, side="tgt"),
    )


def _p1(space, test) -> float:
    return precision_at_k(space, test, ks=(1,)).p_at[1]


def _identity_dict(src, tgt, tokens):
    return dictionary_from_pairs(((t, t) for t in tokens), src.vocab, tgt.vocab)


# 1 ------------------------------------------------------------------------

def test_criterion_01_orthogonality_over_random_instances():
    rng = np.random.default_rng(7)
    started = time.monotonic()
    worst = 0.0
    for i in range(100):
        d = (2, 10, 50, 100)[i % 4]
        n = int(rng.integers(50, 5001))
        toks = [f"t{j}" for j in range(n)]
        src = _space(toks, unit_gaussian_rows(rng, n, d), np.arange(n, 0, -1))
        tgt = _space(toks, unit_gaussian_rows(rng, n, d), np.arange(n, 0, -1))
        w = solve_procrustes(
            src, tgt, build_identical_dictionary(src.vocab, tgt.vocab)
        ).src_map
        worst = max(worst, float(np.max(np.abs(w.T @ w - np.eye(d)))))
    elapsed = time.monotonic() - started
    ok = worst < 1e-6 and elapsed < 30.0
    assert _verdict(
        1, ok,
        f"max |W^T W - I| = {worst:.2e} over 100 instances "
        f"(n in [50,5000], d in {{2,10,50,100}}) in {elapsed:.1f}s",
    )


# 2 ------------------------------------------------------------------------

def test_criterion_02_grid_search_optimality_in_2d():
    rng = np.random.default_rng(11)
    worst_gap = -np.inf
    for _ in range(20):
        n = int(rng.integers(10, 200))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2))
        toks = [f"t{j}" for j in range(n)]
        model = solve_procrustes(
            _space(toks, x, np.arange(n, 0, -1)),
            _space(toks, y, np.arange(n, 0, -1)),
            _identity_dict(_space(toks, x, np.arange(n, 0, -1)),
                           _space(toks, y, np.arange(n, 0, -1)), toks),
        )
        solver_err = float(np.linalg.norm(x @ model.src_map - y))
        oracle_err, _, _ = grid_oracle(x, y)
        worst_gap = max(worst_gap, solver_err - oracle_err)
    ok = worst_gap <= 1e-8
    assert _verdict(
        2, ok,
        f"solver Frobenius error exceeds the 0.01-degree rotation+reflection "
        f"grid by at most {worst_gap:.2e} over 20 instances (tolerance 1e-8)",
    )


# 3 ------------------------------------------------------------------------

def test_criterion_03_synthetic_recovery_one_shot_and_self_learning():
    src, tgt, _ = rotation_benchmark(n=5000, d=50, noise=0.0, seed=0)
    toks = src.vocab.tokens
    space = _aligned(src, tgt, _identity_dict(src, tgt, toks[:500]))
    p_clean = _p1(space, held_out_test(toks, 4000, 200))

    worst = 100.0
    slowest = 0.0
    for seed in range(5):
        src, tgt, _ = rotation_benchmark(n=5000, d=50, noise=0.05, seed=seed)
        toks = src.vocab.tokens
        started = time.monotonic()
        model = self_learn(
            src, tgt, _identity_dict(src, tgt, toks[:25]), SelfLearnConfig()
        )
        slowest = max(slowest, time.monotonic() - started)
        space = CrossLingualSpace(
            src=apply_mapping(model, src, side="src"),
            tgt=apply_mapping(model, tgt, side="tgt"),
        )
        worst = min(worst, _p1(space, held_out_test(toks, 4000, 200)))

    ok = p_clean >= 99.0 and worst >= 90.0 and slowest < 60.0
    assert _verdict(
        3, ok,
        f"noiseless 500-seed one-shot P@1 = {p_clean:.1f}% (>= 99); "
        f"sigma=0.05 self-learning from 25 seeds: min P@1 over 5 trials = "
        f"{worst:.1f}% (>= 90), slowest trial {slowest:.1f}s (< 60)",
    )


# 4 ------------------------------------------------------------------------

def test_criterion_04_anchoring_bit_equality_and_top1():
    src, tgt, _ = overlap_benchmark(
        n_shared=300, n_unique=300, d=30, noise=0.05, seed=0
    )
    dictionary = build_identical_dictionary(src.vocab, tgt.vocab)
    aligned = _aligned(src, tgt, dictionary)

    results = []
    for refiner in (average_plain, average_weighted):
        out = refiner(aligned, dictionary)
        equal = all(
            out.src.matrix[dictionary.src_indices[i]].tobytes()
            == out.tgt.matrix[dictionary.tgt_indices[i]].tobytes()
            for i in range(len(dictionary))
        )
        test = TestDictionary(
            entries=[(t, (t,)) for t in dictionary.src_tokens[:100]]
        )
        results.append((refiner.__name__, equal, _p1(out, test)))

    ok = all(eq and p == 100.0 for _, eq, p in results)
    assert _verdict(
        4, ok,
        "; ".join(
            f"{name}: all {len(dictionary)} pairs bit-equal={eq}, "
            f"anchored P@1={p:.1f}%" for name, eq, p in results
        ),
    )


# 5 ------------------------------------------------------------------------

def test_criterion_05_weighted_average_closed_form_exactness():
    rng = np.random.default_rng(23)
    n, d = 1000, 16
    toks = [f"t{j}" for j in range(n)]
    f_src = rng.integers(1, 10**6, size=n)
    f_tgt = rng.integers(1, 10**6, size=n)
    src = make_space(toks, rng.normal(size=(n, d)), freqs=f_src)
    tgt = make_space(toks, rng.normal(size=(n, d)), freqs=f_tgt)
    dictionary = build_identical_dictionary(src.vocab, tgt.vocab)
    out = average_weighted(CrossLingualSpace(src=src, tgt=tgt), dictionary)

    v1 = src.matrix[dictionary.src_indices]
    v2 = tgt.matrix[dictionary.tgt_indices]
    f1 = dictionary.f_src[:, None].astype(np.float64)
    f2 = dictionary.f_tgt[:, None].astype(np.float64)
    mu = (f1 * v1 + f2 * v2) / (f1 + f2)
    err = max(
        float(np.max(np.abs(out.src.matrix[dictionary.src_indices] - mu))),
        float(np.max(np.abs(out.tgt.matrix[dictionary.tgt_indices] - mu))),
    )

    eq = make_space(toks, src.matrix, freqs=np.full(n, 7))
    eq_t = make_space(toks, tgt.matrix, freqs=np.full(n, 7))
    eq_dict = build_identical_dictionary(eq.vocab, eq_t.vocab)
    pair = CrossLingualSpace(src=eq, tgt=eq_t)
    plain = average_plain(pair, eq_dict)
    weighted = average_weighted(pair, eq_dict)
    eq_err = float(np.max(np.abs(plain.src.matrix - weighted.src.matrix)))

    ok = err < 1e-12 and eq_err <= 1e-15
    assert _verdict(
        5, ok,
        f"max deviation from (f1*v1+f2*v2)/(f1+f2) = {err:.2e} on 1000 pairs "
        f"(< 1e-12); equal-frequency weighted vs plain gap = {eq_err:.2e}",
    )


# 6 ------------------------------------------------------------------------

def _clustered_benchmark(seed, spread, n_clusters=200, per=5, d=50, noise=0.05):
    # near-duplicate clusters make nearest-neighbor retrieval fallible at
    # sigma=0.05, which is what gives averaging and dictionary size teeth
    rng = np.random.default_rng(seed)
    n = n_clusters * per
    n_num = n_emo = n // 10
    tokens = class_tokens(n_num, n_emo, n - n_num - n_emo)
    centers = unit_gaussian_rows(rng, n_clusters, d)
    x = np.repeat(centers, per, axis=0) + spread * rng.normal(size=(n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    q = random_orthogonal(rng, d)
    y = x @ q + noise * rng.normal(size=(n, d))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    freqs = np.arange(n, 0, -1, dtype=np.int64)
    return _space(tokens, x, freqs), _space(tokens, y, freqs)


def test_criterion_06_weighted_and_all_class_trends():
    base_scores, weighted_scores = [], []
    for seed in range(5):
        src, tgt = _clustered_benchmark(seed, spread=0.03)
        toks = src.vocab.tokens
        full = build_identical_dictionary(src.vocab, tgt.vocab)
        base = _aligned(src, tgt, full)
        rng = np.random.default_rng(1000 + seed)
        sample = rng.choice(len(toks), size=200, replace=False)
        test = TestDictionary(entries=[(toks[i], (toks[i],)) for i in sample])
        base_scores.append(_p1(base, test))
        weighted_scores.append(_p1(average_weighted(base, full), test))
    weighted_ge = all(
        w >= b for w, b in zip(weighted_scores, base_scores)
    )

    subsets = {
        "All": None,
        "Numerals": {TokenClass.NUMERAL},
        "Emoji": {TokenClass.EMOJI},
        "Words": {TokenClass.WORD},
    }
    sums = {name: 0.0 for name in subsets}
    for seed in range(5):
        src, tgt = _clustered_benchmark(seed, spread=0.06)
        toks = src.vocab.tokens
        sup_tokens = [t for i, t in enumerate(toks) if i % 4 != 3]
        held = TestDictionary(
            entries=[(t, (t,)) for i, t in enumerate(toks) if i % 4 == 3]
        )
        sup = _identity_dict(src, tgt, sup_tokens)
        for name, keep in subsets.items():
            d = sup if keep is None else filter_by_class(sup, keep)
            sums[name] += _p1(_aligned(src, tgt, d), held)
    means = {name: s / 5.0 for name, s in sums.items()}
    all_wins = all(
        means["All"] >= means[name] - 1.0 for name in subsets if name != "All"
    )

    ok = weighted_ge and all_wins
    assert _verdict(
        6, ok,
        f"weighted P@1 {weighted_scores} vs base {base_scores} "
        f"(>= per seed, test sets 100% identical pairs); 5-seed mean P@1 "
        + ", ".join(f"{k}={v:.1f}" for k, v in means.items())
        + " (All within 1 point of best)",
    )


# 7 ------------------------------------------------------------------------

def _two_language_sentiment(seed=1, d=20, n_words=200, n_emoji=20, jitter=0.10):
    """Disjoint word vocabularies, one shared emoji set, label decided
    entirely by the emoji; each language carries polarity on its own axis
    (language A confined to the hyperplane orthogonal to B's axis)."""
    rng = np.random.default_rng(seed)
    half = n_emoji // 2
    emos = [chr(0x1F600 + i) for i in range(n_emoji)]
    pol = np.array([1.0] * half + [-1.0] * half)

    a_words = unit_gaussian_rows(rng, n_words, d)
    a_words[:, 1] = 0.0
    a_words /= np.linalg.norm(a_words, axis=1, keepdims=True)
    a_emo = np.zeros((n_emoji, d))
    a_emo[:, 0] = pol
    jit = jitter * rng.normal(size=(n_emoji, d))
    jit[:, 1] = 0.0
    a_emo += jit
    a_emo /= np.linalg.norm(a_emo, axis=1, keepdims=True)

    b_words = unit_gaussian_rows(rng, n_words, d)
    b_emo = np.zeros((n_emoji, d))
    b_emo[:, 1] = pol
    b_emo += jitter * rng.normal(size=(n_emoji, d))
    b_emo /= np.linalg.norm(b_emo, axis=1, keepdims=True)

    a = make_space(
        [f"a{i:04d}" for i in range(n_words)] + emos, np.vstack([a_words, a_emo])
    )
    b = make_space(
        [f"b{i:04d}" for i in range(n_words)] + emos, np.vstack([b_words, b_emo])
    )

    def dataset(prefix, n_examples):
        examples = []
        for i in range(n_examples):
            label = "positive" if i % 2 == 0 else "negative"
            bank = emos[:half] if label == "positive" else emos[half:]
            words = [f"{prefix}{j:04d}" for j in rng.integers(0, n_words, size=3)]
            chosen = [bank[j] for j in rng.integers(0, half, size=2)]
            examples.append((words + chosen, label))
        return SentimentDataset(examples=examples, scheme=2)

    emoji_dict = dictionary_from_pairs(((e, e) for e in emos), a.vocab, b.vocab)
    return a, b, dataset("a", 500), dataset("b", 500), emoji_dict


def test_criterion_07_sentiment_transfer_via_emoji_anchoring():
    a, b, train, test, emoji_dict = _two_language_sentiment()
    raw = CrossLingualSpace(src=a, tgt=b)
    acc_raw = eval_probe(train_probe(train, raw.src), test, raw.tgt).accuracy
    refined = average_weighted(raw, emoji_dict)
    acc_ref = eval_probe(
        train_probe(train, refined.src), test, refined.tgt
    ).accuracy
    ok = acc_ref >= 90.0 and acc_raw <= 60.0
    assert _verdict(
        7, ok,
        f"cross-language probe accuracy {acc_ref:.1f}% with weighted "
        f"emoji-dictionary averaging (>= 90) vs {acc_raw:.1f}% unrefined "
        f"(<= 60), 500 train / 500 test",
    )


# 8 ------------------------------------------------------------------------

def test_criterion_08_gradient_check_and_frozen_embeddings():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 10))
    y = np.array([0, 1, 2, 1, 0])
    weights = 0.1 * rng.normal(size=(10, 3))
    bias = 0.1 * rng.normal(size=3)
    _, grad_w, grad_b = probe_loss_grad(weights.copy(), bias.copy(), x, y)
    num_w, num_b = finite_difference_grads(weights, bias, x, y)
    rel = max(
        float(np.linalg.norm(grad_w - num_w) / np.linalg.norm(num_w)),
        float(np.linalg.norm(grad_b - num_b) / np.linalg.norm(num_b)),
    )

    toks = [f"w{i}" for i in range(20)]
    space = make_space(toks, rng.normal(size=(20, 6)))
    before = space.matrix.tobytes()
    train_probe(
        SentimentDataset(
            examples=[
                ([toks[i], toks[i + 1]], "positive" if i % 2 == 0 else "negative")
                for i in range(16)
            ],
            scheme=2,
        ),
        space,
    )
    frozen = space.matrix.tobytes() == before

    ok = rel < 1e-5 and frozen
    assert _verdict(
        8, ok,
        f"analytic vs central-difference gradient relative error = {rel:.2e} "
        f"(< 1e-5) on a 5-example d=10 instance; embeddings bit-identical "
        f"after training = {frozen}",
    )


# 9 ------------------------------------------------------------------------

def test_criterion_09_metric_sanity_nesting_and_majority_fixture():
    nested = True
    checked = 0
    for seed in range(3):
        src, tgt, _ = rotation_benchmark(n=300, d=10, noise=0.1, seed=seed)
        toks = src.vocab.tokens
        space = _aligned(src, tgt, _identity_dict(src, tgt, toks[:200]))
        test = held_out_test(toks, 200, 80)
        for retrieval in ("cosine", "csls"):
            for oov_as_wrong in (False, True):
                report = precision_at_k(
                    space, test, ks=(1, 5, 10),
                    retrieval=retrieval, oov_as_wrong=oov_as_wrong,
                )
                p = report.p_at
                nested = nested and p[1] <= p[5] <= p[10]
                checked += 1

    counts = {"negative": 642, "neutral": 493, "positive": 490}
    data = SentimentDataset(
        examples=[(["x"], label) for label, c in counts.items() for _ in range(c)],
        scheme=3,
    )
    acc = eval_majority(data, data).accuracy

    ok = nested and abs(acc - 39.5) <= 0.5
    assert _verdict(
        9, ok,
        f"P@1 <= P@5 <= P@10 held on {checked}/12 reports; majority-class "
        f"accuracy on the 642/493/490 fixture = {acc:.2f}% (39.5 +/- 0.5)",
    )


# 10 -----------------------------------------------------------------------

def test_criterion_10_pipeline_byte_determinism_across_threads(tmp_path):
    config = write_pipeline_fixture(tmp_path / "fx")
    runs = [("r1", "1"), ("r2", "1"), ("r4", "4")]
    for name, threads in runs:
        res = subprocess.run(
            [
                sys.executable, "-m", "xlembed.cli", "pipeline",
                "--config", str(config), "--out", str(tmp_path / name),
            ],
            env=child_env(OMP_NUM_THREADS=threads),
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr

    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    mismatched = [
        name
        for name in manifest["artifacts"]
        for other in ("r2", "r4")
        if (tmp_path / "r1" / name).read_bytes()
        != (tmp_path / other / name).read_bytes()
    ]
    ok = not mismatched
    assert _verdict(
        10, ok,
        f"all {len(manifest['artifacts'])} artifacts byte-identical across "
        f"two runs and OMP_NUM_THREADS=1 vs 4"
        + (f"; mismatches: {sorted(set(mismatched))}" if mismatched else ""),
    )
