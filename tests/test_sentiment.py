import numpy as np
import pytest

from xlembed import (
    ProbeModel,
    SentimentDataset,
    embed_sentence,
    eval_majority,
    eval_probe,
    load_sentiment_tsv,
    make_space,
    train_probe,
)
from xlembed.sentiment import (
    L2_PENALTY,
    featurize,
    majority_label,
    probe_loss_grad,
)


# ---------------------------------------------------------------- oracle

def finite_difference_grads(weights, bias, x, y, eps=1e-6):
    """Central finite differences of the probe loss in every coordinate."""

    def loss_at(w, b):
        return probe_loss_grad(w, b, x, y)[0]

    num_w = np.zeros_like(weights)
    for idx in np.ndindex(*weights.shape):
        wp, wm = weights.copy(), weights.copy()
        wp[idx] += eps
        wm[idx] -= eps
        num_w[idx] = (loss_at(wp, bias) - loss_at(wm, bias)) / (2 * eps)
    num_b = np.zeros_like(bias)
    for j in range(bias.shape[0]):
        bp, bm = bias.copy(), bias.copy()
        bp[j] += eps
        bm[j] -= eps
        num_b[j] = (loss_at(weights, bp) - loss_at(weights, bm)) / (2 * eps)
    return num_w, num_b


def _toy_space(seed=0, n=20, d=4):
    rng = np.random.default_rng(seed)
    return make_space([f"w{i}" for i in range(n)], rng.normal(size=(n, d)))


def _separable_space(d=4):
    """Tokens p* sit at +e1 (plus tiny jitter), n* at -e1."""
    rng = np.random.default_rng(1)
    rows = []
    tokens = []
    for i in range(10):
        base = np.zeros(d)
        base[0] = 1.0
        tokens.append(f"p{i}")
        rows.append(base + 0.01 * rng.normal(size=d))
    for i in range(10):
        base = np.zeros(d)
        base[0] = -1.0
        tokens.append(f"n{i}")
        rows.append(base + 0.01 * rng.normal(size=d))
    return make_space(tokens, np.array(rows))


def _separable_dataset():
    examples = [([f"p{i}"], "positive") for i in range(10)]
    examples += [([f"n{i}"], "negative") for i in range(10)]
    return SentimentDataset(examples=examples, scheme=2)


# --------------------------------------------------------- embed_sentence

def test_embed_single_token():
    space = _toy_space()
    vec, oov = embed_sentence(space, ["w3"])
    assert not oov
    assert np.array_equal(vec, space.matrix[3])


def test_embed_two_tokens_midpoint():
    space = _toy_space()
    vec, oov = embed_sentence(space, ["w0", "w1"])
    assert not oov
    assert np.allclose(vec, (space.matrix[0] + space.matrix[1]) / 2)


def test_embed_all_oov_zero_vector_flagged():
    space = _toy_space()
    vec, oov = embed_sentence(space, ["zzz", "qqq"])
    assert oov
    assert np.array_equal(vec, np.zeros(space.dim))


def test_embed_skips_oov_tokens():
    space = _toy_space()
    vec, oov = embed_sentence(space, ["w5", "zzz"])
    assert not oov
    assert np.array_equal(vec, space.matrix[5])


# ----------------------------------------------------------- training

def test_probe_separable_training_accuracy_100():
    space = _separable_space()
    train = _separable_dataset()
    model = train_probe(train, space)
    report = eval_probe(model, train, space)
    assert report.accuracy == 100.0
    assert report.macro_f1 == 100.0


def test_probe_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 10))
    y = np.array([0, 1, 2, 1, 0])
    weights = 0.1 * rng.normal(size=(10, 3))
    bias = 0.1 * rng.normal(size=3)

    _, grad_w, grad_b = probe_loss_grad(weights.copy(), bias.copy(), x, y)
    num_w, num_b = finite_difference_grads(weights, bias, x, y)

    rel_w = np.linalg.norm(grad_w - num_w) / np.linalg.norm(num_w)
    rel_b = np.linalg.norm(grad_b - num_b) / np.linalg.norm(num_b)
    assert rel_w < 1e-5
    assert rel_b < 1e-5


def _column_major_loss_grad(weights, bias, x, y):
    """The probe loss and gradient as first written, x @ W and x.T @ delta:
    the oracle of the row-major products."""
    n = x.shape[0]
    z = x @ weights + bias
    z = z - z.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    loss = -np.log(probs[np.arange(n), y]).mean()
    loss += 0.5 * L2_PENALTY * (weights**2).sum()
    delta = probs
    delta[np.arange(n), y] -= 1.0
    grad_w = x.T @ delta / n + L2_PENALTY * weights
    return float(loss), grad_w, delta.mean(axis=0)


@pytest.mark.parametrize("scale", [0.0, 0.1, 3.0])
def test_probe_loss_grad_equals_the_column_major_oracle(scale):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(700, 40))
    y = rng.integers(0, 3, size=700)
    weights = scale * rng.normal(size=(40, 3))
    bias = scale * rng.normal(size=3)
    got = probe_loss_grad(weights.copy(), bias.copy(), x, y)
    expected = _column_major_loss_grad(weights, bias, x, y)
    for a, b in zip(got, expected):
        assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_probe_predictions_equal_the_column_major_oracle(tmp_path, monkeypatch):
    # the pipeline fixture's probe, trained once with each formulation,
    # predicts the same class for every test sentence
    from xlembed import pipeline, sentiment
    from xlembed.corpus import TokenizerConfig
    from synthetic import write_pipeline_fixture

    write_pipeline_fixture(tmp_path, n=120, d=10)
    src, tgt = pipeline.load_pair(
        (tmp_path / "src.vec", tmp_path / "src_vocab.tsv"),
        (tmp_path / "tgt.vec", tmp_path / "tgt_vocab.tsv"),
    )
    src, tgt = pipeline.normalize_pair(src, tgt, ("unit", "center", "unit"))
    dictionary = pipeline.build_dictionary(src.vocab, tgt.vocab, "identical")
    _, space = pipeline.align(src, tgt, dictionary)
    space = pipeline.refine_space(space, dictionary, "weighted")
    train, test = pipeline.load_sentiment_pair(
        tmp_path / "sent_train.tsv", tmp_path / "sent_test.tsv", TokenizerConfig()
    )
    probe = train_probe(train, space.src)
    monkeypatch.setattr(sentiment, "probe_loss_grad", _column_major_loss_grad)
    oracle = train_probe(train, space.src)
    assert np.allclose(probe.weights, oracle.weights, rtol=1e-12, atol=1e-15)
    x, _, _ = featurize(test, space.tgt)
    assert np.array_equal(
        np.argmax(x @ probe.weights + probe.bias, axis=1),
        np.argmax(x @ oracle.weights + oracle.bias, axis=1),
    )


def test_probe_embeddings_frozen():
    space = _separable_space()
    before = space.matrix.tobytes()
    train_probe(_separable_dataset(), space)
    assert space.matrix.tobytes() == before


def test_probe_loss_non_increasing():
    space = _separable_space()
    model = train_probe(_separable_dataset(), space)
    losses = model.loss_history
    assert len(losses) == 500
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-6


def test_probe_duplicated_dataset_same_model():
    space = _separable_space()
    base = _separable_dataset()
    doubled = SentimentDataset(examples=base.examples * 2, scheme=2)
    m1 = train_probe(base, space)
    m2 = train_probe(doubled, space)
    assert np.allclose(m1.weights, m2.weights, atol=1e-12)
    assert np.allclose(m1.bias, m2.bias, atol=1e-12)


def test_probe_deterministic():
    space = _separable_space()
    m1 = train_probe(_separable_dataset(), space)
    m2 = train_probe(_separable_dataset(), space)
    assert np.array_equal(m1.weights, m2.weights)


def test_probe_missing_class_rejected():
    space = _separable_space()
    only_pos = SentimentDataset(
        examples=[([f"p{i}"], "positive") for i in range(5)], scheme=2
    )
    with pytest.raises(ValueError) as err:
        train_probe(only_pos, space)
    assert "negative" in str(err.value)


def test_probe_nonfinite_loss_aborts_with_diagnostics():
    huge = make_space(["a", "b"], [[1e160, 0.0], [-1e160, 0.0]])
    train = SentimentDataset(
        examples=[(["a"], "positive"), (["b"], "negative")], scheme=2
    )
    with np.errstate(all="ignore"), pytest.raises(RuntimeError) as err:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            train_probe(train, huge)
    assert "epoch" in str(err.value)


# ------------------------------------------------------------- metrics

def test_metrics_hand_computed_case():
    # gold [0,0,1,2], pred [0,1,1,1] in the 3-class scheme
    space = make_space(["t0", "t1", "t2", "t3"], np.eye(4))
    model = ProbeModel(
        weights=np.zeros((4, 3)), bias=np.zeros(3), scheme=3
    )
    # rig bias so argmax yields the wanted predictions per one-hot sentence
    w = np.zeros((4, 3))
    w[0, 0] = 1.0  # t0 -> class 0
    w[1, 1] = 1.0  # t1 -> class 1
    w[2, 1] = 1.0  # t2 -> class 1
    w[3, 1] = 1.0  # t3 -> class 1
    model.weights = w
    test = SentimentDataset(
        examples=[
            (["t0"], "negative"),
            (["t1"], "negative"),
            (["t2"], "neutral"),
            (["t3"], "positive"),
        ],
        scheme=3,
    )
    r = eval_probe(model, test, space)
    assert r.accuracy == pytest.approx(50.0)
    # per-class F1: 2/3, 1/2, 0 -> macro 38.888..%
    assert r.macro_f1 == pytest.approx(100.0 * (2 / 3 + 1 / 2 + 0) / 3)
    assert r.confusion.tolist() == [[1, 1, 0], [0, 1, 0], [0, 1, 0]]


def test_perfect_predictor_metrics():
    space = _separable_space()
    train = _separable_dataset()
    model = train_probe(train, space)
    r = eval_probe(model, train, space)
    assert r.accuracy == 100.0 and r.macro_f1 == 100.0
    assert np.trace(r.confusion) == len(train)


def test_eval_scheme_mismatch_rejected():
    space = _separable_space()
    model = train_probe(_separable_dataset(), space)
    three = SentimentDataset(examples=[(["p0"], "neutral")], scheme=3)
    with pytest.raises(ValueError):
        eval_probe(model, three, space)


def test_absent_class_contributes_zero_f1():
    space = _separable_space()
    model = train_probe(_separable_dataset(), space)
    # force 3-class eval impossible; instead check via majority baseline
    train = SentimentDataset(
        examples=[([f"p{i}"], "positive") for i in range(3)]
        + [([f"n{i}"], "negative") for i in range(2)]
        + [(["p9"], "neutral")],
        scheme=3,
    )
    r = eval_majority(train, train)
    # predictions are all "positive": neutral and negative get F1 0
    assert r.per_class["neutral"][2] == 0.0
    assert r.per_class["negative"][2] == 0.0


# ------------------------------------------------------------- majority

def _skewed_three_class_fixture():
    """1625 examples with class counts 642/493/490, majority 39.51%."""
    examples = []
    for lbl, count in (("negative", 642), ("neutral", 493), ("positive", 490)):
        examples += [([f"tok{i}"], lbl) for i in range(count)]
    return SentimentDataset(examples=examples, scheme=3)


def test_majority_baseline_skewed_three_class_accuracy():
    data = _skewed_three_class_fixture()
    assert majority_label(data) == "negative"
    r = eval_majority(data, data)
    assert abs(r.accuracy - 39.5) <= 0.5


def test_majority_tie_resolves_to_scheme_order():
    data = SentimentDataset(
        examples=[(["a"], "positive"), (["b"], "negative")], scheme=2
    )
    assert majority_label(data) == "negative"  # first in scheme order


# --------------------------------------------------------------- loading

def test_load_sentiment_tsv(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text(
        "positive\tme encanta \U0001F60D\n"
        "negative\tque horror\n"
        "neutral\tnormal dia\n",
        encoding="utf-8",
    )
    ds = load_sentiment_tsv(p)
    assert ds.scheme == 3
    assert ds.examples[0][0] == ["me", "encanta", "\U0001F60D"]
    assert ds.examples[0][1] == "positive"


def test_load_sentiment_tsv_infers_two_class(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text("positive\tbien\nnegative\tmal\n", encoding="utf-8")
    assert load_sentiment_tsv(p).scheme == 2


def test_load_sentiment_tsv_drops_empty_text(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text("positive\tbien\nnegative\t   \n", encoding="utf-8")
    with pytest.warns(UserWarning):
        ds = load_sentiment_tsv(p)
    assert len(ds) == 1


def test_load_sentiment_tsv_warns_once_with_replacement_count(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_bytes(b"positive\tbien \xff\nnegative\tmal \xfe\xfe\n")
    with pytest.warns(UserWarning) as record:
        ds = load_sentiment_tsv(p)
    # the same lines as errors="replace": one U+FFFD per invalid sequence
    assert ds.examples == [
        (["bien", "\ufffd"], "positive"),
        (["mal", "\ufffd", "\ufffd"], "negative"),
    ]
    assert [str(w.message) for w in record] == [
        f"{p}: 3 invalid UTF-8 byte sequence(s) replaced by U+FFFD"
    ]


def test_load_sentiment_tsv_rejects_missing_tab(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text("positive bien\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_sentiment_tsv(p)
    assert "line 1" in str(err.value)


def test_load_sentiment_tsv_names_the_line_of_a_bad_label(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text("negative\tmal\n\npos\tbien\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_sentiment_tsv(p)
    assert str(err.value) == f"{p}: line 3: label 'pos' not in 2-class scheme"


def test_test_set_label_outside_the_train_scheme_names_the_test_line(tmp_path):
    from xlembed.corpus import DEFAULT_TOKENIZER
    from xlembed.pipeline import load_sentiment_pair

    train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
    train.write_text("positive\tbien\nnegative\tmal\n", encoding="utf-8")
    test.write_text("positive\tbueno\nneutral\tnormal\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_sentiment_pair(train, test, DEFAULT_TOKENIZER)
    assert str(err.value) == (
        f"{test}: line 2: label 'neutral' not in 2-class scheme"
    )


def test_dataset_validation():
    with pytest.raises(ValueError):
        SentimentDataset(examples=[(["a"], "meh")], scheme=2)
    with pytest.raises(ValueError):
        SentimentDataset(examples=[([], "positive")], scheme=2)
    with pytest.raises(ValueError):
        SentimentDataset(examples=[], scheme=4)


def test_featurize_counts_all_oov():
    space = _toy_space()
    ds = SentimentDataset(
        examples=[(["w0"], "positive"), (["zzz"], "negative")], scheme=2
    )
    x, y, n_oov = featurize(ds, space)
    assert n_oov == 1
    assert np.array_equal(x[1], np.zeros(space.dim))
    assert y.tolist() == [1, 0]


def test_majority_baseline_and_probe_encode_labels_alike():
    # featurize, majority_label and eval_majority read one label encoding:
    # the index of each label in the scheme order
    space = _toy_space()
    train = SentimentDataset(
        examples=[(["w0"], "positive"), (["w1"], "neutral"), (["w2"], "neutral")],
        scheme=3,
    )
    test = SentimentDataset(
        examples=[(["w3"], "negative"), (["w4"], "neutral"), (["w5"], "positive")],
        scheme=3,
    )
    _, y, _ = featurize(test, space)
    assert y.tolist() == [test.labels.index(lbl) for _, lbl in test.examples]
    assert majority_label(train) == "neutral"
    report = eval_majority(train, test)
    col = test.labels.index("neutral")
    assert report.confusion[:, col].tolist() == [1, 1, 1]
    assert report.confusion[y, y].tolist() == [
        int(lbl == "neutral") for _, lbl in test.examples
    ]
    assert report.accuracy == pytest.approx(100.0 / 3)
