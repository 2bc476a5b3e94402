"""Cross-lingual sentiment transfer probe.

Sentences embed as the mean of their in-vocabulary token vectors; a
multinomial logistic regression is trained on the source side with the
embeddings frozen and evaluated on the target side. Full-batch gradient
descent from zero init keeps training deterministic.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import SCHEME_LABELS
from .corpus import iter_corpus_lines, tokenize
from .embeddings import EmbeddingSpace

EPOCHS = 500
LEARNING_RATE = 0.1
L2_PENALTY = 1e-4


@dataclass
class SentimentDataset:
    examples: list        # (token list, label string)
    scheme: int           # 2 or 3

    def __post_init__(self):
        if self.scheme not in SCHEME_LABELS:
            raise ValueError(f"scheme must be 2 or 3, got {self.scheme}")
        allowed = set(SCHEME_LABELS[self.scheme])
        for tokens, label in self.examples:
            if label not in allowed:
                raise ValueError(
                    f"label {label!r} not in {self.scheme}-class scheme"
                )
            if not tokens:
                raise ValueError("empty token sequence in sentiment dataset")

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def labels(self) -> tuple:
        return SCHEME_LABELS[self.scheme]


def load_sentiment_tsv(
    path, lowercase: bool = True, scheme: Optional[int] = None
) -> SentimentDataset:
    """Read `label<TAB>raw text` lines; text goes through the tokenizer.

    The scheme is inferred from the labels present (3-class iff any
    'neutral') unless given; a label outside it is an error naming its
    line. Lines whose text tokenizes to nothing are dropped with a
    warning. Lines are read by iter_corpus_lines: they end at "\\n", "\\r"
    and "\\r\\n", and invalid UTF-8 reads as one U+FFFD per sequence, with
    one warning giving the file and the count.
    """
    rows, linenos = [], []
    for lineno, line in enumerate(iter_corpus_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected `label<TAB>text`")
        label, text = parts
        tokens = tokenize(text, lowercase)
        if not tokens:
            warnings.warn(
                f"{path}: line {lineno}: text tokenizes to nothing, dropped"
            )
            continue
        rows.append((tokens, label))
        linenos.append(lineno)
    if scheme is None:
        scheme = 3 if any(lbl == "neutral" for _, lbl in rows) else 2
    allowed = SCHEME_LABELS.get(scheme)  # None: SentimentDataset names it
    for lineno, (_, label) in zip(linenos, rows):
        if allowed and label not in allowed:
            raise ValueError(
                f"{path}: line {lineno}: label {label!r} not in "
                f"{scheme}-class scheme"
            )
    return SentimentDataset(examples=rows, scheme=scheme)


def embed_sentence(
    space: EmbeddingSpace, tokens: list
) -> tuple[np.ndarray, bool]:
    """Mean of in-vocabulary token vectors; all-OOV gives a zero vector
    and the OOV flag set."""
    idx = [space.vocab.index[t] for t in tokens if t in space.vocab.index]
    if not idx:
        return np.zeros(space.dim, dtype=np.float64), True
    return space.matrix[np.array(idx, dtype=np.int64)].mean(axis=0), False


def _label_ids(dataset: SentimentDataset) -> np.ndarray:
    """Each example's label as its index in the scheme's label order."""
    index = {lbl: i for i, lbl in enumerate(dataset.labels)}
    return np.array([index[lbl] for _, lbl in dataset.examples], dtype=np.int64)


def featurize(
    dataset: SentimentDataset, space: EmbeddingSpace
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sentence-embedding design matrix, integer labels, all-OOV count."""
    x = np.zeros((len(dataset), space.dim), dtype=np.float64)
    n_oov = 0
    for i, (tokens, _) in enumerate(dataset.examples):
        x[i], oov = embed_sentence(space, tokens)
        n_oov += int(oov)
    return x, _label_ids(dataset), n_oov


@dataclass
class ProbeModel:
    weights: np.ndarray    # d x n_classes
    bias: np.ndarray       # n_classes
    scheme: int
    loss_history: list = field(default_factory=list)

    @property
    def labels(self) -> tuple:
        return SCHEME_LABELS[self.scheme]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def probe_loss_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy with an L2_PENALTY on the weights (bias
    unregularized), and its analytic gradient.

    Both products are written so that BLAS reads the (n, d) features x in
    their row-major order: (W.T @ x.T).T for x @ W, and (delta.T @ x).T for
    x.T @ delta. With a few classes, reading x column by column took about
    twice as long (500 steps on 2000 x 300 features, 2 BLAS threads)."""
    n = x.shape[0]
    probs = _softmax((weights.T @ x.T).T + bias)
    penalty = 0.5 * L2_PENALTY * (weights**2).sum()
    loss = -np.log(probs[np.arange(n), y]).mean() + penalty
    delta = probs
    delta[np.arange(n), y] -= 1.0
    grad_w = (delta.T @ x).T / n + L2_PENALTY * weights
    grad_b = delta.mean(axis=0)
    return float(loss), grad_w, grad_b


def train_probe(
    train: SentimentDataset,
    space: EmbeddingSpace,
) -> ProbeModel:
    """Full-batch gradient descent from zero init; embeddings are frozen
    (never written); deterministic given the dataset and space."""
    x, y, _ = featurize(train, space)
    n_classes = train.scheme
    present = np.bincount(y, minlength=n_classes)
    if (present == 0).any():
        missing = train.labels[int(np.argmin(present))]
        raise ValueError(f"training data has no examples of class {missing!r}")
    weights = np.zeros((space.dim, n_classes), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)
    losses = []
    for epoch in range(EPOCHS):
        loss, grad_w, grad_b = probe_loss_grad(weights, bias, x, y)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss at epoch {epoch}; "
                f"|W|={np.abs(weights).max():.3e}, lr={LEARNING_RATE}"
            )
        losses.append(loss)
        weights -= LEARNING_RATE * grad_w
        bias -= LEARNING_RATE * grad_b
    return ProbeModel(
        weights=weights, bias=bias, scheme=train.scheme, loss_history=losses
    )


@dataclass
class SentimentReport:
    accuracy: float              # percent
    macro_f1: float              # percent
    per_class: dict              # label -> (precision, recall, f1), percent
    confusion: np.ndarray        # gold rows x predicted columns
    n: int
    n_all_oov: int = 0


def _metrics(
    gold: np.ndarray, pred: np.ndarray, labels: tuple, n_all_oov: int
) -> SentimentReport:
    c = len(labels)
    confusion = np.zeros((c, c), dtype=np.int64)
    for g, p in zip(gold, pred):
        confusion[g, p] += 1
    per_class = {}
    f1s = []
    for i, lbl in enumerate(labels):
        tp = confusion[i, i]
        fp = confusion[:, i].sum() - tp
        fn = confusion[i, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[lbl] = (100.0 * precision, 100.0 * recall, 100.0 * f1)
        f1s.append(f1)
    accuracy = float((gold == pred).mean()) if len(gold) else 0.0
    return SentimentReport(
        accuracy=100.0 * accuracy,
        macro_f1=100.0 * float(np.mean(f1s)),
        per_class=per_class,
        confusion=confusion,
        n=len(gold),
        n_all_oov=n_all_oov,
    )


def eval_probe(
    model: ProbeModel, test: SentimentDataset, space: EmbeddingSpace
) -> SentimentReport:
    """Accuracy, macro-F1 (classes absent from both gold and predictions
    contribute F1=0), per-class metrics and the confusion matrix."""
    if test.scheme != model.scheme:
        raise ValueError(
            f"scheme mismatch: model is {model.scheme}-class, "
            f"test set is {test.scheme}-class"
        )
    x, y, n_oov = featurize(test, space)
    pred = np.argmax(x @ model.weights + model.bias, axis=1)
    return _metrics(y, pred, model.labels, n_oov)


def majority_label(train: SentimentDataset) -> str:
    """Most frequent training label; ties resolve to the scheme order."""
    counts = np.bincount(_label_ids(train), minlength=len(train.labels))
    return train.labels[int(np.argmax(counts))]


def eval_majority(
    train: SentimentDataset, test: SentimentDataset
) -> SentimentReport:
    """Constant-prediction baseline: always the majority training class."""
    if test.scheme != train.scheme:
        raise ValueError("scheme mismatch between train and test")
    gold = _label_ids(test)
    pred = np.full(len(gold), test.labels.index(majority_label(train)))
    return _metrics(gold, pred, test.labels, 0)
