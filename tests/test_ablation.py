import warnings

import numpy as np
import pytest

import xlembed.ablation as ablation
from xlembed import TokenClass, build_identical_dictionary, pipeline, run_ablation
from xlembed.ablation import (
    BASE,
    MODELS,
    VARIANTS,
    WEIGHTED,
    AblationCell,
    AblationRow,
    AblationTable,
)
from xlembed.config import COSINE
from xlembed.lexicon import filter_by_class
from xlembed.mapper import SelfLearnConfig
from xlembed.reports import ablation_markdown, ablation_tsv
from synthetic import held_out_test, rotation_benchmark


def _benchmark(seed=0, noise=0.05):
    src, tgt, _ = rotation_benchmark(
        n=400, d=20, noise=noise, seed=seed, with_classes=True
    )
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    test = held_out_test(src.vocab.tokens, 250, 120)
    return src, tgt, d, test


def test_grid_shape_and_partition():
    src, tgt, d, test = _benchmark()
    table = run_ablation(src, tgt, d, test)
    assert [r.name for r in table.rows] == ["All", "Numerals", "Emoji", "Words"]
    assert all(set(r.cells) == {BASE, WEIGHTED} for r in table.rows)
    # class subsets partition the All dictionary (emoticons counted as emoji)
    n_all = table.rows[0].n_pairs
    assert sum(r.n_pairs for r in table.rows[1:]) == n_all
    assert all(r.n_pairs <= n_all for r in table.rows)


def test_all_cells_produce_reports_on_clean_benchmark():
    src, tgt, d, test = _benchmark()
    table = run_ablation(src, tgt, d, test)
    for row in table.rows:
        for cell in row.cells.values():
            assert cell.error is None
            assert cell.translation is not None
            assert cell.translation.p_at[1] is not None


def test_empty_class_subset_marks_cell_not_abort():
    src, tgt, _ = rotation_benchmark(n=100, d=10, seed=3)  # plain word tokens
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    assert len(filter_by_class(d, {TokenClass.EMOJI})) == 0
    test = held_out_test(src.vocab.tokens, 50, 30)
    with pytest.warns(UserWarning) as record:
        table = run_ablation(src, tgt, d, test)
    # one warning per failed row, naming the variant, both models and the error
    assert [str(w.message) for w in record] == [
        f"ablation row {name}, model base and weighted: "
        "ValueError: seed dictionary is empty; reported as n/a"
        for name in ("Numerals", "Emoji")
    ]
    emoji_row = table.rows[2]
    assert emoji_row.name == "Emoji"
    assert emoji_row.n_pairs == 0
    for cell in emoji_row.cells.values():
        assert cell.error is not None
        assert cell.translation is None
    # other rows unaffected
    assert table.rows[0].cells[BASE].error is None


def test_all_row_at_least_each_class_p1():
    # five seeds; the combined dictionary must not lose to any single class
    # by more than one point
    for seed in range(5):
        src, tgt, d, test = _benchmark(seed=seed)
        table = run_ablation(src, tgt, d, test, ks=(1,))
        p_all = table.rows[0].cells[BASE].translation.p_at[1]
        for row in table.rows[1:]:
            cell = row.cells[BASE]
            if cell.error is not None:
                continue
            p_row = cell.translation.p_at[1]
            assert p_all >= p_row - 1.0, (
                f"seed {seed}: All={p_all} vs {row.name}={p_row}"
            )


def test_sentiment_columns_present_when_datasets_given():
    from xlembed import SentimentDataset

    src, tgt, d, test = _benchmark()
    words = [t for t in src.vocab.tokens if t.startswith("w")]
    train = SentimentDataset(
        examples=[([words[i]], "positive") for i in range(10)]
        + [([words[i]], "negative") for i in range(10, 20)],
        scheme=2,
    )
    table = run_ablation(
        src, tgt, d, test, sentiment_train=train, sentiment_test=train
    )
    assert table.has_sentiment
    cell = table.rows[0].cells[WEIGHTED]
    assert cell.sentiment is not None
    assert 0.0 <= cell.sentiment.accuracy <= 100.0


def _per_cell_table(src, tgt, d, test, ks, config, train, sentiment_test):
    """The grid with every cell aligned on its own: the report oracle."""
    rows = []
    for name, keep in VARIANTS:
        variant = d if keep is None else filter_by_class(d, keep)
        row = AblationRow(name=name, n_pairs=len(variant))
        for model_name, refine_mode in MODELS:
            try:
                _, space = pipeline.align(src, tgt, variant, config)
                space = pipeline.refine_space(space, variant, refine_mode)
                cell = AblationCell(
                    translation=pipeline.evaluate_translation(space, test, ks, COSINE)
                )
                _, cell.sentiment = pipeline.evaluate_sentiment(
                    space, train, sentiment_test
                )
            except Exception as exc:
                cell = AblationCell(error=f"{type(exc).__name__}: {exc}")
            row.cells[model_name] = cell
        rows.append(row)
    return AblationTable(rows=rows, ks=ks, has_sentiment=True)


@pytest.mark.parametrize("with_classes", [True, False])
def test_self_learning_grid_aligns_each_variant_once(monkeypatch, with_classes):
    from xlembed import SentimentDataset

    # without token classes the Numerals and Emoji variants are empty, so
    # their alignment fails and both cells of the row carry its error
    src, tgt, _ = rotation_benchmark(
        n=300, d=12, noise=0.05, seed=4, with_classes=with_classes
    )
    d = build_identical_dictionary(src.vocab, tgt.vocab)
    test = held_out_test(src.vocab.tokens, 150, 80)
    train = SentimentDataset(
        examples=[([src.vocab.tokens[i]], "positive") for i in range(10)]
        + [([src.vocab.tokens[i]], "negative") for i in range(10, 20)],
        scheme=2,
    )
    config = SelfLearnConfig(induce_vocab_cutoff=300, max_iters=3)
    calls = []
    self_learn = pipeline.self_learn

    def counting_self_learn(*args, **kwargs):
        calls.append(1)
        return self_learn(*args, **kwargs)

    monkeypatch.setattr(pipeline, "self_learn", counting_self_learn)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        table = run_ablation(
            src, tgt, d, test, ks=(1, 5), self_learn_config=config,
            sentiment_train=train, sentiment_test=train,
        )
    assert len(calls) == len(VARIANTS)
    expected = _per_cell_table(src, tgt, d, test, (1, 5), config, train, train)
    assert len(calls) == 3 * len(VARIANTS)
    assert ablation_tsv(table) == ablation_tsv(expected)
    assert ablation_markdown(table) == ablation_markdown(expected)
    errors = [row for row in table.rows if row.cells[BASE].error]
    assert bool(errors) != with_classes
    for row in errors:
        assert row.cells[WEIGHTED].error == row.cells[BASE].error
    assert [str(w.message) for w in record] == [
        f"ablation row {row.name}, model base and weighted: "
        f"{row.cells[BASE].error}; reported as n/a"
        for row in errors
    ]


def test_failed_cell_warns_and_keeps_the_rest_of_its_row(monkeypatch):
    # a refine or evaluation failure marks only its own cell
    src, tgt, d, test = _benchmark()
    refine_space = ablation.refine_space

    def failing_weighted(space, dictionary, mode):
        if mode == "weighted":
            raise RuntimeError("refine broke")
        return refine_space(space, dictionary, mode)

    monkeypatch.setattr(ablation, "refine_space", failing_weighted)
    with pytest.warns(UserWarning) as record:
        table = run_ablation(src, tgt, d, test, ks=(1,))
    assert [str(w.message) for w in record] == [
        f"ablation row {name}, model weighted: RuntimeError: refine broke; "
        "reported as n/a"
        for name, _ in VARIANTS
    ]
    for row in table.rows:
        assert row.cells[BASE].error is None
        assert row.cells[WEIGHTED].error == "RuntimeError: refine broke"
    for line in ablation_tsv(table).splitlines()[1:]:
        base_p1, weighted_p1 = line.split("\t")[2:]
        assert base_p1 != "n/a" and weighted_p1 == "n/a"


def test_report_cells_read_na_for_failed_missing_and_empty_values():
    from xlembed.sentiment import SentimentReport
    from xlembed.translate import TranslationReport

    def translation(p1, p5):
        return TranslationReport(
            p_at={1: p1, 5: p5}, covered=3, skipped=0, total=3,
            retrieval=COSINE, oov_as_wrong=False,
        )

    sent = SentimentReport(
        accuracy=72.25, macro_f1=0.0, per_class={}, confusion=None, n=4
    )
    error = AblationCell(error="ValueError: seed dictionary is empty")
    rows = [
        AblationRow("All", 12, {
            BASE: AblationCell(translation(50.0, 100.0), sent),
            WEIGHTED: AblationCell(translation(200 / 3, 100.0)),  # no sentiment
        }),
        AblationRow("Numerals", 0, {BASE: error, WEIGHTED: error}),
        # nothing covered (P@k None), and no weighted cell at all
        AblationRow("Emoji", 3, {BASE: AblationCell(translation(None, None), sent)}),
    ]
    table = AblationTable(rows=rows, ks=(1, 5), has_sentiment=True)
    assert ablation_tsv(table) == (
        "dictionary\tpairs\tbase:P@1\tbase:P@5\tbase:acc\tbase:F1"
        "\tweighted:P@1\tweighted:P@5\tweighted:acc\tweighted:F1\n"
        "All\t12\t50.00\t100.00\t72.25\t0.00\t66.67\t100.00\tn/a\tn/a\n"
        "Numerals\t0\tn/a\tn/a\tn/a\tn/a\tn/a\tn/a\tn/a\tn/a\n"
        "Emoji\t3\tn/a\tn/a\t72.25\t0.00\tn/a\tn/a\tn/a\tn/a\n"
    )
    table = AblationTable(rows=rows, ks=(1, 5), has_sentiment=False)
    assert ablation_markdown(table) == (
        "| dictionary | pairs | base P@1 | base P@5 | weighted P@1 | weighted P@5 |\n"
        "|------------|-------|----------|----------|--------------|--------------|\n"
        "| All        | 12    | 50.00    | 100.00   | 66.67        | 100.00       |\n"
        "| Numerals   | 0     | n/a      | n/a      | n/a          | n/a          |\n"
        "| Emoji      | 3     | n/a      | n/a      | n/a          | n/a          |\n"
    )
