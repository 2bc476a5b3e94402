"""Report emission: TSV for machines, aligned markdown for humans.

Every emitter is a pure function of its report object, so identical runs
produce identical bytes.
"""

from typing import TYPE_CHECKING, Optional

from .sentiment import SentimentReport
from .translate import TranslationReport

if TYPE_CHECKING:  # ablation runs the pipeline, which writes reports
    from .ablation import AblationTable


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _aligned_table(headers: list, rows: list) -> str:
    widths = [
        max(len(str(headers[c])), *(len(str(r[c])) for r in rows)) if rows
        else len(str(headers[c]))
        for c in range(len(headers))
    ]
    def line(cells):
        return "| " + " | ".join(
            str(c).ljust(w) for c, w in zip(cells, widths)
        ) + " |"
    sep = "|-" + "-|-".join("-" * w for w in widths) + "-|"
    return "\n".join([line(headers), sep] + [line(r) for r in rows]) + "\n"


def translation_tsv(report: TranslationReport, header: str = "") -> str:
    lines = [header] if header else []
    lines.append("metric\tvalue")
    for k in sorted(report.p_at):
        lines.append(f"P@{k}\t{_fmt(report.p_at[k])}")
    lines.append(f"covered\t{report.covered}")
    lines.append(f"skipped\t{report.skipped}")
    lines.append(f"total\t{report.total}")
    lines.append(f"retrieval\t{report.retrieval}")
    lines.append(f"oov_as_wrong\t{str(report.oov_as_wrong).lower()}")
    return "\n".join(lines) + "\n"


def translation_markdown(report: TranslationReport) -> str:
    headers = [f"P@{k}" for k in sorted(report.p_at)] + ["covered", "skipped"]
    row = [_fmt(report.p_at[k]) for k in sorted(report.p_at)]
    row += [str(report.covered), str(report.skipped)]
    return _aligned_table(headers, [row])


def sentiment_tsv(report: SentimentReport, header: str = "") -> str:
    lines = [header] if header else []
    lines.append("metric\tvalue")
    lines.append(f"accuracy\t{_fmt(report.accuracy)}")
    lines.append(f"macro_f1\t{_fmt(report.macro_f1)}")
    lines.append(f"n\t{report.n}")
    lines.append(f"n_all_oov\t{report.n_all_oov}")
    for label, (p, r, f1) in report.per_class.items():
        lines.append(
            f"class_{label}\tP={_fmt(p)} R={_fmt(r)} F1={_fmt(f1)}"
        )
    conf = ";".join(",".join(str(v) for v in row) for row in report.confusion)
    lines.append(f"confusion\t{conf}")
    return "\n".join(lines) + "\n"


def sentiment_markdown(report: SentimentReport) -> str:
    headers = ["class", "precision", "recall", "F1"]
    rows = [
        [label, _fmt(p), _fmt(r), _fmt(f1)]
        for label, (p, r, f1) in report.per_class.items()
    ]
    rows.append(["accuracy", "", "", _fmt(report.accuracy)])
    rows.append(["macro-F1", "", "", _fmt(report.macro_f1)])
    return _aligned_table(headers, rows)


def _ablation_cells(table: "AblationTable", row) -> dict:
    out = {}
    for model in table.models:
        cell = row.cells.get(model)
        if cell is None or cell.error is not None or cell.translation is None:
            out[model] = {f"P@{k}": "n/a" for k in table.ks}
            if table.has_sentiment:
                out[model]["acc"] = "n/a"
                out[model]["F1"] = "n/a"
            continue
        vals = {f"P@{k}": _fmt(cell.translation.p_at[k]) for k in table.ks}
        if table.has_sentiment:
            vals["acc"] = _fmt(cell.sentiment.accuracy) if cell.sentiment else "n/a"
            vals["F1"] = _fmt(cell.sentiment.macro_f1) if cell.sentiment else "n/a"
        out[model] = vals
    return out


def _ablation_columns(table: "AblationTable") -> list:
    cols = [f"P@{k}" for k in table.ks]
    if table.has_sentiment:
        cols += ["acc", "F1"]
    return cols


def ablation_tsv(table: "AblationTable") -> str:
    cols = _ablation_columns(table)
    lines = [
        "dictionary\tpairs\t"
        + "\t".join(f"{m}:{c}" for m in table.models for c in cols)
    ]
    for row in table.rows:
        cells = _ablation_cells(table, row)
        values = [cells[m][c] for m in table.models for c in cols]
        lines.append(f"{row.name}\t{row.n_pairs}\t" + "\t".join(values))
    return "\n".join(lines) + "\n"


def ablation_markdown(table: "AblationTable") -> str:
    cols = _ablation_columns(table)
    headers = ["dictionary", "pairs"] + [
        f"{m} {c}" for m in table.models for c in cols
    ]
    rows = []
    for row in table.rows:
        cells = _ablation_cells(table, row)
        rows.append(
            [row.name, str(row.n_pairs)]
            + [cells[m][c] for m in table.models for c in cols]
        )
    return _aligned_table(headers, rows)
