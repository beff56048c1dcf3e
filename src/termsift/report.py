"""Reduction-statistics tables and machine-readable run metadata.

All three render formats (plain text, CSV, JSON) carry the same fields.
Percentages are always the 2-decimal truncated strings produced by the
weighting module.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from termsift.corpus import DatasetStats
from termsift.weighting import csv_field

FORMATS = ("plain-text", "csv", "json")

_CSV_COLUMNS = [
    "kind",
    "name",
    "documents",
    "classes",
    "largest_class",
    "avg_doc_length",
    "scheme",
    "threshold",
    "term_count",
    "key_term_count",
    "removed_pct",
]


class ReductionRow(NamedTuple):
    dataset: str
    scheme: str
    threshold: float | None
    term_count: int
    key_term_count: int
    removed_pct: str


class RunMetadata(NamedTuple):
    stopword_count: int
    stopword_sha256: str
    wordnet_version: str
    wordnet_policy: str
    log_base: str
    aggregation: str
    alpha: float
    beta: float
    gamma: float
    min_count: int
    tool_version: str
    timestamp: str


def _render_plain(rows: list[ReductionRow], stats: list[DatasetStats]) -> str:
    out = []
    if stats:
        header = ["Data Set", "Documents", "Classes", "Largest class", "Avg doc length"]
        table = [header] + [
            [s.name, str(s.documents), str(s.classes), str(s.largest_class), str(s.avg_doc_length)]
            for s in stats
        ]
        out.append(_align(table))
    if rows:
        header = ["Data Set", "Scheme", "Threshold", "Terms", "Key terms", "% removed"]
        table = [header] + [
            [
                r.dataset,
                r.scheme,
                "-" if r.threshold is None else f"{r.threshold:g}",
                str(r.term_count),
                str(r.key_term_count),
                r.removed_pct,
            ]
            for r in rows
        ]
        out.append(_align(table))
    return "\n\n".join(out) + "\n"


def _align(table: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_tables(
    rows: list[ReductionRow], stats: list[DatasetStats], fmt: str = "plain-text"
) -> str:
    """Render dataset statistics and reduction rows in the requested format."""
    if fmt == "plain-text":
        return _render_plain(rows, stats)
    if fmt == "json":
        doc = {"stats": [s._asdict() for s in stats], "rows": [r._asdict() for r in rows]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        records = [_CSV_COLUMNS]
        records += [["stats", s.name, s.documents, s.classes, s.largest_class, s.avg_doc_length,
                     "", "", "", "", ""] for s in stats]
        records += [["reduction", r.dataset, "", "", "", "", r.scheme,
                     "" if r.threshold is None else f"{r.threshold!r}",
                     r.term_count, r.key_term_count, r.removed_pct] for r in rows]
        return "".join(",".join([csv_field(str(v)) for v in rec]) + "\n" for rec in records)
    raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")


def emit_metadata(meta: RunMetadata) -> str:
    """JSON metadata record attributing a run's configuration."""
    return json.dumps(meta._asdict(), indent=2, sort_keys=True) + "\n"
