"""Document frequencies, the three weighting schemes and key-term selection.

Weights are defined over relative term frequency TF = f/total and
normalized document frequency DF = df/|D|:

    tfidf = TF * log(|D| / df)        (natural log by default)
    tfdf  = TF / DF
    tf2   = tfidf * tfdf

A term is a key term when its aggregated weight (max over documents by
default) clears the scheme's threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from termsift.errors import EmptyCorpusError, UndefinedEntryError
from termsift.textprep import TermVector

SCHEMES = ("tfidf", "tfdf", "tf2")
AGGREGATIONS = ("max", "mean", "any-doc")
EXPORT_FORMATS = ("csv", "coordinate-triplet")


@dataclass(frozen=True)
class CorpusIndex:
    """Global vocabulary, document frequencies and the underlying vectors."""

    vocabulary: tuple[str, ...]
    doc_ids: tuple[str, ...]
    df: dict[str, int]
    vectors: tuple[TermVector, ...]

    @property
    def doc_count(self) -> int:
        return len(self.vectors)

    def term_index(self) -> dict[str, int]:
        return {t: j for j, t in enumerate(self.vocabulary)}


@dataclass(frozen=True)
class Thresholds:
    alpha: float = 0.028  # minimum tfidf
    beta: float = 0.01  # minimum tfdf
    gamma: float = 0.005  # minimum tf2

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"threshold {name} must be finite and >= 0, got {value}")

    def for_scheme(self, scheme: str) -> float:
        return {"tfidf": self.alpha, "tfdf": self.beta, "tf2": self.gamma}[scheme]


@dataclass(frozen=True)
class WeightMatrix:
    scheme: str
    entries: dict[tuple[int, int], float]  # (doc index, term index) -> weight
    doc_ids: tuple[str, ...]
    vocabulary: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.doc_ids), len(self.vocabulary))


@dataclass(frozen=True)
class KeyTermSet:
    scheme: str
    threshold: float | None  # None for the joint (three-threshold) selection
    aggregation: str
    terms: frozenset[str]
    vocabulary_size: int

    @property
    def removed_count(self) -> int:
        return self.vocabulary_size - len(self.terms)

    @property
    def removed_pct(self) -> str:
        return removed_percentage(self.removed_count, self.vocabulary_size)


def removed_percentage(removed: int, vocabulary_size: int) -> str:
    """Percentage of removed terms, truncated (not rounded) to 2 decimals."""
    if vocabulary_size <= 0:
        return "0.00"
    hundredths = removed * 10000 // vocabulary_size
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def build_index(vectors: Sequence[TermVector]) -> CorpusIndex:
    """Vocabulary (sorted), per-term document frequencies and |D|."""
    if not vectors:
        raise EmptyCorpusError("cannot build an index from zero documents")
    df: dict[str, int] = {}
    for v in vectors:
        for term in v.counts:
            df[term] = df.get(term, 0) + 1
    return CorpusIndex(
        vocabulary=tuple(sorted(df)),
        doc_ids=tuple(v.doc_id for v in vectors),
        df=df,
        vectors=tuple(vectors),
    )


def frequent_terms(index: CorpusIndex, min_count: int = 1) -> set[str]:
    """Terms whose total corpus frequency reaches ``min_count``."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    totals: dict[str, int] = {}
    for v in index.vectors:
        for term, f in v.counts.items():
            totals[term] = totals.get(term, 0) + f
    return {t for t, total in totals.items() if total >= min_count}


def _cell(index: CorpusIndex, i: int, j: int) -> tuple[int, int, str]:
    term = index.vocabulary[j]
    f = index.vectors[i].counts.get(term, 0)
    if f == 0:
        raise UndefinedEntryError(
            f"term {term!r} has zero frequency in document {index.doc_ids[i]!r}"
        )
    return f, index.vectors[i].total, term


def tfidf(index: CorpusIndex, i: int, j: int, log_base: float = math.e) -> float:
    f, total, term = _cell(index, i, j)
    return (f / total) * math.log(index.doc_count / index.df[term], log_base)


def tfdf(index: CorpusIndex, i: int, j: int) -> float:
    f, total, term = _cell(index, i, j)
    return (f / total) / (index.df[term] / index.doc_count)


def tf2(index: CorpusIndex, i: int, j: int, log_base: float = math.e) -> float:
    return tfidf(index, i, j, log_base) * tfdf(index, i, j)


def compute_matrix(index: CorpusIndex, scheme: str, log_base: float = math.e) -> WeightMatrix:
    """One weight per populated (document, term) cell; empty docs add nothing."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weighting scheme {scheme!r}; expected one of {SCHEMES}")
    positions = index.term_index()
    n = index.doc_count
    log_n_over: dict[str, float] = {}
    entries: dict[tuple[int, int], float] = {}
    for i, v in enumerate(index.vectors):
        total = v.total
        for term, f in v.counts.items():
            tf = f / total
            if scheme == "tfdf":
                w = tf * n / index.df[term]
            else:
                if term not in log_n_over:
                    log_n_over[term] = math.log(n / index.df[term], log_base)
                w = tf * log_n_over[term]
                if scheme == "tf2":
                    w *= tf * n / index.df[term]
            entries[(i, positions[term])] = w
    return WeightMatrix(
        scheme=scheme, entries=entries, doc_ids=index.doc_ids, vocabulary=index.vocabulary
    )


def _aggregate(matrix: WeightMatrix, aggregation: str) -> dict[int, float]:
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {aggregation!r}; expected one of {AGGREGATIONS}")
    acc: dict[int, list[float]] = {}
    for (_, j), w in matrix.entries.items():
        acc.setdefault(j, []).append(w)
    if aggregation == "mean":
        return {j: sum(ws) / len(ws) for j, ws in acc.items()}
    return {j: max(ws) for j, ws in acc.items()}


def select_key_terms(matrix: WeightMatrix, threshold: float, aggregation: str = "max") -> KeyTermSet:
    """Terms whose aggregated weight is >= threshold."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    scores = _aggregate(matrix, aggregation)
    terms = frozenset(
        matrix.vocabulary[j] for j, score in scores.items() if score >= threshold
    )
    return KeyTermSet(
        scheme=matrix.scheme,
        threshold=threshold,
        aggregation=aggregation,
        terms=terms,
        vocabulary_size=len(matrix.vocabulary),
    )


def select_joint(matrices: Iterable[WeightMatrix], key_terms: dict[str, KeyTermSet]) -> KeyTermSet:
    """Terms clearing all three per-scheme thresholds: the intersection of
    the per-scheme sets ``select_key_terms`` already chose from ``matrices``."""
    mats = list(matrices)
    if {m.scheme for m in mats} != set(SCHEMES):
        raise ValueError(f"select_joint needs one matrix per scheme {SCHEMES}")
    first = mats[0]
    for m in mats[1:]:
        if m.vocabulary != first.vocabulary or m.doc_ids != first.doc_ids:
            raise ValueError("matrices were not computed over the same corpus index")
    if set(key_terms) != set(SCHEMES):
        raise ValueError(f"select_joint needs one key-term set per scheme {SCHEMES}")
    aggregations = {k.aggregation for k in key_terms.values()}
    if len(aggregations) != 1:
        raise ValueError("key-term sets were selected under different aggregations")
    return KeyTermSet(
        scheme="joint",
        threshold=None,
        aggregation=aggregations.pop(),
        terms=frozenset.intersection(*(k.terms for k in key_terms.values())),
        vocabulary_size=len(first.vocabulary),
    )


def export_matrix(
    matrix: WeightMatrix,
    path: str | Path,
    fmt: str = "csv",
    key_terms: KeyTermSet | None = None,
) -> Path:
    """Write the matrix as dense CSV or sparse ``doc_id,term,weight`` triplets.

    With ``key_terms`` the columns are restricted to the selected terms.
    Weights print with 10 significant digits, dot decimal separator.
    """
    out = Path(path)
    if key_terms is not None:
        keep = [(j, t) for j, t in enumerate(matrix.vocabulary) if t in key_terms.terms]
    else:
        keep = list(enumerate(matrix.vocabulary))
    if fmt == "csv":
        lines = ["doc_id," + ",".join(t for _, t in keep)]
        for i, doc_id in enumerate(matrix.doc_ids):
            row = [doc_id]
            for j, _ in keep:
                w = matrix.entries.get((i, j))
                row.append("0" if w is None else f"{w:.10g}")
            lines.append(",".join(row))
    elif fmt == "coordinate-triplet":
        cols = {j for j, _ in keep}
        lines = [
            f"{matrix.doc_ids[i]},{matrix.vocabulary[j]},{w:.10g}"
            for (i, j), w in sorted(matrix.entries.items())
            if j in cols
        ]
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out
