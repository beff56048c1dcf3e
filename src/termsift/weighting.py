"""Document frequencies, the three weighting schemes and key-term selection.

Weights are defined over relative term frequency TF = f/total and
normalized document frequency DF = df/|D|:

    tfidf = TF * log(|D| / df)        (natural log by default)
    tfdf  = TF / DF
    tf2   = tfidf * tfdf

A term is a key term when its aggregated weight (max over documents by
default) clears the scheme's threshold.

The index holds one row per document: its term ids in ascending order and
their TF values. A matrix maps those rows to weights, sharing the id rows,
and exports walk them in (doc, term) order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from termsift.errors import EmptyCorpusError
from termsift.textprep import TermVector

SCHEMES = ("tfidf", "tfdf", "tf2")
AGGREGATIONS = ("max", "mean", "any-doc")
EXPORT_FORMATS = ("csv", "coordinate-triplet")


@dataclass(frozen=True)
class CorpusIndex:
    """Global vocabulary, document frequencies and one row per document.

    Row ``i`` is ``term_ids[i]``, the document's term ids in ascending
    order, with ``tf[i]``, their relative frequencies ``f / total``."""

    vocabulary: tuple[str, ...]
    doc_ids: tuple[str, ...]
    df: tuple[int, ...]  # documents containing each term id
    term_ids: tuple[tuple[int, ...], ...]
    tf: tuple[tuple[float, ...], ...]

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

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
    """One weight per populated cell, stored as the index's rows: ``weights[i]``
    is aligned with ``term_ids[i]``, the tuple the index holds for document i."""

    scheme: str
    term_ids: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]
    doc_ids: tuple[str, ...]
    vocabulary: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.doc_ids), len(self.vocabulary))

    @property
    def entries(self) -> Mapping[tuple[int, int], float]:
        """Read-only (doc index, term index) -> weight view of the populated
        cells, iterated in (doc, term) order."""
        return _Entries(self.term_ids, self.weights)


class _Entries(Mapping):
    __slots__ = ("_term_ids", "_weights")

    def __init__(self, term_ids, weights):
        self._term_ids = term_ids
        self._weights = weights

    def __len__(self) -> int:
        return sum(map(len, self._term_ids))

    def __getitem__(self, key: tuple[int, int]) -> float:
        i, j = key
        if 0 <= i < len(self._term_ids):
            ids = self._term_ids[i]
            k = bisect_left(ids, j)
            if k < len(ids) and ids[k] == j:
                return self._weights[i][k]
        raise KeyError(key)

    def __iter__(self):
        for i, ids in enumerate(self._term_ids):
            for j in ids:
                yield (i, j)


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
    """Vocabulary (sorted), per-term document frequencies and the document rows."""
    if not vectors:
        raise EmptyCorpusError("cannot build an index from zero documents")
    df: dict[str, int] = {}
    for v in vectors:
        for term in v.counts:
            df[term] = df.get(term, 0) + 1
    vocabulary = tuple(sorted(df))
    ids = {t: j for j, t in enumerate(vocabulary)}
    term_ids, tf = [], []
    for v in vectors:
        # the vocabulary is sorted, so sorted terms give ascending ids
        terms = sorted(v.counts)
        counts, total = v.counts, v.total
        term_ids.append(tuple([ids[t] for t in terms]))
        tf.append(tuple([counts[t] / total for t in terms]))
    return CorpusIndex(
        vocabulary=vocabulary,
        doc_ids=tuple(v.doc_id for v in vectors),
        df=tuple(df[t] for t in vocabulary),
        term_ids=tuple(term_ids),
        tf=tuple(tf),
    )


def frequent_terms(vectors: Iterable[TermVector], min_count: int = 1) -> set[str]:
    """Terms whose total corpus frequency reaches ``min_count``."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    totals: dict[str, int] = {}
    for v in vectors:
        for term, f in v.counts.items():
            totals[term] = totals.get(term, 0) + f
    return {t for t, total in totals.items() if total >= min_count}


def compute_matrix(index: CorpusIndex, scheme: str, log_base: float = math.e) -> WeightMatrix:
    """One weight per populated (document, term) cell; empty docs get empty rows."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weighting scheme {scheme!r}; expected one of {SCHEMES}")
    n = index.doc_count
    df = index.df
    rows = zip(index.term_ids, index.tf)
    if scheme == "tfdf":
        weights = [tuple([tf * n / df[j] for j, tf in zip(ids, tfs)]) for ids, tfs in rows]
    else:
        idf = [math.log(n / d, log_base) for d in df]
        if scheme == "tfidf":
            weights = [tuple([tf * idf[j] for j, tf in zip(ids, tfs)]) for ids, tfs in rows]
        else:
            weights = [tuple([(tf * idf[j]) * (tf * n / df[j]) for j, tf in zip(ids, tfs)])
                       for ids, tfs in rows]
    return WeightMatrix(scheme=scheme, term_ids=index.term_ids, weights=tuple(weights),
                        doc_ids=index.doc_ids, vocabulary=index.vocabulary)


def _aggregate(matrix: WeightMatrix, aggregation: str) -> dict[int, float]:
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {aggregation!r}; expected one of {AGGREGATIONS}")
    # each term's weights in document order, so a mean sums them in that order
    columns: list[list[float]] = [[] for _ in matrix.vocabulary]
    for ids, ws in zip(matrix.term_ids, matrix.weights):
        for j, w in zip(ids, ws):
            columns[j].append(w)
    if aggregation == "mean":
        return {j: sum(ws) / len(ws) for j, ws in enumerate(columns) if ws}
    return {j: max(ws) for j, ws in enumerate(columns) if ws}


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
    vocabulary = matrix.vocabulary
    if key_terms is not None:
        keep = [j for j, t in enumerate(vocabulary) if t in key_terms.terms]
    else:
        keep = range(len(vocabulary))
    rows = zip(matrix.doc_ids, matrix.term_ids, matrix.weights)
    if fmt == "csv":
        column: list[int | None] = [None] * len(vocabulary)
        for c, j in enumerate(keep):
            column[j] = c
        lines = [",".join(["doc_id", *(vocabulary[j] for j in keep)])]
        for doc_id, ids, ws in rows:
            cells = ["0"] * len(keep)
            for j, w in zip(ids, ws):
                c = column[j]
                if c is not None:
                    cells[c] = f"{w:.10g}"
            lines.append(",".join([doc_id, *cells]))
    elif fmt == "coordinate-triplet":
        kept = set(keep)
        lines = [
            f"{doc_id},{vocabulary[j]},{w:.10g}"
            for doc_id, ids, ws in rows
            for j, w in zip(ids, ws)
            if j in kept
        ]
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out
