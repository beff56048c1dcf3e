"""Document frequencies, the three weighting schemes, key-term selection,
and ``replacing``, the writer of every file termsift writes.

Weights are defined over relative term frequency TF = f/total and
normalized document frequency DF = df/|D|:

    tfidf = TF * log(|D| / df)        (natural log by default)
    tfdf  = TF / DF
    tf2   = tfidf * tfdf

A term is a key term when its aggregated weight (max over documents by
default) clears the scheme's threshold.

The index holds one row per document: its term ids in ascending order and
their TF values, each row a flat ``array`` of C ints or doubles, and each
term's largest TF. A matrix stores no weight: it pairs the index with its
scheme's formula. Export computes each cell's weight from the index row it
reads, in (doc, term) order; ``max`` selection reads only each term's
largest TF, and ``mean`` selection every cell.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Container, Mapping
from contextlib import contextmanager, suppress
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from termsift.errors import EmptyCorpusError
from termsift.textprep import TermVector

SCHEMES = ("tfidf", "tfdf", "tf2")
AGGREGATIONS = ("max", "mean")
EXPORT_FORMATS = ("csv", "coordinate-triplet")


class CorpusIndex(NamedTuple):
    """Global vocabulary, document frequencies and one row per document.

    Row ``i`` is ``term_ids[i]``, the document's term ids in ascending
    order as an ``array('i')``, with ``tf[i]``, their relative frequencies
    ``f / total`` as an ``array('d')``: 4 and 8 bytes a cell, where a tuple
    of boxed floats takes about 32. ``max_tf[j]`` is the largest TF of term
    j over the rows, 0.0 for a term in none, also an ``array('d')``."""

    vocabulary: tuple[str, ...]
    doc_ids: tuple[str, ...]
    df: tuple[int, ...]  # documents containing each term id
    term_ids: tuple[array, ...]
    tf: tuple[array, ...]
    max_tf: array

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


class WeightMatrix(NamedTuple):
    """A scheme's weights over the index's populated cells, computed where
    they are read: ``weight(tf, j)`` is the weight of a cell of term j whose
    TF is ``tf``. No weight is stored."""

    scheme: str
    index: CorpusIndex
    weight: Callable[[float, int], float]

    @property
    def entries(self) -> Mapping[tuple[int, int], float]:
        """Read-only (doc index, term index) -> weight view of the populated
        cells, iterated in (doc, term) order."""
        return _Entries(self)


class _Entries(Mapping):
    __slots__ = ("_matrix",)

    def __init__(self, matrix: WeightMatrix):
        self._matrix = matrix

    def __len__(self) -> int:
        return sum(map(len, self._matrix.index.term_ids))

    def __getitem__(self, key: tuple[int, int]) -> float:
        i, j = key
        index = self._matrix.index
        if 0 <= i < index.doc_count:
            ids = index.term_ids[i]
            k = bisect_left(ids, j)
            if k < len(ids) and ids[k] == j:
                return self._matrix.weight(index.tf[i][k], j)
        raise KeyError(key)

    def __iter__(self):
        for i, ids in enumerate(self._matrix.index.term_ids):
            for j in ids:
                yield (i, j)


class KeyTermSet(NamedTuple):
    scheme: str
    threshold: float | None  # None for the joint (three-threshold) selection
    aggregation: str
    terms: frozenset[str]
    vocabulary_size: int

    @property
    def removed_pct(self) -> str:
        return removed_percentage(self.vocabulary_size - len(self.terms), self.vocabulary_size)


def removed_percentage(removed: int, vocabulary_size: int) -> str:
    """Percentage of removed terms, truncated (not rounded) to 2 decimals."""
    if vocabulary_size <= 0:
        return "0.00"
    hundredths = removed * 10000 // vocabulary_size
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def build_index(vectors: Sequence[TermVector], keep: Container[str] | None = None
                ) -> CorpusIndex:
    """Vocabulary (sorted), per-term document frequencies, the document rows
    and each term's largest TF.

    With ``keep``, only the terms in it are indexed. Each row's TF divides
    by the document's count of indexed terms."""
    if not vectors:
        raise EmptyCorpusError("cannot build an index from zero documents")
    df = Counter(chain.from_iterable(v.counts for v in vectors))
    # a term's df does not depend on the other terms, so restricting after counting is exact
    vocabulary = tuple(sorted(df if keep is None else [t for t in df if t in keep]))
    ids = {t: j for j, t in enumerate(vocabulary)}
    term_ids, tf = [], []
    # repeating one item makes no temporary V-double buffer, as bytes(8 * V)
    # would: that buffer raised a select's peak RSS by about 0.5 MB
    max_tf = array("d", [0.0]) * len(vocabulary)
    for v in vectors:
        # the vocabulary is sorted, so sorted terms give ascending ids
        counts = v.counts
        terms = sorted(counts) if keep is None else sorted([t for t in counts if t in ids])
        total = sum([counts[t] for t in terms])
        row = array("i", [ids[t] for t in terms])
        tfs = array("d", [counts[t] / total for t in terms])
        for j, x in zip(row, tfs):
            if x > max_tf[j]:
                max_tf[j] = x
        term_ids.append(row)
        tf.append(tfs)
    return CorpusIndex(
        vocabulary=vocabulary,
        doc_ids=tuple(v.doc_id for v in vectors),
        df=tuple(df[t] for t in vocabulary),
        term_ids=tuple(term_ids),
        tf=tuple(tf),
        max_tf=max_tf,
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
    """The scheme's weight of each populated (document, term) cell of ``index``."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weighting scheme {scheme!r}; expected one of {SCHEMES}")
    n, df = index.doc_count, index.df
    if scheme == "tfdf":
        return WeightMatrix(scheme, index, lambda tf, j: tf * n / df[j])
    idf = [math.log(n / d, log_base) for d in df]
    if scheme == "tfidf":
        return WeightMatrix(scheme, index, lambda tf, j: tf * idf[j])
    return WeightMatrix(scheme, index, lambda tf, j: (tf * idf[j]) * (tf * n / df[j]))


def select_key_terms(matrix: WeightMatrix, threshold: float, aggregation: str = "max") -> KeyTermSet:
    """Terms whose aggregated weight is >= threshold.

    ``max`` reads one weight a term, ``weight(index.max_tf[j], j)``, which is
    the largest of its cells only because ``matrix.weight`` does not decrease
    as TF grows. ``compute_matrix``'s formulas, at a log base above 1, only
    multiply and divide TF by non-negative factors, and IEEE rounding is
    monotone, so theirs never does. A term with no cell (df 0) is never kept.
    ``mean`` reads every cell."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    index, weight = matrix.index, matrix.weight
    if aggregation == "max":
        ids = [j for j, (tf, d) in enumerate(zip(index.max_tf, index.df))
               if d and weight(tf, j) >= threshold]
    elif aggregation == "mean":
        # each term's sum, from 0 with its weights added in document order, over
        # its df: a term has one cell in each document that holds it
        sums = [0.0] * len(index.vocabulary)
        for row, tfs in zip(index.term_ids, index.tf):
            for j, tf in zip(row, tfs):
                sums[j] += weight(tf, j)
        ids = {j for j, (total, d) in enumerate(zip(sums, index.df))
               if d and total / d >= threshold}
    else:
        raise ValueError(f"unknown aggregation {aggregation!r}; expected one of {AGGREGATIONS}")
    return KeyTermSet(
        scheme=matrix.scheme,
        threshold=threshold,
        aggregation=aggregation,
        terms=frozenset(index.vocabulary[j] for j in ids),
        vocabulary_size=len(index.vocabulary),
    )


def select_joint(key_terms: dict[str, KeyTermSet]) -> KeyTermSet:
    """Terms clearing all three per-scheme thresholds: the intersection of
    the per-scheme sets ``select_key_terms`` chose over one vocabulary."""
    if set(key_terms) != set(SCHEMES):
        raise ValueError(f"select_joint needs one key-term set per scheme {SCHEMES}")
    aggregations = {k.aggregation for k in key_terms.values()}
    if len(aggregations) != 1:
        raise ValueError("key-term sets were selected under different aggregations")
    sizes = {k.vocabulary_size for k in key_terms.values()}
    if len(sizes) != 1:
        raise ValueError("key-term sets were selected over different vocabularies")
    return KeyTermSet(
        scheme="joint",
        threshold=None,
        aggregation=aggregations.pop(),
        terms=frozenset.intersection(*(k.terms for k in key_terms.values())),
        vocabulary_size=sizes.pop(),
    )


def csv_field(value: str) -> str:
    """``value`` as one CSV field, quoted only when it must be."""
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@contextmanager
def replacing(out: Path, mode: str = "w", perms: int = 0o666):
    """A UTF-8 text ("w") or binary ("wb") file that becomes ``out`` only when
    the block completes: created as ``.<name>.<8 hex>.tmp`` beside ``out`` with
    ``perms`` (before the umask), renamed over ``out``, removed on any error."""
    tmp = out.with_name(f".{out.name}.{os.urandom(4).hex()}.tmp")
    # "x": never truncate a file this call did not make
    f = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8",
             opener=lambda path, flags: os.open(path, flags, perms))
    try:
        with f:
            yield f
        os.replace(tmp, out)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def export_matrix(
    matrix: WeightMatrix,
    path: str | Path,
    fmt: str = "csv",
    key_terms: KeyTermSet | None = None,
) -> Path:
    """Write the matrix as dense CSV or sparse ``doc_id,term,weight`` triplets.

    With ``key_terms`` the columns are restricted to the selected terms.
    Triplets are one line per kept cell, so a matrix with none is an empty file.
    Each written cell's weight is computed as it is written, and prints with
    10 significant digits, dot decimal separator. A
    document id holding a comma, double quote or line break is quoted the
    RFC 4180 way; terms are letters only, so they never need it.

    The file is written one document at a time to a temporary file beside
    ``path``, then renamed over it, so a failed export leaves whatever was
    at ``path`` before.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    out = Path(path)
    index, weight = matrix.index, matrix.weight
    vocabulary = index.vocabulary
    if key_terms is not None:
        keep = [j for j, t in enumerate(vocabulary) if t in key_terms.terms]
    else:
        keep = range(len(vocabulary))
    rows = zip(map(csv_field, index.doc_ids), index.term_ids, index.tf)
    with replacing(out) as f:
        if fmt == "csv":
            column: list[int | None] = [None] * len(vocabulary)
            for c, j in enumerate(keep):
                column[j] = c
            f.write(",".join(["doc_id", *(vocabulary[j] for j in keep)]) + "\n")
            zero_row = ",0" * len(keep) + "\n"  # the cells of a document with no kept term
            for doc_id, ids, tfs in rows:
                cells = None
                for j, tf in zip(ids, tfs):
                    c = column[j]
                    if c is not None:
                        if cells is None:
                            cells = ["0"] * len(keep)
                        cells[c] = f"{weight(tf, j):.10g}"
                f.write(doc_id + zero_row if cells is None
                        else ",".join([doc_id, *cells]) + "\n")
        else:
            kept: list[str | None] = [None] * len(vocabulary)  # each kept term at its id
            for j in keep:
                kept[j] = vocabulary[j]
            for doc_id, ids, tfs in rows:
                f.write("".join([f"{doc_id},{t},{weight(tf, j):.10g}\n"
                                 for j, tf in zip(ids, tfs) if (t := kept[j]) is not None]))
    return out
